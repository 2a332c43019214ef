//! # `urb-types`
//!
//! Foundation crate of the `anon-urb` workspace — the Rust reproduction of
//! Tang, Larrea, Arévalo and Jiménez, *"Implementing Uniform Reliable
//! Broadcast in Anonymous Distributed Systems with Fair Lossy Channels"*
//! (IPPS 2015).
//!
//! This crate defines everything the protocol layer, the failure detectors,
//! the simulator and the threaded runtime need to agree on:
//!
//! * [`ids`] — the random identifiers of the paper: [`ids::Tag`] (one per
//!   URB-broadcast message), [`ids::TagAck`] (one per acknowledgment, i.e.
//!   the anonymous stand-in for a process identity) and [`ids::Label`]
//!   (the temporary process identifier exposed by the anonymous failure
//!   detectors `AΘ` and `AP*`).
//! * [`payload`] — cheaply clonable application payloads.
//! * [`wire`] — the wire messages `MSG`, `ACK` and `HEARTBEAT` and the
//!   one frame type that carries them ([`wire::MuxBatch`]), with a compact
//!   hand-rolled binary codec.
//! * [`pool`] — recycled frame buffers and entry vectors
//!   ([`pool::BufPool`], [`pool::MuxPool`]) for the zero-copy frame
//!   plane (DESIGN.md §10).
//! * [`fd`] — the read-only `(label, number)` views output by `AΘ`/`AP*`.
//! * [`protocol`] — the sans-io [`protocol::AnonProcess`] trait implemented
//!   by every algorithm in `urb-core`, plus the [`protocol::Context`]
//!   handed to each protocol step.
//! * [`rng`] — a small deterministic PRNG family (SplitMix64 and
//!   xoshiro256++) so that simulations are bit-reproducible.
//!
//! None of the protocol-facing types expose process identities or global
//! time: anonymity is enforced by construction, exactly as in the paper's
//! model (§II).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fd;
pub mod ids;
pub mod payload;
pub mod pool;
pub mod protocol;
pub mod rng;
pub mod snapshot;
pub mod wire;

pub use fd::{FdPair, FdSnapshot, FdView};
pub use ids::{Label, LabelSet, Tag, TagAck, TopicId};
pub use payload::Payload;
pub use pool::{BufPool, MuxPool, PoolStats, PooledBuf};
pub use protocol::{
    AnonProcess, CompactionReport, Context, Delivery, MemoryConfig, ProcessStats, SpillPolicy,
};
pub use rng::{RandomSource, SplitMix64, Xoshiro256};
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
pub use wire::{
    encode_mux_frame_into, encode_mux_frame_with_controls_into, CodecError, MuxBatch, TopicControl,
    WireKind, WireMessage,
};
