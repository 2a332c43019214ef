//! Real-socket transport for the runtime (DESIGN.md §13).
//!
//! The threaded runtime's nodes fan encoded [`urb_types::MuxBatch`]
//! frames out to each other over in-process channels;
//! this module moves the **same frames** over TCP instead, behind the
//! same `NodeInput::Net(Bytes)` boundary, so nothing above the transport
//! — engine, protocols, codec — changes when the cluster becomes N OS
//! processes on real sockets.
//!
//! Pieces:
//!
//! * [`framing`] — length-prefixed stream framing and read-side
//!   reassembly across arbitrary `read(2)` boundaries, with typed
//!   corruption errors;
//! * [`TcpMesh`] — one node's socket plane: a listener accepting
//!   anonymous inbound streams (receivers cannot learn who sent a frame,
//!   matching the paper's model), plus one outbound writer per peer with
//!   a bounded queue (backpressure drops, counted — a full queue behaves
//!   exactly like the fair-lossy channel the protocols already tolerate)
//!   and dial/redial with capped exponential backoff.
//!
//! The [`crate::daemon`] module composes a mesh with a
//! [`urb_engine::TopicEngine`] into the `urb node` process.

pub mod framing;
mod tcp;

pub use framing::{write_stream_frame, FrameReassembler, FrameStreamError, MAX_FRAME_LEN};
pub use tcp::{MeshConfig, NetStats, TcpMesh};

use std::fmt;

/// Errors establishing a node's socket plane. Everything here is a
/// configuration/environment failure (exit code 2 at the CLI), never a
/// runtime network condition — those are absorbed by retry and loss
/// tolerance.
#[derive(Debug)]
pub enum NetError {
    /// The listen address could not be bound (bad address or port in use).
    Bind {
        /// The address we tried to listen on.
        addr: String,
        /// The OS error text.
        reason: String,
    },
    /// A peer address did not parse/resolve.
    Addr {
        /// The offending address string.
        addr: String,
        /// The resolution error text.
        reason: String,
    },
    /// The node configuration is inconsistent (id out of range, wrong
    /// peer count, …).
    Config(String),
    /// The durable state directory could not be read or written
    /// (see [`crate::state::StateError`]).
    State(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Bind { addr, reason } => write!(f, "cannot listen on {addr}: {reason}"),
            NetError::Addr { addr, reason } => write!(f, "bad peer address {addr:?}: {reason}"),
            NetError::Config(msg) => write!(f, "invalid node config: {msg}"),
            NetError::State(msg) => write!(f, "durable state: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}
