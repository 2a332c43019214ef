//! One protocol step: what every driver's step comes down to — through
//! `urb_engine`'s node, or directly in `urb_core`'s test harness.

use crate::{AnonProcess, Context, Delivery, FdSnapshot, Payload, RandomSource, Tag, WireMessage};

/// One input to a protocol step — the three entry points of the paper's
/// pseudocode.
#[derive(Clone, Debug)]
pub enum StepInput {
    /// One Task-1 sweep (the `repeat forever` body).
    Tick,
    /// One incoming wire message (`receive_i`).
    Receive(WireMessage),
    /// An application-level `URB_broadcast(payload)` invocation.
    Broadcast(Payload),
}

/// Reusable buffers one protocol step fills; [`drive_step`] clears them
/// first, so after the call they hold exactly what *this* step emitted.
#[derive(Debug, Default)]
pub struct StepBuffers {
    /// Messages the step broadcast (the paper's `broadcast_i`), in order.
    pub outbox: Vec<WireMessage>,
    /// URB-deliveries the step produced, in order.
    pub deliveries: Vec<Delivery>,
}

impl StepBuffers {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        StepBuffers::default()
    }
}

/// Executes one protocol step.
///
/// Clears `buf`, builds the paper-shaped [`Context`] over it, dispatches
/// `input` to the matching [`AnonProcess`] entry point and returns the
/// assigned [`Tag`] for broadcast inputs (`None` otherwise). The caller
/// supplies the [`FdSnapshot`] taken immediately before the step — the
/// paper's read-only detector variable semantics — because *where* the
/// snapshot comes from is the one genuinely backend-specific part of the
/// cycle.
pub fn drive_step(
    proc: &mut dyn AnonProcess,
    input: StepInput,
    fd: &FdSnapshot,
    rng: &mut dyn RandomSource,
    buf: &mut StepBuffers,
) -> Option<Tag> {
    buf.outbox.clear();
    buf.deliveries.clear();
    let mut ctx = Context::new(rng, fd, &mut buf.outbox, &mut buf.deliveries);
    match input {
        StepInput::Tick => {
            proc.on_tick(&mut ctx);
            None
        }
        StepInput::Receive(msg) => {
            proc.on_receive(msg, &mut ctx);
            None
        }
        StepInput::Broadcast(payload) => Some(proc.urb_broadcast(payload, &mut ctx)),
    }
}
