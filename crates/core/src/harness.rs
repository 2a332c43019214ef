//! A tiny single-process driving harness for unit tests, doctests and
//! examples.
//!
//! [`StepHarness`] owns the RNG, the scripted failure-detector snapshot and
//! the reusable [`StepBuffers`] a [`urb_types::Context`] borrows, so a test
//! can feed a state machine one event at a time and inspect exactly what it
//! broadcast and delivered — no network, no scheduler. Every step goes
//! through [`drive_step`], the dispatch every node's step comes down to
//! in the simulator, the checker and the runtimes alike, so what a unit
//! test observes is what a deployment does.

use urb_types::{
    drive_step, AnonProcess, Delivery, FdSnapshot, Payload, SplitMix64, StepBuffers, StepInput,
    Tag, WireMessage,
};

/// Owns everything a protocol step needs, for driving one process by hand.
pub struct StepHarness {
    rng: SplitMix64,
    /// The failure-detector snapshot handed to the next step. Mutate freely
    /// between steps to script detector behaviour.
    pub fd: FdSnapshot,
    buf: StepBuffers,
    #[cfg(test)]
    outbox_history: Vec<WireMessage>,
    delivery_history: Vec<Delivery>,
}

impl StepHarness {
    /// New harness with a deterministic RNG seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        StepHarness {
            rng: SplitMix64::new(seed),
            fd: FdSnapshot::none(),
            buf: StepBuffers::new(),
            #[cfg(test)]
            outbox_history: Vec::new(),
            delivery_history: Vec::new(),
        }
    }

    /// Calls `URB_broadcast(payload)` on `proc` and returns the assigned tag
    /// together with everything the step emitted.
    pub fn broadcast(&mut self, proc: &mut dyn AnonProcess, payload: Payload) -> (Tag, StepOut) {
        let tag = self
            .step(proc, StepInput::Broadcast(payload))
            .expect("urb_broadcast assigns a tag");
        (tag, self.collect())
    }

    /// Feeds one received wire message to `proc`.
    pub fn receive(&mut self, proc: &mut dyn AnonProcess, msg: WireMessage) -> StepOut {
        self.step(proc, StepInput::Receive(msg));
        self.collect()
    }

    /// Runs one Task-1 sweep on `proc`.
    pub fn tick(&mut self, proc: &mut dyn AnonProcess) -> StepOut {
        self.step(proc, StepInput::Tick);
        self.collect()
    }

    fn step(&mut self, proc: &mut dyn AnonProcess, input: StepInput) -> Option<Tag> {
        drive_step(proc, input, &self.fd, &mut self.rng, &mut self.buf)
    }

    fn collect(&mut self) -> StepOut {
        #[cfg(test)]
        self.outbox_history.extend(self.buf.outbox.iter().cloned());
        self.delivery_history
            .extend(self.buf.deliveries.iter().cloned());
        StepOut {
            broadcasts: self.buf.outbox.clone(),
            deliveries: self.buf.deliveries.clone(),
        }
    }

    /// Every delivery since the harness was created.
    pub fn all_deliveries(&self) -> &[Delivery] {
        &self.delivery_history
    }
}

/// What one protocol step emitted.
#[derive(Clone, Debug, Default)]
pub struct StepOut {
    /// Messages pushed to the outbox by this step, in order.
    pub broadcasts: Vec<WireMessage>,
    /// Deliveries produced by this step, in order.
    pub deliveries: Vec<Delivery>,
}

impl StepOut {
    /// The ACK messages among this step's broadcasts.
    pub fn acks(&self) -> Vec<&WireMessage> {
        self.broadcasts
            .iter()
            .filter(|m| matches!(m, WireMessage::Ack { .. }))
            .collect()
    }

    /// The MSG messages among this step's broadcasts.
    pub fn msgs(&self) -> Vec<&WireMessage> {
        self.broadcasts
            .iter()
            .filter(|m| matches!(m, WireMessage::Msg { .. }))
            .collect()
    }

    /// True when nothing was broadcast and nothing delivered.
    pub fn is_silent(&self) -> bool {
        self.broadcasts.is_empty() && self.deliveries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MajorityUrb;

    impl StepHarness {
        /// Every message broadcast since the harness was created.
        fn all_broadcasts(&self) -> &[WireMessage] {
            &self.outbox_history
        }
    }

    #[test]
    fn harness_accumulates_history() {
        let mut h = StepHarness::new(1);
        let mut p = MajorityUrb::new(3);
        let (_, out) = h.broadcast(&mut p, Payload::from("x"));
        // urb_broadcast emits the initial MSG immediately (D7 note).
        assert_eq!(out.msgs().len(), 1);
        let _ = h.tick(&mut p);
        assert!(h.all_broadcasts().len() >= 2);
        assert!(h.all_deliveries().is_empty());
    }

    #[test]
    fn stepout_filters() {
        let out = StepOut::default();
        assert!(out.is_silent());
        assert!(out.acks().is_empty());
        assert!(out.msgs().is_empty());
    }
}
