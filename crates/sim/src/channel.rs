//! Fair-lossy channel models (paper §II).
//!
//! A channel is *fair lossy* when it satisfies:
//!
//! * **Fairness** — if `p` sends `m` to `q` infinitely often and `q` is
//!   correct, `q` eventually receives `m`;
//! * **Uniform Integrity** — messages are neither created nor duplicated
//!   (every reception has a matching earlier send, and infinitely many
//!   receptions require infinitely many sends).
//!
//! Uniform Integrity holds by construction: the simulator only ever delivers
//! what was sent, at most once per send. Fairness comes in two flavours:
//!
//! * probabilistic — [`LossModel::Bernoulli`] / [`LossModel::Burst`] lose
//!   each transmission independently / in bursts; an infinitely retransmitted
//!   message gets through with probability 1, so fairness holds almost
//!   surely (fine for long-horizon statistical experiments);
//! * deterministic — [`LossModel::BoundedBernoulli`] additionally **caps
//!   consecutive drops of the same logical message** on a channel
//!   (keyed by [`WireMessage::retransmit_key`]), turning "eventually" into a
//!   hard bound so that finite runs can *prove* fairness-dependent claims.
//!
//! [`LossModel::Always`] models a severed link — used by the Theorem-2
//! partition adversary, where every message from the doomed majority to the
//! surviving minority is lost (legal under fair-lossy semantics because the
//! senders crash and therefore stop retransmitting: "sent an arbitrary but
//! finite number of times" carries no delivery guarantee).

use std::collections::HashMap;
use urb_types::{RandomSource, TopicId, WireMessage, Xoshiro256};

/// Per-transmission loss behaviour of a directed channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossModel {
    /// Reliable: nothing is ever lost.
    None,
    /// Each transmission lost independently with probability `p`.
    Bernoulli {
        /// Loss probability per transmission.
        p: f64,
    },
    /// Bernoulli, but at most `max_consecutive` successive losses of the
    /// same logical message per channel — deterministic fairness.
    BoundedBernoulli {
        /// Loss probability per transmission.
        p: f64,
        /// Hard cap on consecutive drops per retransmission identity.
        max_consecutive: u32,
    },
    /// Gilbert–Elliott bursts: the channel alternates between a good state
    /// (no loss) and a bad state (loss with probability `p_loss`).
    Burst {
        /// Probability per transmission of entering the bad state.
        p_enter: f64,
        /// Probability per transmission of leaving the bad state.
        p_exit: f64,
        /// Loss probability while in the bad state.
        p_loss: f64,
    },
    /// Severed link: everything is lost (partition adversary).
    Always,
}

impl LossModel {
    /// Rough long-run loss fraction (used only for labelling experiments).
    pub fn nominal_loss(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } | LossModel::BoundedBernoulli { p, .. } => *p,
            LossModel::Burst {
                p_enter,
                p_exit,
                p_loss,
            } => {
                let stationary_bad = p_enter / (p_enter + p_exit).max(f64::MIN_POSITIVE);
                stationary_bad * p_loss
            }
            LossModel::Always => 1.0,
        }
    }
}

/// Per-transmission delay of a directed channel, in ticks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayModel {
    /// Fixed delay.
    Constant(u64),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Minimum delay (≥ 1 enforced at draw time).
        min: u64,
        /// Maximum delay.
        max: u64,
    },
    /// `base` plus a geometric tail: each extra tick added with probability
    /// `p_more` (models occasional stragglers — asynchrony's "no bound").
    GeometricTail {
        /// Base delay.
        base: u64,
        /// Probability of each additional tick.
        p_more: f64,
        /// Hard cap so runs terminate.
        cap: u64,
    },
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::Uniform { min: 1, max: 8 }
    }
}

/// State of one directed channel `p → q`.
#[derive(Debug)]
pub struct Channel {
    loss: LossModel,
    delay: DelayModel,
    rng: Xoshiro256,
    /// Consecutive-drop counters per retransmission identity
    /// (`BoundedBernoulli` only).
    consecutive: HashMap<u64, u32>,
    /// Gilbert–Elliott bad-state flag (`Burst` only).
    in_burst: bool,
    /// Counters the unit tests read.
    #[cfg(test)]
    sent: u64,
    #[cfg(test)]
    dropped: u64,
}

impl Channel {
    /// New channel with its own RNG stream.
    pub fn new(loss: LossModel, delay: DelayModel, rng: Xoshiro256) -> Self {
        Channel {
            loss,
            delay,
            rng,
            consecutive: HashMap::new(),
            in_burst: false,
            #[cfg(test)]
            sent: 0,
            #[cfg(test)]
            dropped: 0,
        }
    }

    /// Decides the fates of the entries of one multiplexed frame:
    /// `verdicts[i]` is `true` when `entries[i]` survives this channel.
    /// Loss is decided **per message**, each member's fairness identity
    /// being its own [`WireMessage::retransmit_key`] decorrelated per
    /// topic via [`TopicId::mix`] (topic 0 mixes to the bare key, so
    /// single-topic runs draw the RNG stream they always drew) — the
    /// fairness bookkeeping and the `BoundedBernoulli` hard cap are
    /// identical to sending the messages one by one. Returns the single
    /// arrival delay shared by the surviving sub-batch (`None` when
    /// nothing survived): a frame's members arrive together.
    pub fn transmit_entries(
        &mut self,
        entries: &[(TopicId, WireMessage)],
        verdicts: &mut Vec<bool>,
    ) -> Option<u64> {
        verdicts.clear();
        let mut any = false;
        for (topic, msg) in entries {
            let lost = self.decide_loss(|| topic.mix(msg.retransmit_key()));
            #[cfg(test)]
            {
                self.sent += 1;
                self.dropped += u64::from(lost);
            }
            any |= !lost;
            verdicts.push(!lost);
        }
        if any {
            Some(self.draw_delay())
        } else {
            None
        }
    }

    /// One loss decision; `key` supplies the fairness identity lazily (it
    /// is only evaluated — and only matters — under `BoundedBernoulli`).
    fn decide_loss(&mut self, key: impl FnOnce() -> u64) -> bool {
        match self.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => self.rng.gen_bool(p),
            LossModel::BoundedBernoulli { p, max_consecutive } => {
                let key = key();
                let run = self.consecutive.entry(key).or_insert(0);
                if *run >= max_consecutive {
                    *run = 0;
                    false // fairness: forced through
                } else if self.rng.gen_bool(p) {
                    *run += 1;
                    true
                } else {
                    *run = 0;
                    false
                }
            }
            LossModel::Burst {
                p_enter,
                p_exit,
                p_loss,
            } => {
                if self.in_burst {
                    if self.rng.gen_bool(p_exit) {
                        self.in_burst = false;
                    }
                } else if self.rng.gen_bool(p_enter) {
                    self.in_burst = true;
                }
                self.in_burst && self.rng.gen_bool(p_loss)
            }
            LossModel::Always => true,
        }
    }

    fn draw_delay(&mut self) -> u64 {
        match self.delay {
            DelayModel::Constant(d) => d.max(1),
            DelayModel::Uniform { min, max } => {
                let lo = min.max(1);
                let hi = max.max(lo);
                lo + self.rng.gen_range(hi - lo + 1)
            }
            DelayModel::GeometricTail { base, p_more, cap } => {
                let mut d = base.max(1);
                while d < cap && self.rng.gen_bool(p_more) {
                    d += 1;
                }
                d
            }
        }
    }
}

/// The full `n × n` mesh of directed channels (self-channel included: the
/// paper's `broadcast` primitive sends to all processes *including the
/// sender*, and that echo matters — it is how a sender ACKs its own
/// message).
#[derive(Debug)]
pub struct ChannelMatrix {
    n: usize,
    channels: Vec<Channel>,
}

impl ChannelMatrix {
    /// All channels share the same loss/delay models (each with an
    /// independent RNG stream split from `rng`).
    pub fn uniform(n: usize, loss: LossModel, delay: DelayModel, rng: &Xoshiro256) -> Self {
        let mut channels = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                let idx = (from * n + to) as u64;
                let link_rng = rng.split(0x1000 + idx);
                // Self-channels never lose: a process's loopback is its own
                // memory, and the paper's fairness argument treats the echo
                // as immediate. (Loss on the loopback would model a process
                // forgetting its own state, which is outside the model.)
                let model = if from == to { LossModel::None } else { loss };
                channels.push(Channel::new(model, delay, link_rng));
            }
        }
        ChannelMatrix { n, channels }
    }

    /// Overrides the loss model of specific directed links (used by the
    /// Theorem-2 partition adversary).
    pub fn override_links(&mut self, links: &[(usize, usize)], loss: LossModel) {
        for &(from, to) in links {
            let idx = from * self.n + to;
            self.channels[idx].loss = loss;
        }
    }

    /// Overrides the delay model of one directed link (used by the
    /// `targeted-delay` adversary of the scenario plane: straggler links
    /// whose copies arrive long after the rest of the mesh).
    pub fn override_delay(&mut self, from: usize, to: usize, delay: DelayModel) {
        self.channels[from * self.n + to].delay = delay;
    }

    /// The channel `from → to`.
    pub fn link_mut(&mut self, from: usize, to: usize) -> &mut Channel {
        &mut self.channels[from * self.n + to]
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_types::{Payload, Tag};

    impl Channel {
        /// Transmissions attempted on this channel.
        fn sent(&self) -> u64 {
            self.sent
        }

        /// Transmissions dropped by this channel.
        fn dropped(&self) -> u64 {
            self.dropped
        }
    }

    impl ChannelMatrix {
        /// Total transmissions attempted across all links.
        fn total_sent(&self) -> u64 {
            self.channels.iter().map(|c| c.sent()).sum()
        }

        /// Total transmissions dropped across all links.
        fn total_dropped(&self) -> u64 {
            self.channels.iter().map(|c| c.dropped()).sum()
        }
    }

    fn msg(tag: u128) -> WireMessage {
        WireMessage::Msg {
            tag: Tag(tag),
            payload: Payload::from("m"),
        }
    }

    fn channel(loss: LossModel) -> Channel {
        Channel::new(loss, DelayModel::Constant(3), Xoshiro256::new(42))
    }

    /// One single-message frame on topic 0: its arrival delay, or `None`
    /// when the channel lost it.
    fn send(c: &mut Channel, m: &WireMessage) -> Option<u64> {
        c.transmit_entries(&[(TopicId::ZERO, m.clone())], &mut Vec::new())
    }

    fn frame(tags: impl IntoIterator<Item = u128>) -> Vec<(TopicId, WireMessage)> {
        tags.into_iter().map(|t| (TopicId::ZERO, msg(t))).collect()
    }

    #[test]
    fn reliable_channel_never_drops() {
        let mut c = channel(LossModel::None);
        for i in 0..1000 {
            assert_eq!(send(&mut c, &msg(i)), Some(3));
        }
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.sent(), 1000);
    }

    #[test]
    fn severed_channel_drops_everything() {
        let mut c = channel(LossModel::Always);
        for i in 0..100 {
            assert_eq!(send(&mut c, &msg(i)), None);
        }
        assert_eq!(c.dropped(), 100);
    }

    #[test]
    fn bernoulli_loss_rate_roughly_p() {
        let mut c = channel(LossModel::Bernoulli { p: 0.3 });
        for i in 0..20_000 {
            let _ = send(&mut c, &msg(i % 7));
        }
        let rate = c.dropped() as f64 / c.sent() as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn bounded_bernoulli_enforces_fairness_cap() {
        // Even at p = 0.99, the same message can be dropped at most
        // `max_consecutive` times in a row.
        let mut c = channel(LossModel::BoundedBernoulli {
            p: 0.99,
            max_consecutive: 4,
        });
        let m = msg(1);
        let mut consecutive = 0u32;
        let mut max_run = 0u32;
        for _ in 0..5_000 {
            match send(&mut c, &m) {
                None => {
                    consecutive += 1;
                    max_run = max_run.max(consecutive);
                }
                Some(_) => consecutive = 0,
            }
        }
        assert!(max_run <= 4, "fairness cap violated: run of {max_run}");
    }

    #[test]
    fn bounded_bernoulli_tracks_messages_independently() {
        let mut c = channel(LossModel::BoundedBernoulli {
            p: 1.0,
            max_consecutive: 2,
        });
        // Alternate two messages: each has its own drop-run counter, so each
        // gets forced through on its own 3rd transmission.
        let (a, b) = (msg(1), msg(2));
        let mut delivered_a = 0;
        let mut delivered_b = 0;
        for _ in 0..6 {
            if send(&mut c, &a).is_some() {
                delivered_a += 1;
            }
            if send(&mut c, &b).is_some() {
                delivered_b += 1;
            }
        }
        assert_eq!(delivered_a, 2, "every 3rd transmission forced through");
        assert_eq!(delivered_b, 2);
    }

    #[test]
    fn transmit_batch_decides_per_message_and_shares_delay() {
        let mut c = channel(LossModel::Bernoulli { p: 0.5 });
        let msgs = frame(0..64);
        let mut verdicts = Vec::new();
        let delay = c.transmit_entries(&msgs, &mut verdicts);
        assert_eq!(verdicts.len(), 64);
        let survived = verdicts.iter().filter(|&&v| v).count();
        assert!(
            survived > 0 && survived < 64,
            "per-message loss: {survived}/64"
        );
        assert_eq!(delay, Some(3), "one shared delay for the sub-batch");
        assert_eq!(c.sent(), 64);
        assert_eq!(c.dropped(), 64 - survived as u64);
    }

    #[test]
    fn transmit_batch_respects_bounded_fairness_per_message() {
        // Under p=1.0 with cap 2, each message is forced through on its own
        // 3rd transmission even when always sent inside batches.
        let mut c = channel(LossModel::BoundedBernoulli {
            p: 1.0,
            max_consecutive: 2,
        });
        let msgs = frame([1, 2]);
        let mut verdicts = Vec::new();
        let mut per_msg_deliveries = [0u32; 2];
        for _ in 0..6 {
            let delay = c.transmit_entries(&msgs, &mut verdicts);
            for (i, &ok) in verdicts.iter().enumerate() {
                if ok {
                    per_msg_deliveries[i] += 1;
                }
            }
            if verdicts.iter().any(|&v| v) {
                assert!(delay.is_some());
            } else {
                assert_eq!(delay, None);
            }
        }
        assert_eq!(per_msg_deliveries, [2, 2], "every 3rd transmission forced");
    }

    #[test]
    fn transmit_batch_total_loss_returns_no_delay() {
        let mut c = channel(LossModel::Always);
        let mut verdicts = Vec::new();
        assert_eq!(c.transmit_entries(&frame([1, 2]), &mut verdicts), None);
        assert_eq!(verdicts, vec![false, false]);
        assert_eq!(c.dropped(), 2);
    }

    #[test]
    fn burst_model_produces_clustered_losses() {
        let mut c = channel(LossModel::Burst {
            p_enter: 0.02,
            p_exit: 0.2,
            p_loss: 0.9,
        });
        let mut drops = 0;
        for i in 0..50_000 {
            if send(&mut c, &msg(i)).is_none() {
                drops += 1;
            }
        }
        let rate = drops as f64 / 50_000.0;
        let nominal = c.loss.nominal_loss();
        assert!(
            (rate - nominal).abs() < 0.05,
            "burst rate {rate} vs nominal {nominal}"
        );
    }

    #[test]
    fn delay_models_respect_bounds() {
        let mut c = Channel::new(
            LossModel::None,
            DelayModel::Uniform { min: 2, max: 9 },
            Xoshiro256::new(7),
        );
        for i in 0..2_000 {
            let delay = send(&mut c, &msg(i)).expect("reliable channel");
            assert!((2..=9).contains(&delay));
        }
        let mut g = Channel::new(
            LossModel::None,
            DelayModel::GeometricTail {
                base: 1,
                p_more: 0.5,
                cap: 20,
            },
            Xoshiro256::new(8),
        );
        for i in 0..2_000 {
            let delay = send(&mut g, &msg(i)).expect("reliable channel");
            assert!((1..=20).contains(&delay));
        }
    }

    #[test]
    fn zero_delay_is_clamped_to_one() {
        // A zero-latency delivery would mean "receive before send completes";
        // the queue needs strictly positive delays for causality.
        let mut c = Channel::new(LossModel::None, DelayModel::Constant(0), Xoshiro256::new(9));
        assert_eq!(send(&mut c, &msg(0)), Some(1));
    }

    #[test]
    fn matrix_self_channels_are_reliable() {
        let rng = Xoshiro256::new(1);
        let mut m = ChannelMatrix::uniform(4, LossModel::Always, DelayModel::default(), &rng);
        for i in 0..4 {
            assert!(send(m.link_mut(i, i), &msg(1)).is_some());
        }
        // Cross links severed as configured.
        assert_eq!(send(m.link_mut(0, 1), &msg(1)), None);
    }

    #[test]
    fn matrix_override_links() {
        let rng = Xoshiro256::new(2);
        let mut m = ChannelMatrix::uniform(3, LossModel::None, DelayModel::default(), &rng);
        m.override_links(&[(0, 1), (0, 2)], LossModel::Always);
        assert_eq!(send(m.link_mut(0, 1), &msg(1)), None);
        assert_eq!(send(m.link_mut(0, 2), &msg(1)), None);
        assert!(send(m.link_mut(1, 0), &msg(1)).is_some());
    }

    #[test]
    fn matrix_override_delay_is_per_link() {
        let rng = Xoshiro256::new(4);
        let mut m = ChannelMatrix::uniform(3, LossModel::None, DelayModel::Constant(2), &rng);
        m.override_delay(0, 1, DelayModel::Constant(40));
        assert_eq!(send(m.link_mut(0, 1), &msg(1)), Some(40));
        assert_eq!(
            send(m.link_mut(1, 0), &msg(1)),
            Some(2),
            "reverse direction keeps the mesh delay"
        );
    }

    #[test]
    fn matrix_counters_aggregate() {
        let rng = Xoshiro256::new(3);
        let mut m = ChannelMatrix::uniform(2, LossModel::Always, DelayModel::default(), &rng);
        let _ = send(m.link_mut(0, 1), &msg(1));
        let _ = send(m.link_mut(1, 0), &msg(1));
        let _ = send(m.link_mut(0, 0), &msg(1));
        assert_eq!(m.total_sent(), 3);
        assert_eq!(m.total_dropped(), 2);
    }

    #[test]
    fn nominal_loss_labels() {
        assert_eq!(LossModel::None.nominal_loss(), 0.0);
        assert_eq!(LossModel::Always.nominal_loss(), 1.0);
        assert_eq!(LossModel::Bernoulli { p: 0.25 }.nominal_loss(), 0.25);
    }
}
