//! Seeded inputs and the generator's time accounting.
//!
//! Everything a workload feeds the product — cluster and engine seeds,
//! payload bytes, who broadcasts next — is drawn from `--seed` here, so the
//! same seed gives the same inputs and the product sees only generated
//! inputs. [`Timeline`] is the per-operation clock record both the open-
//! and closed-loop generators fill.

use crate::stats;

/// SplitMix64: the ledger's own input stream (kept apart from the
/// product's RNGs so a product change cannot shift the inputs).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, domain-separated by `stream` so payload bytes,
    /// broadcaster order and product seeds never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`; modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Fills `buf` with the payload of broadcast `index`: the index (so every
/// payload is distinct) followed by seeded bytes.
pub fn fill_payload(rng: &mut Rng, index: u64, buf: &mut [u8]) {
    for chunk in buf.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    let head = buf.len().min(8);
    buf[..head].copy_from_slice(&index.to_le_bytes()[..head]);
}

/// FNV-1a, the ledger's content and order fingerprint.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a offset basis (the starting `hash` for [`fnv1a`]).
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Word-wise payload fingerprint (cheap enough to run on every delivery).
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = FNV_SEED ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
    }
    fnv1a(h, chunks.remainder())
}

/// Reads the broadcast index [`fill_payload`] put in the first 8 bytes.
pub fn payload_index(bytes: &[u8]) -> Option<u64> {
    bytes
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Marks "not yet" in a [`Timeline`] slot.
pub const PENDING: u64 = u64::MAX;

/// Per-operation clock record of one repetition, in nanoseconds since the
/// repetition's first timed operation was due.
///
/// * `due` — when the operation was *scheduled* (open loop: `i / rate`;
///   closed loop: the moment the generator issued it);
/// * `sent` — when the generator actually issued it;
/// * `done` — when its completion was observed ([`PENDING`] if never).
///
/// Latency is `done − due`, **not** `done − sent`: in an open loop a
/// stalled generator makes later operations late, and that wait is the
/// system's (or the harness's) to own, not to hide. How late the
/// generator ran (`sent − due`) is reported beside it.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Scheduled issue times.
    pub due: Vec<u64>,
    /// Actual issue times.
    pub sent: Vec<u64>,
    /// Observed completion times.
    pub done: Vec<u64>,
}

impl Timeline {
    /// Records operation `due.len()` as issued at `sent`, scheduled `due`.
    pub fn issue(&mut self, due: u64, sent: u64) {
        self.due.push(due);
        self.sent.push(sent);
        self.done.push(PENDING);
    }

    /// Records the first observed completion of operation `i`; later
    /// observations do not move it. Returns true when this was the first.
    pub fn complete(&mut self, i: usize, at: u64) -> bool {
        let first = self.done[i] == PENDING;
        if first {
            self.done[i] = at;
        }
        first
    }

    /// Operations issued so far.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Latencies (`done − due`) of completed operations, µs, ascending.
    pub fn latencies_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .due
            .iter()
            .zip(&self.done)
            .filter(|&(_, &done)| done != PENDING)
            .map(|(&due, &done)| done.saturating_sub(due) as f64 / 1e3)
            .collect();
        stats::sort(&mut v);
        v
    }

    /// How late each operation was issued (`sent − due`), µs, ascending.
    pub fn lateness_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .due
            .iter()
            .zip(&self.sent)
            .map(|(&due, &sent)| sent.saturating_sub(due) as f64 / 1e3)
            .collect();
        stats::sort(&mut v);
        v
    }

    /// Operations never observed complete.
    pub fn pending(&self) -> usize {
        self.done.iter().filter(|&&d| d == PENDING).count()
    }

    /// Completion time of the last completed operation (0 if none).
    pub fn last_done(&self) -> u64 {
        self.done
            .iter()
            .copied()
            .filter(|&d| d != PENDING)
            .max()
            .unwrap_or(0)
    }

    /// Longest gap between consecutive completions from time `from` on
    /// (the last completion before `from` opens the first gap), ns — the
    /// longest the system went without finishing anything.
    pub fn longest_stall(&self, from: u64) -> u64 {
        let mut done: Vec<u64> = self
            .done
            .iter()
            .copied()
            .filter(|&d| d != PENDING)
            .collect();
        done.sort_unstable();
        let first = done.partition_point(|&t| t < from).saturating_sub(1);
        done[first..]
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// Due time (ns) of operation `i` in an open loop at `rate` per second.
pub fn open_loop_due(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        let mut p = [0u8; 64];
        let mut q = [0u8; 64];
        fill_payload(&mut Rng::new(9, 3), 5, &mut p);
        fill_payload(&mut Rng::new(9, 3), 5, &mut q);
        assert_eq!(p, q);
        assert_eq!(&p[..8], &5u64.to_le_bytes());
        fill_payload(&mut Rng::new(9, 3), 6, &mut q);
        assert_ne!(p, q, "the index makes every payload distinct");
        assert_eq!((payload_index(&p), payload_index(&q)), (Some(5), Some(6)));
        assert_ne!(fingerprint(&p), fingerprint(&q));
        assert_eq!(payload_index(&p[..7]), None);
    }

    #[test]
    fn open_loop_schedule_is_evenly_spaced() {
        assert_eq!(open_loop_due(0, 4000.0), 0);
        assert_eq!(open_loop_due(1, 4000.0), 250_000);
        assert_eq!(open_loop_due(4000, 4000.0), 1_000_000_000);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // 1 kHz schedule, 100 µs service time, generator on time.
        let mut t = Timeline::default();
        for i in 0..10u64 {
            let due = open_loop_due(i, 1000.0);
            t.issue(due, due);
            t.complete(i as usize, due + 100_000);
        }
        assert_eq!(t.latencies_us(), vec![100.0; 10]);
        assert_eq!(t.lateness_us(), vec![0.0; 10]);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn stalled_generator_charges_the_wait_to_later_operations() {
        // 1 kHz schedule, 100 µs service. The generator stalls for 5 ms
        // before operation 3, then issues the backlog back to back.
        let mut t = Timeline::default();
        let service = 100_000;
        let mut clock = 0u64;
        for i in 0..10u64 {
            let due = open_loop_due(i, 1000.0);
            if i == 3 {
                clock += 5_000_000;
            }
            clock = clock.max(due);
            t.issue(due, clock);
            clock += service;
            t.complete(i as usize, clock);
        }
        let lat = t.latencies_us();
        let late = t.lateness_us();
        // Op 3 was due at 3 ms but sent at 7.1 ms (2 ms + 0.1 + 5 stall).
        assert_eq!(*late.last().unwrap(), 4100.0);
        // Its latency from *due* time includes the stall; from send time
        // it would have read 100 µs and hidden it.
        assert_eq!(*lat.last().unwrap(), 4200.0);
        // Ops 4..7 drain the backlog, each still late; op 8 is on time.
        assert_eq!(late.iter().filter(|&&l| l > 0.0).count(), 5);
        assert_eq!(lat.iter().filter(|&&l| l == 100.0).count(), 5);
        // First completion wins; a duplicate observation moves nothing.
        assert!(!t.complete(3, 0));
        assert_eq!(t.longest_stall(0), 5_000_000 + service);
        // Counted from after the stall, only the steady 100 µs.. 1 ms gaps remain.
        assert_eq!(t.longest_stall(7_300_000), 1_000_000);
    }

    #[test]
    fn pending_operations_are_excluded_from_latency_and_counted() {
        let mut t = Timeline::default();
        t.issue(0, 0);
        t.issue(10, 10);
        t.complete(0, 50);
        assert_eq!(t.latencies_us().len(), 1);
        assert_eq!(t.pending(), 1);
        assert_eq!(t.last_done(), 50);
        assert_eq!(t.longest_stall(0), 0);
    }
}
