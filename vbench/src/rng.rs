//! A small deterministic generator (splitmix64), so streams depend on the
//! seed alone and never on a registry crate's algorithm choices.

/// Seeded splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `salt` separates independent sub-streams.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform value in `[lo, hi)` on a 1e-6 lattice, so the decimal
    /// spelling on the wire parses back to the same `f64`.
    pub fn knob(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 1e6).round() as u64;
        let k = self.next_u64() % steps.max(1);
        ((lo * 1e6).round() + k as f64) / 1e6
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
