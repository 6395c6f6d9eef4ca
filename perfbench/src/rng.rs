//! Seed derivation. The benchmark derives every instance seed, event
//! choice and network seed from the `--seed` argument through this
//! mixer, so one seed always yields the same inputs.

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of stream `stream`, item `index`, under the run seed `seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ index)
}

/// A small deterministic generator for event choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
