//! The benchmark's own seeded generator (SplitMix64), so that op streams depend on
//! the seed alone and not on the engine's vendored `rand`.

#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0DE5_0001)
    }

    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn derive(seed: u64, tag: u64) -> Rng {
        let mut r = Rng::new(seed);
        r.0 ^= tag.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}
