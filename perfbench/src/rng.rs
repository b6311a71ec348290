//! SplitMix64: the benchmark's own seeded stream, so its inputs depend
//! only on `--seed` and never on the program under test.

pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A child seed for stream `stream` of `seed`.
    pub fn derive(seed: u64, stream: u64) -> u64 {
        SplitMix::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)).next()
    }
}
