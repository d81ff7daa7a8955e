//! Concrete generators: xoshiro256** behind both [`StdRng`] and
//! [`SmallRng`] names. Statistical quality is ample for test-data
//! generation, and the implementation is dependency-free.

use crate::{RngCore, SeedableRng};

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
#[derive(Clone, Debug)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    fn from_seed_u64(seed: u64) -> Self {
        // SplitMix64 expansion, the seeding recipe the xoshiro authors
        // recommend; guarantees a nonzero state for any seed.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }
}

impl RngCore for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

impl SeedableRng for Xoshiro256StarStar {
    fn seed_from_u64(state: u64) -> Self {
        Self::from_seed_u64(state)
    }
}

/// The workspace's standard generator.
pub type StdRng = Xoshiro256StarStar;

/// Alias for call sites that ask for a small/fast generator.
pub type SmallRng = Xoshiro256StarStar;
