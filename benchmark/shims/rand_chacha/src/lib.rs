//! std-only stand-in for `rand_chacha`: a seedable, clonable generator
//! under the name the rcm crates import. The stream is xoshiro256**
//! (Blackman & Vigna 2018), not ChaCha: loss scripts drawn from it are
//! reproducible per seed but differ from a registry build's.

use rand::{RngCore, SeedableRng};

/// Seedable generator with a 256-bit state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    s: [u64; 4],
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (word, bytes) in s.iter_mut().zip(seed.chunks_exact(8)) {
            *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        if s == [0; 4] {
            // The all-zero state is xoshiro's one fixed point.
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        ChaCha8Rng { s }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_matches_the_reference_vector() {
        // State {1,2,3,4}, first outputs of the reference C code.
        let mut seed = [0u8; 32];
        for (i, w) in [1u64, 2, 3, 4].iter().enumerate() {
            seed[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        let mut rng = ChaCha8Rng::from_seed(seed);
        let got: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(got, [11520, 0, 1509978240]);
    }

    #[test]
    fn same_seed_same_stream_and_clone_continues_it() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let mut c = a.clone();
        assert_eq!(a.next_u64(), c.next_u64());
        let mut d = ChaCha8Rng::seed_from_u64(8);
        assert_ne!(ChaCha8Rng::seed_from_u64(7).next_u64(), d.next_u64());
    }

    #[test]
    fn uniform_draws_have_the_right_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn zero_seed_does_not_stick() {
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        assert_ne!(rng.next_u64(), rng.next_u64());
    }
}
