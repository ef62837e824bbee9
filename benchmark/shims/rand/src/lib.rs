//! std-only stand-in for the part of `rand` 0.9 the rcm crates use:
//! the object-safe [`RngCore`] and [`SeedableRng::seed_from_u64`].

/// A source of random words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The full-width seed.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded with SplitMix64 so
    /// that nearby seeds give unrelated streams.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// One step of the SplitMix64 sequence (Steele, Lea & Flood 2014).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_published_vector() {
        // First outputs for state 1234567, from the reference C code.
        let mut s = 1234567u64;
        let got: Vec<u64> = (0..3).map(|_| splitmix64(&mut s)).collect();
        assert_eq!(got, [6457827717110365317, 3203168211198807973, 9817491932198370423]);
    }

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 += 1;
            self.0
        }
    }

    #[test]
    fn fill_bytes_covers_a_ragged_tail() {
        let mut buf = [0u8; 11];
        Counter(0).fill_bytes(&mut buf);
        assert_eq!(buf, [1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0]);
    }

    #[test]
    fn rng_core_is_object_safe_and_forwards_through_references() {
        let mut c = Counter(0);
        let r: &mut dyn RngCore = &mut c;
        assert_eq!(r.next_u64(), 1);
        let mut by_ref = &mut c;
        assert_eq!(RngCore::next_u64(&mut by_ref), 2);
    }
}
