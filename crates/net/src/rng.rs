//! The workspace's one seedable generator.

/// xoshiro256** (Blackman & Vigna 2018), seeded from a `u64` through
/// SplitMix64 so that nearby seeds give unrelated streams.
///
/// Every loss script, delay draw and workload value in the workspace
/// comes from this stream, and the committed experiment tables depend
/// on it bit for bit: the tests below pin it against both published
/// reference vectors and against its own first outputs.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Builds the generator from a seed.
    pub fn seed_from_u64(mut seed: u64) -> Self {
        // Four successive SplitMix64 outputs are never all zero
        // (xoshiro's one fixed point): the output function is a
        // bijection of a state that changes every step.
        Rng { s: std::array::from_fn(|_| splitmix64(&mut seed)) }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

/// One step of the SplitMix64 sequence (Steele, Lea & Flood 2014).
fn splitmix64(state: &mut u64) -> u64 {
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
    fn xoshiro_matches_the_published_vector() {
        // State {1,2,3,4}, first outputs of the reference C code.
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(got, [11520, 0, 1509978240]);
    }

    #[test]
    fn splitmix64_matches_the_published_vector() {
        // First outputs for state 1234567, from the reference C code.
        let mut s = 1234567u64;
        let got: Vec<u64> = (0..3).map(|_| splitmix64(&mut s)).collect();
        assert_eq!(got, [6457827717110365317, 3203168211198807973, 9817491932198370423]);
    }

    #[test]
    fn seed_7_draws_the_stream_the_experiment_tables_were_made_from() {
        // Recorded from the generator every seeded run here has used; a
        // change to these four words re-draws every loss script.
        let mut rng = Rng::seed_from_u64(7);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [12923355070828475994, 5142052590334782674, 15488392906492639638, 18098058644649177664]
        );
    }

    #[test]
    fn same_seed_same_stream_and_clone_continues_it() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let mut c = a.clone();
        assert_eq!(a.next_u64(), c.next_u64());
        assert_ne!(Rng::seed_from_u64(7).next_u64(), Rng::seed_from_u64(8).next_u64());
    }
}
