//! The workspace's one seedable generator, and the seeded-case runner
//! every property suite draws its inputs through.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

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

    /// A draw uniform in `0..n`, from the high bits of one word.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0): an empty range has nothing to draw");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// One element of `from`, each equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `from` is empty.
    pub fn pick<'a, T>(&mut self, from: &'a [T]) -> &'a T {
        &from[self.below(from.len())]
    }

    /// A draw uniform in `[0, 1)`, from the top 53 bits of one word.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Checks a property on `n` seeded cases and shrinks a failure by
/// halving its size.
///
/// Case `i` runs `check(&mut rng, max_size)`, with `rng` seeded from
/// `name` and `i` alone: every run draws the same cases. `check` caps
/// each collection length and recursion depth it draws by its `size`
/// argument, so a smaller size is a smaller input. When a case panics,
/// it is run again from the same seed at half the size, and again while
/// it still fails. Then `cases` panics with one line: the name, the
/// case, its seed, the smallest size that failed and that run's own
/// message. `check(&mut Rng::seed_from_u64(seed), size)` replays it.
#[track_caller]
// analyze: allow(reach): the seeded property suites under every crate's tests/ run through it
pub fn cases(name: &str, n: u32, max_size: usize, mut check: impl FnMut(&mut Rng, usize)) {
    // FNV-1a: the same name gives the same seeds on every platform.
    let base = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    for case in 0..n {
        let seed = base.wrapping_add(u64::from(case));
        let mut failure = |size| {
            let run = AssertUnwindSafe(|| check(&mut Rng::seed_from_u64(seed), size));
            panic::catch_unwind(run).err().map(|payload| one_line(&*payload))
        };
        let Some(mut message) = failure(max_size) else { continue };
        let mut size = max_size;
        while size > 0 {
            let Some(smaller) = failure(size / 2) else { break };
            (message, size) = (smaller, size / 2);
        }
        panic!("{name}: case {case} of {n} failed (seed {seed:#x}, size {size}): {message}");
    }
}

/// A panic's message with its lines joined, so a report is one line.
fn one_line(payload: &(dyn Any + Send)) -> String {
    let text = match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s.as_str(),
        _ => "a panic without a message",
    };
    text.lines().map(str::trim).collect::<Vec<_>>().join("; ")
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

    #[test]
    fn draws_stay_in_range_and_next_f64_is_the_top_53_bits() {
        let (mut a, mut b) = (Rng::seed_from_u64(7), Rng::seed_from_u64(7));
        for _ in 0..1000 {
            let u = a.next_f64();
            assert_eq!(u, (b.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
            assert!((0.0..1.0).contains(&u));
        }
        let mut hits = [0u32; 3];
        (0..3000).for_each(|_| hits[a.below(3)] += 1);
        assert!(hits.iter().all(|&h| h > 900), "{hits:?}");
        assert_eq!(a.below(1), 0);
    }

    #[test]
    fn cases_draws_the_same_distinct_cases_on_every_run() {
        let draw = || {
            let mut firsts = Vec::new();
            cases("demo", 8, 5, |rng, size| firsts.push((rng.next_u64(), size)));
            firsts
        };
        let firsts = draw();
        assert_eq!(firsts, draw());
        assert!(firsts.iter().all(|&(_, size)| size == 5));
        let distinct: std::collections::BTreeSet<u64> = firsts.iter().map(|f| f.0).collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn a_failure_is_halved_to_its_smallest_failing_size_and_reported_in_one_line() {
        let fail = || {
            let err = panic::catch_unwind(|| {
                cases("demo", 64, 40, |rng, size| {
                    let len = rng.below(size + 1);
                    assert!(len < 3, "drew {len}\nat size {size}");
                })
            });
            one_line(&*err.expect_err("a length of 3 or more is drawn in 64 cases"))
        };
        let line = fail();
        assert_eq!(line, fail(), "a rerun reports the same line");
        let (head, message) = line.split_once("): ").expect("one message");
        let size: usize = head.rsplit_once("size ").unwrap().1.parse().unwrap();
        assert!(
            head.starts_with("demo: case ") && head.contains(" of 64 failed (seed 0x"),
            "{line}"
        );
        // Below size 3 nothing fails; at the reported size it did, and
        // its own message, joined onto the line, says so.
        assert!((3..=40).contains(&size), "{line}");
        assert!(message.starts_with("drew ") && message.ends_with(&format!("; at size {size}")));
    }
}
