//! Enumeration of order-preserving interleavings of two sequences.
//!
//! The multi-variable definitions of completeness and consistency (paper
//! Appendix C) quantify over *interleavings* `U_V` of the per-variable
//! update sequences. [`merge_by_schedule`] materializes a single
//! interleaving from a left/right choice mask; this module's tests
//! enumerate them all.

/// Merges `left` and `right` into one sequence according to `schedule`:
/// `true` takes the next element of `left`, `false` of `right`.
///
/// Leftover elements (when the schedule is shorter than the combined
/// length, or one side is exhausted) are appended in order.
///
/// ```rust
/// use rcm_core::seq::merge_by_schedule;
/// let merged = merge_by_schedule(&[1, 2], &[10, 20], &[false, true, true]);
/// assert_eq!(merged, vec![10, 1, 2, 20]);
/// ```
// analyze: allow(reach): rcm-props' crossval suite builds Theorem 10's interleavings with it
pub fn merge_by_schedule<T: Clone>(left: &[T], right: &[T], schedule: &[bool]) -> Vec<T> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    for &take_left in schedule {
        if i == left.len() && j == right.len() {
            break;
        }
        if take_left && i < left.len() {
            out.push(left[i].clone());
            i += 1;
        } else if j < right.len() {
            out.push(right[j].clone());
            j += 1;
        } else {
            out.push(left[i].clone());
            i += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{is_subsequence, phi};
    use rcm_net::cases;

    /// Iterator over every order-preserving interleaving of two sequences.
    ///
    /// Produces `C(n+m, n)` sequences, so the tests keep inputs small.
    #[derive(Debug)]
    struct Interleavings<T> {
        left: Vec<T>,
        right: Vec<T>,
        // Bitmask over n+m positions: bit set = take from `left`. Only masks
        // with exactly `left.len()` set bits are yielded.
        mask: u64,
        done: bool,
    }

    /// Enumerates all order-preserving interleavings of `left` and `right`.
    ///
    /// # Panics
    ///
    /// Panics if the combined length exceeds 63 elements (the enumeration
    /// would not terminate in any reasonable time long before that anyway).
    fn interleavings<T: Clone>(left: &[T], right: &[T]) -> Interleavings<T> {
        let total = left.len() + right.len();
        assert!(total <= 63, "interleaving enumeration capped at 63 combined elements");
        Interleavings { left: left.to_vec(), right: right.to_vec(), mask: 0, done: false }
    }

    impl<T: Clone> Iterator for Interleavings<T> {
        type Item = Vec<T>;

        fn next(&mut self) -> Option<Self::Item> {
            let total = self.left.len() + self.right.len();
            let limit: u64 = 1u64 << total;
            while !self.done {
                let mask = self.mask;
                if self.mask + 1 == limit || total == 0 {
                    self.done = true;
                } else {
                    self.mask += 1;
                }
                if mask.count_ones() as usize == self.left.len() {
                    let schedule: Vec<bool> = (0..total).map(|b| mask >> b & 1 == 1).collect();
                    return Some(merge_by_schedule(&self.left, &self.right, &schedule));
                }
            }
            None
        }
    }

    #[test]
    fn counts_match_binomial() {
        fn count(n: usize, m: usize) -> usize {
            let left: Vec<u32> = (0..n as u32).collect();
            let right: Vec<u32> = (100..100 + m as u32).collect();
            interleavings(&left, &right).count()
        }
        assert_eq!(count(0, 0), 1); // the empty interleaving
        assert_eq!(count(1, 0), 1);
        assert_eq!(count(2, 2), 6);
        assert_eq!(count(3, 3), 20);
        assert_eq!(count(4, 2), 15);
    }

    #[test]
    fn empty_sides() {
        let all: Vec<Vec<u32>> = interleavings(&[], &[1, 2]).collect();
        assert_eq!(all, vec![vec![1, 2]]);
        let all: Vec<Vec<u32>> = interleavings::<u32>(&[], &[]).collect();
        assert_eq!(all, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn schedule_merge_exhaustion() {
        assert_eq!(merge_by_schedule(&[1], &[2], &[]), vec![1, 2]);
        assert_eq!(merge_by_schedule(&[1], &[2], &[true]), vec![1, 2]);
        assert_eq!(merge_by_schedule::<u32>(&[], &[], &[true, false]), Vec::<u32>::new());
        // schedule asks for right first but right is empty: falls back to left
        assert_eq!(merge_by_schedule(&[1, 2], &[], &[false, false]), vec![1, 2]);
    }

    #[test]
    fn every_interleaving_preserves_both_orders() {
        cases("every_interleaving_preserves_both_orders", 256, 4, |rng, size| {
            let mut draw = |lo: u32| -> Vec<u32> {
                (0..rng.below(size + 1)).map(|_| lo + rng.below(100) as u32).collect()
            };
            let (left, right) = (draw(0), draw(100));
            for merged in interleavings(&left, &right) {
                assert_eq!(merged.len(), left.len() + right.len());
                assert!(is_subsequence(&left, &merged));
                assert!(is_subsequence(&right, &merged));
                let expect: std::collections::BTreeSet<u32> =
                    phi(&left).union(&phi(&right)).copied().collect();
                assert_eq!(phi(&merged), expect);
            }
        });
    }

    #[test]
    fn interleavings_are_distinct() {
        cases("interleavings_are_distinct", 256, 4, |rng, size| {
            let (n, m) = (rng.below(size + 1), rng.below(size + 1));
            // Use disjoint element pools so each schedule gives a unique merge.
            let left: Vec<u32> = (0..n as u32).collect();
            let right: Vec<u32> = (100..100 + m as u32).collect();
            let all: Vec<Vec<u32>> = interleavings(&left, &right).collect();
            let set: std::collections::BTreeSet<Vec<u32>> = all.iter().cloned().collect();
            assert_eq!(set.len(), all.len());
        });
    }
}
