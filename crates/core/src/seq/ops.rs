//! Core operations on sequences of ordered elements.

use std::collections::BTreeSet;

/// Whether the sequence's elements appear in non-decreasing order (the
/// paper's *ordered*).
///
/// ```rust
/// use rcm_core::seq::is_ordered;
/// assert!(is_ordered(&[3u64, 8, 100]));
/// assert!(is_ordered(&[2u64, 2]));
/// assert!(!is_ordered(&[2u64, 1, 6]));
/// assert!(is_ordered::<u64>(&[]));
/// ```
pub fn is_ordered<T: PartialOrd>(seq: &[T]) -> bool {
    seq.windows(2).all(|w| w[0] <= w[1])
}

/// Whether the sequence's elements appear in strictly increasing order.
///
/// Update sequences delivered over an in-order link are strictly ordered
/// (a link never delivers the same seqno twice); alert sequences are
/// merely ordered, since two alerts may share `a.seqno.x`.
#[cfg(test)]
pub(crate) fn is_strictly_ordered<T: PartialOrd>(seq: &[T]) -> bool {
    seq.windows(2).all(|w| w[0] < w[1])
}

/// The paper's `ΦS`: the set of elements of sequence `S`.
#[cfg(test)]
pub(crate) fn phi<T: Ord + Clone>(seq: &[T]) -> BTreeSet<T> {
    seq.iter().cloned().collect()
}

/// The paper's `S1 ⊑ S2`: whether `sub` can be obtained from `sup` by
/// removing zero or more elements.
///
/// ```rust
/// use rcm_core::seq::is_subsequence;
/// assert!(is_subsequence(&[1u64, 4], &[1, 2, 4, 8]));
/// assert!(is_subsequence::<u64>(&[], &[1, 2]));
/// assert!(!is_subsequence(&[4u64, 1], &[1, 2, 4, 8]));
/// ```
pub fn is_subsequence<T: PartialEq>(sub: &[T], sup: &[T]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|s| it.any(|t| t == s))
}

/// The paper's `S1 ⊔ S2`: the ordered union of two ordered sequences,
/// the reference the laws below are checked on (`rcm_props::merge_all_single`
/// is `⊔` over update sequences).
///
/// The result is the ordered sequence whose element set is
/// `ΦS1 ∪ ΦS2`; duplicates (both across and within inputs) are removed.
///
/// # Panics
///
/// Panics (in debug builds) if either input is not ordered — the paper
/// defines `⊔` only for ordered sequences.
#[cfg(test)]
pub(crate) fn ordered_union<T: Ord + Clone>(s1: &[T], s2: &[T]) -> Vec<T> {
    debug_assert!(is_ordered(s1), "left operand of ⊔ must be ordered");
    debug_assert!(is_ordered(s2), "right operand of ⊔ must be ordered");
    let mut out: Vec<T> = Vec::with_capacity(s1.len() + s2.len());
    let (mut i, mut j) = (0, 0);
    while i < s1.len() || j < s2.len() {
        let pick_left = match (s1.get(i), s2.get(j)) {
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!(),
        };
        let next = if pick_left {
            let v = s1[i].clone();
            i += 1;
            v
        } else {
            let v = s2[j].clone();
            j += 1;
            v
        };
        if out.last() != Some(&next) {
            out.push(next);
        }
    }
    out
}

/// Number of **inversions** in a sequence: pairs `(i, j)` with `i < j`
/// but `seq[i] > seq[j]`. Zero iff the sequence is ordered; the count
/// quantifies *how* unordered a displayed alert sequence is (used by
/// the delayed-display experiment to measure disorder, not just detect
/// it).
///
/// Runs in `O(n log n)` via merge counting.
///
/// ```rust
/// use rcm_core::seq::inversions;
/// assert_eq!(inversions(&[1u64, 2, 3]), 0);
/// assert_eq!(inversions(&[2u64, 1, 3]), 1);
/// assert_eq!(inversions(&[3u64, 2, 1]), 3);
/// ```
pub fn inversions<T: Ord + Clone>(seq: &[T]) -> u64 {
    fn sort_count<T: Ord + Clone>(buf: &mut Vec<T>) -> u64 {
        let n = buf.len();
        if n <= 1 {
            return 0;
        }
        let mut right = buf.split_off(n / 2);
        let mut count = sort_count(buf) + sort_count(&mut right);
        let left = std::mem::take(buf);
        let (mut i, mut j) = (0, 0);
        while i < left.len() || j < right.len() {
            let take_left = match (left.get(i), right.get(j)) {
                (Some(a), Some(b)) => a <= b,
                (Some(_), None) => true,
                _ => false,
            };
            if take_left {
                // Everything still pending in `right` was jumped over by
                // nothing; no inversions added.
                buf.push(left[i].clone());
                i += 1;
            } else {
                // right[j] jumps over all remaining left elements.
                count += (left.len() - i) as u64;
                buf.push(right[j].clone());
                j += 1;
            }
        }
        count
    }
    let mut buf = seq.to_vec();
    sort_count(&mut buf)
}

/// The paper's `SpanningSet(s)`: the set of consecutive integers between
/// the smallest and the biggest elements of `s`, inclusive.
///
/// Returns the empty set for an empty input.
///
/// ```rust
/// use rcm_core::seq::spanning_set;
/// use std::collections::BTreeSet;
/// let s: BTreeSet<u64> = [1, 2, 5].into_iter().collect();
/// let span: Vec<u64> = spanning_set(&s).into_iter().collect();
/// assert_eq!(span, vec![1, 2, 3, 4, 5]);
/// ```
pub fn spanning_set(s: &BTreeSet<u64>) -> BTreeSet<u64> {
    match (s.first(), s.last()) {
        (Some(&lo), Some(&hi)) => (lo..=hi).collect(),
        _ => BTreeSet::new(),
    }
}

/// `SpanningSet(s) - s`: the integers strictly inside `s`'s span that
/// are missing from `s`.
///
/// These are exactly the seqnos Algorithm AD-3 records as `Missed` when
/// an alert with history `s` is displayed.
///
/// ```rust
/// use rcm_core::seq::spanning_gaps;
/// use std::collections::BTreeSet;
/// let s: BTreeSet<u64> = [1, 3, 6].into_iter().collect();
/// let gaps: Vec<u64> = spanning_gaps(&s).into_iter().collect();
/// assert_eq!(gaps, vec![2, 4, 5]);
/// ```
pub fn spanning_gaps(s: &BTreeSet<u64>) -> BTreeSet<u64> {
    spanning_set(s).difference(s).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_net::{cases, Rng};

    #[test]
    fn ordered_edge_cases() {
        assert!(is_ordered::<u64>(&[]));
        assert!(is_ordered(&[5u64]));
        assert!(is_strictly_ordered::<u64>(&[]));
        assert!(is_strictly_ordered(&[1u64, 2, 3]));
        assert!(!is_strictly_ordered(&[1u64, 1]));
    }

    #[test]
    fn phi_removes_duplicates_paper_example() {
        // Φ(⟨2,1,2,6⟩) = {1,2,6}
        let s = phi(&[2u64, 1, 2, 6]);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![1, 2, 6]);
    }

    #[test]
    fn subsequence_basics() {
        assert!(is_subsequence(&[1u64, 2], &[1, 2]));
        assert!(!is_subsequence(&[1u64, 2, 3], &[1, 2]));
        assert!(is_subsequence(&[2u64, 2], &[2, 1, 2]));
        assert!(!is_subsequence(&[2u64, 2], &[2, 1]));
    }

    #[test]
    fn ordered_union_paper_example() {
        // S1 = ⟨1,4,8⟩, S2 = ⟨2,4,5⟩ → ⟨1,2,4,5,8⟩
        assert_eq!(ordered_union(&[1u64, 4, 8], &[2, 4, 5]), vec![1, 2, 4, 5, 8]);
    }

    #[test]
    fn ordered_union_idempotent() {
        // Lemma 2: U ⊔ U = U for ordered U.
        let u = vec![1u64, 3, 7];
        assert_eq!(ordered_union(&u, &u), u);
    }

    #[test]
    fn ordered_union_with_empty() {
        assert_eq!(ordered_union(&[1u64, 2], &[]), vec![1, 2]);
        assert_eq!(ordered_union::<u64>(&[], &[]), Vec::<u64>::new());
    }

    #[test]
    fn ordered_union_dedups_within_input() {
        assert_eq!(ordered_union(&[2u64, 2], &[2]), vec![2]);
    }

    #[test]
    fn spanning_set_paper_example() {
        // SpanningSet({1,2,5}) = {1,2,3,4,5}
        let s: BTreeSet<u64> = [1, 2, 5].into_iter().collect();
        assert_eq!(spanning_set(&s).into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn spanning_set_empty_and_singleton() {
        assert!(spanning_set(&BTreeSet::new()).is_empty());
        let s: BTreeSet<u64> = [7].into_iter().collect();
        assert_eq!(spanning_set(&s).into_iter().collect::<Vec<_>>(), vec![7]);
        assert!(spanning_gaps(&s).is_empty());
    }

    #[test]
    fn inversion_edge_cases() {
        assert_eq!(inversions::<u64>(&[]), 0);
        assert_eq!(inversions(&[7u64]), 0);
        assert_eq!(inversions(&[1u64, 1, 1]), 0); // equal pairs are not inversions
        assert_eq!(inversions(&[2u64, 1, 2, 1]), 3);
    }

    /// A list of `0..=size` values drawn from `0..hi`.
    fn list(rng: &mut Rng, size: usize, hi: usize) -> Vec<u64> {
        (0..rng.below(size + 1)).map(|_| rng.below(hi) as u64).collect()
    }

    /// [`list`], sorted.
    fn sorted(rng: &mut Rng, size: usize, hi: usize) -> Vec<u64> {
        let mut v = list(rng, size, hi);
        v.sort_unstable();
        v
    }

    #[test]
    fn inversions_match_quadratic_reference() {
        cases("inversions_match_quadratic_reference", 256, 39, |rng, size| {
            let seq = list(rng, size, 30);
            let reference: u64 = (0..seq.len())
                .flat_map(|i| (i + 1..seq.len()).map(move |j| (i, j)))
                .filter(|&(i, j)| seq[i] > seq[j])
                .count() as u64;
            assert_eq!(inversions(&seq), reference);
            assert_eq!(inversions(&seq) == 0, is_ordered(&seq));
        });
    }

    #[test]
    fn union_is_set_union() {
        cases("union_is_set_union", 256, 19, |rng, size| {
            let (mut a, mut b) = (sorted(rng, size, 50), sorted(rng, size, 50));
            let u = ordered_union(&a, &b);
            // Φ(S1 ⊔ S2) = ΦS1 ∪ ΦS2
            let expect: BTreeSet<u64> = phi(&a).union(&phi(&b)).copied().collect();
            assert_eq!(phi(&u), expect);
            // result ordered, duplicate-free
            assert!(is_strictly_ordered(&u));
            // both operands are subsequences of the union after dedup
            a.dedup();
            b.dedup();
            assert!(is_subsequence(&a, &u));
            assert!(is_subsequence(&b, &u));
        });
    }

    #[test]
    fn union_commutative_associative() {
        cases("union_commutative_associative", 256, 11, |rng, size| {
            let (a, b, c) = (sorted(rng, size, 30), sorted(rng, size, 30), sorted(rng, size, 30));
            assert_eq!(ordered_union(&a, &b), ordered_union(&b, &a));
            let left = ordered_union(&ordered_union(&a, &b), &c);
            let right = ordered_union(&a, &ordered_union(&b, &c));
            assert_eq!(left, right);
        });
    }

    #[test]
    fn subsequence_reflexive_transitive() {
        cases("subsequence_reflexive_transitive", 256, 14, |rng, size| {
            let base = list(rng, size, 40);
            let mut mask = || (0..15).map(|_| rng.below(2) == 1).collect::<Vec<_>>();
            let (mask1, mask2) = (mask(), mask());
            // carve sub2 ⊑ sub1 ⊑ base and check the chain
            let sub1: Vec<u64> =
                base.iter().zip(&mask1).filter(|(_, &m)| m).map(|(v, _)| *v).collect();
            let sub2: Vec<u64> =
                sub1.iter().zip(&mask2).filter(|(_, &m)| m).map(|(v, _)| *v).collect();
            assert!(is_subsequence(&base, &base));
            assert!(is_subsequence(&sub1, &base));
            assert!(is_subsequence(&sub2, &sub1));
            assert!(is_subsequence(&sub2, &base));
        });
    }

    #[test]
    fn spanning_gaps_disjoint_and_complete() {
        cases("spanning_gaps_disjoint_and_complete", 256, 14, |rng, size| {
            let len = rng.below(size + 1);
            let mut set = BTreeSet::new();
            while set.len() < len {
                set.insert(rng.below(60) as u64);
            }
            let span = spanning_set(&set);
            let gaps = spanning_gaps(&set);
            assert!(gaps.is_disjoint(&set));
            let rebuilt: BTreeSet<u64> = gaps.union(&set).copied().collect();
            assert_eq!(rebuilt, span);
        });
    }
}
