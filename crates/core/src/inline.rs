//! A small-vector used on the alert hot path.
//!
//! Every alert carries a [`HistoryFingerprint`](crate::HistoryFingerprint)
//! — one newest-first seqno list per variable — and in every scenario
//! the paper considers, history degrees are 1–3 and conditions mention
//! 1–3 variables. Backing those lists with `Vec` costs two heap
//! allocations per alert plus one more per clone into an AD `seen`
//! set. [`InlineVec`] keeps up to `N` elements inline in the struct
//! itself and only spills to the heap beyond that, so the common case
//! allocates nothing.
//!
//! The inline storage is a `[MaybeUninit<T>; N]` block, so pushing
//! never writes `T::Default` fillers and the element type needs no
//! `Default` impl. This is the crate's **only** `unsafe` module (the
//! crate is otherwise `#![deny(unsafe_code)]`, and `cargo xtask analyze`
//! pins the allowlist): every `unsafe` block cites the single
//! invariant below, and the drop-counter tests at the bottom pin
//! leak-freedom and double-drop-freedom through every storage
//! transition.
#![allow(unsafe_code)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::{ManuallyDrop, MaybeUninit};

use serde::{Deserialize, Serialize};

/// A growable sequence storing its first `N` elements inline.
///
/// # Invariant (load-bearing for every `unsafe` block here)
///
/// * `len <= N` (**inline regime**): `inline[..len]` are initialized
///   `T`s, `inline[len..]` are uninitialized, and `spill` is empty.
/// * `len > N` (**spill regime**): all `len` elements live in `spill`
///   (`spill.len() == len`) and *every* inline slot is uninitialized.
///
/// [`InlineVec::as_slice`] is contiguous in both regimes, so readers
/// never see the split.
///
/// Equality, ordering, hashing and serialization are all slice-based:
/// an `InlineVec` behaves exactly like the sequence of its elements,
/// regardless of where they are stored. In particular the serde wire
/// format is identical to `Vec<T>`'s.
///
/// ```rust
/// use rcm_core::inline::InlineVec;
/// let mut v: InlineVec<u64, 3> = [1u64, 2].into_iter().collect();
/// v.push(3); // still inline
/// v.push(4); // spills
/// assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
/// assert_eq!(v, InlineVec::<u64, 3>::from(vec![1, 2, 3, 4]));
/// ```
pub struct InlineVec<T, const N: usize> {
    inline: [MaybeUninit<T>; N],
    len: usize,
    spill: Vec<T>,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        InlineVec { inline: [const { MaybeUninit::uninit() }; N], len: 0, spill: Vec::new() }
    }

    /// Appends an element, spilling to the heap when the inline
    /// capacity `N` is exceeded.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len].write(value);
        } else {
            if self.len == N {
                // Reserve up front so the moves below cannot panic
                // with elements duplicated between the two buffers.
                self.spill.reserve(N + 1);
                for slot in &mut self.inline {
                    // SAFETY: len == N, so by the invariant every
                    // inline slot is initialized; each is read exactly
                    // once and the regime flips to spill (len becomes
                    // N + 1 below), so the now-moved-out slots are
                    // never read or dropped again.
                    self.spill.push(unsafe { slot.assume_init_read() });
                }
            }
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Removes all elements, keeping any spill capacity.
    pub fn clear(&mut self) {
        if self.len <= N {
            // SAFETY: inline regime — `as_mut_slice` covers exactly
            // the initialized `inline[..len]`; dropping them in place
            // leaves every slot uninitialized, matching len = 0.
            unsafe { std::ptr::drop_in_place(self.as_mut_slice() as *mut [T]) };
        } else {
            // Spill regime: inline slots are already all uninitialized.
            self.spill.clear();
        }
        self.len = 0;
    }

    /// Number of elements held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no elements are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the elements currently live in the inline buffer (true
    /// for up to `N` elements).
    pub fn is_inline(&self) -> bool {
        self.len <= N
    }

    /// All elements as one contiguous slice.
    pub fn as_slice(&self) -> &[T] {
        if self.len <= N {
            // SAFETY: inline regime — the first `len` slots are
            // initialized, and `MaybeUninit<T>` has the same layout as
            // `T`, so the prefix reinterprets as a `[T]` slice.
            unsafe { std::slice::from_raw_parts(self.inline.as_ptr().cast::<T>(), self.len) }
        } else {
            &self.spill
        }
    }

    /// All elements as one contiguous mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len <= N {
            // SAFETY: as in `as_slice`, plus `&mut self` guarantees
            // exclusivity.
            unsafe {
                std::slice::from_raw_parts_mut(self.inline.as_mut_ptr().cast::<T>(), self.len)
            }
        } else {
            &mut self.spill
        }
    }
}

impl<T, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        if self.len <= N {
            // SAFETY: inline regime — exactly `inline[..len]` are live
            // and nothing else owns them; `spill` (empty) drops itself
            // afterwards. In the spill regime `spill`'s own Drop frees
            // the elements and the inline slots hold nothing.
            unsafe { std::ptr::drop_in_place(self.as_mut_slice() as *mut [T]) };
        }
    }
}

impl<T: Clone, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        self.as_slice().iter().cloned().collect()
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(vec: Vec<T>) -> Self {
        if vec.len() > N {
            // Reuse the allocation instead of copying element-wise.
            InlineVec { inline: [const { MaybeUninit::uninit() }; N], len: vec.len(), spill: vec }
        } else {
            vec.into_iter().collect()
        }
    }
}

impl<T, const N: usize> From<InlineVec<T, N>> for Vec<T> {
    fn from(v: InlineVec<T, N>) -> Vec<T> {
        // Suppress InlineVec::drop: ownership of every element moves
        // out below, exactly once.
        let mut v = ManuallyDrop::new(v);
        if v.len > N {
            std::mem::take(&mut v.spill)
        } else {
            // `spill` is empty but may hold capacity from an earlier
            // spill/clear cycle; take it out so the allocation is
            // freed (ManuallyDrop won't run its Drop).
            drop(std::mem::take(&mut v.spill));
            let len = v.len;
            let mut out = Vec::with_capacity(len);
            for slot in &mut v.inline[..len] {
                // SAFETY: inline regime — each of the first `len`
                // slots is initialized and read exactly once; the
                // ManuallyDrop wrapper guarantees no drop runs on the
                // moved-out slots.
                out.push(unsafe { slot.assume_init_read() });
            }
            out
        }
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T, const N: usize> AsRef<[T]> for InlineVec<T, N> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<InlineVec<T, M>> for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, M>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialOrd, const N: usize> PartialOrd for InlineVec<T, N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.as_slice().partial_cmp(other.as_slice())
    }
}

impl<T: Ord, const N: usize> Ord for InlineVec<T, N> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Matches Vec<T> / [T]: length prefix then elements, so swapping
        // a Vec field for an InlineVec preserves hash values.
        self.as_slice().hash(state);
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Serialize, const N: usize> Serialize for InlineVec<T, N> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for InlineVec<T, N> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Vec::<T>::deserialize(deserializer)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type V = InlineVec<u64, 3>;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v = V::new();
        assert!(v.is_empty() && v.is_inline());
        for i in 1..=3 {
            v.push(i);
        }
        assert!(v.is_inline());
        assert_eq!(v.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn spills_and_stays_contiguous() {
        let mut v = V::new();
        for i in 1..=10 {
            v.push(i);
        }
        assert!(!v.is_inline());
        assert_eq!(v.len(), 10);
        assert_eq!(v.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn clear_resets_both_regimes() {
        let mut v: V = (1..=10u64).collect();
        v.clear();
        assert!(v.is_empty());
        v.push(7);
        assert_eq!(v.as_slice(), &[7]);
        let mut w: V = (1..=2u64).collect();
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    fn equality_ignores_storage_regime() {
        let small: V = (1..=3u64).collect();
        let grown: InlineVec<u64, 2> = (1..=3u64).collect();
        assert!(!grown.is_inline());
        assert_eq!(small.as_slice(), grown.as_slice());
    }

    #[test]
    fn hash_matches_vec() {
        use std::collections::hash_map::DefaultHasher;
        fn h<T: Hash>(t: &T) -> u64 {
            let mut s = DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        }
        let v: V = (1..=5u64).collect();
        let vec: Vec<u64> = (1..=5).collect();
        assert_eq!(h(&v), h(&vec));
    }

    #[test]
    fn vec_roundtrip() {
        for n in [0usize, 2, 3, 4, 9] {
            let vec: Vec<u64> = (0..n as u64).collect();
            let iv = V::from(vec.clone());
            assert_eq!(Vec::from(iv.clone()), vec);
            assert_eq!(iv.len(), n);
        }
    }

    #[test]
    fn sort_via_mut_slice() {
        let mut v: V = [3u64, 1, 2].into_iter().collect();
        v.as_mut_slice().sort_unstable();
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        let mut w: V = [5u64, 3, 4, 1, 2].into_iter().collect();
        w.as_mut_slice().sort_unstable();
        assert_eq!(w.as_slice(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn serde_roundtrip_matches_vec_format() {
        let v: V = (1..=5u64).collect();
        let json = serde_json::to_string(&v).expect("serializes");
        assert_eq!(json, "[1,2,3,4,5]");
        let back: V = serde_json::from_str(&json).expect("parses back");
        assert_eq!(back, v);
        let inline: V = (1..=2u64).collect();
        let round = serde_json::to_string(&inline).expect("serializes");
        let back2: V = serde_json::from_str(&round).expect("parses back");
        assert_eq!(back2, inline);
    }

    #[test]
    fn deref_gives_slice_methods() {
        let v: V = [4u64, 2].into_iter().collect();
        assert_eq!(v.first(), Some(&4));
        assert_eq!(v.iter().copied().max(), Some(4));
        assert_eq!(v.windows(2).count(), 1);
    }

    #[test]
    fn works_without_default_impls() {
        // MaybeUninit storage means T needs no Default.
        #[derive(Clone, Debug, PartialEq)]
        struct NoDefault(u64);
        let v: InlineVec<NoDefault, 2> =
            [NoDefault(1), NoDefault(2), NoDefault(3)].into_iter().collect();
        assert_eq!(v.as_slice().last(), Some(&NoDefault(3)));
    }

    // ---- drop accounting: the unsafe audit's executable half -------

    use std::cell::Cell;

    thread_local! {
        /// Per thread, so per test: the harness runs each test on its
        /// own thread, and a sibling's pushes must not show up here.
        static LIVE: Cell<i64> = const { Cell::new(0) };
    }

    /// An element that counts live instances; a double drop would send
    /// the counter negative, a leak leaves it positive.
    #[derive(Debug)]
    struct Counted(u64);
    impl Counted {
        fn new(v: u64) -> Self {
            LIVE.set(LIVE.get() + 1);
            Counted(v)
        }
    }
    impl Clone for Counted {
        fn clone(&self) -> Self {
            Counted::new(self.0)
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.set(LIVE.get() - 1);
        }
    }

    fn assert_balanced(f: impl FnOnce()) {
        let before = LIVE.get();
        f();
        assert_eq!(LIVE.get(), before, "leak or double drop");
    }

    #[test]
    fn drop_accounting_inline_regime() {
        assert_balanced(|| {
            let mut v: InlineVec<Counted, 3> = InlineVec::new();
            v.push(Counted::new(1));
            v.push(Counted::new(2));
        });
    }

    #[test]
    fn drop_accounting_across_the_spill_transition() {
        assert_balanced(|| {
            let mut v: InlineVec<Counted, 3> = InlineVec::new();
            for i in 0..7 {
                v.push(Counted::new(i));
            }
            assert!(!v.is_inline());
        });
    }

    #[test]
    fn drop_accounting_clear_then_reuse() {
        assert_balanced(|| {
            let mut v: InlineVec<Counted, 2> = InlineVec::new();
            for i in 0..5 {
                v.push(Counted::new(i));
            }
            v.clear(); // spill regime clear
            for i in 0..2 {
                v.push(Counted::new(i));
            }
            v.clear(); // inline regime clear
            v.push(Counted::new(9));
        });
    }

    #[test]
    fn drop_accounting_clone_and_into_vec() {
        assert_balanced(|| {
            let mut v: InlineVec<Counted, 3> = InlineVec::new();
            for i in 0..2 {
                v.push(Counted::new(i));
            }
            let w = v.clone();
            let out: Vec<Counted> = v.into(); // inline-regime move-out
            assert_eq!(out.len(), 2);
            let mut big: InlineVec<Counted, 2> = w.as_slice().iter().cloned().collect();
            big.push(Counted::new(7));
            let spilled: Vec<Counted> = big.into(); // spill-regime move-out
            assert_eq!(spilled.len(), 3);
        });
    }

    #[test]
    fn drop_accounting_into_vec_after_spill_shrink() {
        assert_balanced(|| {
            // Regression: an inline-regime InlineVec whose spill Vec
            // still holds capacity from an earlier spill must free that
            // allocation on conversion, not leak it.
            let mut v: InlineVec<Counted, 2> = InlineVec::new();
            for i in 0..4 {
                v.push(Counted::new(i));
            }
            v.clear();
            v.push(Counted::new(8));
            let out: Vec<Counted> = v.into();
            assert_eq!(out.len(), 1);
        });
    }
}
