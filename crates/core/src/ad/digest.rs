//! Checksum-based duplicate removal — the paper's §2 optimization.
//!
//! > "Still others only use these sequence numbers in a simple equality
//! > test, in which case it may be sufficient to send just a checksum
//! > of the histories."
//!
//! AD-1's identity test is exactly such an equality test, so an alert
//! can carry (and the AD can remember) a 64-bit [`HistoryDigest`]
//! instead of the full history set. [`Ad1Digest`] is the resulting
//! filter: constant 8 bytes of state per displayed alert regardless of
//! condition degree or variable count, at the cost of a
//! 2⁻⁶⁴-per-pair false-duplicate probability (an FNV-1a collision
//! would *suppress* a genuinely new alert).

use std::collections::HashSet;

use rcm_json::{obj, Json};

use crate::alert::{Alert, CondId, HistoryFingerprint};

use super::{AlertFilter, Decision, DiscardReason};

/// A 64-bit FNV-1a digest of an alert's condition id and history
/// fingerprint.
///
/// Equal (condition, histories) pairs always produce equal digests;
/// distinct pairs collide with probability ≈ 2⁻⁶⁴.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HistoryDigest(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl HistoryDigest {
    /// Computes the digest of a condition/fingerprint pair.
    pub fn compute(cond: CondId, fingerprint: &HistoryFingerprint) -> Self {
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(u64::from(cond.index()));
        for (var, seqnos) in fingerprint.iter() {
            eat(u64::from(var.index()) | 1 << 63); // tag variable boundaries
            for s in seqnos {
                eat(s.get());
            }
        }
        HistoryDigest(h)
    }

    /// Digest of an alert.
    pub fn of(alert: &Alert) -> Self {
        Self::compute(alert.cond, &alert.fingerprint)
    }

    /// The raw 64-bit value (e.g. for putting on the wire instead of
    /// the full histories).
    pub fn get(self) -> u64 {
        self.0
    }
}

/// AD-1 on digests: exact-duplicate removal remembering only 8 bytes
/// per displayed alert.
#[derive(Debug, Clone, Default)]
pub struct Ad1Digest {
    seen: HashSet<HistoryDigest>,
}

impl Ad1Digest {
    /// Creates the filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The filter's state as a checkpoint: the raw digests,
    /// `{"seen":[u64, …]}` (in no particular order).
    pub fn to_json(&self) -> Json {
        obj([("seen", self.seen.iter().map(|d| d.0).collect())])
    }

    /// Restores a filter from [`Ad1Digest::to_json`]'s output.
    ///
    /// # Errors
    ///
    /// A document of any other shape.
    pub fn from_json(j: &Json) -> rcm_json::Result<Self> {
        let seen = j.field("seen")?.arr()?.iter().map(|d| d.u64().map(HistoryDigest));
        Ok(Ad1Digest { seen: seen.collect::<rcm_json::Result<_>>()? })
    }
}

impl AlertFilter for Ad1Digest {
    fn name(&self) -> &'static str {
        "AD-1/digest"
    }

    fn offer(&mut self, alert: &Alert) -> Decision {
        if self.seen.insert(HistoryDigest::of(alert)) {
            Decision::Deliver
        } else {
            Decision::Discard(DiscardReason::Duplicate)
        }
    }

    fn reset(&mut self) {
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::testutil::{alert1, alert2, alert_cond};
    use crate::ad::Ad1;

    #[test]
    fn equal_alerts_equal_digests() {
        let a = alert1(&[3, 2]);
        let b = alert1(&[3, 2]);
        assert_eq!(HistoryDigest::of(&a), HistoryDigest::of(&b));
    }

    #[test]
    fn different_histories_different_digests() {
        // Not guaranteed in theory; in practice FNV-1a separates these.
        let digests: Vec<HistoryDigest> = [
            alert1(&[3, 2]),
            alert1(&[3, 1]),
            alert1(&[3]),
            alert1(&[2, 1]),
            alert_cond(1, &[3, 2]),
            alert2(3, 2),
        ]
        .iter()
        .map(HistoryDigest::of)
        .collect();
        let unique: HashSet<_> = digests.iter().collect();
        assert_eq!(unique.len(), digests.len());
    }

    #[test]
    fn variable_boundaries_matter() {
        // {x:[2], y:[3]} must not collide with {x:[2,3-ish]} shapes:
        // boundary tagging separates per-variable runs.
        let two_vars = alert2(2, 3);
        let one_var = alert1(&[3, 2]);
        assert_ne!(HistoryDigest::of(&two_vars), HistoryDigest::of(&one_var));
    }

    #[test]
    fn digest_filter_matches_ad1_exactly() {
        let stream = vec![
            alert1(&[1]),
            alert1(&[2, 1]),
            alert1(&[1]),
            alert_cond(1, &[1]),
            alert1(&[2, 1]),
            alert1(&[3, 2]),
        ];
        let mut full = Ad1::new();
        let mut digest = Ad1Digest::new();
        for a in &stream {
            assert_eq!(full.offer(a).is_deliver(), digest.offer(a).is_deliver(), "{a}");
        }
    }

    #[test]
    fn reset_clears() {
        let mut f = Ad1Digest::new();
        f.offer(&alert1(&[1]));
        f.reset();
        assert!(f.offer(&alert1(&[1])).is_deliver());
    }

    #[test]
    fn digest_exposes_raw_value() {
        let d = HistoryDigest::of(&alert1(&[1]));
        assert_ne!(d.get(), 0);
    }
}
