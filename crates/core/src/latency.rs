//! Fixed-bucket HDR-style latency histogram for the ingest→alert-emit
//! path.
//!
//! The record path is allocation-free and lock-free: one atomic
//! increment into a fixed log-linear bucket array, cheap enough to sit
//! on the evaluation hot path. The layout follows the HdrHistogram
//! idea at reduced precision: values are bucketed into octave groups
//! with [`SUB_BUCKETS`] linear sub-buckets per octave, giving a bounded
//! relative error of `1/SUB_BUCKETS` (≈3%) across the full `u64`
//! nanosecond range — microseconds and minutes coexist in ~15 KiB with
//! no reallocation ever.
//!
//! Index math for a value `v` (in nanoseconds):
//!
//! ```text
//! v < 32           → index = v                       (group 0, exact)
//! v ≥ 32, msb = m  → group g = m - 4,
//!                    index = 32·g + (v >> (g-1)) - 32
//! ```
//!
//! Group `g ≥ 1` spans `[2^(g+4), 2^(g+5))` with bucket width
//! `2^(g-1)`. The maximum group for `u64` is 59, so the array holds
//! `32 × 60 = 1920` buckets. Quantiles walk the cumulative counts and
//! report a bucket's upper edge, so `p(q)` never under-reports.

use std::sync::atomic::{AtomicU64, Ordering};

use rcm_json::{obj, Json};

/// Linear sub-buckets per octave group (2^5: ~3% relative error).
const SUB_BUCKETS: u64 = 32;
/// Total bucket count: group 0 plus 59 octave groups of 32.
const BUCKETS: usize = (SUB_BUCKETS as usize) * 60;

/// Concurrent fixed-bucket latency histogram (values in nanoseconds).
///
/// All methods take `&self`; threads share one histogram behind an
/// `Arc` and record without coordination.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a nanosecond value (see the module docs for the
/// layout derivation).
fn index_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        // msb ≥ 5 here, so the group and shift are both ≥ 1.
        let msb = 63 - v.leading_zeros() as u64;
        let group = msb - 4;
        (SUB_BUCKETS * group + (v >> (group - 1)) - SUB_BUCKETS) as usize
    }
}

/// Upper edge (inclusive) of bucket `index` — what quantiles report.
fn upper_edge(index: usize) -> u64 {
    let group = index as u64 / SUB_BUCKETS;
    let sub = index as u64 % SUB_BUCKETS;
    if group == 0 {
        sub
    } else {
        // Lower edge plus bucket width − 1; phrased to stay in range
        // for the top group (whose edge is exactly `u64::MAX`).
        ((sub + SUB_BUCKETS) << (group - 1)) + ((1u64 << (group - 1)) - 1)
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram (one fixed allocation, then none).
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array through a
        // Vec to keep the construction allocation on the cold path.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let boxed: Box<[AtomicU64; BUCKETS]> = match v.into_boxed_slice().try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("vec built with exactly BUCKETS entries"),
        };
        LatencyHistogram { buckets: boxed, count: AtomicU64::new(0), max: AtomicU64::new(0) }
    }

    /// Records one latency sample in nanoseconds. Allocation-free,
    /// lock-free, wait-free modulo the `max` CAS loop.
    pub fn record(&self, nanos: u64) {
        // analyze: allow(hot-path): index_of maps every u64 below BUCKETS (tested
        // analyze: allow(hot-path): over the boundaries), and buckets has BUCKETS slots
        self.buckets[index_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` (in `[0, 1]`), as the containing
    /// bucket's upper edge; 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        // Rank of the sample that dominates quantile q (1-based).
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return upper_edge(i).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Freezes the percentiles the reports carry.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count(),
            p50_ns: self.quantile(0.50),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            max_ns: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Frozen ingest→alert-emit latency percentiles, as carried by
/// `RunReport` and chaos `--json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded (one per admitted update that completed
    /// evaluation and emitted its merged alerts).
    pub count: u64,
    /// Median, nanoseconds (bucket upper edge, ≤3% relative error).
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Largest recorded sample, nanoseconds (exact).
    pub max_ns: u64,
}

impl LatencySnapshot {
    /// The snapshot as `--json` reports write it, one key per field.
    pub fn to_json(&self) -> Json {
        obj([
            ("count", self.count.into()),
            ("p50_ns", self.p50_ns.into()),
            ("p99_ns", self.p99_ns.into()),
            ("p999_ns", self.p999_ns.into()),
            ("max_ns", self.max_ns.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_zero_is_exact() {
        for v in 0..32u64 {
            assert_eq!(index_of(v), v as usize);
            assert_eq!(upper_edge(index_of(v)), v);
        }
    }

    #[test]
    fn buckets_are_monotone_and_tight() {
        // Octave boundaries and neighbors land in increasing buckets,
        // and every upper edge bounds its value within 1/32.
        let mut last = 0usize;
        for shift in 5..63 {
            for v in [1u64 << shift, (1u64 << shift) + 1, (1u64 << (shift + 1)) - 1] {
                let i = index_of(v);
                assert!(i >= last, "index regressed at {v}");
                last = i;
                let edge = upper_edge(i);
                assert!(edge >= v, "edge {edge} below value {v}");
                assert!((edge - v) as f64 <= v as f64 / 32.0 + 1.0, "edge {edge} too far from {v}");
            }
        }
        assert!(index_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = LatencyHistogram::new();
        // 1000 samples: 900 at ~1µs, 90 at ~10µs, 10 at ~1ms.
        for _ in 0..900 {
            h.record(1_000);
        }
        for _ in 0..90 {
            h.record(10_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 1000);
        let s = h.snapshot();
        let close = |got: u64, want: u64| (got as f64 - want as f64).abs() <= want as f64 / 24.0;
        assert!(close(s.p50_ns, 1_000), "p50 {}", s.p50_ns);
        assert!(close(s.p99_ns, 10_000), "p99 {}", s.p99_ns);
        assert!(close(s.p999_ns, 1_000_000), "p999 {}", s.p999_ns);
        assert_eq!(s.max_ns, 1_000_000);
    }

    /// For any recorded samples, spread over every octave, the reported
    /// percentiles are monotone and bounded by the exact maximum, and no
    /// percentile falls below the sample at its rank.
    #[test]
    fn percentiles_are_monotone_up_to_the_max() {
        rcm_net::cases("percentiles_are_monotone_up_to_the_max", 256, 300, |rng, size| {
            let h = LatencyHistogram::new();
            let mut samples: Vec<u64> =
                (0..=size).map(|_| rng.next_u64() >> rng.below(64)).collect();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            let s = h.snapshot();
            assert_eq!(s.count, samples.len() as u64);
            assert_eq!(Some(&s.max_ns), samples.last());
            assert!(s.p50_ns <= s.p99_ns, "p50 {} > p99 {}", s.p50_ns, s.p99_ns);
            assert!(s.p99_ns <= s.p999_ns, "p99 {} > p999 {}", s.p99_ns, s.p999_ns);
            assert!(s.p999_ns <= s.max_ns, "p999 {} > max {}", s.p999_ns, s.max_ns);
            for (q, got) in [(0.50, s.p50_ns), (0.99, s.p99_ns), (0.999, s.p999_ns)] {
                let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
                assert!(got >= samples[rank - 1], "p{q} {got} under the sample at its rank");
            }
        });
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot(), LatencySnapshot::default());
    }

    #[test]
    fn extremes_clamp_not_panic() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("recorder thread");
        }
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn snapshot_json_carries_every_field() {
        let h = LatencyHistogram::new();
        h.record(123);
        h.record(456_789);
        let s = h.snapshot();
        let json = rcm_json::parse(&s.to_json().to_string()).expect("parses");
        let field = |k: &str| json.field(k).and_then(rcm_json::Json::u64).expect(k);
        let back = LatencySnapshot {
            count: field("count"),
            p50_ns: field("p50_ns"),
            p99_ns: field("p99_ns"),
            p999_ns: field("p999_ns"),
            max_ns: field("max_ns"),
        };
        assert_eq!(back, s);
    }
}
