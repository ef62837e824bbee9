//! The "delayed displaying" alternative discussed (and dismissed) in
//! the paper's §4.2.
//!
//! Instead of discarding out-of-order alerts like AD-2, the AD could
//! hold alerts back until their predecessors arrive. The paper points
//! out the two problems: the AD cannot know which alerts exist (alert
//! seqnos are not consecutive), so it must bound the wait with a
//! timeout — and once a timeout can force a display, orderedness is no
//! longer guaranteed unless system delays are bounded.
//!
//! [`DelayedOrdered`] implements the idea so the trade-off can be
//! *measured* (`rcm-paper --only delayed_display`): alerts are
//! buffered and released in seqno order; an alert is held for at most
//! `max_hold` subsequent arrivals. What happens to an alert that
//! arrives *too* late (below the release watermark) is the
//! [`LatePolicy`]:
//!
//! * [`LatePolicy::Drop`] keeps the output ordered always — a
//!   "look-ahead AD-2" that trades display latency for fewer drops;
//! * [`LatePolicy::Display`] shows it anyway — more alerts, but
//!   orderedness is lost exactly as the paper predicts.

use std::collections::BTreeMap;

use crate::alert::Alert;
use crate::update::SeqNo;
use crate::var::VarId;

/// What to do with an alert that arrives below the release watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatePolicy {
    /// Discard it (output stays ordered; still incomplete).
    Drop,
    /// Display it out of order (output complete-r, orderedness lost).
    Display,
}

/// A buffering Alert Displayer for single-variable systems: releases
/// alerts in seqno order, holding each for at most `max_hold`
/// subsequent arrivals.
///
/// Unlike [`AlertFilter`](super::AlertFilter) implementations, offering
/// an alert may release *several* alerts (the offered one may unblock
/// buffered successors), so `offer` returns a vector. Call
/// [`DelayedOrdered::flush`] at end of stream to drain the buffer.
#[derive(Debug, Clone)]
pub struct DelayedOrdered {
    var: VarId,
    max_hold: usize,
    late: LatePolicy,
    /// Buffered alerts keyed by seqno, with the arrival count at which
    /// they expire.
    buffer: BTreeMap<u64, (Alert, u64)>,
    /// Arrival counter (logical time; the online AD has no clock).
    arrivals: u64,
    /// Highest released seqno.
    watermark: Option<SeqNo>,
    /// Alerts dropped for arriving below the watermark.
    dropped_late: u64,
}

impl DelayedOrdered {
    /// Creates the displayer.
    ///
    /// `max_hold = 0` releases every alert immediately (AD-2-like but
    /// with the chosen late policy).
    pub fn new(var: VarId, max_hold: usize, late: LatePolicy) -> Self {
        DelayedOrdered {
            var,
            max_hold,
            late,
            buffer: BTreeMap::new(),
            arrivals: 0,
            watermark: None,
            dropped_late: 0,
        }
    }

    /// Alerts dropped for arriving too late ([`LatePolicy::Drop`] only).
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Offers one arriving alert; returns the alerts released *now*,
    /// in display order.
    pub fn offer(&mut self, alert: &Alert) -> Vec<Alert> {
        self.arrivals += 1;
        let mut out = Vec::new();
        match alert.seqno(self.var) {
            None => return out, // malformed for this system; ignore
            Some(seq) => {
                if self.watermark.is_some_and(|w| seq < w) {
                    match self.late {
                        LatePolicy::Drop => {
                            self.dropped_late += 1;
                        }
                        LatePolicy::Display => {
                            out.push(alert.clone());
                        }
                    }
                    // Release anything expired, then return.
                    self.release(&mut out);
                    return out;
                }
                // Duplicates (same seqno already buffered or equal to the
                // watermark) are suppressed.
                if self.watermark == Some(seq) || self.buffer.contains_key(&seq.get()) {
                    self.release(&mut out);
                    return out;
                }
                let expiry = self.arrivals + self.max_hold as u64;
                self.buffer.insert(seq.get(), (alert.clone(), expiry));
            }
        }
        self.release(&mut out);
        out
    }

    /// Releases buffered alerts: everything below or at an expired
    /// alert's seqno goes out, in seqno order.
    fn release(&mut self, out: &mut Vec<Alert>) {
        // Find the highest expired seqno; everything up to it must be
        // flushed (waiting longer cannot help alerts below an expired
        // one — they would come out of order anyway).
        let expired_max = self
            .buffer
            .iter()
            .filter(|(_, (_, expiry))| *expiry <= self.arrivals)
            .map(|(&s, _)| s)
            .max();
        if let Some(limit) = expired_max {
            let to_release: Vec<u64> = self.buffer.range(..=limit).map(|(&s, _)| s).collect();
            for s in to_release {
                if let Some((alert, _)) = self.buffer.remove(&s) {
                    self.watermark = Some(SeqNo::new(s));
                    out.push(alert);
                }
            }
        }
    }

    /// Drains the buffer in order (end of stream).
    pub fn flush(&mut self) -> Vec<Alert> {
        let mut out = Vec::with_capacity(self.buffer.len());
        for (s, (alert, _)) in std::mem::take(&mut self.buffer) {
            self.watermark = Some(SeqNo::new(s));
            out.push(alert);
        }
        out
    }

    /// Runs a whole arrival sequence through the displayer, flushing at
    /// the end.
    pub fn display_all(&mut self, arrivals: &[Alert]) -> Vec<Alert> {
        let mut out = Vec::new();
        for a in arrivals {
            out.extend(self.offer(a));
        }
        out.extend(self.flush());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::testutil::alert1;
    use crate::seq::project_alerts;

    fn x() -> VarId {
        VarId::new(0)
    }

    fn seqs(alerts: &[Alert]) -> Vec<u64> {
        project_alerts(alerts, x()).into_iter().map(|s| s.get()).collect()
    }

    #[test]
    fn in_order_stream_released_after_hold() {
        let mut d = DelayedOrdered::new(x(), 1, LatePolicy::Drop);
        let out = d.display_all(&[alert1(&[1]), alert1(&[2]), alert1(&[3])]);
        assert_eq!(seqs(&out), vec![1, 2, 3]);
        assert_eq!(d.dropped_late(), 0);
    }

    #[test]
    fn inversion_within_window_is_repaired() {
        // AD-2 would drop alert 1; a hold of 1 arrival reorders it.
        let mut d = DelayedOrdered::new(x(), 1, LatePolicy::Drop);
        let out = d.display_all(&[alert1(&[2]), alert1(&[1]), alert1(&[3])]);
        assert_eq!(seqs(&out), vec![1, 2, 3]);
        assert_eq!(d.dropped_late(), 0);
    }

    #[test]
    fn inversion_beyond_window_drops_or_disorders() {
        // Alert 2 expires (hold 1) before alert 1 arrives two offers later.
        let arrivals = [alert1(&[2]), alert1(&[3]), alert1(&[4]), alert1(&[1])];
        let mut drop = DelayedOrdered::new(x(), 1, LatePolicy::Drop);
        let out = drop.display_all(&arrivals);
        assert_eq!(seqs(&out), vec![2, 3, 4]);
        assert_eq!(drop.dropped_late(), 1);

        let mut show = DelayedOrdered::new(x(), 1, LatePolicy::Display);
        let out = show.display_all(&arrivals);
        assert_eq!(seqs(&out), vec![2, 3, 1, 4]); // unordered, as §4.2 warns
    }

    #[test]
    fn zero_hold_behaves_like_ad2_with_drop_policy() {
        let mut d = DelayedOrdered::new(x(), 0, LatePolicy::Drop);
        let out = d.display_all(&[alert1(&[2]), alert1(&[1]), alert1(&[3])]);
        assert_eq!(seqs(&out), vec![2, 3]);
        assert_eq!(d.dropped_late(), 1);
    }

    #[test]
    fn duplicates_suppressed() {
        let mut d = DelayedOrdered::new(x(), 2, LatePolicy::Drop);
        let out = d.display_all(&[alert1(&[1]), alert1(&[1]), alert1(&[2])]);
        assert_eq!(seqs(&out), vec![1, 2]);
    }

    #[test]
    fn drop_policy_output_always_ordered() {
        // Stress with a pathological arrival order.
        let arrivals: Vec<Alert> =
            [5u64, 1, 4, 2, 8, 3, 7, 6, 10, 9].iter().map(|&s| alert1(&[s])).collect();
        for hold in 0..6 {
            let mut d = DelayedOrdered::new(x(), hold, LatePolicy::Drop);
            let out = d.display_all(&arrivals);
            let s = seqs(&out);
            assert!(crate::seq::is_strictly_ordered(&s), "hold {hold}: unordered {s:?}");
        }
    }

    #[test]
    fn larger_hold_never_displays_fewer() {
        let arrivals: Vec<Alert> =
            [5u64, 1, 4, 2, 8, 3, 7, 6, 10, 9].iter().map(|&s| alert1(&[s])).collect();
        let mut prev = 0;
        for hold in 0..8 {
            let mut d = DelayedOrdered::new(x(), hold, LatePolicy::Drop);
            let n = d.display_all(&arrivals).len();
            assert!(n >= prev, "hold {hold} displayed {n} < {prev}");
            prev = n;
        }
        // With a big enough window everything is displayed.
        assert_eq!(prev, arrivals.len());
    }

    #[test]
    fn flush_drains_remaining() {
        let mut d = DelayedOrdered::new(x(), 100, LatePolicy::Drop);
        assert!(d.offer(&alert1(&[3])).is_empty());
        assert!(d.offer(&alert1(&[1])).is_empty());
        let out = d.flush();
        assert_eq!(seqs(&out), vec![1, 3]);
        assert!(d.flush().is_empty());
    }
}
