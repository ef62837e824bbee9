//! Bounded sender-side replay windows for tier links.

use std::collections::VecDeque;

use rcm_core::DerivedUpdate;

/// The last `capacity` derived updates a node put on its uplink, kept
/// so an orphaned node can replay them through a new parent after
/// re-parenting.
///
/// This is the sender-side mirror of the runtime's receiver-side
/// `RetainedWindow`: recovery is *bounded* by design. Replay is always
/// safe — every gate on the new path discards elements it already
/// admitted — and it is *complete* as long as the outage lost no more
/// elements than the window holds; older losses degrade to ordinary
/// stream loss, which the downstream tolerates by the paper's
/// consistency results.
#[derive(Debug, Clone)]
pub struct ReplayWindow {
    capacity: usize,
    items: VecDeque<DerivedUpdate>,
}

impl ReplayWindow {
    /// A window retaining the last `capacity` pushed elements
    /// (`capacity == 0` disables replay entirely).
    pub fn new(capacity: usize) -> Self {
        ReplayWindow { capacity, items: VecDeque::new() }
    }

    /// Records one sent element, evicting the oldest beyond capacity.
    pub fn push(&mut self, d: DerivedUpdate) {
        if self.capacity == 0 {
            return;
        }
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(d);
    }

    /// The retained elements, oldest first — the exact order to replay
    /// them in so per-stream FIFO survives the re-parent.
    pub fn iter(&self) -> impl Iterator<Item = &DerivedUpdate> {
        self.items.iter()
    }

    /// Number of retained elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::verdict;
    use rcm_core::{derived_var, DerivedEmitter};

    #[test]
    fn retains_last_capacity_in_order() {
        let mut em = DerivedEmitter::new(derived_var(0, 0));
        let mut w = ReplayWindow::new(3);
        for i in 1..=5 {
            w.push(em.emit(verdict(i)));
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.capacity(), 3);
        let seqnos: Vec<u64> = w.iter().map(|d| d.seqno.get()).collect();
        assert_eq!(seqnos, vec![3, 4, 5]);
    }

    #[test]
    fn zero_capacity_disables_replay() {
        let mut em = DerivedEmitter::new(derived_var(0, 0));
        let mut w = ReplayWindow::new(0);
        w.push(em.emit(verdict(1)));
        assert!(w.is_empty());
    }
}
