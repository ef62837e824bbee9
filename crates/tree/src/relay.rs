//! Interior relays: gated verbatim forwarders.

use rcm_core::DerivedUpdate;
use rcm_transport::SeqGate;

use crate::window::ReplayWindow;

/// One interior-tier CE: admits derived streams through the standard
/// `(variable, seqno)` gate and forwards admitted elements **verbatim**
/// — same variable id, same seqno, same payload.
///
/// Forwarding verbatim (instead of re-stamping a per-relay stream) is
/// a deliberate invariant: every tier sees each origin stream under
/// its original key, so (a) duplicate suppression composes — an
/// element replayed after a re-parent is recognized anywhere on the
/// new path — and (b) a subtree can be moved under a new parent
/// without renumbering a single message.
#[derive(Debug)]
pub struct Relay {
    tier: u8,
    index: u32,
    gate: SeqGate,
    window: ReplayWindow,
    dead: bool,
    forwarded: u64,
    duplicates: u64,
}

impl Relay {
    /// A relay at position `index` on interior tier `tier` (1-based
    /// above the leaves) retaining `replay_window` forwarded elements.
    pub fn new(tier: u8, index: u32, replay_window: usize) -> Self {
        Relay {
            tier,
            index,
            gate: SeqGate::new(),
            window: ReplayWindow::new(replay_window),
            dead: false,
            forwarded: 0,
            duplicates: 0,
        }
    }

    /// This relay's `(tier, index)` coordinates.
    pub fn position(&self) -> (u8, u32) {
        (self.tier, self.index)
    }

    /// Offers one derived update; returns the element to forward
    /// upward, or `None` if the gate discarded it (or the relay is
    /// dead — a frame sent to a crashed node is simply lost, exactly
    /// like a datagram to a dead socket).
    pub fn ingest(&mut self, d: &DerivedUpdate) -> Option<DerivedUpdate> {
        if self.dead {
            return None;
        }
        if !self.gate.admit_derived(d) {
            self.duplicates += 1;
            return None;
        }
        self.forwarded += 1;
        self.window.push(d.clone());
        Some(d.clone())
    }

    /// The replay window of this relay's uplink.
    pub fn window(&self) -> &ReplayWindow {
        &self.window
    }

    /// Marks the relay crashed.
    pub fn kill(&mut self) {
        self.dead = true;
    }

    /// Whether the relay has been killed.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Elements forwarded upward.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Elements the gate discarded (replica copies, replays).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::verdict;
    use rcm_core::{derived_var, DerivedEmitter};

    #[test]
    fn forwards_verbatim_once_per_element() {
        let mut em = DerivedEmitter::new(derived_var(0, 0));
        let mut relay = Relay::new(1, 0, 4);
        let d = em.emit(verdict(1));
        let fwd = relay.ingest(&d).expect("first copy admitted");
        assert_eq!(fwd, d, "forwarded element is byte-identical");
        assert!(relay.ingest(&d).is_none(), "replica copy dropped");
        assert_eq!((relay.forwarded(), relay.duplicates()), (1, 1));
        assert_eq!(relay.window().len(), 1);
        assert_eq!(relay.position(), (1, 0));
    }

    #[test]
    fn dead_relay_drops_frames_without_counting_duplicates() {
        let mut em = DerivedEmitter::new(derived_var(0, 1));
        let mut relay = Relay::new(1, 2, 4);
        relay.kill();
        assert!(relay.ingest(&em.emit(verdict(1))).is_none());
        assert_eq!((relay.forwarded(), relay.duplicates()), (0, 0));
    }
}
