//! Seeded properties of the simulator's front-link admission: what a
//! `LossyLink` delivers passes one `SeqGate` per replica, as in `run`.

use rcm_core::{Update, VarId};
use rcm_net::{cases, Lossless, LossyLink, Transmit, UniformDelay};
use rcm_transport::SeqGate;

fn update(seqno: u64) -> Update {
    Update::new(VarId::new(0), seqno, 0.0)
}

#[test]
fn gate_output_tags_are_strictly_increasing() {
    cases("gate_output_tags_are_strictly_increasing", 128, 99, |rng, size| {
        let tags: Vec<u64> = (0..rng.below(size + 1)).map(|_| 1 + rng.below(50) as u64).collect();
        let mut gate = SeqGate::new();
        let mut accepted = Vec::new();
        let mut discarded = 0u64;
        for t in &tags {
            if gate.admit(&update(*t)) {
                accepted.push(*t);
            } else {
                discarded += 1;
            }
        }
        assert!(accepted.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(accepted.len() as u64 + discarded, tags.len() as u64);
        assert_eq!(gate.cursor(VarId::new(0)), accepted.last().copied());
    });
}

#[test]
fn end_to_end_gate_converts_overtaking_to_loss() {
    cases("end_to_end_gate_converts_overtaking_to_loss", 128, 98, |rng, size| {
        // A jittery lossless link plus a gate: everything admitted is in
        // order and nothing is double-counted. The k-th send carries
        // seqno k, as each emit sends once on each replica's link.
        let n = 1 + rng.below(size + 1);
        let mut link = LossyLink::new(Box::new(Lossless), Box::new(UniformDelay::new(0, 10)));
        let mut deliveries: Vec<(u64, u64)> = (1..=n as u64)
            .filter_map(|seqno| match link.transmit(seqno, rng) {
                Transmit::DeliverAt { at } => Some((at, seqno)),
                Transmit::Dropped => None,
            })
            .collect();
        // Lossless: every send is delivered.
        assert_eq!(deliveries.len(), n);
        // Sort by arrival time, breaking ties by seqno (queue order).
        deliveries.sort_unstable();
        let mut gate = SeqGate::new();
        let (accepted, discarded): (Vec<u64>, Vec<u64>) =
            deliveries.iter().map(|&(_, seqno)| seqno).partition(|&s| gate.admit(&update(s)));
        assert!(accepted.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(accepted.len() + discarded.len(), n);
        // The newest send is never overtaken by a newer one.
        assert_eq!(accepted.last(), Some(&(n as u64)));
    });
}
