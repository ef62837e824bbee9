//! Seeded property invariants of the link substrate.

use rcm_net::{
    cases, Bernoulli, ConstantDelay, GilbertElliott, InOrderGate, Lossless, LossyLink,
    ReliableLink, Rng, Transmit, UniformDelay,
};

// Each case's own generator draws the inputs and then drives the link.

#[test]
fn reliable_link_never_reorders() {
    cases("reliable_link_never_reorders", 128, 98, |rng, size| {
        let sends: Vec<u64> = (0..1 + rng.below(size + 1)).map(|_| rng.below(5) as u64).collect();
        let mut link = ReliableLink::new(Box::new(UniformDelay::new(0, rng.below(50) as u64)));
        let mut now = 0;
        let mut prev = 0;
        for gap in sends {
            now += gap;
            let at = link.transmit(now, rng);
            assert!(at >= now);
            assert!(at >= prev, "reliable link reordered: {at} < {prev}");
            prev = at;
        }
        assert_eq!(link.stats().dropped, 0);
    });
}

#[test]
fn lossy_link_tags_are_strictly_increasing() {
    cases("lossy_link_tags_are_strictly_increasing", 128, 198, |rng, size| {
        let n = 1 + rng.below(size + 1);
        let p = rng.next_f64();
        let mut link = LossyLink::new(Box::new(Bernoulli::new(p)), Box::new(ConstantDelay::new(1)));
        let mut last_tag = None;
        let mut dropped = 0;
        for now in 0..n as u64 {
            match link.transmit(now, rng) {
                Transmit::DeliverAt { tag, .. } => {
                    if let Some(last) = last_tag {
                        assert!(tag > last);
                    }
                    last_tag = Some(tag);
                }
                Transmit::Dropped => dropped += 1,
            }
        }
        let stats = link.stats();
        assert_eq!(stats.sent, n as u64);
        assert_eq!(stats.dropped, dropped);
        assert!(stats.dropped <= stats.sent);
    });
}

#[test]
fn gate_output_tags_are_strictly_increasing() {
    cases("gate_output_tags_are_strictly_increasing", 128, 99, |rng, size| {
        let tags: Vec<u64> = (0..rng.below(size + 1)).map(|_| rng.below(50) as u64).collect();
        let mut gate = InOrderGate::new();
        let mut accepted = Vec::new();
        for t in &tags {
            if gate.accept(*t) {
                accepted.push(*t);
            }
        }
        assert!(accepted.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(accepted.len() as u64 + gate.discarded(), tags.len() as u64);
    });
}

#[test]
fn loss_models_are_deterministic_per_seed() {
    cases("loss_models_are_deterministic_per_seed", 128, 298, |rng, size| {
        let (seed, n) = (rng.next_u64(), 1 + rng.below(size + 1));
        for model in ["bernoulli", "gilbert", "lossless"] {
            let make = || -> Box<dyn rcm_net::LossModel> {
                match model {
                    "bernoulli" => Box::new(Bernoulli::new(0.3)),
                    "gilbert" => Box::new(GilbertElliott::bursty(0.2, 4.0)),
                    _ => Box::new(Lossless),
                }
            };
            let mut a = make();
            let mut b = make();
            let mut ra = Rng::seed_from_u64(seed);
            let mut rb = Rng::seed_from_u64(seed);
            for _ in 0..n {
                assert_eq!(a.drops(&mut ra), b.drops(&mut rb), "{model}");
            }
        }
    });
}

#[test]
fn end_to_end_gate_converts_overtaking_to_loss() {
    cases("end_to_end_gate_converts_overtaking_to_loss", 128, 98, |rng, size| {
        // A jittery lossless link plus a gate: everything delivered is
        // in order and nothing is double-counted.
        let n = 1 + rng.below(size + 1);
        let mut link = LossyLink::new(Box::new(Lossless), Box::new(UniformDelay::new(0, 10)));
        let mut deliveries: Vec<(u64, u64)> = (0..n as u64)
            .filter_map(|now| match link.transmit(now, rng) {
                Transmit::DeliverAt { at, tag } => Some((at, tag)),
                Transmit::Dropped => None,
            })
            .collect();
        assert_eq!(deliveries.len(), n); // lossless: all sent
                                         // Sort by arrival time, breaking ties by tag (queue order).
        deliveries.sort_unstable();
        let mut gate = InOrderGate::new();
        let accepted: Vec<u64> =
            deliveries.iter().filter(|(_, tag)| gate.accept(*tag)).map(|(_, tag)| *tag).collect();
        assert!(accepted.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(accepted.len() as u64 + gate.discarded(), n as u64);
    });
}
