//! Property-based invariants of the link substrate.

use proptest::prelude::*;

use rcm_net::{
    Bernoulli, ConstantDelay, GilbertElliott, InOrderGate, Lossless, LossyLink, ReliableLink, Rng,
    Transmit, UniformDelay,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reliable_link_never_reorders(
        seed in any::<u64>(),
        sends in proptest::collection::vec(0u64..5, 1..100),
        max_delay in 0u64..50,
    ) {
        let mut link = ReliableLink::new(Box::new(UniformDelay::new(0, max_delay)));
        let mut rng = Rng::seed_from_u64(seed);
        let mut now = 0;
        let mut prev = 0;
        for gap in sends {
            now += gap;
            let at = link.transmit(now, &mut rng);
            prop_assert!(at >= now);
            prop_assert!(at >= prev, "reliable link reordered: {at} < {prev}");
            prev = at;
        }
        prop_assert_eq!(link.stats().dropped, 0);
    }

    #[test]
    fn lossy_link_tags_are_strictly_increasing(
        seed in any::<u64>(),
        n in 1usize..200,
        p in 0.0f64..1.0,
    ) {
        let mut link = LossyLink::new(
            Box::new(Bernoulli::new(p)),
            Box::new(ConstantDelay::new(1)),
        );
        let mut rng = Rng::seed_from_u64(seed);
        let mut last_tag = None;
        for now in 0..n as u64 {
            if let Transmit::DeliverAt { tag, .. } = link.transmit(now, &mut rng) {
                if let Some(last) = last_tag {
                    prop_assert!(tag > last);
                }
                last_tag = Some(tag);
            }
        }
        let stats = link.stats();
        prop_assert_eq!(stats.sent, n as u64);
        prop_assert_eq!(stats.transmitted() + stats.dropped, n as u64);
    }

    #[test]
    fn gate_output_tags_are_strictly_increasing(
        tags in proptest::collection::vec(0u64..50, 0..100),
    ) {
        let mut gate = InOrderGate::new();
        let mut accepted = Vec::new();
        for t in &tags {
            if gate.accept(*t) {
                accepted.push(*t);
            }
        }
        prop_assert!(accepted.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(
            accepted.len() as u64 + gate.discarded(),
            tags.len() as u64
        );
    }

    #[test]
    fn loss_models_are_deterministic_per_seed(
        seed in any::<u64>(),
        n in 1usize..300,
    ) {
        for model in [
            "bernoulli",
            "gilbert",
            "lossless",
        ] {
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
                prop_assert_eq!(a.drops(&mut ra), b.drops(&mut rb), "{}", model);
            }
        }
    }

    #[test]
    fn end_to_end_gate_converts_overtaking_to_loss(
        seed in any::<u64>(),
        n in 1usize..100,
    ) {
        // A jittery lossless link plus a gate: everything delivered is
        // in order and nothing is double-counted.
        let mut link = LossyLink::new(
            Box::new(Lossless),
            Box::new(UniformDelay::new(0, 10)),
        );
        let mut rng = Rng::seed_from_u64(seed);
        let mut deliveries: Vec<(u64, u64)> = (0..n as u64)
            .filter_map(|now| match link.transmit(now, &mut rng) {
                Transmit::DeliverAt { at, tag } => Some((at, tag)),
                Transmit::Dropped => None,
            })
            .collect();
        prop_assert_eq!(deliveries.len(), n); // lossless: all sent
        // Sort by arrival time, breaking ties by tag (queue order).
        deliveries.sort_unstable();
        let mut gate = InOrderGate::new();
        let accepted: Vec<u64> = deliveries
            .iter()
            .filter(|(_, tag)| gate.accept(*tag))
            .map(|(_, tag)| *tag)
            .collect();
        prop_assert!(accepted.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(accepted.len() as u64 + gate.discarded(), n as u64);
    }
}
