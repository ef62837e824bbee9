//! Seeded property invariants of the link substrate.

use rcm_net::{
    cases, Bernoulli, ConstantDelay, GilbertElliott, Lossless, LossyLink, ReliableLink, Rng,
    Transmit, UniformDelay,
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
        // A send's tag is its index on the link, `stats().sent` just
        // before it: each send is counted once, delivered or dropped.
        let n = 1 + rng.below(size + 1);
        let p = rng.next_f64();
        let mut link = LossyLink::new(Box::new(Bernoulli::new(p)), Box::new(ConstantDelay::new(1)));
        let mut last_tag = None;
        let mut dropped = 0;
        for now in 0..n as u64 {
            let tag = link.stats().sent;
            match link.transmit(now, rng) {
                Transmit::DeliverAt { at } => {
                    assert_eq!(at, now + 1);
                    if let Some(last) = last_tag {
                        assert!(tag > last);
                    }
                    last_tag = Some(tag);
                }
                Transmit::Dropped => dropped += 1,
            }
            assert_eq!(link.stats().sent, tag + 1);
        }
        let stats = link.stats();
        assert_eq!(stats.sent, n as u64);
        assert_eq!(stats.dropped, dropped);
        assert!(stats.dropped <= stats.sent);
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
