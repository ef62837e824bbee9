//! Seeded property invariants of the loss models.

use rcm_net::{cases, Bernoulli, GilbertElliott, Lossless, Rng};

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
