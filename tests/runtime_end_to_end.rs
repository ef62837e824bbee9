//! Integration tests running the threaded runtime and checking the
//! paper's properties on what the user actually saw.

use std::sync::Arc;

use rcm::core::ad::{Ad1, Ad2, Ad3, Ad4};
use rcm::core::condition::expr::CompiledCondition;
use rcm::core::condition::{cond, Cmp};
use rcm::core::{VarId, VarRegistry};
use rcm::net::{Bernoulli, Lossless};
use rcm::props::{check_complete_multi, check_consistent_multi, check_ordered};
use rcm::runtime::{MonitorSystem, VarFeed};

fn x() -> VarId {
    VarId::new(0)
}

fn sawtooth(n: usize) -> Vec<f64> {
    (0..n).map(|i| f64::from((i % 10) as u32) * 30.0 + i as f64).collect()
}

#[test]
fn lossless_runtime_is_complete_and_consistent() {
    let cond = Arc::new(cond::delta_rise(x(), 25.0));
    let system = MonitorSystem::builder(cond.clone())
        .replicas(3)
        .feed(VarFeed::new(x(), sawtooth(60)))
        .loss(|_, _| Box::new(Lossless))
        .start()
        .expect("valid configuration");
    let report = system.wait();
    assert!(!report.displayed.is_empty());
    assert!(check_complete_multi(&cond, &report.ingested, &report.displayed).ok);
    assert!(check_consistent_multi(&cond, &report.ingested, &report.displayed).ok);
}

#[test]
fn ad2_runtime_output_is_always_ordered() {
    for seed in 0..5u64 {
        let cond = Arc::new(cond::threshold(x(), Cmp::Gt, 20.0));
        let system = MonitorSystem::builder(cond)
            .replicas(3)
            .feed(VarFeed::new(x(), sawtooth(80)))
            .loss(|_, _| Box::new(Bernoulli::new(0.25)))
            .seed(seed)
            .filter(|vars| Box::new(Ad2::new(vars[0])))
            .start()
            .expect("valid configuration");
        let report = system.wait();
        assert!(check_ordered(&report.displayed, &[x()]).ok, "seed {seed}: AD-2 output unordered");
    }
}

#[test]
fn ad3_and_ad4_runtime_output_is_always_consistent() {
    for seed in 0..5u64 {
        for ad4 in [false, true] {
            let cond = Arc::new(cond::delta_rise(x(), 25.0));
            let system = MonitorSystem::builder(cond.clone())
                .replicas(2)
                .feed(VarFeed::new(x(), sawtooth(80)))
                .loss(|_, _| Box::new(Bernoulli::new(0.3)))
                .seed(seed)
                .filter(move |vars| {
                    if ad4 {
                        Box::new(Ad4::new(vars[0]))
                    } else {
                        Box::new(Ad3::new([vars[0]]))
                    }
                })
                .start()
                .expect("valid configuration");
            let report = system.wait();
            let cons = check_consistent_multi(&cond, &report.ingested, &report.displayed);
            assert!(cons.ok, "seed {seed} ad4={ad4}: {:?}", cons.conflict);
            if ad4 {
                assert!(check_ordered(&report.displayed, &[x()]).ok);
            }
        }
    }
}

#[test]
fn compiled_expression_runs_through_the_runtime() {
    let mut registry = VarRegistry::new();
    let cond = CompiledCondition::compile(
        "price[0].value - price[-1].value > 10 && consecutive(price)",
        &mut registry,
    )
    .expect("valid source");
    let price = registry.lookup("price").expect("registered");
    let cond = Arc::new(cond);
    let system = MonitorSystem::builder(cond.clone())
        .replicas(2)
        .feed(VarFeed::new(price, sawtooth(40)))
        .filter(|_| Box::new(Ad1::new()))
        .start()
        .expect("valid configuration");
    let report = system.wait();
    assert!(!report.displayed.is_empty());
    assert!(check_consistent_multi(&cond, &report.ingested, &report.displayed).ok);
}

#[test]
fn streaming_feed_delivers_alerts_live() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cond = Arc::new(cond::threshold(x(), Cmp::Gt, 100.0));
    let (feed, tx) = rcm::runtime::VarFeed::streaming(x());
    let seen = Arc::new(AtomicUsize::new(0));
    let seen2 = Arc::clone(&seen);
    let system = MonitorSystem::builder(cond)
        .replicas(2)
        .feed(feed)
        .on_alert(move |_| {
            seen2.fetch_add(1, Ordering::SeqCst);
        })
        .start()
        .expect("valid configuration");

    tx.send(50.0).unwrap();
    tx.send(150.0).unwrap(); // alert
                             // The alert must surface while the stream is still open.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while seen.load(Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "alert never surfaced");
        std::thread::yield_now();
    }

    tx.send(200.0).unwrap(); // second alert
    drop(tx); // end of stream
    let report = system.wait();
    assert_eq!(report.displayed.len(), 2);
    assert_eq!(seen.load(Ordering::SeqCst), 2);
}

#[test]
fn replication_survives_a_totally_deaf_replica() {
    // One replica's link drops everything: the system still alerts.
    let cond = Arc::new(cond::threshold(x(), Cmp::Gt, 50.0));
    let system = MonitorSystem::builder(cond)
        .replicas(2)
        .feed(VarFeed::new(x(), vec![10.0, 60.0, 70.0]))
        .loss(
            |_, ce| {
                if ce.index() == 0 {
                    Box::new(Bernoulli::new(1.0))
                } else {
                    Box::new(Lossless)
                }
            },
        )
        .start()
        .expect("valid configuration");
    let report = system.wait();
    assert!(report.ingested[0].is_empty());
    assert_eq!(report.displayed.len(), 2);
}
