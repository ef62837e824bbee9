//! Quickstart: monitor a reactor temperature with two replicated
//! Condition Evaluators and see duplicate suppression in action.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use rcm::core::ad::Ad1;
use rcm::core::condition::{cond, Cmp};
use rcm::core::VarId;
use rcm::runtime::{MonitorSystem, VarFeed};

fn main() {
    // One real-world variable: the reactor temperature.
    let temp = VarId::new(0);

    // c1 from the paper: "reactor temperature is over 3000 degrees".
    let condition = Arc::new(cond::threshold(temp, Cmp::Gt, 3000.0));

    // Two replicated CEs, exact-duplicate removal at the Alert
    // Displayer, and a scripted set of readings (Example 1's trace).
    let system = MonitorSystem::builder(condition)
        .replicas(2)
        .feed(VarFeed::new(temp, vec![2900.0, 3100.0, 3200.0]))
        .filter(|_| Box::new(Ad1::new()))
        .on_alert(|alert| println!("ALERT {alert}"))
        .start()
        .expect("valid configuration");

    let report = system.wait();

    println!();
    println!(
        "updates ingested per replica: {:?}",
        report.ingested.iter().map(Vec::len).collect::<Vec<_>>()
    );
    println!("alerts arriving at the AD:    {}", report.arrivals.len());
    println!("alerts shown to the user:     {}", report.displayed.len());
    println!();
    println!(
        "Both replicas alerted on updates 2 and 3; AD-1 recognized the \
         replicas' alerts as identical (same update histories), so the \
         user saw each alert once."
    );
    assert_eq!(report.arrivals.len(), 4);
    assert_eq!(report.displayed.len(), 2);
}
