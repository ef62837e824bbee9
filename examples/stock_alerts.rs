//! The introduction's stock example: "sharp price drops" (more than
//! twenty percent between two consecutive quotes) under replication.
//!
//! Reproduces the paper's §1 confusion scenario — quotes 100, 50, 52;
//! CE2 misses the 50 — and shows how the AD algorithm choice changes
//! what the investor sees:
//!
//! * **AD-1** shows BOTH drop alerts (the investor thinks the price
//!   crashed twice);
//! * **AD-3/AD-4** show exactly one drop, because the second alert
//!   requires quote 2 to be simultaneously received and missed.
//!
//! ```text
//! cargo run --example stock_alerts
//! ```

use rcm::core::ad::{apply_filter, Ad1, Ad3, Ad4, AlertFilter};
use rcm::core::condition::cond;
use rcm::core::{transduce, Alert, CeId, Update, VarId};
use rcm::props::{check_consistent_multi, check_ordered};

fn main() {
    let stock = VarId::new(0);
    let condition = cond::sharp_drop(stock, 0.2);

    // The DM (a stock trading center) sends three quotes.
    let quotes = vec![
        Update::new(stock, 1, 100.0),
        Update::new(stock, 2, 50.0),
        Update::new(stock, 3, 52.0),
    ];

    // CE1 receives everything; CE2's front link loses the second quote.
    let u1 = quotes.clone();
    let u2 = vec![quotes[0], quotes[2]];
    let a1 = transduce(&condition, CeId::new(1), &u1);
    let a2 = transduce(&condition, CeId::new(2), &u2);

    println!("CE1 saw quotes 100, 50, 52  → alerts: {}", render(&a1));
    println!("CE2 saw quotes 100, 52      → alerts: {}", render(&a2));
    println!();

    // Alerts arrive at the AD interleaved; CE1's drop first.
    let arrivals: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();

    for (name, mut filter) in [
        ("AD-1", Box::new(Ad1::new()) as Box<dyn AlertFilter>),
        ("AD-3", Box::new(Ad3::new([stock]))),
        ("AD-4", Box::new(Ad4::new(stock))),
    ] {
        let shown = apply_filter(&mut *filter, &arrivals);
        let consistent = check_consistent_multi(&condition, &[u1.clone(), u2.clone()], &shown);
        let ordered = check_ordered(&shown, &[stock]);
        println!(
            "{name}: investor sees {} drop alert(s) {} — ordered: {}, consistent: {}",
            shown.len(),
            render(&shown),
            ordered.ok,
            consistent.ok,
        );
        match name {
            "AD-1" => {
                assert_eq!(shown.len(), 2);
                assert!(!consistent.ok, "the two alerts need quote 2 in conflicting states");
            }
            _ => {
                assert_eq!(shown.len(), 1);
                assert!(consistent.ok);
            }
        }
    }

    println!();
    println!(
        "AD-1 leaves the investor believing there were two separate crashes; \
         the consistency-enforcing displayers show the single drop any \
         non-replicated system could have reported."
    );
}

fn render(alerts: &[Alert]) -> String {
    let parts: Vec<String> = alerts
        .iter()
        .map(|a| format!("drop@quote{}", a.seqno(VarId::new(0)).expect("single var").get()))
        .collect();
    format!("[{}]", parts.join(", "))
}
