//! Replays the paper's worked Examples 1–3 step by step, printing each
//! decision exactly as the text describes it.
//!
//! ```text
//! cargo run --example paper_walkthrough
//! ```

use rcm::core::ad::{Ad1, Ad2, Ad3, AlertFilter};
use rcm::core::condition::{cond, Cmp};
use rcm::core::{transduce, Alert, CeId, Update, VarId};

fn main() {
    example_1();
    example_2();
    example_3();
}

fn offer(filter: &mut dyn AlertFilter, alert: &Alert) -> &'static str {
    if filter.offer(alert).is_deliver() {
        "display"
    } else {
        "discard"
    }
}

/// Example 1 (§3): c1 over U = ⟨1x(2900), 2x(3100), 3x(3200)⟩; 2x is
/// lost at CE2; Algorithm AD-1 merges the streams.
fn example_1() {
    println!("=== Example 1: duplicate elimination under loss (AD-1) ===");
    let x = VarId::new(0);
    let c1 = cond::threshold(x, Cmp::Gt, 3000.0);
    let u = vec![Update::new(x, 1, 2900.0), Update::new(x, 2, 3100.0), Update::new(x, 3, 3200.0)];
    let u1 = u.clone();
    let u2 = vec![u[0], u[2]];
    let a1 = transduce(&c1, CeId::new(1), &u1);
    let a2 = transduce(&c1, CeId::new(2), &u2);
    println!(
        "  A1 = T(U1) = ⟨a1, a2⟩ with a1.H = ⟨2x⟩, a2.H = ⟨3x⟩: {:?}",
        a1.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    println!(
        "  A2 = T(U2) = ⟨a3⟩ with a3.H = ⟨3x⟩: {:?}",
        a2.iter().map(ToString::to_string).collect::<Vec<_>>()
    );

    // Arrival order a1, a3, then a2 — the paper's walkthrough.
    let mut ad = Ad1::new();
    println!("  arrival a1 → {}", offer(&mut ad, &a1[0]));
    println!("  arrival a3 → {}", offer(&mut ad, &a2[0]));
    println!("  arrival a2 → {} (identical to a3)", offer(&mut ad, &a1[1]));
    println!("  A = ⟨a1, a3⟩ — two alerts reach the user\n");
}

/// Example 2 (§4.2): AD-2 sacrifices completeness for orderedness.
fn example_2() {
    println!("=== Example 2: AD-2 drops a late alert (incompleteness) ===");
    let x = VarId::new(0);
    let c1 = cond::threshold(x, Cmp::Gt, 3000.0);
    let u1 = vec![Update::new(x, 1, 3100.0)];
    let u2 = vec![Update::new(x, 2, 3200.0)];
    let a1 = transduce(&c1, CeId::new(1), &u1);
    let a2 = transduce(&c1, CeId::new(2), &u2);

    let mut ad = Ad2::new(x);
    println!("  arrival a2 (seqno 2) → {}", offer(&mut ad, &a2[0]));
    println!("  arrival a1 (seqno 1) → {} (out of order)", offer(&mut ad, &a1[0]));
    println!("  A = ⟨a2⟩, but T(U1 ⊔ U2) has two alerts — ordered yet incomplete\n");
}

/// Example 3 (§4.3): AD-3's Received/Missed conflict test.
fn example_3() {
    println!("=== Example 3: AD-3 rejects a conflicting alert ===");
    let x = VarId::new(0);
    // A degree-2 condition that always fires once defined, so the
    // histories are exactly the paper's ⟨3x, 1x⟩ and ⟨3x, 2x⟩.
    let always = rcm::core::condition::cond::delta_rise(x, f64::NEG_INFINITY);
    let u1 = vec![Update::new(x, 1, 0.0), Update::new(x, 3, 0.0)]; // CE1 missed 2x
    let u2 = vec![Update::new(x, 2, 0.0), Update::new(x, 3, 0.0)]; // CE2 missed 1x
    let a1 = transduce(&always, CeId::new(1), &u1);
    let a2 = transduce(&always, CeId::new(2), &u2);
    let alert_a1 = a1.last().expect("CE1 alerts at 3x");
    let alert_a2 = a2.last().expect("CE2 alerts at 3x");

    let mut ad = Ad3::new([x]);
    println!("  arrival a1 with H = ⟨3x, 1x⟩ → {}", offer(&mut ad, alert_a1));
    println!("    Received = {{1, 3}}, Missed = {{2}}");
    println!("  arrival a2 with H = ⟨3x, 2x⟩ → {} (2 is in Missed)", offer(&mut ad, alert_a2));
    println!("  displaying both would need update 2 received AND missed — inconsistent");
}
