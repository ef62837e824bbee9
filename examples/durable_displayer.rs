//! Durable Alert Displayer: the AD checkpoints its filter state, dies,
//! restarts from the snapshot, and keeps its consistency guarantee —
//! the paper's AD-3 only works because the AD *remembers* what it
//! declared received and missed, so a real deployment must persist
//! that state.
//!
//! ```text
//! cargo run --example durable_displayer
//! ```

use rcm::core::ad::{Ad3, AlertFilter};
use rcm::core::condition::cond;
use rcm::core::{transduce, Alert, CeId, Update, VarId};

fn main() {
    let x = VarId::new(0);
    // Aggressive delta condition — the one whose replicated alerts can
    // genuinely conflict (Theorem 4).
    let c2 = cond::delta_rise(x, 200.0);

    // Theorem 4's trace: CE1 saw everything, CE2 missed update 2.
    let u = vec![Update::new(x, 1, 400.0), Update::new(x, 2, 700.0), Update::new(x, 3, 720.0)];
    let a1 = transduce(&c2, CeId::new(1), &u); // alert on 2 (H = ⟨2,1⟩)
    let a2 = transduce(&c2, CeId::new(2), &[u[0], u[2]]); // alert on 3 (H = ⟨3,1⟩)

    let mut ad = Ad3::new([x]);
    show(&mut ad, &a1[0]);

    // --- the display process restarts -------------------------------
    let snapshot = ad.to_json().to_string();
    println!("\n[AD restarting — persisted state: {snapshot}]\n");
    drop(ad);
    let state = rcm_json::parse(&snapshot).expect("a snapshot is JSON");
    let mut ad = Ad3::from_json(&state).expect("state restores");
    // -----------------------------------------------------------------

    // CE2's conflicting alert arrives *after* the restart. A forgetful
    // AD would display it, showing the user two contradictory rises; the
    // restored one still knows update 2 was declared received.
    show(&mut ad, &a2[0]);

    println!(
        "\nThe restored displayer rejected the conflicting alert: its \
         Received/Missed memory survived the restart, so the user's view \
         stayed consistent. A fresh (forgetful) Ad3 would have shown both:"
    );
    let mut forgetful = Ad3::new([x]);
    show(&mut forgetful, &a2[0]);
}

fn show(ad: &mut Ad3, alert: &Alert) {
    let decision = ad.offer(alert);
    println!(
        "alert {alert} → {}",
        if decision.is_deliver() { "DISPLAY" } else { "discard (conflict)" }
    );
}
