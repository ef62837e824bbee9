//! Tour of the condition expression language: the paper's conditions
//! written as text, compiled, classified and evaluated.
//!
//! ```text
//! cargo run --example expression_conditions
//! ```

use rcm::core::condition::expr::CompiledCondition;
use rcm::core::condition::{cond, Condition, ConditionExt, Triggering};
use rcm::core::{transduce, CeId, Update, VarRegistry};

fn main() {
    let mut registry = VarRegistry::new();

    let sources = [
        // The paper's named conditions.
        ("c1 (threshold)", "temp[0].value > 3000"),
        ("c2 (aggressive rise)", "temp[0].value - temp[-1].value > 200"),
        ("c3 (conservative rise)", "temp[0].value - temp[-1].value > 200 && consecutive(temp)"),
        ("cm (two reactors)", "abs(temp[0].value - temp2[0].value) > 100"),
        // Beyond the paper's examples:
        ("sharp drop (intro)", "(price[-1].value - price[0].value) / price[-1].value > 0.2"),
        (
            "bounded high watermark",
            "load[0].value >= max_over(load, 4) && load[0].value > load[-1].value",
        ),
        ("smoothed threshold", "avg_over(load, 3) > 80"),
        ("seqno arithmetic", "temp[0].seqno == temp[-1].seqno + 1 && temp[0].value > 3000"),
    ];

    println!("{:<24} {:<10} {:<14} variables", "name", "degree", "triggering");
    for (name, src) in sources {
        let cond = CompiledCondition::compile(src, &mut registry)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let vars = cond.variables();
        let max_degree = vars.iter().map(|&v| cond.degree(v)).max().unwrap_or(0);
        let class = if cond.is_non_historical() {
            "non-hist."
        } else {
            match cond.triggering() {
                Triggering::Conservative => "conservative",
                Triggering::Aggressive => "aggressive",
            }
        };
        let var_names: Vec<&str> = vars.iter().filter_map(|&v| registry.name(v)).collect();
        println!("{:<24} {:<10} {:<14} {:?}", name, max_degree, class, var_names);
    }

    // Run one of them end to end: the bounded high watermark on a noisy
    // climb. Alerts fire exactly when a reading tops the last four.
    println!("\nbounded high watermark over a noisy climb:");
    let cond = CompiledCondition::compile(
        "load[0].value >= max_over(load, 4) && load[0].value > load[-1].value",
        &mut registry,
    )
    .expect("checked above");
    let load = registry.lookup("load").expect("registered");
    let readings = [50.0, 62.0, 58.0, 71.0, 69.0, 66.0, 84.0, 80.0, 91.0];
    let updates: Vec<Update> =
        readings.iter().enumerate().map(|(i, &v)| Update::new(load, i as u64 + 1, v)).collect();
    let fired: Vec<(u64, f64)> = transduce(&cond, CeId::new(0), &updates)
        .iter()
        .flat_map(|alert| alert.updates().take(1))
        .map(|u| (u.seqno.get(), u.value))
        .collect();
    for (seq, v) in &fired {
        println!("  new local maximum at reading {seq}: {v}");
    }
    assert_eq!(fired, vec![(4, 71.0), (7, 84.0), (9, 91.0)]);

    // The ready-made constructors build the same kind of expression:
    // the debounced alarm, three readings in a row above 60.
    let debounced = cond::sustained_above(load, 60.0, 3);
    let alerts = transduce(&debounced, CeId::new(0), &updates);
    let at: Vec<u64> =
        alerts.iter().filter_map(|alert| alert.seqno(load)).map(|s| s.get()).collect();
    println!("\n{} ({}): readings {at:?}", debounced.name(), debounced.triggering());
    assert_eq!(at, vec![6, 7, 8, 9]);
}
