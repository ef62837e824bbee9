//! Keystone property: an aggregation tree displays **byte-identically**
//! the alert sequence of one flat CE fed the combined post-loss stream
//! — same fingerprints, snapshots and `AlertId` numbering — for any
//! leaf count, relay depth, fanout and replica count, at 0% and 20%
//! scripted front-link loss, with every tier-link hop round-tripped
//! through the binary wire codec.
//!
//! The deterministic seed sweep actually executes everywhere (it is
//! what CI's offline harness runs); the proptest block widens the same
//! property over drawn parameters under `cargo test`.

use std::sync::Arc;

use proptest::prelude::*;

use rcm_core::condition::{Cmp, Threshold};
use rcm_core::{Alert, CeId, CondId, ConditionRegistry, Update, VarId};
use rcm_transport::SeqGate;
use rcm_tree::{TreeEval, TreeOptions, TreePlan};

const ROOT_CE: CeId = CeId::new(77);

/// splitmix64 — the repo's stock deterministic scrambler.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one equivalence case needs, derived from a seed.
struct Case {
    /// `(global cond id, owning leaf, variable, threshold)`.
    conds: Vec<(CondId, usize, VarId, f64)>,
    /// `(variable, owning leaf)`.
    vars: Vec<(VarId, usize)>,
    /// The post-loss stream both systems are fed.
    stream: Vec<Update>,
    leaves: usize,
    relay_tiers: usize,
    fanout: usize,
    replicas: usize,
}

fn build_case(seed: u64, loss_pct: u64) -> Case {
    let mut rng = seed.wrapping_mul(2).wrapping_add(1);
    let leaves = 1 + (mix(&mut rng) % 4) as usize;
    let relay_tiers = (mix(&mut rng) % 3) as usize;
    let fanout = 1 + (mix(&mut rng) % 3) as usize;
    let replicas = 1 + (mix(&mut rng) % 3) as usize;

    // Disjoint variable shards: each leaf owns 1..=3 variables.
    let mut vars = Vec::new();
    let mut next_var = 0u32;
    let mut per_leaf_vars: Vec<Vec<VarId>> = Vec::new();
    for leaf in 0..leaves {
        let n = 1 + (mix(&mut rng) % 3) as usize;
        let mut mine = Vec::new();
        for _ in 0..n {
            let v = VarId::new(next_var);
            next_var += 1;
            vars.push((v, leaf));
            mine.push(v);
        }
        per_leaf_vars.push(mine);
    }

    // 1..=3 conditions per leaf over its own variables, with global
    // condition ids *interleaved* across leaves (round-robin) so the
    // equivalence cannot lean on ids being contiguous per leaf.
    let mut staged: Vec<Vec<(usize, VarId, f64)>> = Vec::new();
    for (leaf, mine) in per_leaf_vars.iter().enumerate() {
        let n = 1 + (mix(&mut rng) % 3) as usize;
        let mut here = Vec::new();
        for _ in 0..n {
            let var = mine[(mix(&mut rng) as usize) % mine.len()];
            let threshold = (mix(&mut rng) % 100) as f64 - 50.0;
            here.push((leaf, var, threshold));
        }
        staged.push(here);
    }
    let mut conds = Vec::new();
    let mut next_id = 0u32;
    let mut round = 0usize;
    loop {
        let mut any = false;
        for here in &staged {
            if let Some(&(leaf, var, threshold)) = here.get(round) {
                conds.push((CondId::new(next_id), leaf, var, threshold));
                next_id += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
        round += 1;
    }

    // A 200-step stream with per-variable seqno gaps, then scripted
    // loss applied *once* — both systems see the identical survivor
    // sequence, as lossless tier links guarantee in deployment.
    let mut next_seq: Vec<u64> = vec![1; vars.len()];
    let mut stream = Vec::new();
    for _ in 0..200 {
        let vi = (mix(&mut rng) as usize) % vars.len();
        let gap = 1 + (mix(&mut rng) % 2);
        let seqno = next_seq[vi] + gap - 1;
        next_seq[vi] = seqno + 1;
        let value = (mix(&mut rng) % 120) as f64 - 60.0;
        if mix(&mut rng) % 100 < loss_pct {
            continue; // lost on the front link
        }
        stream.push(Update::new(vars[vi].0, seqno, value));
    }

    Case { conds, vars, stream, leaves, relay_tiers, fanout, replicas }
}

/// The flat reference: one gate, one registry hosting every condition,
/// registered in ascending global id order (the unsharded emission
/// order the tree must reproduce).
fn run_flat(case: &Case) -> Vec<Alert> {
    let mut gate = SeqGate::new();
    let mut reg = ConditionRegistry::new(ROOT_CE);
    let mut sorted = case.conds.clone();
    sorted.sort_by_key(|(id, ..)| id.index());
    for (id, _, var, threshold) in sorted {
        reg.insert(id, Arc::new(Threshold::new(var, Cmp::Gt, threshold)));
    }
    let mut out = Vec::new();
    for &u in &case.stream {
        if gate.admit(&u) {
            reg.ingest(u, &mut out);
        }
    }
    out
}

fn run_tree(case: &Case, wire_check: bool) -> (Vec<Alert>, rcm_tree::TreeStats) {
    let mut plan =
        TreePlan::new(case.leaves).with_relay_tiers(case.relay_tiers).with_fanout(case.fanout);
    for &(var, leaf) in &case.vars {
        plan.own(var, leaf);
    }
    for &(id, leaf, var, threshold) in &case.conds {
        let placed =
            plan.add_condition(id, Arc::new(Threshold::new(var, Cmp::Gt, threshold))).unwrap();
        assert_eq!(placed, leaf, "placement follows ownership");
    }
    let opts = TreeOptions {
        root_ce: ROOT_CE,
        leaf_replicas: case.replicas,
        wire_check,
        ..TreeOptions::default()
    };
    let mut tree = TreeEval::build(plan, opts);
    let mut out = Vec::new();
    for &u in &case.stream {
        tree.ingest(u, &mut out);
    }
    let stats = tree.stats();
    (out, stats)
}

fn assert_byte_identical(got: &[Alert], want: &[Alert], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: alert counts differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{context}: alert {i} differs (cond/fingerprint)");
        assert_eq!(g.id, w.id, "{context}: alert {i} provenance differs");
        assert_eq!(g.snapshot[..], w.snapshot[..], "{context}: alert {i} snapshot differs");
    }
}

#[test]
fn tree_matches_flat_ce_lossless_seed_sweep() {
    for seed in 0..24u64 {
        let case = build_case(seed, 0);
        let want = run_flat(&case);
        let (got, stats) = run_tree(&case, true);
        assert_byte_identical(&got, &want, &format!("seed {seed}, 0% loss"));
        assert_eq!(stats.root_alerts as usize, want.len());
        assert_eq!(
            stats.derived_duplicates,
            stats.derived_emitted - stats.derived_emitted / case.replicas as u64,
            "seed {seed}: replica copies beyond the first are gated out"
        );
        if case.relay_tiers > 0 && !want.is_empty() {
            assert!(stats.derived_forwarded > 0, "seed {seed}: relays carried the streams");
        }
    }
}

#[test]
fn tree_matches_flat_ce_under_20pct_loss_seed_sweep() {
    for seed in 0..24u64 {
        let case = build_case(seed, 20);
        let want = run_flat(&case);
        let (got, _) = run_tree(&case, true);
        assert_byte_identical(&got, &want, &format!("seed {seed}, 20% loss"));
    }
}

/// Re-parenting mid-stream keeps every per-condition alert sequence
/// byte-identical to the flat CE (global interleaving may shift while
/// a subtree is orphaned; per-stream order and exactly-once may not).
#[test]
fn reparented_tree_preserves_per_condition_sequences() {
    for seed in 0..12u64 {
        let mut case = build_case(seed, 10);
        case.relay_tiers = 1;
        case.fanout = 1; // one relay per leaf: killing one orphans one subtree
        let want = run_flat(&case);

        let mut plan = TreePlan::new(case.leaves).with_relay_tiers(1).with_fanout(1);
        for &(var, leaf) in &case.vars {
            plan.own(var, leaf);
        }
        for &(id, _, var, threshold) in &case.conds {
            plan.add_condition(id, Arc::new(Threshold::new(var, Cmp::Gt, threshold))).unwrap();
        }
        let opts = TreeOptions {
            root_ce: ROOT_CE,
            leaf_replicas: case.replicas,
            replay_window: 512, // outage shorter than the window: lossless recovery
            wire_check: true,
            ..TreeOptions::default()
        };
        let mut tree = TreeEval::build(plan, opts);
        let mut got = Vec::new();
        let third = case.stream.len() / 3;
        for (i, &u) in case.stream.iter().enumerate() {
            if i == third {
                tree.kill_relay(1, 0);
            }
            if i == 2 * third {
                tree.reparent_orphans(&mut got);
            }
            tree.ingest(u, &mut got);
        }
        tree.reparent_orphans(&mut got);

        // Same multiset; per condition, the exact flat sequence.
        assert_eq!(got.len(), want.len(), "seed {seed}: exactly-once count");
        let conds: std::collections::BTreeSet<u32> = want.iter().map(|a| a.cond.index()).collect();
        for cond in conds {
            let g: Vec<&Alert> = got.iter().filter(|a| a.cond.index() == cond).collect();
            let w: Vec<&Alert> = want.iter().filter(|a| a.cond.index() == cond).collect();
            assert_eq!(g.len(), w.len(), "seed {seed}, cond {cond}: count");
            for (x, y) in g.iter().zip(&w) {
                assert_eq!(x, y, "seed {seed}, cond {cond}: alert payload");
                assert_eq!(x.id, y.id, "seed {seed}, cond {cond}: provenance");
            }
        }
        let stats = tree.stats();
        assert!(stats.reparent_events >= 1, "seed {seed}: a subtree was re-parented");
        assert!(stats.replayed_frames > 0, "seed {seed}: windows were replayed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same property over drawn seeds and loss rates.
    #[test]
    fn tree_matches_flat_ce_any_topology(
        seed in 0u64..1_000_000,
        loss_pct in prop_oneof![Just(0u64), Just(20u64)],
    ) {
        let case = build_case(seed, loss_pct);
        let want = run_flat(&case);
        let (got, stats) = run_tree(&case, true);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g, w);
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(&g.snapshot[..], &w.snapshot[..]);
        }
        prop_assert_eq!(stats.root_alerts as usize, want.len());
    }
}
