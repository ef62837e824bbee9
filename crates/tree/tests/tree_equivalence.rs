//! Keystone property: an aggregation tree displays **byte-identically**
//! the alert sequence of one flat CE fed the combined post-loss stream
//! — same fingerprints, snapshots and `AlertId` numbering — for any
//! leaf count, relay depth, fanout and replica count, at 0% and 20%
//! scripted front-link loss, with every tier-link hop a checked crossing
//! of the binary wire codec.
//!
//! Fixed seed sweeps pin the property; `tree_matches_flat_ce_any_topology`
//! widens it over drawn seeds and loss rates.

use std::sync::Arc;

use rcm_core::condition::{cond, Cmp};
use rcm_core::{Alert, CeId, CondId, ConditionRegistry, Update, VarId};
use rcm_net::{cases, Rng};
use rcm_transport::SeqGate;
use rcm_tree::{TreeEval, TreeOptions, TreePlan};

const ROOT_CE: CeId = CeId::new(77);

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
    let mut rng = Rng::seed_from_u64(seed);
    let leaves = 1 + rng.below(4);
    let relay_tiers = rng.below(3);
    let fanout = 1 + rng.below(3);
    let replicas = 1 + rng.below(3);

    // Disjoint variable shards: each leaf owns 1..=3 variables.
    let mut vars = Vec::new();
    let mut next_var = 0u32;
    let mut per_leaf_vars: Vec<Vec<VarId>> = Vec::new();
    for leaf in 0..leaves {
        let n = 1 + rng.below(3);
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
        let n = 1 + rng.below(3);
        let mut here = Vec::new();
        for _ in 0..n {
            let var = *rng.pick(mine);
            let threshold = rng.below(100) as f64 - 50.0;
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
        let vi = rng.below(vars.len());
        let gap = 1 + rng.below(2) as u64;
        let seqno = next_seq[vi] + gap - 1;
        next_seq[vi] = seqno + 1;
        let value = rng.below(120) as f64 - 60.0;
        if (rng.below(100) as u64) < loss_pct {
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
        reg.insert(id, Arc::new(cond::threshold(var, Cmp::Gt, threshold)));
    }
    let mut out = Vec::new();
    for &u in &case.stream {
        if gate.admit(&u) {
            reg.ingest(u, &mut out);
        }
    }
    out
}

/// The tree a case describes, every tier hop a checked crossing.
fn build_tree(case: &Case, replay_window: usize) -> TreeEval {
    let mut plan =
        TreePlan::new(case.leaves).with_relay_tiers(case.relay_tiers).with_fanout(case.fanout);
    for &(var, leaf) in &case.vars {
        plan.own(var, leaf);
    }
    for &(id, leaf, var, threshold) in &case.conds {
        let placed =
            plan.add_condition(id, Arc::new(cond::threshold(var, Cmp::Gt, threshold))).unwrap();
        assert_eq!(placed, leaf, "placement follows ownership");
    }
    let opts = TreeOptions { root_ce: ROOT_CE, leaf_replicas: case.replicas, replay_window };
    TreeEval::build(plan, opts)
}

fn run_tree(case: &Case) -> (Vec<Alert>, rcm_tree::TreeStats) {
    let mut tree = build_tree(case, TreeOptions::default().replay_window);
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

/// Same multiset as the flat CE and, per condition, the exact flat
/// sequence (global interleaving may shift while part of the tree is
/// cut off; per-stream order and exactly-once may not).
fn assert_per_condition_identical(got: &[Alert], want: &[Alert], seed: u64) {
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
}

#[test]
fn tree_matches_flat_ce_lossless_seed_sweep() {
    for seed in 0..24u64 {
        let case = build_case(seed, 0);
        let want = run_flat(&case);
        let (got, stats) = run_tree(&case);
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
        let (got, _) = run_tree(&case);
        assert_byte_identical(&got, &want, &format!("seed {seed}, 20% loss"));
    }
}

/// Re-parenting mid-stream keeps every per-condition alert sequence
/// byte-identical to the flat CE.
#[test]
fn reparented_tree_preserves_per_condition_sequences() {
    for seed in 0..12u64 {
        let mut case = build_case(seed, 10);
        case.relay_tiers = 1;
        case.fanout = 1; // one relay per leaf: killing one orphans one subtree
        let want = run_flat(&case);

        // Outage shorter than the window: lossless recovery.
        let mut tree = build_tree(&case, 512);
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

        assert_per_condition_identical(&got, &want, seed);
        let stats = tree.stats();
        assert!(stats.reparent_events >= 1, "seed {seed}: a subtree was re-parented");
        assert!(stats.replayed_frames > 0, "seed {seed}: windows were replayed");
    }
}

/// Severing one leaf replica's uplink for the second quarter of the
/// stream, then restoring it, keeps every per-condition alert sequence
/// byte-identical to the flat CE: with one replica the restore replay
/// fills the gap, with more the connected replicas carry the leaf.
#[test]
fn severed_leaf_uplink_preserves_per_condition_sequences() {
    let mut withheld = 0;
    for seed in 0..12u64 {
        let case = build_case(seed, 10);
        let want = run_flat(&case);

        let mut tree = build_tree(&case, 512);
        let mut got = Vec::new();
        let mut window = 0;
        let quarter = case.stream.len() / 4;
        for (i, &u) in case.stream.iter().enumerate() {
            if i == quarter {
                tree.sever_leaf(0, 0);
            }
            if i == 2 * quarter {
                window = tree.leaf(0, 0).window().len() as u64;
                tree.restore_leaf(0, 0, &mut got);
            }
            tree.ingest(u, &mut got);
        }

        assert_per_condition_identical(&got, &want, seed);
        let stats = tree.stats();
        assert_eq!(stats.replayed_frames, window, "seed {seed}: the restore replayed the window");
        withheld += stats.frames_to_dead;
    }
    assert!(withheld > 0, "some seed withheld frames while severed");
}

/// The same property over drawn seeds and loss rates. Each input is a
/// whole seeded case, so there is no size to shrink.
#[test]
fn tree_matches_flat_ce_any_topology() {
    cases("tree_matches_flat_ce_any_topology", 48, 0, |rng, _| {
        let (seed, loss_pct) = (rng.below(1_000_000) as u64, *rng.pick(&[0, 20]));
        let case = build_case(seed, loss_pct);
        let want = run_flat(&case);
        let (got, stats) = run_tree(&case);
        assert_byte_identical(&got, &want, &format!("seed {seed}, {loss_pct}% loss"));
        assert_eq!(stats.root_alerts as usize, want.len());
    });
}
