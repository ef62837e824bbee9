//! What compiling, copying and hosting a condition set costs the
//! allocator, counted in calls: compiling a condition asks for its
//! tree, its name, its degrees and its handle and nothing else, a copy
//! of a condition asks for nothing, and hosting a set once and copying
//! it for each replica asks for far less than hosting it per replica
//! did. A binary of its own because the counter is the process's
//! `#[global_allocator]`; counts are per thread, so the harness's own
//! threads cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::Condition;
use rcm_core::{CeId, CondId, ConditionRegistry, VarRegistry};

thread_local! {
    /// What this thread asked the allocator for, and gave back.
    static ASKED: Cell<Asked> = const { Cell::new(Asked { calls: 0, bytes: 0, frees: 0, freed: 0 }) };
}

/// What a stretch of work asked the allocator for: calls to `alloc`,
/// `alloc_zeroed` and `realloc` and the bytes they asked for (a
/// `realloc` its new size); calls to `dealloc` and the bytes they
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Asked {
    calls: u64,
    bytes: u64,
    frees: u64,
    freed: u64,
}

/// The system allocator, counting the calls that ask it for memory.
struct Counting;

/// Adds one call of `size` bytes: an ask, or a return if `freed`.
fn count(size: usize, freed: bool) {
    // A thread that is tearing its locals down is not one under test.
    let _ = ASKED.try_with(|n| {
        let mut asked = n.get();
        let (calls, bytes) = if freed {
            (&mut asked.frees, &mut asked.freed)
        } else {
            (&mut asked.calls, &mut asked.bytes)
        };
        *calls += 1;
        *bytes += size as u64;
        n.set(asked);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), true);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` asked the allocator for.
fn allocations<T>(work: impl FnOnce() -> T) -> (Asked, T) {
    let before = ASKED.get();
    let out = work();
    let after = ASKED.get();
    let asked = Asked {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        frees: after.frees - before.frees,
        freed: after.freed - before.freed,
    };
    (asked, out)
}

/// `eval_fanout`'s condition shape (benchmark/src/workloads.rs), written
/// out: two window-16 averages, a difference and a threshold.
const FANOUT: &str = "avg_over(v0, 16) - avg_over(v1, 16) > 31.00";

/// `eval_fanout`'s 600 conditions and its heartbeat, as text.
fn fanout_set() -> Vec<String> {
    let mut set: Vec<String> = (0..600)
        .map(|i| {
            let (a, b) = if i % 2 == 0 { ("v0", "v1") } else { ("v2", "v3") };
            let (a, b) = if (i / 2) % 2 == 0 { (a, b) } else { (b, a) };
            format!("avg_over({a}, 16) - avg_over({b}, 16) > {:.2}", 31.0 + 0.5 * (i / 4) as f64)
        })
        .collect();
    set.push("hb[0].value > 0".to_owned());
    set
}

#[test]
fn compiling_asks_for_the_tree_the_name_the_degrees_and_the_handle() {
    let mut vars = VarRegistry::new();
    vars.register("v0");
    vars.register("v1");
    let (asked, cond) = allocations(|| CompiledCondition::compile(FANOUT, &mut vars));
    cond.expect("compiles");
    // Four boxed subtrees (the difference, two averages, the literal),
    // the name, the degrees and the shared handle: no token list, no
    // name copies, no second tree, and nothing given back.
    assert_eq!((asked.calls, asked.frees), (7, 0), "{asked:?}");

    // Names it has to register cost what registering them does.
    let mut fresh = VarRegistry::new();
    let (registering, cond) = allocations(|| CompiledCondition::compile(FANOUT, &mut fresh));
    cond.expect("compiles");
    assert_eq!(fresh.len(), 2);
    assert!(registering.calls <= asked.calls + 8, "{registering:?}");

    // A rejected condition keeps its error message and registers nothing.
    let mut untouched = VarRegistry::new();
    let truncated = "avg_over(v0, 16) - avg_over(v1, 16) >";
    let (rejected, err) = allocations(|| CompiledCondition::compile(truncated, &mut untouched));
    assert!(err.is_err());
    assert_eq!(rejected.calls - rejected.frees, 1, "{rejected:?}");
    assert!(untouched.is_empty());
}

#[test]
fn a_copy_of_a_condition_asks_for_nothing() {
    let mut vars = VarRegistry::new();
    let cond = CompiledCondition::compile(FANOUT, &mut vars).expect("compiles");
    let (asked, copy) = allocations(|| cond.clone());
    assert_eq!(asked.calls, 0, "{asked:?}");
    assert_eq!(copy.name(), cond.name());
}

/// What hosting the first `n` fanout conditions and the heartbeat asks
/// for, and what one copy of the hosted registry asks for.
fn host_and_copy(n: usize) -> (Asked, Asked) {
    let mut vars = VarRegistry::new();
    let mut set = fanout_set();
    set.drain(n..set.len() - 1);
    let set: Vec<Arc<dyn Condition>> = set
        .iter()
        .map(|src| CompiledCondition::compile(src, &mut vars).expect("compiles"))
        .map(|cond| Arc::new(cond) as Arc<dyn Condition>)
        .collect();
    let (hosting, hosted) = allocations(|| {
        let mut registry = ConditionRegistry::new(CeId::new(0));
        for (i, cond) in set.iter().enumerate() {
            registry.insert(CondId::new(i as u32), Arc::clone(cond));
        }
        registry
    });
    let (copying, copy) = allocations(|| hosted.for_replica(CeId::new(1)));
    assert_eq!(copy.len(), n + 1);
    (hosting, copying)
}

#[test]
fn a_set_is_hosted_once_and_copied_per_replica() {
    let (hosting, copying) = host_and_copy(600);
    // Hosting asks for a few blocks per condition: its variable list,
    // history spec and read list, which it gives back, and table growth.
    assert!(hosting.calls <= 4 * 601, "{hosting:?}");
    // A copy asks for a few blocks per variable and per family, however
    // many conditions the families hold ...
    assert!(copying.calls <= 64, "{copying:?}");
    assert_eq!(host_and_copy(300).1.calls, copying.calls);
    // ... so hosting once and copying for two replicas asks for far less
    // than hosting twice.
    assert!(hosting.calls + 2 * copying.calls < hosting.calls * 11 / 10, "{copying:?}");
}
