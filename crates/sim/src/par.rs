//! Deterministic parallel map for the Monte-Carlo harness.
//!
//! The property tables replay hundreds of independent seeded runs; the
//! only thing the harness needs from parallelism is "run `f(i)` for
//! every index, give me the results in index order". [`map_indexed`]
//! does exactly that on `std::thread::scope` — no work stealing, no
//! shared state — which makes the determinism contract trivial to
//! state and to test:
//!
//! > `map_indexed(jobs, f)` returns exactly `(0..jobs).map(f)`,
//! > regardless of how many worker threads execute it.
//!
//! Jobs are split into contiguous index chunks, one per worker; each
//! worker fills its own output vector and the chunks are concatenated
//! in order. `f` must derive everything from its index (the harness
//! derives per-run RNG seeds from the index, so this holds by
//! construction).

#[cfg(test)]
use std::cell::Cell;

#[cfg(test)]
thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

#[cfg(test)]
struct OverrideGuard(Option<usize>);

#[cfg(test)]
impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.0));
    }
}

/// Runs `f` with the harness thread count forced to `n` on the calling
/// thread, restoring the previous setting afterwards (also on panic).
///
/// This is how tests compare serial (`n = 1`) and parallel
/// executions of the same workload without touching process-global
/// environment variables.
///
/// # Panics
///
/// Panics if `n` is zero.
#[cfg(test)]
pub(crate) fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    let _guard = OverrideGuard(THREAD_OVERRIDE.with(|c| c.replace(Some(n))));
    f()
}

/// Worker threads [`map_indexed`] will use: the `RCM_THREADS`
/// environment variable, else `std::thread::available_parallelism`
/// (in this crate's tests, the innermost `with_threads` override
/// first).
pub fn harness_threads() -> usize {
    #[cfg(test)]
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("RCM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Evaluates `f` over `0..jobs` across [`harness_threads`] worker
/// threads and returns the results in index order.
///
/// Output is bit-identical to the serial `(0..jobs).map(f).collect()`
/// for any thread count — see the module docs for the contract.
pub fn map_indexed<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_with(harness_threads(), jobs, f)
}

/// [`map_indexed`] with an explicit worker-thread count.
pub fn map_indexed_with<T, F>(threads: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, jobs.max(1));
    if threads == 1 {
        return (0..jobs).map(f).collect();
    }
    let chunk = jobs.div_ceil(threads);
    let f = &f;
    let mut out = Vec::with_capacity(jobs);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = (t * chunk).min(jobs);
                let hi = ((t + 1) * chunk).min(jobs);
                s.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_for_every_thread_count() {
        let serial: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        for threads in [1, 2, 3, 7, 8, 16, 200] {
            let par = map_indexed_with(threads, 97, |i| (i as u64).wrapping_mul(0x9e37));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(map_indexed_with(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed_with(8, 1, |i| i), vec![0]);
        assert_eq!(map_indexed_with(8, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn override_nests_and_restores() {
        with_threads(3, || {
            assert_eq!(harness_threads(), 3);
            with_threads(1, || assert_eq!(harness_threads(), 1));
            assert_eq!(harness_threads(), 3);
        });
        // Outside any override the count comes from the environment or
        // hardware; it must at least be positive.
        assert!(harness_threads() >= 1);
    }

    #[test]
    fn override_restored_after_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(5, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_ne!(THREAD_OVERRIDE.with(Cell::get), Some(5));
    }

    #[test]
    fn parallel_execution_actually_uses_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        map_indexed_with(4, 64, |i| {
            ids.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(ids.lock().unwrap().len() > 1, "work never left the calling thread");
    }
}
