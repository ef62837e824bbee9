//! A fixed piece of computation, timed on the system's CPU while the
//! system's cpu time is measured. On a shared host the same instructions
//! take up to twice as long in one minute as in the next, with nothing
//! stolen and nothing else running in the guest (README.md,
//! "Steadiness"); a cpu time divided by what the chunk took just then,
//! times what the chunk takes on the reference machine left alone, is
//! the cpu time that machine would have measured left alone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::generator::{Clock, RealClock};
use crate::os;

/// Cpu time of one chunk on the reference machine with the host quiet,
/// seconds. Frozen: it only fixes the unit the normalised times are in.
pub const NOMINAL_S: f64 = 18.5e-6;

/// Steps of the chunk's loop.
const STEPS: usize = 4_000;
/// Words of the table the loop reads and writes: 16 KiB, within the
/// first-level cache, so the chunk follows the core's speed and not the
/// memory's.
const TABLE: usize = 2_048;
/// How often the background pacer runs the chunk.
const PACE: Duration = Duration::from_millis(10);

/// The chunk: a dependent chain of multiplies, table reads, a
/// data-dependent branch and table writes.
#[derive(Debug)]
struct Chunk {
    table: Vec<u64>,
    x: u64,
}

impl Chunk {
    fn new() -> Self {
        Chunk { table: vec![0x9E37_79B9_7F4A_7C15; TABLE], x: 1 }
    }

    /// Runs the chunk; returns the cpu time it took this thread, seconds.
    fn run(&mut self) -> f64 {
        let before = os::thread_cpu_seconds();
        self.x = churn(&mut self.table, self.x);
        os::thread_cpu_seconds() - before
    }
}

/// The chunk's loop. Never inlined: what the chunk costs must not depend
/// on what the compiler makes of its caller, or [`NOMINAL_S`] would
/// mean something else after every rebuild.
#[inline(never)]
fn churn(table: &mut [u64], mut x: u64) -> u64 {
    for _ in 0..STEPS {
        let slot = &mut table[(x >> 40) as usize % TABLE];
        x = x.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(*slot);
        *slot = if x & 3 == 0 { *slot ^ x } else { slot.rotate_left(7) };
    }
    std::hint::black_box(x)
}

/// A thread that runs the chunk every 10 ms on the CPUs it is given
/// (0.5% of one), logging when and how long.
pub struct Pacer {
    stop: Arc<AtomicBool>,
    /// Cpu time the pacer thread has used, ns: not the system's.
    cpu_ns: Arc<AtomicU64>,
    log: Arc<Mutex<Vec<(u64, f64)>>>,
    thread: JoinHandle<()>,
}

impl Pacer {
    pub fn start(clock: RealClock, cpus: Vec<usize>) -> Pacer {
        let stop = Arc::new(AtomicBool::new(false));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let log = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, cpu_ns, log) = (Arc::clone(&stop), Arc::clone(&cpu_ns), Arc::clone(&log));
            std::thread::spawn(move || {
                os::pin_current_thread(&cpus);
                let mut chunk = Chunk::new();
                // `Relaxed`: the flag and the counter publish nothing else.
                while !stop.load(Ordering::Relaxed) {
                    let took = chunk.run();
                    log.lock().expect("pacer log lock").push((clock.now_ns(), took));
                    cpu_ns.store((os::thread_cpu_seconds() * 1e9) as u64, Ordering::Relaxed);
                    std::thread::sleep(PACE);
                }
            })
        };
        Pacer { stop, cpu_ns, log, thread }
    }

    /// Cpu time the pacer has used so far, seconds.
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Stops the pacer; returns `(when_ns, chunk seconds)` in time order.
    pub fn stop(self) -> Vec<(u64, f64)> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("the pacer thread does not panic");
        std::mem::take(&mut *self.log.lock().expect("pacer log lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn the_chunk_is_the_same_work_every_time() {
        let (mut a, mut b) = (Chunk::new(), Chunk::new());
        for _ in 0..3 {
            assert!(a.run() > 0.0);
            b.run();
            // Same steps over the same data: the state agrees run by run.
            assert_eq!((a.x, &a.table), (b.x, &b.table));
        }
        assert_ne!(a.x, Chunk::new().x);
    }

    #[test]
    fn the_pacer_logs_in_time_order_and_accounts_for_itself() {
        let clock = RealClock { epoch: Instant::now() };
        let pacer = Pacer::start(clock, os::allowed_cpus());
        // Two paces and a margin: at least two chunks are logged.
        while pacer.log.lock().unwrap().len() < 2 {
            std::thread::sleep(PACE);
        }
        assert!(pacer.cpu_seconds() > 0.0);
        let before_stop = clock.now_ns();
        let log = pacer.stop();
        assert!(log.len() >= 2);
        assert!(log.windows(2).all(|pair| pair[0].0 < pair[1].0));
        assert!(log
            .iter()
            .all(|&(at_ns, chunk_s)| at_ns <= before_stop + 1_000_000_000 && chunk_s > 0.0));
    }
}
