//! What the benchmark asks of the operating system: the process's cpu
//! time, its peak memory, and which CPUs its threads may run on.

use std::fs;

/// User plus system cpu time of every thread of this process, seconds.
/// `CLOCK_PROCESS_CPUTIME_ID` is the `utime + stime` of
/// `/proc/self/stat` at nanosecond instead of 10 ms resolution.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system cpu time of the calling thread, seconds.
pub fn thread_cpu_seconds() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_seconds(clock_id: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` of the C layout on the
    // 64-bit Linux targets this benchmark runs on; the call only writes it.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "the cpu clocks are readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Time the host has withheld from `cpus` while they had work to run
/// (the `steal` column of `/proc/stat`), seconds, summed over them.
/// Zero where the kernel reports none, as on hardware of one's own.
pub fn steal_seconds(cpus: &[usize]) -> f64 {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    cpus.iter().filter_map(|&cpu| parse_steal_ticks(&stat, cpu)).sum::<u64>() as f64 / USER_HZ
}

/// Ticks per second in `/proc/stat`: `USER_HZ`, 100 on every Linux port.
const USER_HZ: f64 = 100.0;

fn parse_steal_ticks(stat: &str, cpu: usize) -> Option<u64> {
    let name = format!("cpu{cpu}");
    let line = stat.lines().find(|l| l.split_ascii_whitespace().next() == Some(name.as_str()))?;
    // cpuN user nice system idle iowait irq softirq steal ...
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPUs the calling thread may run on, ascending (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/thread-self/status")
        .expect("/proc/thread-self/status is readable");
    parse_cpu_list(&status).expect("/proc/thread-self/status has Cpus_allowed_list")
}

fn parse_cpu_list(status: &str) -> Option<Vec<usize>> {
    let line = status.lines().find(|l| l.starts_with("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for range in line.split_ascii_whitespace().nth(1)?.split(',') {
        let (first, last) = range.split_once('-').unwrap_or((range, range));
        cpus.extend(first.parse::<usize>().ok()?..=last.parse::<usize>().ok()?);
    }
    Some(cpus)
}

/// Words in the affinity mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// Confines the calling thread, and every thread it spawns from now on,
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        match mask.get_mut(cpu / 64) {
            Some(word) => *word |= 1 << (cpu % 64),
            None => return false,
        }
    }
    // SAFETY: `mask` is a live array of exactly the byte length passed,
    // the kernel only reads it, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn parses_steal_of_the_named_cpu_only() {
        let stat = "cpu  90 0 50 400 1 0 12 30 0 0\ncpu0 40 0 20 200 1 0 6 11 0 0\n\
                    cpu1 50 0 30 200 0 0 6 19 0 0\ncpu10 1 1 1 1 1 1 1 77 0 0\nintr 5\n";
        assert_eq!(parse_steal_ticks(stat, 0), Some(11));
        assert_eq!(parse_steal_ticks(stat, 1), Some(19));
        assert_eq!(parse_steal_ticks(stat, 10), Some(77));
        assert_eq!(parse_steal_ticks(stat, 2), None);
        // Kernels before 2.6.11 print no steal column.
        assert_eq!(parse_steal_ticks("cpu0 40 0 20 200 1 0 6\n", 0), None);
        assert!(steal_seconds(&allowed_cpus()) >= 0.0);
    }

    #[test]
    fn parses_cpu_lists() {
        assert_eq!(parse_cpu_list("Cpus_allowed_list:\t0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("Cpus_allowed_list:\t0,2-4,9\n"), Some(vec![0, 2, 3, 4, 9]));
        assert_eq!(parse_cpu_list("Name:\tx\n"), None);
    }

    #[test]
    fn pinning_sticks_and_is_inherited() {
        let all = allowed_cpus();
        std::thread::spawn(move || {
            let one = [*all.last().unwrap()];
            assert!(pin_current_thread(&one));
            assert_eq!(allowed_cpus(), one);
            // A thread spawned now starts with the same mask.
            assert_eq!(std::thread::spawn(allowed_cpus).join().unwrap(), one);
            assert!(pin_current_thread(&all));
            assert_eq!(allowed_cpus(), all);
            assert!(!pin_current_thread(&[1 << 20]));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb() > 0.5);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.03 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
    }
}
