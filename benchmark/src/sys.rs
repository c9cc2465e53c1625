//! CPU accounting from procfs.

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, 100 on every
/// Linux this runs on; `sysconf` would need a C binding).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU of the whole process so far, in milliseconds, from
/// `/proc/self/stat`. The process line keeps the time of threads that have
/// already exited (summing per-thread files would lose them), which matters
/// on `net-greedy`, where connection and pump threads end with each session.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs: /proc/self/stat");
    // The command name may hold spaces; the numbered fields follow its ')'.
    let rest = &stat[stat.rfind(')').expect("stat line has a command name") + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: f64 = fields
        .nth(11)
        .and_then(|f| f.parse().ok())
        .expect("utime field");
    let stime: f64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .expect("stime field");
    (utime + stime) * 1000.0 / TICKS_PER_SECOND
}

/// CPU the calling thread has used so far, in milliseconds, from
/// `/proc/thread-self/schedstat` (nanosecond run time). The load generator's
/// threads read it to take their own cost out of the process total.
pub fn thread_cpu_ms() -> f64 {
    let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("procfs: /proc/thread-self/schedstat");
    let run_ns: f64 = schedstat
        .split_ascii_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("run-time field");
    run_ns / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ms(), thread_cpu_ms());
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (p1, t1) = (process_cpu_ms(), thread_cpu_ms());
        assert!(p1 - p0 >= 20.0, "process cpu moved {} ms", p1 - p0);
        assert!(t1 - t0 >= 20.0, "thread cpu moved {} ms", t1 - t0);
    }
}
