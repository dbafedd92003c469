//! Order statistics, timing loops and `/proc` readings shared by every
//! workload.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Wall and CPU milliseconds of every repeat of each of a run's distinct
/// operations, reduced to the fastest repeat of each.
///
/// The reference host is shared: for seconds at a time it slows a CPU-bound
/// operation by up to 40 %, and it never speeds one up. The operations
/// repeated here are deterministic, so of several repeats the fastest is the
/// one that measured the code; over runs its quartile spread is a fraction of
/// the median repeat's.
#[derive(Debug, Default)]
pub struct Repeats {
    wall_ms: Vec<Vec<f64>>,
    cpu_ms: Vec<Vec<f64>>,
}

impl Repeats {
    /// Runs `op` as one more repeat of distinct operation `slot` (slots are
    /// first used in order) and returns its result with its wall
    /// milliseconds.
    pub fn time<T>(&mut self, slot: usize, op: impl FnOnce() -> T) -> Result<(T, f64), String> {
        if slot == self.wall_ms.len() {
            self.wall_ms.push(Vec::new());
            self.cpu_ms.push(Vec::new());
        }
        let cpu_before = thread_cpu_ms()?;
        let t = Instant::now();
        let result = op();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        self.wall_ms[slot].push(wall_ms);
        self.cpu_ms[slot].push(thread_cpu_ms()? - cpu_before);
        Ok((result, wall_ms))
    }

    /// Wall milliseconds of the fastest repeat of each distinct operation.
    pub fn fastest_wall_ms(&self) -> Vec<f64> {
        self.wall_ms.iter().map(|repeats| fastest(repeats)).collect()
    }

    /// CPU milliseconds of the fastest repeat, averaged over the distinct
    /// operations.
    pub fn fastest_cpu_ms(&self) -> f64 {
        self.cpu_ms.iter().map(|repeats| fastest(repeats)).sum::<f64>() / self.cpu_ms.len() as f64
    }
}

/// The fastest of `values`: the time of a deterministic CPU-bound operation
/// (see [`Repeats`]).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Times `op` in nanoseconds per call: batches of `batch` calls are repeated
/// until `budget_ms` of wall time is spent (at least three batches) and the
/// median batch is reported, so one preempted batch does not move the figure.
pub fn ns_per_call<T>(budget_ms: u64, batch: usize, mut op: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || started.elapsed().as_millis() < u128::from(budget_ms) {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(op());
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call)
}

/// Runs `setup` `repeats` times and returns the last state with every
/// set-up's seconds; earlier states are dropped (and so torn down) before the
/// next set-up starts.
pub fn timed_setups<S>(repeats: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut seconds = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), seconds)
}

/// `/proc/<pid>` for a child, `/proc/self` for this process.
fn proc_dir(pid: Option<u32>) -> String {
    pid.map_or_else(|| "/proc/self".to_string(), |p| format!("/proc/{p}"))
}

/// User + system CPU time a process has consumed so far, in milliseconds
/// (`utime + stime` of `/proc/<pid>/stat`, in the kernel's 100 Hz ticks).
pub fn cpu_ms(pid: Option<u32>) -> Result<f64, String> {
    let path = format!("{}/stat", proc_dir(pid));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = text.rsplit_once(')').ok_or_else(|| format!("{path}: no command field"))?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|f| f.parse::<f64>().ok()).ok_or_else(|| format!("{path}: field"))
    };
    // utime and stime are fields 14 and 15 overall, 11 and 12 after the name.
    Ok((tick(11)? + tick(12)?) * 10.0)
}

/// CPU time the calling thread has consumed so far, in milliseconds: the
/// scheduler's nanosecond count where the kernel keeps one
/// (`/proc/thread-self/schedstat`), the process's 10 ms ticks otherwise.
/// The in-process workloads run on one thread, so either is their CPU time.
pub fn thread_cpu_ms() -> Result<f64, String> {
    let ns = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse::<f64>().ok());
    match ns {
        Some(ns) => Ok(ns / 1e6),
        None => cpu_ms(None),
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = format!("{}/status", proc_dir(pid));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    let kb: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("{path}: VmHWM {e}"))?;
    Ok(kb / 1024.0)
}
