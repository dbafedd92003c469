//! The schedule produced by the bandwidth allocator: per-core timelines, the
//! bandwidth-allocation trace, makespan and throughput (Fig. 4b / Fig. 15).

use magma_model::JobId;
use serde::{Deserialize, Serialize};

/// One contiguous execution of a job on a sub-accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSegment {
    /// The job being executed.
    pub job: JobId,
    /// The sub-accelerator it runs on.
    pub accel: usize,
    /// Start time in seconds.
    pub start_sec: f64,
    /// End time in seconds.
    pub end_sec: f64,
}

impl ScheduleSegment {
    /// Duration of the segment in seconds.
    pub fn duration_sec(&self) -> f64 {
        self.end_sec - self.start_sec
    }
}

/// The bandwidth granted to every sub-accelerator over one time slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BwSlice {
    /// Slice start time in seconds.
    pub start_sec: f64,
    /// Slice end time in seconds.
    pub end_sec: f64,
    /// Bandwidth granted to each sub-accelerator during the slice (GB/s);
    /// idle cores receive 0.
    pub alloc_gbps: Vec<f64>,
}

/// Throughput in GFLOP/s of `total_flops` executed in `makespan_sec` (0 for
/// an empty timeline).
pub(crate) fn throughput_gflops(total_flops: u64, makespan_sec: f64) -> f64 {
    if makespan_sec <= 0.0 {
        return 0.0;
    }
    total_flops as f64 / makespan_sec / 1e9
}

/// A complete schedule of one group of jobs on the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    segments: Vec<ScheduleSegment>,
    bw_trace: Vec<BwSlice>,
    makespan_sec: f64,
    total_flops: u64,
    total_energy_nj: f64,
    num_accels: usize,
}

impl Schedule {
    /// Assembles a schedule. Intended for use by the bandwidth allocator.
    pub(crate) fn new(
        segments: Vec<ScheduleSegment>,
        bw_trace: Vec<BwSlice>,
        makespan_sec: f64,
        total_flops: u64,
        total_energy_nj: f64,
        num_accels: usize,
    ) -> Self {
        Schedule { segments, bw_trace, makespan_sec, total_flops, total_energy_nj, num_accels }
    }

    /// All job segments, in completion order.
    pub fn segments(&self) -> &[ScheduleSegment] {
        &self.segments
    }

    /// Segments executed by one sub-accelerator, in start order.
    pub fn segments_for(&self, accel: usize) -> Vec<&ScheduleSegment> {
        let mut v: Vec<&ScheduleSegment> =
            self.segments.iter().filter(|s| s.accel == accel).collect();
        v.sort_by(|a, b| a.start_sec.partial_cmp(&b.start_sec).unwrap());
        v
    }

    /// The bandwidth-allocation trace (Fig. 4b right / Fig. 15b,d).
    pub fn bw_trace(&self) -> &[BwSlice] {
        &self.bw_trace
    }

    /// Time to finish the whole group, in seconds.
    pub fn makespan_sec(&self) -> f64 {
        self.makespan_sec
    }

    /// Total FLOPs executed by the group.
    pub fn total_flops(&self) -> u64 {
        self.total_flops
    }

    /// Total energy proxy for the group in nanojoules.
    pub fn total_energy_nj(&self) -> f64 {
        self.total_energy_nj
    }

    /// Number of sub-accelerators in the platform.
    pub fn num_accels(&self) -> usize {
        self.num_accels
    }

    /// Achieved throughput in GFLOP/s — the paper's headline metric.
    pub fn throughput_gflops(&self) -> f64 {
        throughput_gflops(self.total_flops, self.makespan_sec)
    }

    /// Fraction of the makespan a sub-accelerator spends executing jobs.
    pub fn accel_utilization(&self, accel: usize) -> f64 {
        if self.makespan_sec <= 0.0 {
            return 0.0;
        }
        let busy: f64 =
            self.segments.iter().filter(|s| s.accel == accel).map(|s| s.duration_sec()).sum();
        (busy / self.makespan_sec).min(1.0)
    }

    /// Peak aggregate bandwidth drawn from the system at any time (GB/s).
    pub fn peak_bw_gbps(&self) -> f64 {
        self.bw_trace.iter().map(|s| s.alloc_gbps.iter().sum::<f64>()).fold(0.0, f64::max)
    }

    /// Renders a text Gantt chart of the schedule (the visualization of
    /// Fig. 15a/c), `width` characters wide.
    ///
    /// Each row is a sub-accelerator; each cell shows the last digit of the
    /// job occupying that core at that time, or `.` when idle.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let mut out = String::new();
        let span = self.makespan_sec.max(f64::MIN_POSITIVE);
        for accel in 0..self.num_accels {
            let mut row = vec!['.'; width];
            for seg in self.segments.iter().filter(|s| s.accel == accel) {
                let a = ((seg.start_sec / span) * width as f64).floor() as usize;
                let b = ((seg.end_sec / span) * width as f64).ceil() as usize;
                let ch = char::from_digit((seg.job.0 % 10) as u32, 10).unwrap_or('#');
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            out.push_str(&format!("accel {accel:>2} |"));
            out.extend(row);
            out.push('\n');
        }
        out.push_str(&format!(
            "makespan {:.3} ms, throughput {:.1} GFLOP/s\n",
            self.makespan_sec * 1e3,
            self.throughput_gflops()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule::new(
            vec![
                ScheduleSegment { job: JobId(0), accel: 0, start_sec: 0.0, end_sec: 1.0 },
                ScheduleSegment { job: JobId(1), accel: 1, start_sec: 0.0, end_sec: 0.5 },
                ScheduleSegment { job: JobId(2), accel: 1, start_sec: 0.5, end_sec: 2.0 },
            ],
            vec![
                BwSlice { start_sec: 0.0, end_sec: 0.5, alloc_gbps: vec![4.0, 12.0] },
                BwSlice { start_sec: 0.5, end_sec: 2.0, alloc_gbps: vec![4.0, 2.0] },
            ],
            2.0,
            4_000_000_000,
            1000.0,
            2,
        )
    }

    #[test]
    fn throughput_is_flops_over_makespan() {
        let s = sample();
        assert!((s.throughput_gflops() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_per_accel() {
        let s = sample();
        assert!((s.accel_utilization(0) - 0.5).abs() < 1e-12);
        assert!((s.accel_utilization(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bw_statistics() {
        let s = sample();
        assert!((s.peak_bw_gbps() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn segments_for_sorted_by_start() {
        let s = sample();
        let segs = s.segments_for(1);
        assert_eq!(segs.len(), 2);
        assert!(segs[0].start_sec <= segs[1].start_sec);
    }

    #[test]
    fn gantt_has_one_row_per_accel() {
        let s = sample();
        let g = s.render_gantt(40);
        assert_eq!(g.lines().count(), 3); // 2 accels + summary
        assert!(g.contains("accel  0"));
        assert!(g.contains("GFLOP/s"));
    }

    #[test]
    fn segment_duration() {
        let seg = ScheduleSegment { job: JobId(3), accel: 0, start_sec: 1.5, end_sec: 4.0 };
        assert!((seg.duration_sec() - 2.5).abs() < 1e-12);
    }
}
