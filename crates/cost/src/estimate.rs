//! The output of the analytical cost model for one (job, sub-accelerator)
//! pair.

use serde::{Deserialize, Serialize};

/// Cost-model output for running one job (layer × mini-batch) on one
//  sub-accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Cycles to execute the job assuming DRAM bandwidth never stalls the
    /// compute (the paper's *no-stall latency*).
    pub no_stall_cycles: u64,
    /// Minimum DRAM bandwidth (GB/s) that keeps the job compute-bound (the
    /// paper's *no-stall bandwidth* / required BW).
    pub required_bw_gbps: f64,
    /// Total multiply-accumulate operations of the job.
    pub macs: u64,
    /// Total DRAM traffic in bytes (weights + activations, including any
    /// dataflow-induced re-fetches).
    pub dram_traffic_bytes: u64,
    /// Fraction of the PE array doing useful work (0, 1].
    pub utilization: f64,
    /// Energy proxy in nanojoules (MAC + SRAM + DRAM components).
    pub energy_nj: f64,
}

impl CostEstimate {
    /// No-stall latency in seconds at the given clock frequency.
    #[cfg(test)]
    pub(crate) fn no_stall_seconds(&self, frequency_hz: f64) -> f64 {
        self.no_stall_cycles as f64 / frequency_hz
    }

    /// Arithmetic intensity actually achieved: MACs per DRAM byte.
    #[cfg(test)]
    pub(crate) fn achieved_intensity(&self) -> f64 {
        if self.dram_traffic_bytes == 0 {
            0.0
        } else {
            self.macs as f64 / self.dram_traffic_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CostEstimate {
        CostEstimate {
            no_stall_cycles: 1_000,
            required_bw_gbps: 8.0,
            macs: 4_096_000,
            dram_traffic_bytes: 40_000,
            utilization: 0.5,
            energy_nj: 123.0,
        }
    }

    #[test]
    fn seconds_and_gflops() {
        let e = sample();
        let secs = e.no_stall_seconds(200e6);
        assert!((secs - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn intensity() {
        let e = sample();
        assert!((e.achieved_intensity() - 4_096_000.0 / 40_000.0).abs() < 1e-9);
    }
}
