//! The accelerator platform: several sub-accelerator cores sharing one
//! system-bandwidth budget.

use magma_cost::SubAccelConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default system bandwidth for Small accelerators (GB/s), Section VI-A3.
pub(crate) const DEFAULT_SMALL_BW_GBPS: f64 = 16.0;

/// Default system bandwidth for Large accelerators (GB/s), Section VI-A3.
pub(crate) const DEFAULT_LARGE_BW_GBPS: f64 = 256.0;

/// A multi-core accelerator: an ordered list of sub-accelerator cores plus
/// the shared system bandwidth (min of DRAM/HBM BW and PCIe/M.2 BW).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorPlatform {
    name: String,
    sub_accels: Vec<SubAccelConfig>,
    system_bw_gbps: f64,
}

impl AcceleratorPlatform {
    /// Creates a platform from a list of sub-accelerators and a system
    /// bandwidth budget in GB/s.
    ///
    /// # Panics
    ///
    /// Panics if `sub_accels` is empty or `system_bw_gbps` is not positive.
    pub fn new(
        name: impl Into<String>,
        sub_accels: Vec<SubAccelConfig>,
        system_bw_gbps: f64,
    ) -> Self {
        assert!(!sub_accels.is_empty(), "a platform needs at least one sub-accelerator");
        assert!(system_bw_gbps > 0.0, "system bandwidth must be positive");
        AcceleratorPlatform { name: name.into(), sub_accels, system_bw_gbps }
    }

    /// The platform's name (e.g. `"S4"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sub-accelerator cores, in index order (the order genes refer to).
    pub fn sub_accels(&self) -> &[SubAccelConfig] {
        &self.sub_accels
    }

    /// Number of sub-accelerator cores.
    pub fn num_sub_accels(&self) -> usize {
        self.sub_accels.len()
    }

    /// The shared system bandwidth in GB/s.
    pub fn system_bw_gbps(&self) -> f64 {
        self.system_bw_gbps
    }

    /// Returns a copy with a different system bandwidth (used by the BW
    /// sweeps of Fig. 12/13).
    pub fn with_system_bw_gbps(mut self, bw: f64) -> Self {
        assert!(bw > 0.0, "system bandwidth must be positive");
        self.system_bw_gbps = bw;
        self
    }

    /// Returns a copy with every core's PE-array shape marked flexible
    /// (Section VI-F) and the buffers set to the flexible-accelerator sizes
    /// (1 KB SL per PE, 2 MB SG per core).
    pub fn into_flexible(mut self) -> Self {
        self.name = format!("{}-flex", self.name);
        self.sub_accels = self
            .sub_accels
            .into_iter()
            .map(|c| {
                let name = format!("{}-flex", c.name());
                SubAccelConfig::new(name, c.pe_rows(), c.pe_cols(), c.dataflow(), 2 * 1024 * 1024)
                    .with_sl_bytes(1024)
                    .with_frequency_mhz(c.frequency_mhz())
                    .with_flexible_shape(true)
            })
            .collect();
        self
    }

    /// Whether every core has the same PE count, dataflow and buffers.
    #[cfg(test)]
    pub(crate) fn is_homogeneous(&self) -> bool {
        let first = &self.sub_accels[0];
        self.sub_accels.iter().all(|c| {
            c.num_pes() == first.num_pes()
                && c.dataflow() == first.dataflow()
                && c.sg_bytes() == first.sg_bytes()
        })
    }

    /// Total number of PEs across all cores.
    #[cfg(test)]
    pub(crate) fn total_pes(&self) -> usize {
        self.sub_accels.iter().map(|c| c.num_pes()).sum()
    }

    /// Aggregate peak throughput in GFLOP/s across all cores.
    pub fn peak_gflops(&self) -> f64 {
        self.sub_accels.iter().map(|c| c.peak_gflops()).sum()
    }
}

impl fmt::Display for AcceleratorPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} cores, {} GB/s)", self.name, self.num_sub_accels(), self.system_bw_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_cost::DataflowStyle;

    fn core(name: &str, rows: usize, df: DataflowStyle) -> SubAccelConfig {
        SubAccelConfig::new(name, rows, 64, df, 146 * 1024)
    }

    #[test]
    fn homogeneity_detection() {
        let homog = AcceleratorPlatform::new(
            "h",
            vec![
                core("a", 32, DataflowStyle::HighBandwidth),
                core("b", 32, DataflowStyle::HighBandwidth),
            ],
            16.0,
        );
        assert!(homog.is_homogeneous());
        let hetero = AcceleratorPlatform::new(
            "x",
            vec![
                core("a", 32, DataflowStyle::HighBandwidth),
                core("b", 32, DataflowStyle::LowBandwidth),
            ],
            16.0,
        );
        assert!(!hetero.is_homogeneous());
    }

    #[test]
    fn totals() {
        let p = AcceleratorPlatform::new(
            "p",
            vec![
                core("a", 32, DataflowStyle::HighBandwidth),
                core("b", 64, DataflowStyle::HighBandwidth),
            ],
            16.0,
        );
        assert_eq!(p.total_pes(), 32 * 64 + 64 * 64);
        assert!(p.peak_gflops() > 0.0);
        assert_eq!(p.num_sub_accels(), 2);
    }

    #[test]
    fn bw_override() {
        let p =
            AcceleratorPlatform::new("p", vec![core("a", 32, DataflowStyle::HighBandwidth)], 16.0)
                .with_system_bw_gbps(1.0);
        assert_eq!(p.system_bw_gbps(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_platform_panics() {
        let _ = AcceleratorPlatform::new("empty", vec![], 16.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_bw_panics() {
        let _ =
            AcceleratorPlatform::new("p", vec![core("a", 32, DataflowStyle::HighBandwidth)], 0.0);
    }

    #[test]
    fn flexible_conversion_preserves_pe_count_and_dataflow() {
        let p = AcceleratorPlatform::new(
            "p",
            vec![
                core("a", 32, DataflowStyle::HighBandwidth),
                core("b", 32, DataflowStyle::LowBandwidth),
            ],
            16.0,
        );
        let f = p.clone().into_flexible();
        assert_eq!(f.total_pes(), p.total_pes());
        for (a, b) in p.sub_accels().iter().zip(f.sub_accels()) {
            assert_eq!(a.dataflow(), b.dataflow());
            assert!(b.flexible_shape());
            assert_eq!(b.sg_bytes(), 2 * 1024 * 1024);
        }
        assert!(f.name().ends_with("-flex"));
    }
}
