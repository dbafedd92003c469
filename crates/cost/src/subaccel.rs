//! Sub-accelerator hardware configuration.

use crate::DataflowStyle;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default width of the 2-D PE array. The paper fixes one dimension of every
/// PE array to 64 because popular model tensor shapes are multiples of 64.
pub const DEFAULT_PE_COLS: usize = 64;

/// Default clock frequency of every sub-accelerator (MHz), per Section VI-A3.
pub const DEFAULT_FREQUENCY_MHZ: f64 = 200.0;

/// Default per-PE local scratchpad (SL) capacity in bytes (flexible-array
/// experiments, Section VI-F).
pub const DEFAULT_SL_BYTES: usize = 1024;

/// Hardware description of one sub-accelerator core.
///
/// A sub-accelerator is a conventional DNN accelerator: a `pe_rows × pe_cols`
/// array of MAC processing elements, per-PE local scratchpads (SL), a shared
/// global scratchpad (SG, double-buffered) and a fixed dataflow style.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubAccelConfig {
    name: String,
    pe_rows: usize,
    pe_cols: usize,
    dataflow: DataflowStyle,
    sg_bytes: usize,
    sl_bytes: usize,
    frequency_mhz: f64,
    flexible_shape: bool,
}

impl SubAccelConfig {
    /// Creates a sub-accelerator configuration.
    ///
    /// `sg_bytes` is the global scratchpad capacity (the "buffer" column of
    /// Table III). Frequency defaults to 200 MHz and SL to 1 KB per PE.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or buffer size is zero.
    pub fn new(
        name: impl Into<String>,
        pe_rows: usize,
        pe_cols: usize,
        dataflow: DataflowStyle,
        sg_bytes: usize,
    ) -> Self {
        assert!(pe_rows > 0 && pe_cols > 0, "PE array dimensions must be non-zero");
        assert!(sg_bytes > 0, "global scratchpad must be non-empty");
        SubAccelConfig {
            name: name.into(),
            pe_rows,
            pe_cols,
            dataflow,
            sg_bytes,
            sl_bytes: DEFAULT_SL_BYTES,
            frequency_mhz: DEFAULT_FREQUENCY_MHZ,
            flexible_shape: false,
        }
    }

    /// Overrides the per-PE local scratchpad capacity.
    pub fn with_sl_bytes(mut self, sl_bytes: usize) -> Self {
        assert!(sl_bytes > 0);
        self.sl_bytes = sl_bytes;
        self
    }

    /// Overrides the clock frequency in MHz.
    pub fn with_frequency_mhz(mut self, f: f64) -> Self {
        assert!(f > 0.0);
        self.frequency_mhz = f;
        self
    }

    /// Marks the PE array shape as run-time configurable (FPGA/CGRA-style,
    /// Section VI-F). The total PE count stays fixed; the cost model is then
    /// allowed to pick the best `rows × cols` factorization per layer.
    pub fn with_flexible_shape(mut self, flexible: bool) -> Self {
        self.flexible_shape = flexible;
        self
    }

    /// Human-readable name of this core (e.g. `"S4-hb-0"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Height of the PE array.
    pub fn pe_rows(&self) -> usize {
        self.pe_rows
    }

    /// Width of the PE array.
    pub fn pe_cols(&self) -> usize {
        self.pe_cols
    }

    /// Total number of processing elements.
    pub fn num_pes(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// The dataflow style this core employs.
    pub fn dataflow(&self) -> DataflowStyle {
        self.dataflow
    }

    /// Global scratchpad capacity in bytes.
    pub fn sg_bytes(&self) -> usize {
        self.sg_bytes
    }

    /// Per-PE local scratchpad capacity in bytes.
    pub fn sl_bytes(&self) -> usize {
        self.sl_bytes
    }

    /// Clock frequency in MHz.
    pub fn frequency_mhz(&self) -> f64 {
        self.frequency_mhz
    }

    /// Clock frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_mhz * 1e6
    }

    /// Whether the PE array shape is run-time configurable.
    pub fn flexible_shape(&self) -> bool {
        self.flexible_shape
    }

    /// Peak throughput in GFLOP/s (2 FLOPs per MAC per cycle per PE).
    pub fn peak_gflops(&self) -> f64 {
        self.num_pes() as f64 * 2.0 * self.frequency_hz() / 1e9
    }
}

impl fmt::Display for SubAccelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}x{} PEs, {}, SG {} KB{}]",
            self.name,
            self.pe_rows,
            self.pe_cols,
            self.dataflow,
            self.sg_bytes / 1024,
            if self.flexible_shape { ", flexible" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let c = SubAccelConfig::new("a", 32, 64, DataflowStyle::HighBandwidth, 146 * 1024);
        assert_eq!(c.num_pes(), 2048);
        assert_eq!(c.pe_rows(), 32);
        assert_eq!(c.pe_cols(), 64);
        assert_eq!(c.sg_bytes(), 146 * 1024);
        assert!(!c.flexible_shape());
        assert_eq!(c.frequency_mhz(), DEFAULT_FREQUENCY_MHZ);
    }

    #[test]
    fn peak_gflops_scaling() {
        let small = SubAccelConfig::new("s", 32, 64, DataflowStyle::HighBandwidth, 1024);
        let large = SubAccelConfig::new("l", 128, 64, DataflowStyle::HighBandwidth, 1024);
        assert!((large.peak_gflops() / small.peak_gflops() - 4.0).abs() < 1e-9);
        // 2048 PEs * 2 * 200e6 / 1e9 = 819.2 GFLOP/s
        assert!((small.peak_gflops() - 819.2).abs() < 1e-6);
    }

    #[test]
    fn builder_overrides() {
        let c = SubAccelConfig::new("x", 64, 64, DataflowStyle::LowBandwidth, 2048)
            .with_sl_bytes(512)
            .with_frequency_mhz(400.0)
            .with_flexible_shape(true);
        assert_eq!(c.sl_bytes(), 512);
        assert_eq!(c.frequency_hz(), 400.0e6);
        assert!(c.flexible_shape());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_rows_panics() {
        let _ = SubAccelConfig::new("bad", 0, 64, DataflowStyle::HighBandwidth, 1024);
    }

    #[test]
    fn display_includes_dataflow() {
        let c = SubAccelConfig::new("core0", 32, 64, DataflowStyle::LowBandwidth, 110 * 1024);
        let s = c.to_string();
        assert!(s.contains("LB"));
        assert!(s.contains("core0"));
    }
}
