//! Dataflow (local mapping) styles supported by the sub-accelerators.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The dataflow style — the *local mapping* — a sub-accelerator employs.
///
/// The paper's heterogeneous accelerators combine two styles with opposite
/// compute/bandwidth trade-offs (Section VI-A3); this enum captures those two
/// plus their key scheduling-visible properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DataflowStyle {
    /// NVDLA-inspired weight-stationary dataflow.
    ///
    /// Parallelizes across input/output channel dimensions; weights are
    /// pinned in the local scratchpads while activations stream through, so
    /// the style is compute-efficient on channel-heavy layers but demands
    /// high DRAM bandwidth.
    #[default]
    HighBandwidth,
    /// Eyeriss-inspired row-stationary dataflow.
    ///
    /// Parallelizes across activation (spatial) dimensions and maximizes
    /// local reuse, so it needs very little DRAM bandwidth, but it utilizes
    /// the PE array poorly on layers without spatial extent (FC/GEMM).
    LowBandwidth,
}

impl DataflowStyle {
    /// The two styles used throughout the paper's evaluation.
    #[cfg(test)]
    pub(crate) const ALL: [DataflowStyle; 2] =
        [DataflowStyle::HighBandwidth, DataflowStyle::LowBandwidth];

    /// Short label used in tables ("HB" / "LB").
    pub(crate) fn short_name(self) -> &'static str {
        match self {
            DataflowStyle::HighBandwidth => "HB",
            DataflowStyle::LowBandwidth => "LB",
        }
    }
}

impl fmt::Display for DataflowStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(DataflowStyle::HighBandwidth.to_string(), "HB");
        assert_eq!(DataflowStyle::LowBandwidth.to_string(), "LB");
    }

    #[test]
    fn all_lists_both() {
        assert_eq!(DataflowStyle::ALL.len(), 2);
        assert_ne!(DataflowStyle::ALL[0], DataflowStyle::ALL[1]);
    }
}
