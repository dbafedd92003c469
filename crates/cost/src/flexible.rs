//! Flexible PE-array shape selection (Section VI-F of the paper).
//!
//! FPGA/CGRA-style accelerators keep the number of PEs fixed but can
//! reconfigure the logical `rows × cols` shape of the array per layer. The
//! paper picks the shape that maximizes PE utilization (minimizes latency) by
//! aligning the array dimensions with the layer's parallelizable dimensions;
//! [`best_flexible_shape`] performs that search by enumerating the divisor
//! pairs of the PE count and evaluating each with the cost model.

use crate::{CostEstimate, CostModel, SubAccelConfig};
use magma_model::LayerShape;

/// The outcome of the flexible-shape search for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlexibleChoice {
    /// Chosen PE-array height.
    pub rows: usize,
    /// Chosen PE-array width.
    pub cols: usize,
    /// Cost estimate under the chosen shape.
    pub estimate: CostEstimate,
}

/// Enumerates all `rows × cols` factorizations of `n`.
fn divisor_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            pairs.push((d, n / d));
            if d != n / d {
                pairs.push((n / d, d));
            }
        }
        d += 1;
    }
    pairs.sort_unstable();
    pairs
}

/// Finds the PE-array shape (among factorizations of the accelerator's PE
/// count) that minimizes the no-stall latency of `layer`, breaking ties by
/// lower required bandwidth.
///
/// This models the paper's flexible accelerators: the shape is chosen *per
/// layer*, the PE count, buffers and dataflow stay fixed.
///
/// # Panics
///
/// Panics if `batch == 0` or the layer is host-side (propagated from
/// `CostModel::estimate_with_shape`).
pub fn best_flexible_shape(
    model: &CostModel,
    layer: &LayerShape,
    batch: usize,
    accel: &SubAccelConfig,
) -> FlexibleChoice {
    let n = accel.num_pes();
    let mut best: Option<FlexibleChoice> = None;
    for (rows, cols) in divisor_pairs(n) {
        let estimate = model.estimate_with_shape(layer, batch, accel, rows, cols);
        let better = match &best {
            None => true,
            Some(b) => {
                estimate.no_stall_cycles < b.estimate.no_stall_cycles
                    || (estimate.no_stall_cycles == b.estimate.no_stall_cycles
                        && estimate.required_bw_gbps < b.estimate.required_bw_gbps)
            }
        };
        if better {
            best = Some(FlexibleChoice { rows, cols, estimate });
        }
    }
    best.expect("a PE array always has at least one factorization")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataflowStyle;

    fn fixed() -> SubAccelConfig {
        SubAccelConfig::new("fix", 128, 64, DataflowStyle::HighBandwidth, 2 * 1024 * 1024)
            .with_sl_bytes(1024)
    }

    #[test]
    fn divisors_multiply_back() {
        for (a, b) in divisor_pairs(8192) {
            assert_eq!(a * b, 8192);
        }
        assert!(divisor_pairs(8192).contains(&(128, 64)));
    }

    #[test]
    fn flexible_never_worse_than_fixed() {
        let m = CostModel::default();
        let layers = [
            LayerShape::Conv2d { k: 96, c: 3, y: 112, x: 112, r: 7, s: 7, stride: 2 },
            LayerShape::FullyConnected { out_features: 1000, in_features: 2048 },
            LayerShape::DepthwiseConv2d { c: 144, y: 56, x: 56, r: 3, s: 3, stride: 1 },
            LayerShape::Gemm { m: 256, n: 256, kdim: 768 },
        ];
        for layer in layers {
            let fixed_cost = m.estimate(&layer, 4, &fixed());
            let flex = best_flexible_shape(&m, &layer, 4, &fixed());
            assert!(
                flex.estimate.no_stall_cycles <= fixed_cost.no_stall_cycles,
                "{layer}: flex {} > fixed {}",
                flex.estimate.no_stall_cycles,
                fixed_cost.no_stall_cycles
            );
            assert_eq!(flex.rows * flex.cols, fixed().num_pes());
        }
    }

    #[test]
    fn flexible_helps_skewed_layers() {
        // A skinny FC (few output features, huge input) wastes most rows of a
        // 128-row HB array; the flexible search should pick a flatter shape
        // and win noticeably.
        let m = CostModel::default();
        let layer = LayerShape::FullyConnected { out_features: 40, in_features: 8192 };
        let fixed_cost = m.estimate(&layer, 4, &fixed());
        let flex = best_flexible_shape(&m, &layer, 4, &fixed());
        assert!(flex.estimate.no_stall_cycles < fixed_cost.no_stall_cycles);
    }

    #[test]
    fn flexible_can_increase_bandwidth_need() {
        // Matching the paper's observation: maximizing utilization tends to
        // raise the per-tile data demand, i.e. required BW does not go down.
        let m = CostModel::default();
        let layer = LayerShape::FullyConnected { out_features: 40, in_features: 8192 };
        let fixed_cost = m.estimate(&layer, 4, &fixed());
        let flex = best_flexible_shape(&m, &layer, 4, &fixed());
        assert!(flex.estimate.required_bw_gbps >= fixed_cost.required_bw_gbps);
    }
}
