//! The analytical cost engine.
//!
//! The model follows the structure of MAESTRO's analytical evaluation at the
//! granularity the mapper needs:
//!
//! 1. **Compute**: each dataflow style maps two layer dimensions onto the two
//!    PE-array dimensions. Per-dimension utilization is the classic
//!    `d / (ceil(d / n) * n)` folding loss, multiplied by an intrinsic
//!    efficiency factor of the (dataflow, layer-kind) pair. The no-stall
//!    latency is `MACs / (PEs × utilization)` plus a fixed tile-issue
//!    overhead.
//! 2. **DRAM traffic**: weights, inputs and outputs each cross the DRAM
//!    boundary at least once; the dataflow determines which operand is
//!    re-fetched when the stationary operand does not fit in half of the
//!    (double-buffered) global scratchpad.
//! 3. **Required bandwidth** is traffic divided by no-stall time: the minimum
//!    sustained bandwidth for the double-buffered SG to keep hiding the
//!    fetches behind compute.

use crate::{CostEstimate, DataflowStyle, SubAccelConfig};
use magma_model::LayerShape;
use serde::{Deserialize, Serialize};

/// Energy constants (picojoules) used by the energy proxy. Values follow the
/// commonly cited ~1 : 6 : 200 ratio between a MAC, an on-chip SRAM access and
/// an off-chip DRAM access per byte.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct EnergyModel {
    /// Energy per MAC operation (pJ).
    pub mac_pj: f64,
    /// Energy per byte read from / written to the on-chip scratchpads (pJ).
    pub sram_pj_per_byte: f64,
    /// Energy per byte of DRAM traffic (pJ).
    pub dram_pj_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel { mac_pj: 1.0, sram_pj_per_byte: 6.0, dram_pj_per_byte: 200.0 }
    }
}

/// The analytical cost model. Cheap to construct and `Copy`-free; a single
/// instance can be shared across threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Bytes per tensor element (the paper uses 1-byte quantization).
    pub bytes_per_elem: f64,
    /// Fixed per-tile issue overhead added to the compute latency, in cycles.
    pub tile_overhead_cycles: u64,
    /// Energy constants.
    pub(crate) energy: EnergyModel,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { bytes_per_elem: 1.0, tile_overhead_cycles: 32, energy: EnergyModel::default() }
    }
}

/// How a dataflow maps a layer onto the 2-D PE array: the sizes of the two
/// parallelized dimensions and an intrinsic efficiency factor capturing how
/// well the dataflow's reuse pattern suits the layer kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SpatialMapping {
    pub row_dim: usize,
    pub col_dim: usize,
    pub efficiency: f64,
}

/// Folding utilization of mapping a logical dimension of size `d` onto `n`
/// physical lanes: full except for the final partially-filled fold.
fn dim_utilization(d: usize, n: usize) -> f64 {
    if d == 0 || n == 0 {
        return 0.0;
    }
    let folds = d.div_ceil(n);
    d as f64 / (folds * n) as f64
}

/// Extracts the spatial mapping of a layer under a dataflow, given a
/// mini-batch size (LB exploits the batch dimension on GEMM-like layers).
pub(crate) fn spatial_mapping(
    layer: &LayerShape,
    batch: usize,
    dataflow: DataflowStyle,
) -> SpatialMapping {
    match dataflow {
        DataflowStyle::HighBandwidth => match *layer {
            // Weight-stationary: output channels across rows, input channels
            // across columns.
            LayerShape::Conv2d { k, c, .. } => {
                SpatialMapping { row_dim: k, col_dim: c, efficiency: 1.0 }
            }
            // Depth-wise has no channel reduction; only the channel dimension
            // parallelizes well, the filter window fills few columns.
            LayerShape::DepthwiseConv2d { c, r, s, .. } => {
                SpatialMapping { row_dim: c, col_dim: r * s, efficiency: 0.9 }
            }
            LayerShape::FullyConnected { out_features, in_features } => {
                SpatialMapping { row_dim: out_features, col_dim: in_features, efficiency: 1.0 }
            }
            LayerShape::Gemm { m, kdim, .. } => {
                SpatialMapping { row_dim: m, col_dim: kdim, efficiency: 1.0 }
            }
            LayerShape::EmbeddingLookup { .. } => {
                SpatialMapping { row_dim: 1, col_dim: 1, efficiency: 1.0 }
            }
        },
        DataflowStyle::LowBandwidth => match *layer {
            // Row-stationary: spatial dimensions across the array.
            LayerShape::Conv2d { y, x, .. } => {
                SpatialMapping { row_dim: y, col_dim: x, efficiency: 0.95 }
            }
            LayerShape::DepthwiseConv2d { y, x, .. } => {
                SpatialMapping { row_dim: y, col_dim: x, efficiency: 1.0 }
            }
            // FC/GEMM have no spatial extent: LB falls back to parallelizing
            // the mini-batch and a slice of the output features, with poor
            // intrinsic efficiency (this is what makes LB slow-but-frugal on
            // language/recommendation jobs, Fig. 7).
            LayerShape::FullyConnected { out_features, .. } => {
                SpatialMapping { row_dim: batch.max(1), col_dim: out_features, efficiency: 0.12 }
            }
            LayerShape::Gemm { m, n, .. } => {
                SpatialMapping { row_dim: m.min(n), col_dim: m.max(n), efficiency: 0.12 }
            }
            LayerShape::EmbeddingLookup { .. } => {
                SpatialMapping { row_dim: 1, col_dim: 1, efficiency: 1.0 }
            }
        },
    }
}

impl CostModel {
    /// Creates a cost model with the default constants (1 B/element, 200 MHz
    /// cores are configured on the [`SubAccelConfig`] side).
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimates the cost of running `layer` on `accel` with the given
    /// mini-batch size, using the accelerator's fixed PE-array shape.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or if the layer does not run on the accelerator.
    pub fn estimate(
        &self,
        layer: &LayerShape,
        batch: usize,
        accel: &SubAccelConfig,
    ) -> CostEstimate {
        self.estimate_with_shape(layer, batch, accel, accel.pe_rows(), accel.pe_cols())
    }

    /// Estimates the cost with an explicit PE-array factorization (used by the
    /// flexible-accelerator experiments in Section VI-F, where the array
    /// shape is chosen per layer).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, `rows * cols == 0`, or the layer is host-side.
    pub(crate) fn estimate_with_shape(
        &self,
        layer: &LayerShape,
        batch: usize,
        accel: &SubAccelConfig,
        rows: usize,
        cols: usize,
    ) -> CostEstimate {
        assert!(batch > 0, "mini-batch must be non-zero");
        assert!(rows > 0 && cols > 0, "PE array shape must be non-zero");
        assert!(
            layer.runs_on_accelerator(),
            "host-side layers cannot be estimated on an accelerator"
        );

        let macs = layer.macs() * batch as u64;
        let mapping = spatial_mapping(layer, batch, accel.dataflow());
        let util = dim_utilization(mapping.row_dim, rows)
            * dim_utilization(mapping.col_dim, cols)
            * mapping.efficiency;
        // Guard against degenerate zero utilization (e.g. 1x1 mapping).
        let util = util.max(1.0 / (rows * cols) as f64);
        let effective_pes = (rows * cols) as f64 * util;

        let compute_cycles = (macs as f64 / effective_pes).ceil() as u64;
        let num_tiles = self.num_tiles(layer, batch, accel);
        let no_stall_cycles = (compute_cycles + self.tile_overhead_cycles * num_tiles).max(1);

        let traffic_elems = self.dram_traffic_elems(layer, batch, accel);
        let dram_traffic_bytes = (traffic_elems as f64 * self.bytes_per_elem) as u64;

        let seconds = no_stall_cycles as f64 / accel.frequency_hz();
        let required_bw_gbps = dram_traffic_bytes as f64 / seconds / 1e9;

        let sram_bytes = (macs as f64) * 2.0 * self.bytes_per_elem; // operand + partial-sum touches
        let energy_nj = (macs as f64 * self.energy.mac_pj
            + sram_bytes * self.energy.sram_pj_per_byte * 0.01
            + dram_traffic_bytes as f64 * self.energy.dram_pj_per_byte)
            / 1000.0;

        CostEstimate {
            no_stall_cycles,
            required_bw_gbps,
            macs,
            dram_traffic_bytes,
            utilization: util,
            energy_nj,
        }
    }

    /// Number of SG-sized tiles the job is broken into (each tile pays the
    /// issue overhead and defines the double-buffering granularity).
    fn num_tiles(&self, layer: &LayerShape, batch: usize, accel: &SubAccelConfig) -> u64 {
        let half_sg = (accel.sg_bytes() / 2).max(1) as u64;
        let working_set = ((layer.weight_elems()
            + (layer.input_elems() + layer.output_elems()) * batch as u64)
            as f64
            * self.bytes_per_elem) as u64;
        working_set.div_ceil(half_sg).max(1)
    }

    /// Total DRAM traffic in elements, including dataflow-induced re-fetches.
    /// A job's own volumes fit `u64` (its constructor checks); re-fetched
    /// multiples of them may not, so those saturate — a layer within a few
    /// bits of the bound costs "as much as can be counted" instead of
    /// wrapping to something cheap (or panicking under overflow checks).
    fn dram_traffic_elems(&self, layer: &LayerShape, batch: usize, accel: &SubAccelConfig) -> u64 {
        let weights = layer.weight_elems();
        let inputs = layer.input_elems() * batch as u64;
        let outputs = layer.output_elems() * batch as u64;
        let half_sg_elems = ((accel.sg_bytes() / 2).max(1) as f64 / self.bytes_per_elem) as u64;
        let half_sg_elems = half_sg_elems.max(1);

        match accel.dataflow() {
            DataflowStyle::HighBandwidth => {
                // Weight-stationary: weights are fetched exactly once. If the
                // input activations do not fit in half the (double-buffered)
                // SG, they must be re-streamed once per output-channel fold of
                // the PE array — this is what makes the HB style bandwidth
                // hungry on activation-heavy layers.
                let input_refetch = if inputs <= half_sg_elems {
                    1
                } else {
                    let row_dim = spatial_mapping(layer, batch, accel.dataflow()).row_dim;
                    row_dim.div_ceil(accel.pe_rows()).max(1) as u64
                };
                inputs.saturating_mul(input_refetch).saturating_add(weights).saturating_add(outputs)
            }
            DataflowStyle::LowBandwidth => {
                // Row-stationary: activations are held on-chip and maximally
                // reused; weights are re-fetched once per resident activation
                // tile only when the weight tensor itself overflows half the
                // SG (rare for the layers LB is good at).
                let weight_refetch = if weights <= half_sg_elems {
                    1
                } else {
                    (inputs + outputs).div_ceil(half_sg_elems).max(1)
                };
                weights.saturating_mul(weight_refetch.min(8)).saturating_add(inputs + outputs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hb_large() -> SubAccelConfig {
        SubAccelConfig::new("hb", 128, 64, DataflowStyle::HighBandwidth, 580 * 1024)
    }

    fn lb_large() -> SubAccelConfig {
        SubAccelConfig::new("lb", 128, 64, DataflowStyle::LowBandwidth, 434 * 1024)
    }

    fn hb_small() -> SubAccelConfig {
        SubAccelConfig::new("hb-s", 32, 64, DataflowStyle::HighBandwidth, 146 * 1024)
    }

    #[test]
    fn dim_utilization_perfect_and_folded() {
        assert_eq!(dim_utilization(64, 64), 1.0);
        assert_eq!(dim_utilization(128, 64), 1.0);
        assert!((dim_utilization(96, 64) - 0.75).abs() < 1e-12);
        assert!(dim_utilization(1, 64) < 0.02);
    }

    #[test]
    fn a_layer_near_the_64_bit_bound_saturates_its_refetched_traffic() {
        // 2^62 weights: in range on their own (a `Job` accepts the layer),
        // past 2^64 once a dataflow re-fetches them or the activations.
        let layer = LayerShape::FullyConnected { out_features: 1 << 31, in_features: 1 << 31 };
        let m = CostModel::default();
        for accel in [hb_large(), lb_large(), hb_small()] {
            let e = m.estimate(&layer, 1, &accel);
            assert!(e.dram_traffic_bytes >= layer.weight_elems(), "{}: {e:?}", accel.name());
            assert!(e.required_bw_gbps.is_finite() && e.required_bw_gbps > 0.0, "{e:?}");
            assert!(e.no_stall_cycles > 0 && e.energy_nj.is_finite(), "{e:?}");
        }
        // 2^62 input activations, re-streamed once per fold of 2^31 output
        // rows over the PE array.
        let wide = LayerShape::Gemm { m: 1 << 31, n: 1, kdim: 1 << 31 };
        let e = m.estimate(&wide, 1, &hb_large());
        assert!(e.dram_traffic_bytes >= wide.input_elems(), "{e:?}");
    }

    #[test]
    fn fc_is_much_faster_on_hb_than_lb() {
        let layer = LayerShape::FullyConnected { out_features: 768, in_features: 768 };
        let m = CostModel::default();
        let hb = m.estimate(&layer, 4, &hb_large());
        let lb = m.estimate(&layer, 4, &lb_large());
        assert!(lb.no_stall_cycles > hb.no_stall_cycles * 10, "hb={hb:?} lb={lb:?}");
        assert!(hb.required_bw_gbps > lb.required_bw_gbps * 10.0);
    }

    #[test]
    fn depthwise_prefers_lb() {
        let layer = LayerShape::DepthwiseConv2d { c: 192, y: 28, x: 28, r: 3, s: 3, stride: 1 };
        let m = CostModel::default();
        let hb = m.estimate(&layer, 4, &hb_large());
        let lb = m.estimate(&layer, 4, &lb_large());
        // LB should need (much) less bandwidth and not be dramatically slower.
        assert!(lb.required_bw_gbps < hb.required_bw_gbps);
    }

    #[test]
    fn conv_required_bw_lower_than_fc_of_same_macs() {
        // Conv reuses weights spatially, so per-MAC traffic is lower than FC.
        let conv = LayerShape::Conv2d { k: 256, c: 256, y: 14, x: 14, r: 3, s: 3, stride: 1 };
        let fc = LayerShape::FullyConnected { out_features: 4096, in_features: 4096 };
        let m = CostModel::default();
        let a = m.estimate(&conv, 4, &hb_large());
        let b = m.estimate(&fc, 4, &hb_large());
        assert!(a.achieved_intensity() > b.achieved_intensity());
    }

    #[test]
    fn larger_array_is_faster_but_never_slower_utilized_layer() {
        let layer = LayerShape::Conv2d { k: 512, c: 512, y: 14, x: 14, r: 3, s: 3, stride: 1 };
        let m = CostModel::default();
        let small = m.estimate(&layer, 4, &hb_small());
        let large = m.estimate(&layer, 4, &hb_large());
        assert!(large.no_stall_cycles < small.no_stall_cycles);
    }

    #[test]
    fn batch_scales_macs_linearly() {
        let layer = LayerShape::pointwise(128, 128, 28, 28);
        let m = CostModel::default();
        let b1 = m.estimate(&layer, 1, &hb_large());
        let b4 = m.estimate(&layer, 4, &hb_large());
        assert_eq!(b4.macs, 4 * b1.macs);
        assert!(b4.no_stall_cycles >= b1.no_stall_cycles * 3);
    }

    #[test]
    fn utilization_bounded() {
        let m = CostModel::default();
        for layer in [
            LayerShape::pointwise(3, 3, 2, 2),
            LayerShape::FullyConnected { out_features: 1, in_features: 1 },
            LayerShape::Conv2d { k: 4096, c: 4096, y: 1, x: 1, r: 1, s: 1, stride: 1 },
        ] {
            let e = m.estimate(&layer, 1, &hb_large());
            assert!(e.utilization > 0.0 && e.utilization <= 1.0, "{e:?}");
        }
    }

    #[test]
    fn energy_increases_with_traffic() {
        let m = CostModel::default();
        let small = m.estimate(&LayerShape::pointwise(64, 64, 7, 7), 1, &hb_large());
        let big = m.estimate(&LayerShape::pointwise(512, 512, 28, 28), 1, &hb_large());
        assert!(big.energy_nj > small.energy_nj);
    }

    #[test]
    #[should_panic(expected = "host-side")]
    fn embedding_estimate_panics() {
        let m = CostModel::default();
        let _ = m.estimate(&LayerShape::EmbeddingLookup { lookups: 8, dim: 8 }, 1, &hb_large());
    }

    #[test]
    fn required_bw_matches_traffic_over_time() {
        let m = CostModel::default();
        let layer = LayerShape::FullyConnected { out_features: 1024, in_features: 1024 };
        let cfg = hb_large();
        let e = m.estimate(&layer, 4, &cfg);
        let secs = e.no_stall_cycles as f64 / cfg.frequency_hz();
        let expect = e.dram_traffic_bytes as f64 / secs / 1e9;
        assert!((e.required_bw_gbps - expect).abs() / expect < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn estimates_are_finite_and_positive(
            k in 1usize..512, c in 1usize..512, y in 1usize..64, x in 1usize..64,
            batch in 1usize..8,
        ) {
            let layer = LayerShape::Conv2d { k, c, y, x, r: 3, s: 3, stride: 1 };
            let m = CostModel::default();
            for cfg in [hb_large(), lb_large(), hb_small()] {
                let e = m.estimate(&layer, batch, &cfg);
                prop_assert!(e.no_stall_cycles >= 1);
                prop_assert!(e.required_bw_gbps.is_finite() && e.required_bw_gbps > 0.0);
                prop_assert!(e.utilization > 0.0 && e.utilization <= 1.0);
                prop_assert!(e.energy_nj.is_finite() && e.energy_nj > 0.0);
                prop_assert!(e.dram_traffic_bytes >= layer.weight_elems());
            }
        }

        #[test]
        fn more_pes_never_increase_latency(
            out_f in 64usize..4096, in_f in 64usize..4096, batch in 1usize..8,
        ) {
            let layer = LayerShape::FullyConnected { out_features: out_f, in_features: in_f };
            let m = CostModel::default();
            let small = m.estimate(&layer, batch, &hb_small());
            let large = m.estimate(&layer, batch, &hb_large());
            prop_assert!(large.no_stall_cycles <= small.no_stall_cycles);
        }
    }
}
