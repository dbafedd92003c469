//! Tensor-shape descriptions of DNN layers and their arithmetic/data costs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a single DNN layer, as seen by the mapper.
///
/// All shapes describe the work for **one sample** (batch size 1); a
/// [`Job`](crate::Job) multiplies by its mini-batch size. Dimension naming
/// follows the MAESTRO convention used in the paper:
///
/// * `k` — output channels, `c` — input channels,
/// * `y`/`x` — output feature-map height/width,
/// * `r`/`s` — filter height/width,
/// * FC/GEMM layers use `m`×`n`×`kdim` (`out_features` × `batch-dim` ×
///   `in_features`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerShape {
    /// Standard 2-D convolution.
    Conv2d {
        /// Output channels.
        k: usize,
        /// Input channels.
        c: usize,
        /// Output feature-map height.
        y: usize,
        /// Output feature-map width.
        x: usize,
        /// Filter height.
        r: usize,
        /// Filter width.
        s: usize,
        /// Convolution stride (same in both spatial dimensions).
        stride: usize,
    },
    /// Depth-wise 2-D convolution (one filter per channel, no cross-channel
    /// reduction). Memory-intensive relative to its MAC count.
    DepthwiseConv2d {
        /// Channels (input == output).
        c: usize,
        /// Output feature-map height.
        y: usize,
        /// Output feature-map width.
        x: usize,
        /// Filter height.
        r: usize,
        /// Filter width.
        s: usize,
        /// Convolution stride.
        stride: usize,
    },
    /// Fully-connected layer / GEMV for one sample: `out_features` ×
    /// `in_features` weight matrix applied to an `in_features` vector.
    FullyConnected {
        /// Output features.
        out_features: usize,
        /// Input features.
        in_features: usize,
    },
    /// General matrix multiply `m × kdim` times `kdim × n` (used for
    /// attention score/value matmuls where both operands are activations).
    Gemm {
        /// Rows of the output.
        m: usize,
        /// Columns of the output.
        n: usize,
        /// Contraction dimension.
        kdim: usize,
    },
    /// Embedding-table lookup: `lookups` gathers of `dim`-wide rows.
    ///
    /// The paper keeps embedding lookups on the CPU host; they are included
    /// here so model descriptions are complete, but workload generation skips
    /// them (see [`LayerShape::runs_on_accelerator`]).
    EmbeddingLookup {
        /// Number of table lookups per sample.
        lookups: usize,
        /// Embedding dimension.
        dim: usize,
    },
}

impl LayerShape {
    /// Convenience constructor for a pointwise (1×1) convolution.
    pub fn pointwise(k: usize, c: usize, y: usize, x: usize) -> Self {
        LayerShape::Conv2d { k, c, y, x, r: 1, s: 1, stride: 1 }
    }

    /// Number of multiply-accumulate operations for one sample.
    pub fn macs(&self) -> u64 {
        match *self {
            LayerShape::Conv2d { k, c, y, x, r, s, .. } => {
                k as u64 * c as u64 * y as u64 * x as u64 * r as u64 * s as u64
            }
            LayerShape::DepthwiseConv2d { c, y, x, r, s, .. } => {
                c as u64 * y as u64 * x as u64 * r as u64 * s as u64
            }
            LayerShape::FullyConnected { out_features, in_features } => {
                out_features as u64 * in_features as u64
            }
            LayerShape::Gemm { m, n, kdim } => m as u64 * n as u64 * kdim as u64,
            // A lookup is a copy, not a MAC; count zero compute.
            LayerShape::EmbeddingLookup { .. } => 0,
        }
    }

    /// Floating-point operations (2 × MACs) for one sample.
    #[cfg(test)]
    pub(crate) fn flops(&self) -> u64 {
        self.macs() * 2
    }

    /// Number of weight (parameter) elements that must be fetched.
    pub fn weight_elems(&self) -> u64 {
        match *self {
            LayerShape::Conv2d { k, c, r, s, .. } => k as u64 * c as u64 * r as u64 * s as u64,
            LayerShape::DepthwiseConv2d { c, r, s, .. } => c as u64 * r as u64 * s as u64,
            LayerShape::FullyConnected { out_features, in_features } => {
                out_features as u64 * in_features as u64
            }
            // Both GEMM operands are activations.
            LayerShape::Gemm { .. } => 0,
            LayerShape::EmbeddingLookup { lookups, dim } => lookups as u64 * dim as u64,
        }
    }

    /// Number of input-activation elements for one sample.
    pub fn input_elems(&self) -> u64 {
        match *self {
            LayerShape::Conv2d { c, y, x, r, s, stride, .. } => {
                let in_y = y * stride + r.saturating_sub(stride);
                let in_x = x * stride + s.saturating_sub(stride);
                c as u64 * in_y as u64 * in_x as u64
            }
            LayerShape::DepthwiseConv2d { c, y, x, r, s, stride } => {
                let in_y = y * stride + r.saturating_sub(stride);
                let in_x = x * stride + s.saturating_sub(stride);
                c as u64 * in_y as u64 * in_x as u64
            }
            LayerShape::FullyConnected { in_features, .. } => in_features as u64,
            LayerShape::Gemm { m, n, kdim } => (m as u64 * kdim as u64) + (kdim as u64 * n as u64),
            LayerShape::EmbeddingLookup { lookups, .. } => lookups as u64,
        }
    }

    /// Number of output-activation elements for one sample.
    pub fn output_elems(&self) -> u64 {
        match *self {
            LayerShape::Conv2d { k, y, x, .. } => k as u64 * y as u64 * x as u64,
            LayerShape::DepthwiseConv2d { c, y, x, .. } => c as u64 * y as u64 * x as u64,
            LayerShape::FullyConnected { out_features, .. } => out_features as u64,
            LayerShape::Gemm { m, n, .. } => m as u64 * n as u64,
            LayerShape::EmbeddingLookup { lookups, dim } => lookups as u64 * dim as u64,
        }
    }

    /// FLOPs and data elements of this layer at mini-batch `batch` —
    /// `(macs · batch · 2, weights + (inputs + outputs) · batch)`, the two
    /// totals the mapper computes per job — in checked arithmetic: `None`
    /// when a total, or a product on the way to it in the accessors above,
    /// does not fit `u64`. The accessors multiply unchecked, so shapes from
    /// outside the program pass through here first ([`Job`](crate::Job)'s
    /// constructor does).
    pub(crate) fn checked_totals(&self, batch: usize) -> Option<(u64, u64)> {
        fn product(dims: &[usize]) -> Option<u64> {
            dims.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
        }
        // The input extent behind `out` outputs of a strided filter window.
        fn input_side(out: usize, stride: usize, filter: usize) -> Option<usize> {
            out.checked_mul(stride)?.checked_add(filter.saturating_sub(stride))
        }
        let (macs, weights, inputs, outputs) = match *self {
            LayerShape::Conv2d { k, c, y, x, r, s, stride } => (
                product(&[k, c, y, x, r, s])?,
                product(&[k, c, r, s])?,
                product(&[c, input_side(y, stride, r)?, input_side(x, stride, s)?])?,
                product(&[k, y, x])?,
            ),
            LayerShape::DepthwiseConv2d { c, y, x, r, s, stride } => (
                product(&[c, y, x, r, s])?,
                product(&[c, r, s])?,
                product(&[c, input_side(y, stride, r)?, input_side(x, stride, s)?])?,
                product(&[c, y, x])?,
            ),
            LayerShape::FullyConnected { out_features, in_features } => {
                let weights = product(&[out_features, in_features])?;
                (weights, weights, in_features as u64, out_features as u64)
            }
            LayerShape::Gemm { m, n, kdim } => (
                product(&[m, n, kdim])?,
                0,
                product(&[m, kdim])?.checked_add(product(&[kdim, n])?)?,
                product(&[m, n])?,
            ),
            LayerShape::EmbeddingLookup { lookups, dim } => {
                let table = product(&[lookups, dim])?;
                (0, table, lookups as u64, table)
            }
        };
        let batch = batch as u64;
        let flops = macs.checked_mul(batch)?.checked_mul(2)?;
        let data = inputs.checked_add(outputs)?.checked_mul(batch)?.checked_add(weights)?;
        Some((flops, data))
    }

    /// Whether this layer is executed on the accelerator at all. Embedding
    /// lookups are kept on the CPU host, per the paper's assumption.
    pub fn runs_on_accelerator(&self) -> bool {
        !matches!(self, LayerShape::EmbeddingLookup { .. })
    }
}

impl fmt::Display for LayerShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LayerShape::Conv2d { k, c, y, x, r, s, stride } => {
                write!(f, "CONV k{k} c{c} y{y} x{x} r{r} s{s} st{stride}")
            }
            LayerShape::DepthwiseConv2d { c, y, x, r, s, stride } => {
                write!(f, "DWCONV c{c} y{y} x{x} r{r} s{s} st{stride}")
            }
            LayerShape::FullyConnected { out_features, in_features } => {
                write!(f, "FC {out_features}x{in_features}")
            }
            LayerShape::Gemm { m, n, kdim } => write!(f, "GEMM {m}x{n}x{kdim}"),
            LayerShape::EmbeddingLookup { lookups, dim } => write!(f, "EMB {lookups}x{dim}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conv_macs_and_weights() {
        let l = LayerShape::Conv2d { k: 64, c: 3, y: 112, x: 112, r: 7, s: 7, stride: 2 };
        assert_eq!(l.macs(), 64 * 3 * 112 * 112 * 7 * 7);
        assert_eq!(l.weight_elems(), 64 * 3 * 7 * 7);
    }

    #[test]
    fn pointwise_constructor_is_1x1() {
        let l = LayerShape::pointwise(128, 64, 28, 28);
        match l {
            LayerShape::Conv2d { r, s, stride, .. } => {
                assert_eq!((r, s, stride), (1, 1, 1));
            }
            _ => panic!("pointwise should be Conv2d"),
        }
        assert_eq!(l.macs(), 128 * 64 * 28 * 28);
    }

    #[test]
    fn fc_counts() {
        let l = LayerShape::FullyConnected { out_features: 1000, in_features: 2048 };
        assert_eq!(l.macs(), 1000 * 2048);
        assert_eq!(l.weight_elems(), 1000 * 2048);
        assert_eq!(l.input_elems(), 2048);
        assert_eq!(l.output_elems(), 1000);
    }

    #[test]
    fn gemm_has_no_weights() {
        let l = LayerShape::Gemm { m: 128, n: 128, kdim: 64 };
        assert_eq!(l.weight_elems(), 0);
        assert_eq!(l.macs(), 128 * 128 * 64);
    }

    #[test]
    fn embedding_runs_on_host() {
        let l = LayerShape::EmbeddingLookup { lookups: 26, dim: 64 };
        assert!(!l.runs_on_accelerator());
        assert_eq!(l.macs(), 0);
        assert!(l.weight_elems() > 0);
    }

    #[test]
    fn flops_is_twice_macs() {
        let l = LayerShape::FullyConnected { out_features: 10, in_features: 20 };
        assert_eq!(l.flops(), 2 * l.macs());
    }

    #[test]
    fn display_contains_kind() {
        let l = LayerShape::pointwise(8, 8, 4, 4);
        assert!(l.to_string().contains("CONV"));
    }

    #[test]
    fn stride_one_input_size_includes_halo() {
        let l = LayerShape::Conv2d { k: 1, c: 1, y: 10, x: 10, r: 3, s: 3, stride: 1 };
        // 10*1 + 3-1 = 12
        assert_eq!(l.input_elems(), 12 * 12);
    }

    #[test]
    fn checked_totals_refuse_what_the_accessors_would_overflow() {
        const MAX: usize = usize::MAX;
        let fc =
            |out_features, in_features| LayerShape::FullyConnected { out_features, in_features };
        assert_eq!(fc(1, MAX).checked_totals(1), None, "the FLOPs are twice the MACs");
        assert_eq!(fc(2, MAX).checked_totals(1), None);
        assert_eq!(fc(1, MAX / 2).checked_totals(2), None, "the mini-batch multiplies");
        assert!(fc(1, MAX / 8).checked_totals(1).is_some());
        // A product that overflows on the way is refused even when a later
        // zero would bring it back into range.
        let conv = LayerShape::Conv2d { k: MAX, c: 2, y: 0, x: 1, r: 1, s: 1, stride: 1 };
        assert_eq!(conv.checked_totals(1), None);
        // The input extent is computed in `usize` before it is counted.
        let strided = LayerShape::DepthwiseConv2d { c: 1, y: MAX / 2, x: 1, r: 1, s: 1, stride: 3 };
        assert_eq!(strided.checked_totals(1), None);
        let halo = LayerShape::Conv2d { k: 1, c: 1, y: 1, x: 1, r: MAX, s: 1, stride: 1 };
        assert_eq!(halo.checked_totals(1), None);
        let gemm = LayerShape::Gemm { m: 1 << 32, n: 1, kdim: 1 << 32 };
        assert_eq!(gemm.checked_totals(1), None);
    }

    proptest! {
        #[test]
        fn checked_totals_are_the_accessors_totals(
            kind in 0usize..5,
            d in proptest::collection::vec(0usize..300, 6..7),
            stride in 0usize..4, batch in 1usize..16,
        ) {
            let (k, c, y, x, r, s) = (d[0], d[1], d[2], d[3], d[4], d[5]);
            let l = match kind {
                0 => LayerShape::Conv2d { k, c, y, x, r, s, stride },
                1 => LayerShape::DepthwiseConv2d { c, y, x, r, s, stride },
                2 => LayerShape::FullyConnected { out_features: k, in_features: c },
                3 => LayerShape::Gemm { m: k, n: c, kdim: y },
                _ => LayerShape::EmbeddingLookup { lookups: k, dim: c },
            };
            let flops = l.flops() * batch as u64;
            let data = l.weight_elems() + (l.input_elems() + l.output_elems()) * batch as u64;
            prop_assert_eq!(l.checked_totals(batch), Some((flops, data)));
        }

        #[test]
        fn conv_macs_monotonic_in_channels(
            k in 1usize..64, c in 1usize..64, y in 1usize..32, x in 1usize..32,
            r in 1usize..5, s in 1usize..5,
        ) {
            let a = LayerShape::Conv2d { k, c, y, x, r, s, stride: 1 };
            let b = LayerShape::Conv2d { k: k + 1, c, y, x, r, s, stride: 1 };
            prop_assert!(b.macs() > a.macs());
        }
    }
}
