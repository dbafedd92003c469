//! Hand-coded layer tables for the DNN models the paper evaluates.
//!
//! The tables are representative rather than bit-exact: every model listed in
//! the paper's methodology (Section VI-A) is present with its characteristic
//! layer mix (CONV-heavy vision models, FC/attention-heavy language models,
//! small-FC recommendation models), which is what the cost model and the
//! mapper actually consume.

use crate::{LayerShape, Model, TaskType};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn conv(k: usize, c: usize, y: usize, x: usize, r: usize, s: usize, stride: usize) -> LayerShape {
    LayerShape::Conv2d { k, c, y, x, r, s, stride }
}

fn dwconv(c: usize, y: usize, x: usize, r: usize, s: usize, stride: usize) -> LayerShape {
    LayerShape::DepthwiseConv2d { c, y, x, r, s, stride }
}

fn fc(out_features: usize, in_features: usize) -> LayerShape {
    LayerShape::FullyConnected { out_features, in_features }
}

/// One transformer block, modelled (as the paper does) as a set of FC/GEMM
/// layers: Q/K/V projections, attention score and context matmuls, the output
/// projection and the two feed-forward layers.
fn transformer_block(hidden: usize, ff: usize, seq: usize, layers: &mut Vec<LayerShape>) {
    // Q, K, V projections (per token, seq handled by batch dimension of jobs;
    // we fold the sequence length into the GEMM shapes for attention).
    layers.push(fc(hidden, hidden)); // Q
    layers.push(fc(hidden, hidden)); // K
    layers.push(fc(hidden, hidden)); // V

    // Attention score (seq x seq x hidden) and context (seq x hidden x seq).
    layers.push(LayerShape::Gemm { m: seq, n: seq, kdim: hidden });
    layers.push(LayerShape::Gemm { m: seq, n: hidden, kdim: seq });
    // Output projection + feed-forward.
    layers.push(fc(hidden, hidden));
    layers.push(fc(ff, hidden));
    layers.push(fc(hidden, ff));
}

// ---------------------------------------------------------------------------
// Vision models
// ---------------------------------------------------------------------------

/// ResNet-50 (He et al.): 7×7 stem, four bottleneck stages, FC head.
pub fn resnet50() -> Model {
    let mut l = vec![conv(64, 3, 112, 112, 7, 7, 2)];
    // (blocks, in_c, mid_c, out_c, spatial)
    let stages: [(usize, usize, usize, usize, usize); 4] = [
        (3, 64, 64, 256, 56),
        (4, 256, 128, 512, 28),
        (6, 512, 256, 1024, 14),
        (3, 1024, 512, 2048, 7),
    ];
    for (blocks, in_c, mid, out, sp) in stages {
        for b in 0..blocks {
            let cin = if b == 0 { in_c } else { out };
            l.push(LayerShape::pointwise(mid, cin, sp, sp));
            l.push(conv(mid, mid, sp, sp, 3, 3, 1));
            l.push(LayerShape::pointwise(out, mid, sp, sp));
            if b == 0 {
                // projection shortcut
                l.push(LayerShape::pointwise(out, cin, sp, sp));
            }
        }
    }
    l.push(fc(1000, 2048));
    Model::new("ResNet50", TaskType::Vision, l)
}

/// MobileNetV2 (Sandler et al.): inverted residual blocks with depth-wise
/// convolutions — the canonical memory-intensive vision model.
pub(crate) fn mobilenet_v2() -> Model {
    let mut l = vec![conv(32, 3, 112, 112, 3, 3, 2)];
    // (expansion, out_c, repeats, spatial, stride-of-first)
    let cfg: [(usize, usize, usize, usize, usize); 7] = [
        (1, 16, 1, 112, 1),
        (6, 24, 2, 56, 2),
        (6, 32, 3, 28, 2),
        (6, 64, 4, 14, 2),
        (6, 96, 3, 14, 1),
        (6, 160, 3, 7, 2),
        (6, 320, 1, 7, 1),
    ];
    let mut in_c = 32;
    for (t, out_c, n, sp, _stride) in cfg {
        for _ in 0..n {
            let exp = in_c * t;
            if t != 1 {
                l.push(LayerShape::pointwise(exp, in_c, sp, sp));
            }
            l.push(dwconv(exp, sp, sp, 3, 3, 1));
            l.push(LayerShape::pointwise(out_c, exp, sp, sp));
            in_c = out_c;
        }
    }
    l.push(LayerShape::pointwise(1280, 320, 7, 7));
    l.push(fc(1000, 1280));
    Model::new("MobileNetV2", TaskType::Vision, l)
}

/// ShuffleNet (Zhang et al.): grouped pointwise + depth-wise units.
pub(crate) fn shufflenet() -> Model {
    let mut l = vec![conv(24, 3, 112, 112, 3, 3, 2)];
    let stages: [(usize, usize, usize); 3] = [(4, 240, 28), (8, 480, 14), (4, 960, 7)];
    let mut in_c = 24;
    for (repeats, out_c, sp) in stages {
        for _ in 0..repeats {
            l.push(LayerShape::pointwise(out_c / 4, in_c, sp, sp));
            l.push(dwconv(out_c / 4, sp, sp, 3, 3, 1));
            l.push(LayerShape::pointwise(out_c, out_c / 4, sp, sp));
            in_c = out_c;
        }
    }
    l.push(fc(1000, 960));
    Model::new("ShuffleNet", TaskType::Vision, l)
}

/// VGG-16 (Simonyan & Zisserman): large dense 3×3 convolutions + 3 FCs.
pub(crate) fn vgg16() -> Model {
    let mut l = Vec::new();
    let cfg: [(usize, usize, usize); 5] =
        [(64, 2, 224), (128, 2, 112), (256, 3, 56), (512, 3, 28), (512, 3, 14)];
    let mut in_c = 3;
    for (out_c, repeats, sp) in cfg {
        for _ in 0..repeats {
            l.push(conv(out_c, in_c, sp, sp, 3, 3, 1));
            in_c = out_c;
        }
    }
    l.push(fc(4096, 512 * 7 * 7));
    l.push(fc(4096, 4096));
    l.push(fc(1000, 4096));
    Model::new("VGG16", TaskType::Vision, l)
}

/// SqueezeNet (Iandola et al.): fire modules (squeeze 1×1 + expand 1×1/3×3).
pub(crate) fn squeezenet() -> Model {
    let mut l = vec![conv(96, 3, 111, 111, 7, 7, 2)];
    let fires: [(usize, usize, usize, usize); 8] = [
        (96, 16, 64, 55),
        (128, 16, 64, 55),
        (128, 32, 128, 27),
        (256, 32, 128, 27),
        (256, 48, 192, 13),
        (384, 48, 192, 13),
        (384, 64, 256, 13),
        (512, 64, 256, 13),
    ];
    for (in_c, squeeze, expand, sp) in fires {
        l.push(LayerShape::pointwise(squeeze, in_c, sp, sp));
        l.push(LayerShape::pointwise(expand, squeeze, sp, sp));
        l.push(conv(expand, squeeze, sp, sp, 3, 3, 1));
    }
    l.push(LayerShape::pointwise(1000, 512, 13, 13));
    Model::new("SqueezeNet", TaskType::Vision, l)
}

/// GoogLeNet / Inception-v1 (Szegedy et al.), inception branches flattened.
pub(crate) fn googlenet() -> Model {
    let mut l = vec![
        conv(64, 3, 112, 112, 7, 7, 2),
        LayerShape::pointwise(64, 64, 56, 56),
        conv(192, 64, 56, 56, 3, 3, 1),
    ];
    // (in_c, b1, b3r, b3, b5r, b5, pool_proj, spatial)
    type InceptionSpec = (usize, usize, usize, usize, usize, usize, usize, usize);
    let inceptions: [InceptionSpec; 9] = [
        (192, 64, 96, 128, 16, 32, 32, 28),
        (256, 128, 128, 192, 32, 96, 64, 28),
        (480, 192, 96, 208, 16, 48, 64, 14),
        (512, 160, 112, 224, 24, 64, 64, 14),
        (512, 128, 128, 256, 24, 64, 64, 14),
        (512, 112, 144, 288, 32, 64, 64, 14),
        (528, 256, 160, 320, 32, 128, 128, 14),
        (832, 256, 160, 320, 32, 128, 128, 7),
        (832, 384, 192, 384, 48, 128, 128, 7),
    ];
    for (in_c, b1, b3r, b3, b5r, b5, pp, sp) in inceptions {
        l.push(LayerShape::pointwise(b1, in_c, sp, sp));
        l.push(LayerShape::pointwise(b3r, in_c, sp, sp));
        l.push(conv(b3, b3r, sp, sp, 3, 3, 1));
        l.push(LayerShape::pointwise(b5r, in_c, sp, sp));
        l.push(conv(b5, b5r, sp, sp, 5, 5, 1));
        l.push(LayerShape::pointwise(pp, in_c, sp, sp));
    }
    l.push(fc(1000, 1024));
    Model::new("GoogLeNet", TaskType::Vision, l)
}

/// MnasNet (Tan et al.): mobile NAS model, depth-wise separable blocks.
pub(crate) fn mnasnet() -> Model {
    let mut l = vec![conv(32, 3, 112, 112, 3, 3, 2), dwconv(32, 112, 112, 3, 3, 1)];
    l.push(LayerShape::pointwise(16, 32, 112, 112));
    let cfg: [(usize, usize, usize, usize, usize); 6] = [
        (3, 24, 3, 56, 3),
        (3, 40, 3, 28, 5),
        (6, 80, 3, 14, 5),
        (6, 96, 2, 14, 3),
        (6, 192, 4, 7, 5),
        (6, 320, 1, 7, 3),
    ];
    let mut in_c = 16;
    for (t, out_c, n, sp, kernel) in cfg {
        for _ in 0..n {
            let exp = in_c * t;
            l.push(LayerShape::pointwise(exp, in_c, sp, sp));
            l.push(dwconv(exp, sp, sp, kernel, kernel, 1));
            l.push(LayerShape::pointwise(out_c, exp, sp, sp));
            in_c = out_c;
        }
    }
    l.push(LayerShape::pointwise(1280, 320, 7, 7));
    l.push(fc(1000, 1280));
    Model::new("MnasNet", TaskType::Vision, l)
}

// ---------------------------------------------------------------------------
// Language models
// ---------------------------------------------------------------------------

/// GPT-2 (small): 12 transformer blocks, hidden 768, sequence length 256.
pub(crate) fn gpt2() -> Model {
    let mut l = vec![LayerShape::EmbeddingLookup { lookups: 256, dim: 768 }];
    for _ in 0..12 {
        transformer_block(768, 3072, 256, &mut l);
    }
    l.push(fc(50257, 768));
    Model::new("GPT2", TaskType::Language, l)
}

/// BERT-base: 12 transformer blocks, hidden 768, sequence length 128.
pub(crate) fn bert_base() -> Model {
    let mut l = vec![LayerShape::EmbeddingLookup { lookups: 128, dim: 768 }];
    for _ in 0..12 {
        transformer_block(768, 3072, 128, &mut l);
    }
    l.push(fc(768, 768));
    Model::new("BERT-base", TaskType::Language, l)
}

/// MobileBERT: 24 thin transformer blocks (hidden 128, bottlenecked FFN).
pub(crate) fn mobilebert() -> Model {
    let mut l = vec![LayerShape::EmbeddingLookup { lookups: 128, dim: 128 }];
    for _ in 0..24 {
        transformer_block(128, 512, 128, &mut l);
    }
    l.push(fc(128, 128));
    Model::new("MobileBert", TaskType::Language, l)
}

/// Transformer-XL (base): 16 blocks, hidden 410, FFN 2100, long context 512.
pub(crate) fn transformer_xl() -> Model {
    let mut l = vec![LayerShape::EmbeddingLookup { lookups: 512, dim: 410 }];
    for _ in 0..16 {
        transformer_block(410, 2100, 512, &mut l);
    }
    l.push(fc(410, 410));
    Model::new("TransformerXL", TaskType::Language, l)
}

/// XLNet (base): 12 blocks, hidden 768, sequence 384 (two-stream folded).
pub(crate) fn xlnet() -> Model {
    let mut l = vec![LayerShape::EmbeddingLookup { lookups: 384, dim: 768 }];
    for _ in 0..12 {
        transformer_block(768, 3072, 384, &mut l);
    }
    l.push(fc(768, 768));
    Model::new("XLNet", TaskType::Language, l)
}

/// An ELMo-style bi-LSTM language model; recurrent cells modelled as FCs.
pub(crate) fn elmo() -> Model {
    let mut l = vec![LayerShape::EmbeddingLookup { lookups: 128, dim: 512 }];
    for _ in 0..2 {
        // Per direction: 4 gate matrices on input + 4 on hidden state.
        for _ in 0..2 {
            l.push(fc(4 * 4096, 512));
            l.push(fc(4 * 4096, 4096));
            l.push(fc(512, 4096)); // projection
        }
    }
    l.push(fc(512, 1024));
    Model::new("ELMo", TaskType::Language, l)
}

// ---------------------------------------------------------------------------
// Recommendation models
// ---------------------------------------------------------------------------

/// DLRM (Naumov et al.): embedding lookups (host) + bottom/top MLP towers.
pub(crate) fn dlrm() -> Model {
    let l = vec![
        LayerShape::EmbeddingLookup { lookups: 26, dim: 64 },
        // bottom MLP 13-512-256-64
        fc(512, 13),
        fc(256, 512),
        fc(64, 256),
        // feature interaction approximated as a small GEMM
        LayerShape::Gemm { m: 27, n: 27, kdim: 64 },
        // top MLP 512-256-1
        fc(512, 479),
        fc(256, 512),
        fc(1, 256),
    ];
    Model::new("DLRM", TaskType::Recommendation, l)
}

/// Wide & Deep (Cheng et al.): wide linear part + deep MLP tower.
pub(crate) fn wide_deep() -> Model {
    let l = vec![
        LayerShape::EmbeddingLookup { lookups: 40, dim: 32 },
        fc(1024, 1280),
        fc(512, 1024),
        fc(256, 512),
        fc(1, 256),
    ];
    Model::new("WideDeep", TaskType::Recommendation, l)
}

/// Neural Collaborative Filtering (He et al.): tiny MLP on user/item factors.
pub fn ncf() -> Model {
    let l = vec![
        LayerShape::EmbeddingLookup { lookups: 2, dim: 64 },
        fc(256, 128),
        fc(128, 256),
        fc(64, 128),
        fc(1, 64),
    ];
    Model::new("NCF", TaskType::Recommendation, l)
}

/// Deep Interest Network (Zhou et al.): attention over behaviour sequence +
/// MLP tower.
pub(crate) fn din() -> Model {
    let l = vec![
        LayerShape::EmbeddingLookup { lookups: 100, dim: 32 },
        // local-activation attention MLPs over 100 behaviours
        LayerShape::Gemm { m: 100, n: 36, kdim: 128 },
        fc(36, 128),
        fc(1, 36),
        // top tower
        fc(200, 288),
        fc(80, 200),
        fc(2, 80),
    ];
    Model::new("DIN", TaskType::Recommendation, l)
}

/// Deep Interest Evolution Network: GRU-augmented DIN; GRU gates as FCs.
pub(crate) fn dien() -> Model {
    let l = vec![
        LayerShape::EmbeddingLookup { lookups: 100, dim: 32 },
        // GRU over the behaviour sequence (3 gates × (input + hidden))
        fc(3 * 64, 32),
        fc(3 * 64, 64),
        // AUGRU second pass
        fc(3 * 64, 64),
        fc(3 * 64, 64),
        // attention + top tower
        LayerShape::Gemm { m: 100, n: 64, kdim: 64 },
        fc(200, 256),
        fc(80, 200),
        fc(2, 80),
    ];
    Model::new("DIEN", TaskType::Recommendation, l)
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// All vision models in the zoo.
pub(crate) fn vision_models() -> Vec<Model> {
    vec![resnet50(), mobilenet_v2(), shufflenet(), vgg16(), squeezenet(), googlenet(), mnasnet()]
}

/// All language models in the zoo.
pub(crate) fn language_models() -> Vec<Model> {
    vec![gpt2(), bert_base(), mobilebert(), transformer_xl(), xlnet(), elmo()]
}

/// All recommendation models in the zoo.
pub(crate) fn recommendation_models() -> Vec<Model> {
    vec![dlrm(), wide_deep(), ncf(), din(), dien()]
}

/// Models belonging to a task category. For [`TaskType::Mix`] this returns
/// the union of all three categories.
pub fn models_for_task(task: TaskType) -> Vec<Model> {
    match task {
        TaskType::Vision => vision_models(),
        TaskType::Language => language_models(),
        TaskType::Recommendation => recommendation_models(),
        TaskType::Mix => {
            let mut all = vision_models();
            all.extend(language_models());
            all.extend(recommendation_models());
            all
        }
    }
}

/// The three representative models per task used in Fig. 7 of the paper.
pub fn fig7_models() -> Vec<Model> {
    vec![
        mobilenet_v2(),
        resnet50(),
        shufflenet(),
        gpt2(),
        mobilebert(),
        transformer_xl(),
        dlrm(),
        wide_deep(),
        ncf(),
    ]
}

/// Looks a model up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Model> {
    models_for_task(TaskType::Mix).into_iter().find(|m| m.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_is_populated() {
        assert_eq!(vision_models().len(), 7);
        assert_eq!(language_models().len(), 6);
        assert_eq!(recommendation_models().len(), 5);
        assert_eq!(models_for_task(TaskType::Mix).len(), 18);
    }

    #[test]
    fn all_models_have_accelerator_work() {
        for m in models_for_task(TaskType::Mix) {
            assert!(m.total_macs() > 0, "{} has no MACs", m.name());
            assert!(m.accelerator_layers().count() > 0, "{} has no accel layers", m.name());
        }
    }

    #[test]
    fn tasks_are_tagged_consistently() {
        for m in vision_models() {
            assert_eq!(m.task(), TaskType::Vision);
        }
        for m in language_models() {
            assert_eq!(m.task(), TaskType::Language);
        }
        for m in recommendation_models() {
            assert_eq!(m.task(), TaskType::Recommendation);
        }
    }

    #[test]
    fn vision_models_are_compute_heavier_per_layer_than_recom() {
        let avg = |ms: Vec<Model>| {
            let (macs, layers): (u64, usize) = ms
                .iter()
                .map(|m| (m.total_macs(), m.accelerator_layers().count()))
                .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
            macs as f64 / layers as f64
        };
        assert!(avg(vision_models()) > avg(recommendation_models()));
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("resnet50").is_some());
        assert!(by_name("DLRM").is_some());
        assert!(by_name("NoSuchNet").is_none());
    }

    #[test]
    fn resnet50_parameter_count_is_plausible() {
        // Real ResNet-50 has ~25.5M parameters; our table should be within 2x.
        let params = resnet50().total_weight_elems();
        assert!(params > 12_000_000 && params < 60_000_000, "params = {params}");
    }

    #[test]
    fn mobilenet_has_depthwise_layers() {
        let n_dw = mobilenet_v2()
            .layers()
            .iter()
            .filter(|l| matches!(l, LayerShape::DepthwiseConv2d { .. }))
            .count();
        assert!(n_dw >= 10);
    }

    #[test]
    fn fig7_models_cover_all_three_tasks() {
        let ms = fig7_models();
        assert_eq!(ms.len(), 9);
        for t in TaskType::PURE {
            assert_eq!(ms.iter().filter(|m| m.task() == t).count(), 3);
        }
    }

    #[test]
    fn recommendation_models_keep_embeddings_on_host() {
        for m in recommendation_models() {
            let has_emb =
                m.layers().iter().any(|l| matches!(l, LayerShape::EmbeddingLookup { .. }));
            assert!(has_emb, "{} should describe its embedding tables", m.name());
        }
    }
}
