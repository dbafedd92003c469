//! A minimal dense neural-network library with manual backpropagation.
//!
//! Only what the RL agents need: fully-connected layers with ReLU hidden
//! activations and a linear output, softmax/log-softmax helpers, and the two
//! gradient optimizers the paper's agents use (RMSProp for A2C, Adam for
//! PPO2).

use rand::rngs::StdRng;
use rand::Rng;

/// Which first-order optimizer updates the parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GradOptimizer {
    /// RMSProp with the given learning rate and decay (A2C's default).
    RmsProp {
        /// Learning rate.
        lr: f64,
        /// Squared-gradient decay.
        decay: f64,
    },
    /// Adam with the given learning rate (PPO2's default).
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay.
        beta1: f64,
        /// Second-moment decay.
        beta2: f64,
    },
}

const EPS: f64 = 1e-8;

/// One dense layer with its parameters, gradients and optimizer state.
#[derive(Debug, Clone)]
struct Dense {
    rows: usize,
    cols: usize,
    w: Vec<f64>,
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / cols as f64).sqrt();
        let w = (0..rows * cols).map(|_| rng.gen_range(-scale..scale)).collect();
        Dense {
            rows,
            cols,
            w,
            b: vec![0.0; rows],
            gw: vec![0.0; rows * cols],
            gb: vec![0.0; rows],
            mw: vec![0.0; rows * cols],
            vw: vec![0.0; rows * cols],
            mb: vec![0.0; rows],
            vb: vec![0.0; rows],
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = self.b.clone();
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.w[r * self.cols..(r + 1) * self.cols];
            *o += row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>();
        }
        out
    }

    /// Accumulates gradients for this layer and returns dL/dx.
    fn backward(&mut self, x: &[f64], grad_out: &[f64]) -> Vec<f64> {
        assert_eq!(grad_out.len(), self.rows, "gradient/layer size mismatch");
        let mut grad_in = vec![0.0; self.cols];
        for (r, &g_out) in grad_out.iter().enumerate() {
            self.gb[r] += g_out;
            for c in 0..self.cols {
                self.gw[r * self.cols + c] += g_out * x[c];
                grad_in[c] += g_out * self.w[r * self.cols + c];
            }
        }
        grad_in
    }

    fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    fn step(&mut self, opt: GradOptimizer, t: usize, scale: f64) {
        let update = |w: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64]| match opt {
            GradOptimizer::RmsProp { lr, decay } => {
                for i in 0..w.len() {
                    let grad = g[i] * scale;
                    v[i] = decay * v[i] + (1.0 - decay) * grad * grad;
                    w[i] -= lr * grad / (v[i].sqrt() + EPS);
                }
            }
            GradOptimizer::Adam { lr, beta1, beta2 } => {
                for i in 0..w.len() {
                    let grad = g[i] * scale;
                    m[i] = beta1 * m[i] + (1.0 - beta1) * grad;
                    v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad;
                    let mhat = m[i] / (1.0 - beta1.powi(t as i32));
                    let vhat = v[i] / (1.0 - beta2.powi(t as i32));
                    w[i] -= lr * mhat / (vhat.sqrt() + EPS);
                }
            }
        };
        let (w, gw, mw, vw) = (&mut self.w, &self.gw, &mut self.mw, &mut self.vw);
        update(w, gw, mw, vw);
        let (b, gb, mb, vb) = (&mut self.b, &self.gb, &mut self.mb, &mut self.vb);
        update(b, gb, mb, vb);
    }
}

/// A multi-layer perceptron with ReLU hidden layers and a linear output.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    step_count: usize,
}

/// The per-layer activations cached by [`Mlp::forward_cached`], needed for
/// backpropagation.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Input to each layer (post-activation of the previous layer).
    inputs: Vec<Vec<f64>>,
    /// Pre-activation output of each layer.
    pre_acts: Vec<Vec<f64>>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `[in, 128, 128, 128,
    /// out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], rng: &mut StdRng) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least an input and an output size");
        let layers = sizes.windows(2).map(|w| Dense::new(w[1], w[0], rng)).collect();
        Mlp { layers, step_count: 0 }
    }

    /// Forward pass without caching (inference only).
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut h = x.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i != last {
                h.iter_mut().for_each(|v| *v = v.max(0.0));
            }
        }
        h
    }

    /// Forward pass that records the activations needed for
    /// [`Mlp::backward`].
    pub fn forward_cached(&self, x: &[f64]) -> (Vec<f64>, ForwardCache) {
        let mut cache = ForwardCache { inputs: Vec::new(), pre_acts: Vec::new() };
        let mut h = x.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            cache.inputs.push(h.clone());
            let pre = layer.forward(&h);
            cache.pre_acts.push(pre.clone());
            h = pre;
            if i != last {
                h.iter_mut().for_each(|v| *v = v.max(0.0));
            }
        }
        (h, cache)
    }

    /// Backpropagates `grad_out` (dL/d output) through the network,
    /// accumulating parameter gradients.
    pub fn backward(&mut self, cache: &ForwardCache, grad_out: &[f64]) {
        let mut grad = grad_out.to_vec();
        let last = self.layers.len() - 1;
        for i in (0..self.layers.len()).rev() {
            if i != last {
                // ReLU derivative on the pre-activation.
                for (g, &pre) in grad.iter_mut().zip(&cache.pre_acts[i]) {
                    if pre <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            grad = self.layers[i].backward(&cache.inputs[i], &grad);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.layers.iter_mut().for_each(|l| l.zero_grad());
    }

    /// Applies one optimizer step with the accumulated gradients, scaled by
    /// `1 / batch` (pass `batch = 1` for unscaled updates), then clears them.
    pub fn step(&mut self, opt: GradOptimizer, batch: usize) {
        self.step_count += 1;
        let scale = 1.0 / batch.max(1) as f64;
        for l in &mut self.layers {
            l.step(opt, self.step_count, scale);
        }
        self.zero_grad();
    }
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum.max(EPS)).collect()
}

/// Samples an index from a probability distribution.
pub fn sample_categorical(probs: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u <= acc {
            return i;
        }
    }
    probs.len() - 1
}

/// Gradient of `-log p[action] * advantage` with respect to the logits:
/// `advantage * (softmax - onehot(action))`.
pub fn policy_grad_logits(probs: &[f64], action: usize, advantage: f64) -> Vec<f64> {
    probs
        .iter()
        .enumerate()
        .map(|(i, &p)| advantage * (p - if i == action { 1.0 } else { 0.0 }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(&[4, 16, 3], &mut rng);
        let y = net.forward(&[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(y.len(), 3);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn categorical_sampling_is_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = softmax(&[0.0, 0.0, 5.0]);
        for _ in 0..50 {
            let s = sample_categorical(&p, &mut rng);
            assert!(s < 3);
        }
    }

    #[test]
    fn gradient_descent_fits_a_simple_regression() {
        // Learn y = 2x1 - x2 with a tiny MLP and Adam.
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Mlp::new(&[2, 16, 1], &mut rng);
        let opt = GradOptimizer::Adam { lr: 0.01, beta1: 0.9, beta2: 0.999 };
        let data: Vec<([f64; 2], f64)> = (0..64)
            .map(|_| {
                let x = [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
                (x, 2.0 * x[0] - x[1])
            })
            .collect();
        let mut last_loss = f64::INFINITY;
        for _ in 0..300 {
            let mut loss = 0.0;
            for (x, y) in &data {
                let (out, cache) = net.forward_cached(x);
                let err = out[0] - y;
                loss += err * err;
                net.backward(&cache, &[2.0 * err]);
            }
            net.step(opt, data.len());
            last_loss = loss / data.len() as f64;
        }
        assert!(last_loss < 0.05, "regression did not converge: {last_loss}");
    }

    #[test]
    fn policy_gradient_direction_increases_chosen_action_probability() {
        let probs = softmax(&[0.0, 0.0]);
        // Positive advantage for action 0: the gradient of the loss w.r.t.
        // logit 0 must be negative (gradient *descent* then raises it).
        let g = policy_grad_logits(&probs, 0, 1.0);
        assert!(g[0] < 0.0 && g[1] > 0.0);
    }

    #[test]
    fn rmsprop_also_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Mlp::new(&[1, 8, 1], &mut rng);
        let opt = GradOptimizer::RmsProp { lr: 0.005, decay: 0.99 };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let mut loss = 0.0;
            for i in 0..16 {
                let x = [i as f64 / 16.0];
                let target = 3.0 * x[0];
                let (out, cache) = net.forward_cached(&x);
                let err = out[0] - target;
                loss += err * err;
                net.backward(&cache, &[2.0 * err]);
            }
            net.step(opt, 16);
            last = loss;
            first.get_or_insert(loss);
        }
        assert!(last < first.unwrap());
    }
}
