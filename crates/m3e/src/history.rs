//! Search-history bookkeeping: best-so-far curves and sample accounting.
//!
//! The paper's comparisons are all at a fixed *sampling budget* (10 K
//! evaluated mappings), and Figs. 10/11/16 plot how the best found
//! throughput improves with the number of samples. [`SearchHistory`] records
//! exactly that.

use crate::encoding::Mapping;
use serde::{Deserialize, Serialize};

/// A record of one optimization run: every evaluated sample's fitness, the
/// best-so-far curve and the best mapping found.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SearchHistory {
    samples: Vec<f64>,
    best_curve: Vec<f64>,
    best_fitness: Option<f64>,
    best_mapping: Option<Mapping>,
}

impl SearchHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one evaluated sample.
    pub fn record(&mut self, mapping: &Mapping, fitness: f64) {
        self.samples.push(fitness);
        let improved = self.best_fitness.is_none_or(|b| fitness > b);
        if improved {
            self.best_fitness = Some(fitness);
            match &mut self.best_mapping {
                Some(best) => best.clone_from(mapping),
                None => self.best_mapping = Some(mapping.clone()),
            }
        }
        self.best_curve.push(self.best_fitness.unwrap());
    }

    /// Number of samples evaluated so far.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// Fitness of every evaluated sample, in evaluation order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Best fitness seen after each sample (a monotonically non-decreasing
    /// convergence curve).
    pub fn best_curve(&self) -> &[f64] {
        &self.best_curve
    }

    /// The best fitness found, if any sample was recorded.
    pub fn best_fitness(&self) -> Option<f64> {
        self.best_fitness
    }

    /// The best mapping found, if any sample was recorded.
    pub fn best_mapping(&self) -> Option<&Mapping> {
        self.best_mapping.as_ref()
    }

    /// Best fitness within the first `budget` samples (used to compare
    /// methods at a fixed sampling budget even if they ran longer).
    pub fn best_within(&self, budget: usize) -> Option<f64> {
        self.best_curve.get(budget.min(self.best_curve.len()).checked_sub(1)?).copied()
    }

    /// Number of samples needed to first reach `fraction` (0–1] of the final
    /// best fitness — a simple sample-efficiency metric.
    pub fn samples_to_reach(&self, fraction: f64) -> Option<usize> {
        let best = self.best_fitness?;
        let target = best * fraction;
        self.best_curve.iter().position(|&f| f >= target).map(|i| i + 1)
    }

    /// Downsamples the best-so-far curve to `points` evenly spaced entries
    /// (for plotting / printing convergence tables).
    pub fn downsampled_curve(&self, points: usize) -> Vec<(usize, f64)> {
        if self.best_curve.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.best_curve.len();
        let step = (n as f64 / points as f64).max(1.0);
        let mut out = Vec::new();
        let mut i = 0.0;
        while (i as usize) < n {
            let idx = i as usize;
            out.push((idx + 1, self.best_curve[idx]));
            i += step;
        }
        if out.last().map(|&(idx, _)| idx) != Some(n) {
            out.push((n, self.best_curve[n - 1]));
        }
        out
    }

    /// Merges another history into this one, preserving sample order
    /// (used when a search is resumed, e.g. warm-start then refine).
    pub fn extend_from(&mut self, other: &SearchHistory) {
        for &f in &other.samples {
            self.samples.push(f);
            if self.best_fitness.is_none_or(|b| f > b) {
                self.best_fitness = Some(f);
            }
            self.best_curve.push(self.best_fitness.unwrap());
        }
        // Adopt the other run's best mapping if it is the overall best.
        if let (Some(of), Some(om)) = (other.best_fitness, other.best_mapping.as_ref()) {
            let ours = self.best_mapping.is_none() || self.best_fitness.is_none_or(|b| of >= b);
            if ours {
                self.best_mapping = Some(om.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mapping(seed: u64) -> Mapping {
        let mut rng = StdRng::seed_from_u64(seed);
        Mapping::random(&mut rng, 5, 2)
    }

    #[test]
    fn best_curve_is_monotone() {
        let mut h = SearchHistory::new();
        for (i, f) in [3.0, 1.0, 5.0, 2.0, 8.0, 4.0].iter().enumerate() {
            h.record(&mapping(i as u64), *f);
        }
        assert_eq!(h.num_samples(), 6);
        assert_eq!(h.best_curve(), &[3.0, 3.0, 5.0, 5.0, 8.0, 8.0]);
        assert_eq!(h.best_fitness(), Some(8.0));
    }

    #[test]
    fn best_within_budget() {
        let mut h = SearchHistory::new();
        for f in [1.0, 4.0, 2.0, 9.0] {
            h.record(&mapping(0), f);
        }
        assert_eq!(h.best_within(2), Some(4.0));
        assert_eq!(h.best_within(10), Some(9.0));
        assert_eq!(h.best_within(0), None);
    }

    #[test]
    fn samples_to_reach_fraction() {
        let mut h = SearchHistory::new();
        for f in [2.0, 5.0, 6.0, 10.0] {
            h.record(&mapping(0), f);
        }
        assert_eq!(h.samples_to_reach(0.5), Some(2)); // 5.0 >= 5.0
        assert_eq!(h.samples_to_reach(1.0), Some(4));
    }

    #[test]
    fn downsampled_curve_endpoints() {
        let mut h = SearchHistory::new();
        for i in 0..100 {
            h.record(&mapping(0), i as f64);
        }
        let d = h.downsampled_curve(10);
        assert!(d.len() >= 10);
        assert_eq!(d.first().unwrap().0, 1);
        assert_eq!(d.last().unwrap().0, 100);
        assert_eq!(d.last().unwrap().1, 99.0);
    }

    #[test]
    fn empty_history_is_sane() {
        let h = SearchHistory::new();
        assert_eq!(h.num_samples(), 0);
        assert!(h.best_fitness().is_none());
        assert!(h.best_mapping().is_none());
        assert!(h.downsampled_curve(5).is_empty());
    }

    #[test]
    fn best_mapping_tracks_best_fitness() {
        let mut h = SearchHistory::new();
        let good = mapping(42);
        h.record(&mapping(0), 1.0);
        h.record(&good, 7.0);
        h.record(&mapping(1), 3.0);
        assert_eq!(h.best_mapping(), Some(&good));
    }

    #[test]
    fn extend_from_concatenates_samples() {
        let mut a = SearchHistory::new();
        a.record(&mapping(0), 2.0);
        let mut b = SearchHistory::new();
        b.record(&mapping(1), 5.0);
        b.record(&mapping(2), 1.0);
        a.extend_from(&b);
        assert_eq!(a.num_samples(), 3);
        assert_eq!(a.best_fitness(), Some(5.0));
        assert!(a.best_curve().windows(2).all(|w| w[1] >= w[0]));
    }
}
