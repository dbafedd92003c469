//! Search-history bookkeeping: best-so-far curves and sample accounting.
//!
//! The paper's comparisons are all at a fixed *sampling budget* (10 K
//! evaluated mappings), and Figs. 10/11/16 plot how the best found
//! throughput improves with the number of samples. [`SearchHistory`] records
//! exactly that.

use crate::encoding::Mapping;
use serde::{Deserialize, Serialize};

/// A record of one optimization run: every evaluated sample's fitness and
/// the best mapping found. The best-so-far curve is derived from the
/// samples, not stored.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SearchHistory {
    samples: Vec<f64>,
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
        if improves(self.best_fitness, fitness) {
            self.best_fitness = Some(fitness);
            match &mut self.best_mapping {
                Some(best) => best.clone_from(mapping),
                None => self.best_mapping = Some(mapping.clone()),
            }
        }
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
    pub fn best_curve(&self) -> Vec<f64> {
        self.best_so_far().collect()
    }

    /// The prefix maximum of the samples, under [`SearchHistory::record`]'s
    /// comparison.
    fn best_so_far(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().scan(None, |best, &f| {
            if improves(*best, f) {
                *best = Some(f);
            }
            *best
        })
    }

    /// The best fitness found, if any sample was recorded.
    pub fn best_fitness(&self) -> Option<f64> {
        self.best_fitness
    }

    /// The best mapping found, if any sample was recorded.
    pub fn best_mapping(&self) -> Option<&Mapping> {
        self.best_mapping.as_ref()
    }

    /// Number of samples needed to first reach `fraction` (0–1] of the final
    /// best fitness — a simple sample-efficiency metric.
    pub fn samples_to_reach(&self, fraction: f64) -> Option<usize> {
        let best = self.best_fitness?;
        let target = best * fraction;
        self.best_so_far().position(|f| f >= target).map(|i| i + 1)
    }

    /// Downsamples the best-so-far curve to `points` evenly spaced entries
    /// (for plotting / printing convergence tables).
    pub fn downsampled_curve(&self, points: usize) -> Vec<(usize, f64)> {
        let curve = self.best_curve();
        if curve.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = curve.len();
        let step = (n as f64 / points as f64).max(1.0);
        let mut out = Vec::new();
        let mut i = 0.0;
        while (i as usize) < n {
            let idx = i as usize;
            out.push((idx + 1, curve[idx]));
            i += step;
        }
        if out.last().map(|&(idx, _)| idx) != Some(n) {
            out.push((n, curve[n - 1]));
        }
        out
    }
}

/// Whether `fitness` replaces `best` as the best so far: the first sample
/// always does, a later one only when strictly greater — so ties keep the
/// earlier sample and nothing replaces a NaN best.
fn improves(best: Option<f64>, fitness: f64) -> bool {
    best.is_none_or(|b| fitness > b)
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
    fn the_derived_curve_keeps_the_first_of_ties_and_a_nan_best() {
        let mut h = SearchHistory::new();
        for f in [f64::NAN, 1.0, 2.0] {
            h.record(&mapping(0), f);
        }
        assert!(h.best_curve().iter().all(|f| f.is_nan()), "nothing beats a NaN best");
        assert!(h.best_fitness().unwrap().is_nan());
        let mut h = SearchHistory::new();
        let first = mapping(1);
        for (m, f) in [(&first, 2.0), (&mapping(2), 2.0), (&mapping(3), -0.0)] {
            h.record(m, f);
        }
        assert_eq!(h.best_curve(), [2.0; 3]);
        assert_eq!(h.best_mapping(), Some(&first), "a tie keeps the earlier sample");
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
}
