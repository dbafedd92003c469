//! The admission batcher: folds arrivals into dispatch groups under a
//! group-size / deadline policy.
//!
//! The paper's host "chops the job pool into dependency-free groups" — the
//! online analogue is an admission queue: arrivals accumulate until either
//! the group-size target is reached (the throughput path) or the oldest
//! arrival has waited out the admission deadline (the latency path, which
//! keeps trickle traffic from starving). Groups are dispatched FIFO.

use crate::trace::Arrival;
use std::collections::VecDeque;

/// The admission policy of the batcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many jobs are pending.
    pub target_size: usize,
    /// Dispatch a partial group once the oldest pending arrival has waited
    /// this long, in virtual seconds.
    pub max_wait_sec: f64,
}

impl BatchPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `target_size == 0` or `max_wait_sec` is negative or NaN.
    pub fn new(target_size: usize, max_wait_sec: f64) -> Self {
        assert!(target_size > 0, "the group-size target must be non-zero");
        assert!(max_wait_sec >= 0.0, "the admission deadline must be non-negative");
        BatchPolicy { target_size, max_wait_sec }
    }
}

/// A formed dispatch group: up to `target_size` arrivals, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchGroup {
    /// The admitted arrivals, in arrival order.
    pub arrivals: Vec<Arrival>,
    /// The virtual time the group was cut.
    pub formed_at_sec: f64,
}

/// The admission queue. Push arrivals in time order; ask when the next group
/// could be cut; take it with [`take_group`](AdmissionBatcher::take_group).
#[derive(Debug, Clone)]
pub struct AdmissionBatcher {
    policy: BatchPolicy,
    pending: VecDeque<Arrival>,
}

impl AdmissionBatcher {
    /// Creates an empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        AdmissionBatcher { policy, pending: VecDeque::new() }
    }

    /// Admits one arrival. Arrivals must be pushed in non-decreasing time
    /// order (the simulator's event loop guarantees this).
    pub fn push(&mut self, arrival: Arrival) {
        debug_assert!(
            self.pending.back().is_none_or(|b| b.time_sec <= arrival.time_sec),
            "arrivals must be admitted in time order"
        );
        self.pending.push_back(arrival);
    }

    /// Number of pending (admitted, not yet dispatched) arrivals.
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The arrivals the next [`take_group`](AdmissionBatcher::take_group)
    /// would admit, oldest first — the fleet scheduler peeks these to price a
    /// prospective group (deadline, preemption value) *before* committing to
    /// a cut.
    pub(crate) fn peek_next_group(&self) -> impl Iterator<Item = &Arrival> {
        let count = self.pending.len().min(self.policy.target_size);
        self.pending.iter().take(count)
    }

    /// The earliest virtual time a group can be cut, or `None` when nothing
    /// is pending: the arrival time of the `target_size`-th pending job when
    /// the queue is full enough, the oldest arrival's admission deadline
    /// otherwise.
    pub(crate) fn earliest_ready(&self) -> Option<f64> {
        if self.pending.len() >= self.policy.target_size {
            Some(self.pending[self.policy.target_size - 1].time_sec)
        } else {
            self.pending.front().map(|a| a.time_sec + self.policy.max_wait_sec)
        }
    }

    /// Cuts the next dispatch group at virtual time `now`, if one is ready
    /// (i.e. `now >= earliest_ready()`). Takes the oldest `target_size`
    /// arrivals, or every pending arrival on the deadline path.
    pub fn take_group(&mut self, now: f64) -> Option<DispatchGroup> {
        let ready = self.earliest_ready()?;
        if now < ready {
            return None;
        }
        let count = self.pending.len().min(self.policy.target_size);
        let arrivals: Vec<Arrival> = self.pending.drain(..count).collect();
        Some(DispatchGroup { arrivals, formed_at_sec: now })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_model::{Job, JobId, LayerShape, TaskType};

    fn arrival(t: f64, i: usize) -> Arrival {
        let job = Job::new(
            JobId(i),
            "m",
            0,
            LayerShape::FullyConnected { out_features: 64, in_features: 64 },
            4,
            TaskType::Recommendation,
        );
        Arrival { time_sec: t, tenant: 0, job }
    }

    #[test]
    fn full_group_is_ready_at_the_filling_arrival() {
        let mut b = AdmissionBatcher::new(BatchPolicy::new(3, 10.0));
        assert_eq!(b.earliest_ready(), None);
        b.push(arrival(1.0, 0));
        b.push(arrival(2.0, 1));
        // Two pending of three: only the deadline path is available.
        assert_eq!(b.earliest_ready(), Some(11.0));
        b.push(arrival(3.0, 2));
        // Target reached: ready the moment the third job arrived.
        assert_eq!(b.earliest_ready(), Some(3.0));
        let g = b.take_group(3.0).expect("group is ready");
        assert_eq!(g.arrivals.len(), 3);
        assert_eq!(g.formed_at_sec, 3.0);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn deadline_cuts_a_partial_group() {
        let mut b = AdmissionBatcher::new(BatchPolicy::new(8, 5.0));
        b.push(arrival(1.0, 0));
        b.push(arrival(2.0, 1));
        assert_eq!(b.earliest_ready(), Some(6.0));
        assert!(b.take_group(5.9).is_none(), "not ready before the deadline");
        let g = b.take_group(6.0).expect("deadline reached");
        assert_eq!(g.arrivals.len(), 2);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.earliest_ready(), None);
    }

    #[test]
    fn oversize_queue_dispatches_target_sized_groups_fifo() {
        let mut b = AdmissionBatcher::new(BatchPolicy::new(2, 1.0));
        for i in 0..5 {
            b.push(arrival(i as f64, i));
        }
        let g1 = b.take_group(10.0).unwrap();
        let g2 = b.take_group(10.0).unwrap();
        assert_eq!(g1.arrivals[0].job.id(), JobId(0));
        assert_eq!(g1.arrivals[1].job.id(), JobId(1));
        assert_eq!(g2.arrivals[0].job.id(), JobId(2));
        assert_eq!(b.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "group-size target")]
    fn zero_target_panics() {
        let _ = BatchPolicy::new(0, 1.0);
    }
}
