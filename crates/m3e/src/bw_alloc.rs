//! The Bandwidth Allocator — Algorithm 1 of the paper.
//!
//! The system bandwidth is a shared resource across the sub-accelerator
//! cores. Instead of splitting it evenly, the allocator re-divides it among
//! the *live* jobs in proportion to their required (no-stall) bandwidth at
//! every job-completion event: memory-intensive jobs receive more bandwidth,
//! compute-intensive jobs only what they need. A job whose granted bandwidth
//! is below its requirement stretches proportionally (it becomes
//! memory-bound).
//!
//! There is one copy of the event loop, `replay`, generic over a `Recorder`.
//! The fitness function runs it with `NoRecord` and reads back only the
//! makespan and the energy; [`BwAllocator::allocate`] and
//! `FitnessEvaluator::schedule` run the same loop with a `ScheduleRecorder`
//! that builds the [`Schedule`]'s segments and bandwidth trace. The loop works
//! on a per-thread scratch (flat per-core queues and the list of live cores),
//! so once a thread has evaluated one candidate of a problem, every further
//! fitness evaluation on it performs no heap allocation.
//!
//! # Two passes per completion event
//!
//! The live cores are kept as parallel flat arrays in ascending core order
//! (`remaining`, `required`, `alloc`, the core's index); what a core needs
//! only when a job starts or ends stays in one struct per core that never
//! moves. An event is two sweeps over the arrays:
//!
//! * **Pass A** scales every requirement into its grant and takes the
//!   smallest `remaining / (alloc · 1e9)` — the time to the next completion.
//! * **Pass B** advances every job by that `dt`, completes the finished ones,
//!   launches their cores' next jobs, compacts drained cores away — and, while
//!   it is there, adds up `Σ required` of the survivors for the next event's
//!   division, so that chain of dependent additions runs behind the per-core
//!   work instead of in a sweep of its own in front of pass A.
//!
//! Every value is the one the naive three-loop formulation computes (the
//! `#[cfg(test)] mod oracle` below; `kernel_matches_the_oracle` holds `replay`
//! to it bit for bit). What makes the restructuring exact, and what would
//! break it:
//!
//! * **The minimum may be re-associated.** `min` over a set of `f64`s that
//!   holds no NaN picks an element of the set, whatever the order of the
//!   comparisons; a NaN candidate (`0 / 0`, a job with no bytes on a core
//!   with no grant) is skipped by `f64::min` and by the `lesser` select alike.
//!   So pass A keeps `LANES` independent running minima and joins them at the
//!   end. (The candidates are never `-0.0` — remaining bytes and grants are
//!   non-negative — so which of two equal zeros survives does not arise.)
//! * **The sum may not.** Floating-point addition is not associative:
//!   `Σ required` is one left-to-right chain over the live cores in ascending
//!   core order, exactly the order the separate loop added them in. Pass B
//!   visits the survivors in that order, so it can carry the chain; splitting
//!   it into lanes, or adding a relaunched core's requirement out of turn,
//!   changes the last bit of `scale` and from there every grant.
//! * **Per-core expressions keep their shape.** `remaining / (alloc * 1e9)`
//!   and `remaining - dt * alloc * 1e9` are evaluated as written (no hoisted
//!   `alloc * 1e9`, no reciprocal, no fused multiply-add): each is rounded
//!   operation by operation, and any algebraically equal form rounds
//!   differently.

use crate::analyzer::JobAnalysisTable;
use crate::encoding::{DecodedMapping, FlatQueues, Mapping};
use crate::evaluator::{CostMemo, LaunchCost};
use crate::schedule::{BwSlice, Schedule, ScheduleSegment};
use magma_model::JobId;
use std::cell::RefCell;

/// Absolute tolerance (in bytes of remaining traffic) below which a job is
/// considered finished; one byte is far below any job's real traffic and
/// avoids pathological floating-point tail iterations.
const REMAINING_EPS: f64 = 1.0;

/// The bandwidth allocator (Algorithm 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct BwAllocator;

/// What a core carries besides the quantities every completion event
/// computes with: touched only when it launches or completes a job.
#[derive(Debug, Clone, Copy)]
struct CoreState {
    /// Position in [`FlatQueues::jobs`] of the core's next queued job.
    next: usize,
    /// The running job.
    job: JobId,
    /// Energy the job will charge at completion, in nJ (carried from launch
    /// so completion does not consult the table again).
    energy_nj: f64,
    /// When the job started executing.
    start_sec: f64,
}

/// The state of one replay. The cores that still have work are listed in
/// ascending core order: slot `i` of each of the four parallel arrays belongs
/// to the `i`-th of them. These are what the two passes of a completion event
/// stream over; everything else about a core stays put in `cores`, indexed by
/// core.
struct LiveCores {
    /// Remaining "work" of the running job, in bytes of DRAM traffic still to
    /// stream (`no-stall latency × required BW`, the `CurJobs` quantity of
    /// Algorithm 1).
    remaining_bytes: Vec<f64>,
    /// The running job's no-stall bandwidth requirement in GB/s.
    required_bw_gbps: Vec<f64>,
    /// Bandwidth granted for the current slice, in GB/s.
    alloc_gbps: Vec<f64>,
    /// Which core the slot is.
    accel: Vec<usize>,
    cores: Vec<CoreState>,
}

impl LiveCores {
    const fn new() -> Self {
        LiveCores {
            remaining_bytes: Vec::new(),
            required_bw_gbps: Vec::new(),
            alloc_gbps: Vec::new(),
            accel: Vec::new(),
            cores: Vec::new(),
        }
    }

    /// One slot per core of the platform; a warm instance allocates nothing.
    fn resize(&mut self, num_accels: usize) {
        let idle = CoreState { next: 0, job: JobId(0), energy_nj: 0.0, start_sec: 0.0 };
        self.remaining_bytes.resize(num_accels, 0.0);
        self.required_bw_gbps.resize(num_accels, 0.0);
        self.alloc_gbps.resize(num_accels, 0.0);
        self.accel.resize(num_accels, 0);
        self.cores.resize(num_accels, idle);
    }
}

/// What a replay reports as it goes. The loop is monomorphized per recorder,
/// so [`NoRecord`] costs the fitness path nothing.
trait Recorder {
    /// One bandwidth division: `alloc_gbps[i]` is the grant of busy core
    /// `accels[i]`.
    fn slice(&mut self, start_sec: f64, end_sec: f64, accels: &[usize], alloc_gbps: &[f64]);
    /// One finished job.
    fn segment(&mut self, segment: ScheduleSegment);
}

/// Records nothing: the fitness function needs only the replay's totals.
struct NoRecord;

impl Recorder for NoRecord {
    fn slice(&mut self, _: f64, _: f64, _: &[usize], _: &[f64]) {}
    fn segment(&mut self, _: ScheduleSegment) {}
}

/// Builds the segments (in completion order) and the dense bandwidth trace
/// of a [`Schedule`].
struct ScheduleRecorder {
    segments: Vec<ScheduleSegment>,
    bw_trace: Vec<BwSlice>,
    num_accels: usize,
}

impl Recorder for ScheduleRecorder {
    fn slice(&mut self, start_sec: f64, end_sec: f64, accels: &[usize], grants: &[f64]) {
        let mut alloc_gbps = vec![0.0_f64; self.num_accels];
        for (&accel, &grant) in accels.iter().zip(grants) {
            alloc_gbps[accel] = grant;
        }
        self.bw_trace.push(BwSlice { start_sec, end_sec, alloc_gbps });
    }

    fn segment(&mut self, segment: ScheduleSegment) {
        self.segments.push(segment);
    }
}

/// Makespan in seconds and total energy in nJ of one replay.
pub(crate) type Totals = (f64, f64);

/// The buffers a replay works on, reused by every evaluation on a thread.
struct Scratch {
    queues: FlatQueues,
    live: LiveCores,
}

thread_local! {
    /// Per thread because the evaluator is shared by reference across the
    /// evaluation pool (`evaluate` takes `&self`); each worker warms its own.
    static SCRATCH: RefCell<Scratch> =
        const { RefCell::new(Scratch { queues: FlatQueues::new(), live: LiveCores::new() }) };
}

/// Independent running minima pass A keeps, so consecutive `min`s do not wait
/// on each other (see the module docs for why that is exact).
const LANES: usize = 4;

/// `a.min(b)` for an `a` that is not NaN, as one compare-and-select: a NaN `b`
/// is skipped as `f64::min` skips it, so the result is never NaN either.
fn lesser(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Algorithm 1: replays `queues` under the system-bandwidth budget, taking
/// each launched job's quantities from `cost`, and returns the totals.
fn replay<R: Recorder>(
    queues: &FlatQueues,
    live: &mut LiveCores,
    system_bw_gbps: f64,
    cost: impl Fn(JobId, usize) -> LaunchCost,
    recorder: &mut R,
) -> Totals {
    let jobs = queues.jobs();
    let mut now = 0.0_f64;
    let mut total_energy_nj = 0.0;

    live.resize(queues.num_accels());
    let LiveCores { remaining_bytes, required_bw_gbps, alloc_gbps, accel: live_accel, cores } =
        live;

    // Starts, at `now`, the job at position `next` of core `accel`'s queue,
    // and returns its remaining bytes and required bandwidth.
    let launch = |cores: &mut [CoreState], accel: usize, next: usize, now: f64| {
        let job = jobs[next];
        let LaunchCost { remaining_bytes, required_bw_gbps, energy_nj } = cost(job, accel);
        cores[accel] = CoreState { next: next + 1, job, energy_nj, start_sec: now };
        (remaining_bytes, required_bw_gbps)
    };

    // Launch the first job on every non-empty queue. The live slots stay in
    // ascending core order and only shrink: a drained core never revives.
    // `sum_req` is Σ required over them, added in that order.
    let mut count = 0;
    let mut sum_req = 0.0_f64;
    for accel in 0..queues.num_accels() {
        let (next, end) = queues.span(accel);
        if next < end {
            let (left, required) = launch(cores, accel, next, now);
            remaining_bytes[count] = left;
            required_bw_gbps[count] = required;
            live_accel[count] = accel;
            sum_req += required;
            count += 1;
        }
    }

    while count > 0 {
        // Proportional bandwidth division (Algorithm 1, lines 5–9).
        let scale = if sum_req <= system_bw_gbps { 1.0 } else { system_bw_gbps / sum_req };

        // Pass A: every grant, and the smallest time to the next completion
        // under this allocation.
        let remaining = &remaining_bytes[..count];
        let required = &required_bw_gbps[..count];
        let alloc = &mut alloc_gbps[..count];
        let mut grant = |i: usize, lane: &mut f64| {
            alloc[i] = required[i] * scale;
            *lane = lesser(*lane, remaining[i] / (alloc[i] * 1e9));
        };
        let mut lanes = [f64::INFINITY; LANES];
        let whole = count - count % LANES;
        for base in (0..whole).step_by(LANES) {
            for (k, lane) in lanes.iter_mut().enumerate() {
                grant(base + k, lane);
            }
        }
        for (i, lane) in (whole..count).zip(&mut lanes) {
            grant(i, lane);
        }
        let dt = lesser(lesser(lanes[0], lanes[1]), lesser(lanes[2], lanes[3])).max(0.0);
        // No live job completes under this allocation (each has bytes left
        // and no grant): the group never finishes. Advancing by `dt = ∞`
        // would turn every remaining count into NaN and loop for ever; the
        // makespan is infinite instead, which is zero throughput.
        if !dt.is_finite() {
            return (f64::INFINITY, total_energy_nj);
        }

        recorder.slice(now, now + dt, &live_accel[..count], alloc);

        // Pass B: advance every live job by dt, complete and relaunch,
        // compact away drained cores, and sum what the survivors require.
        now += dt;
        let mut kept = 0;
        sum_req = 0.0;
        for i in 0..count {
            let accel = live_accel[i];
            let mut left = remaining_bytes[i] - dt * alloc_gbps[i] * 1e9;
            let mut required = required_bw_gbps[i];
            if left <= REMAINING_EPS {
                let core = cores[accel];
                total_energy_nj += core.energy_nj;
                recorder.segment(ScheduleSegment {
                    job: core.job,
                    accel,
                    start_sec: core.start_sec,
                    end_sec: now,
                });
                if core.next == queues.span(accel).1 {
                    continue;
                }
                (left, required) = launch(cores, accel, core.next, now);
            }
            remaining_bytes[kept] = left;
            required_bw_gbps[kept] = required;
            live_accel[kept] = accel;
            sum_req += required;
            kept += 1;
        }
        count = kept;
    }

    (now, total_energy_nj)
}

/// Decodes `mapping` into this thread's scratch and replays it against the
/// eager launch-cost table, recording nothing — the fitness kernel.
pub(crate) fn replay_totals(mapping: &Mapping, system_bw_gbps: f64, costs: &CostMemo) -> Totals {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.queues.decode(mapping);
        let cost = |job, accel| costs.launch(job, accel);
        replay(&scratch.queues, &mut scratch.live, system_bw_gbps, cost, &mut NoRecord)
    })
}

/// As [`replay_totals`], recording the full schedule.
pub(crate) fn replay_schedule(
    mapping: &Mapping,
    system_bw_gbps: f64,
    costs: &CostMemo,
    total_flops: u64,
) -> Schedule {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.queues.decode(mapping);
        let cost = |job, accel| costs.launch(job, accel);
        record(scratch, system_bw_gbps, cost, total_flops)
    })
}

/// Replays the queues already in `scratch` with a [`ScheduleRecorder`].
fn record(
    scratch: &mut Scratch,
    system_bw_gbps: f64,
    cost: impl Fn(JobId, usize) -> LaunchCost,
    total_flops: u64,
) -> Schedule {
    let num_accels = scratch.queues.num_accels();
    let mut recorder = ScheduleRecorder {
        segments: Vec::with_capacity(scratch.queues.jobs().len()),
        bw_trace: Vec::new(),
        num_accels,
    };
    let (makespan_sec, total_energy_nj) =
        replay(&scratch.queues, &mut scratch.live, system_bw_gbps, cost, &mut recorder);
    Schedule::new(
        recorder.segments,
        recorder.bw_trace,
        makespan_sec,
        total_flops,
        total_energy_nj,
        num_accels,
    )
}

impl BwAllocator {
    /// Creates an allocator.
    pub fn new() -> Self {
        BwAllocator
    }

    /// Replays a decoded mapping against the job-analysis table under the
    /// given system-bandwidth budget and returns the resulting schedule.
    ///
    /// # Panics
    ///
    /// Panics if `system_bw_gbps` is not positive or if the decoded mapping
    /// and the table disagree on the number of sub-accelerators.
    pub fn allocate(
        &self,
        mapping: &DecodedMapping,
        table: &JobAnalysisTable,
        system_bw_gbps: f64,
    ) -> Schedule {
        self.allocate_with_memo(mapping, table, system_bw_gbps, None)
    }

    /// As [`BwAllocator::allocate`], reading launch quantities from a
    /// prebuilt launch-cost table (see [`CostMemo`]) when one is supplied
    /// instead of deriving them from `table` at every launch. The table's
    /// cells are produced by [`LaunchCost::derive`], the expression the
    /// table-free path evaluates, so the returned schedule is bit-identical
    /// either way.
    ///
    /// # Panics
    ///
    /// As [`BwAllocator::allocate`]; additionally in debug builds if the
    /// memo's dimensions do not cover the mapping.
    pub fn allocate_with_memo(
        &self,
        mapping: &DecodedMapping,
        table: &JobAnalysisTable,
        system_bw_gbps: f64,
        memo: Option<&CostMemo>,
    ) -> Schedule {
        assert!(system_bw_gbps > 0.0, "system bandwidth must be positive");
        assert_eq!(
            mapping.num_accels(),
            table.num_accels(),
            "mapping and analysis table describe different platforms"
        );
        let total_flops = table.total_flops();
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.queues.copy_from(mapping);
            match memo {
                Some(memo) => {
                    debug_assert!(memo.covers(table), "launch-cost table built for another table");
                    record(
                        scratch,
                        system_bw_gbps,
                        |job, accel| memo.launch(job, accel),
                        total_flops,
                    )
                }
                None => record(
                    scratch,
                    system_bw_gbps,
                    |job, accel| LaunchCost::derive(table, job, accel),
                    total_flops,
                ),
            }
        })
    }
}

/// Algorithm 1 as it was first written here — a `Vec` of optional running
/// jobs, and a fresh `live` and `alloc` `Vec` per completion event — kept as
/// a deliberately naive executable spec that the tests hold `replay` to, bit
/// for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    /// The spec's own statement of "finished": under one byte left to stream.
    const FINISHED_BYTES: f64 = 1.0;

    struct CoreState {
        next: usize,
        current: Option<RunningJob>,
    }

    struct RunningJob {
        job: JobId,
        remaining_bytes: f64,
        required_bw_gbps: f64,
        energy_nj: f64,
        start_sec: f64,
    }

    pub(super) fn allocate(
        mapping: &DecodedMapping,
        table: &JobAnalysisTable,
        system_bw_gbps: f64,
    ) -> Schedule {
        let num_accels = table.num_accels();
        let mut cores: Vec<CoreState> =
            (0..num_accels).map(|_| CoreState { next: 0, current: None }).collect();

        let mut now = 0.0_f64;
        let mut segments = Vec::with_capacity(mapping.num_jobs());
        let mut bw_trace = Vec::new();
        let mut total_energy_nj = 0.0;

        for (accel, core) in cores.iter_mut().enumerate() {
            launch_next(core, accel, mapping, table, now);
        }

        loop {
            let live: Vec<usize> =
                (0..num_accels).filter(|&a| cores[a].current.is_some()).collect();
            if live.is_empty() {
                break;
            }

            let sum_req: f64 =
                live.iter().map(|&a| cores[a].current.as_ref().unwrap().required_bw_gbps).sum();
            let scale = if sum_req <= system_bw_gbps { 1.0 } else { system_bw_gbps / sum_req };
            let mut alloc = vec![0.0_f64; num_accels];
            for &a in &live {
                alloc[a] = cores[a].current.as_ref().unwrap().required_bw_gbps * scale;
            }

            let dt = live
                .iter()
                .map(|&a| {
                    let rj = cores[a].current.as_ref().unwrap();
                    rj.remaining_bytes / (alloc[a] * 1e9)
                })
                .fold(f64::INFINITY, f64::min)
                .max(0.0);

            bw_trace.push(BwSlice { start_sec: now, end_sec: now + dt, alloc_gbps: alloc.clone() });

            now += dt;
            for &a in &live {
                let finished = {
                    let rj = cores[a].current.as_mut().unwrap();
                    rj.remaining_bytes -= dt * alloc[a] * 1e9;
                    rj.remaining_bytes <= FINISHED_BYTES
                };
                if finished {
                    let rj = cores[a].current.take().unwrap();
                    total_energy_nj += rj.energy_nj;
                    segments.push(ScheduleSegment {
                        job: rj.job,
                        accel: a,
                        start_sec: rj.start_sec,
                        end_sec: now,
                    });
                    launch_next(&mut cores[a], a, mapping, table, now);
                }
            }
        }

        Schedule::new(segments, bw_trace, now, table.total_flops(), total_energy_nj, num_accels)
    }

    fn launch_next(
        core: &mut CoreState,
        accel: usize,
        mapping: &DecodedMapping,
        table: &JobAnalysisTable,
        now: f64,
    ) {
        let queue = mapping.queue(accel);
        if core.next < queue.len() {
            let job = queue[core.next];
            core.next += 1;
            let LaunchCost { remaining_bytes, required_bw_gbps, energy_nj } =
                LaunchCost::derive(table, job, accel);
            core.current = Some(RunningJob {
                job,
                remaining_bytes,
                required_bw_gbps,
                energy_nj,
                start_sec: now,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::JobAnalyzer;
    use crate::encoding::tests::shaped_mapping;
    use crate::evaluator::{FitnessEvaluator, Objective};
    use magma_model::{TaskType, WorkloadSpec};
    use magma_platform::{settings, AcceleratorPlatform, Setting};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Barrier;

    const OBJECTIVES: [Objective; 4] = [
        Objective::Throughput,
        Objective::Latency,
        Objective::Energy,
        Objective::EnergyDelayProduct,
    ];

    /// S1–S6 (`which` 0..6); for 6, a 64-core platform (S6's sixteen
    /// big/little HB/LB cores four times over); for 7..12, a mix of 1, 2, 3,
    /// 5 or 7 of S6's cores — live-core counts that are not a multiple of the
    /// lane width of pass A.
    fn platform(which: usize) -> AcceleratorPlatform {
        if let Some(&setting) = Setting::ALL.get(which) {
            return settings::build(setting);
        }
        let s6 = settings::build(Setting::S6);
        let (count, stride) = [(64, 1), (1, 7), (2, 7), (3, 7), (5, 7), (7, 7)][which - 6];
        let cores = s6.sub_accels().iter().cycle().step_by(stride).take(count).cloned().collect();
        AcceleratorPlatform::new(format!("cores{count}"), cores, 64.0)
    }

    /// One property-test case: the analysis table of a `jobs`-job Mix group
    /// on `platform(which)`, a mapping of the given shape, and a system
    /// bandwidth of `10^bw_exponent` GB/s — 1 (starved) to 1e9
    /// (unconstrained).
    fn case(
        which: usize,
        jobs: usize,
        shape: usize,
        bw_exponent: f64,
        seed: u64,
    ) -> (JobAnalysisTable, Mapping, f64) {
        let platform = platform(which);
        let group = WorkloadSpec::single_group(TaskType::Mix, jobs, seed);
        let table = JobAnalyzer::new().analyze(&group, &platform);
        let mut rng = StdRng::seed_from_u64(seed);
        let mapping = shaped_mapping(&mut rng, shape, jobs, platform.num_sub_accels());
        (table, mapping, 10f64.powf(bw_exponent))
    }

    fn setup(task: TaskType, n: usize, setting: Setting, seed: u64) -> (JobAnalysisTable, Mapping) {
        let group = WorkloadSpec::single_group(task, n, seed);
        let platform = settings::build(setting);
        let table = JobAnalyzer::new().analyze(&group, &platform);
        let mut rng = StdRng::seed_from_u64(seed);
        let mapping = Mapping::random(&mut rng, n, platform.num_sub_accels());
        (table, mapping)
    }

    #[test]
    fn every_job_is_scheduled_exactly_once() {
        let (table, mapping) = setup(TaskType::Mix, 40, Setting::S2, 1);
        let sched = BwAllocator::new().allocate(&mapping.decode(), &table, 16.0);
        assert_eq!(sched.segments().len(), 40);
        let mut seen = vec![false; 40];
        for s in sched.segments() {
            assert!(!seen[s.job.0], "job {} scheduled twice", s.job.0);
            seen[s.job.0] = true;
        }
        assert!(seen.into_iter().all(|x| x));
    }

    #[test]
    fn jobs_on_same_core_do_not_overlap() {
        let (table, mapping) = setup(TaskType::Mix, 30, Setting::S2, 2);
        let sched = BwAllocator::new().allocate(&mapping.decode(), &table, 16.0);
        for a in 0..table.num_accels() {
            let segs = sched.segments_for(a);
            for w in segs.windows(2) {
                assert!(w[1].start_sec >= w[0].end_sec - 1e-12);
            }
        }
    }

    #[test]
    fn bw_never_exceeds_system_budget() {
        let (table, mapping) = setup(TaskType::Recommendation, 30, Setting::S2, 3);
        let bw = 4.0;
        let sched = BwAllocator::new().allocate(&mapping.decode(), &table, bw);
        for slice in sched.bw_trace() {
            let sum: f64 = slice.alloc_gbps.iter().sum();
            assert!(sum <= bw * (1.0 + 1e-9), "slice draws {sum} > {bw}");
        }
    }

    #[test]
    fn unconstrained_bw_gives_no_stall_execution() {
        let (table, mapping) = setup(TaskType::Vision, 20, Setting::S1, 4);
        // Absurdly high system BW: every job should run at its no-stall latency.
        let sched = BwAllocator::new().allocate(&mapping.decode(), &table, 1e9);
        for seg in sched.segments() {
            let expect = table.no_stall_seconds(seg.job, seg.accel);
            let actual = seg.duration_sec();
            assert!(
                (actual - expect).abs() / expect < 1e-6,
                "job {} took {actual}, expected {expect}",
                seg.job.0
            );
        }
    }

    #[test]
    fn lower_bw_never_improves_makespan() {
        let (table, mapping) = setup(TaskType::Mix, 40, Setting::S2, 5);
        let alloc = BwAllocator::new();
        let decoded = mapping.decode();
        let high = alloc.allocate(&decoded, &table, 16.0);
        let low = alloc.allocate(&decoded, &table, 1.0);
        assert!(low.makespan_sec() >= high.makespan_sec());
        assert!(low.throughput_gflops() <= high.throughput_gflops());
    }

    #[test]
    fn makespan_at_least_longest_single_job() {
        let (table, mapping) = setup(TaskType::Mix, 25, Setting::S4, 6);
        let sched = BwAllocator::new().allocate(&mapping.decode(), &table, 256.0);
        let longest = (0..25)
            .map(|j| {
                (0..table.num_accels())
                    .map(|a| table.no_stall_seconds(JobId(j), a))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max);
        assert!(sched.makespan_sec() >= longest * 0.999);
    }

    #[test]
    fn memory_intensive_jobs_get_proportionally_more_bw() {
        // Two cores, constrained BW: the core running the more BW-hungry job
        // must be granted more bandwidth in the first slice.
        let group = WorkloadSpec::single_group(TaskType::Mix, 8, 0);
        let platform = settings::build(Setting::S2).with_system_bw_gbps(2.0);
        let table = JobAnalyzer::new().analyze(&group, &platform);
        // Pick two jobs with very different BW needs on cores 0 and 1.
        let mut jobs: Vec<usize> = (0..8).collect();
        jobs.sort_by(|&a, &b| {
            table
                .required_bw_gbps(JobId(a), 0)
                .partial_cmp(&table.required_bw_gbps(JobId(b), 0))
                .unwrap()
        });
        let frugal = jobs[0];
        let hungry = jobs[7];
        let mut accel_sel = vec![0usize; 8];
        accel_sel[hungry] = 1;
        // Give the two interesting jobs top priority on their cores.
        let mut prio = vec![0.9; 8];
        prio[frugal] = 0.0;
        prio[hungry] = 0.0;
        let mapping = Mapping::new(accel_sel, prio, 4);
        let sched = BwAllocator::new().allocate(&mapping.decode(), &table, 2.0);
        let first = &sched.bw_trace()[0];
        let req_f = table.required_bw_gbps(JobId(frugal), 0);
        let req_h = table.required_bw_gbps(JobId(hungry), 1);
        if req_h > req_f {
            assert!(first.alloc_gbps[1] >= first.alloc_gbps[0]);
        }
    }

    #[test]
    fn scratch_is_per_thread_under_concurrent_evaluation() {
        // Two threads interleave evaluations of two problems of different
        // dimensions, released together; each must see exactly the oracle's
        // bits, so neither can be reading the other's queues or live list.
        let problems: Vec<(FitnessEvaluator, Vec<Mapping>, Vec<u64>)> = [(1, 17), (6, 90)]
            .into_iter()
            .map(|(which, jobs)| {
                let platform = platform(which);
                let group = WorkloadSpec::single_group(TaskType::Mix, jobs, which as u64);
                let table = JobAnalyzer::new().analyze(&group, &platform);
                let mut rng = StdRng::seed_from_u64(jobs as u64);
                let mappings: Vec<Mapping> = (0..24)
                    .map(|i| shaped_mapping(&mut rng, i % 4, jobs, platform.num_sub_accels()))
                    .collect();
                let bw = platform.system_bw_gbps();
                let expect = mappings
                    .iter()
                    .map(|m| {
                        oracle::allocate(&m.decode(), &table, bw).throughput_gflops().to_bits()
                    })
                    .collect();
                (FitnessEvaluator::new(table, bw, Objective::Throughput), mappings, expect)
            })
            .collect();
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for offset in 0..2 {
                let (problems, barrier) = (&problems, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..40 {
                        let (evaluator, mappings, expect) = &problems[(round + offset) % 2];
                        for (m, bits) in mappings.iter().zip(expect) {
                            assert_eq!(evaluator.fitness(m).to_bits(), *bits);
                        }
                    }
                });
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // The kernel against the executable spec: the whole recorded
        // `Schedule` through every public entry point, and the schedule-free
        // fitness bits for all four objectives.
        #[test]
        fn kernel_matches_the_oracle(
            which in 0usize..12,
            jobs in 1usize..301,
            shape in 0usize..4,
            bw_exponent in 0.0f64..9.0,
            seed in 0u64..1000,
        ) {
            let (table, mapping, bw) = case(which, jobs, shape, bw_exponent, seed);
            let decoded = mapping.decode();
            let spec = oracle::allocate(&decoded, &table, bw);

            // (`prop_assert!`, not `_eq!`: two whole schedules make an
            // unreadable failure message.)
            let fresh = BwAllocator::new().allocate(&decoded, &table, bw);
            prop_assert!(fresh == spec, "table-free allocate differs from the oracle");
            for objective in OBJECTIVES {
                let evaluator = FitnessEvaluator::new(table.clone(), bw, objective);
                prop_assert_eq!(
                    evaluator.fitness(&mapping).to_bits(),
                    objective.fitness_of(&spec).to_bits()
                );
                prop_assert!(evaluator.schedule(&mapping) == spec, "schedule differs");
                let with_table =
                    BwAllocator::new().allocate_with_memo(&decoded, &table, bw, evaluator.memo());
                prop_assert!(with_table == spec, "allocate over the cost table differs");
            }
        }

        // Conservation on the recorded schedule: no slice over-commits the
        // system bandwidth, every core streams exactly its jobs' traffic, and
        // a core's segments tile its busy time from 0 without gap or overlap.
        #[test]
        fn recorded_schedule_conserves_bandwidth_and_bytes(
            which in 0usize..12,
            jobs in 1usize..301,
            shape in 0usize..4,
            bw_exponent in 0.0f64..9.0,
            seed in 0u64..1000,
        ) {
            let (table, mapping, bw) = case(which, jobs, shape, bw_exponent, seed);
            let decoded = mapping.decode();
            let sched = BwAllocator::new().allocate(&decoded, &table, bw);

            for slice in sched.bw_trace() {
                let sum: f64 = slice.alloc_gbps.iter().sum();
                prop_assert!(sum <= bw * (1.0 + 1e-12), "slice draws {sum} > {bw}");
            }
            for accel in 0..table.num_accels() {
                let queue = decoded.queue(accel);
                let streamed: f64 = sched
                    .bw_trace()
                    .iter()
                    .map(|s| s.alloc_gbps[accel] * (s.end_sec - s.start_sec) * 1e9)
                    .sum();
                let traffic: f64 =
                    queue.iter().map(|&j| LaunchCost::derive(&table, j, accel).remaining_bytes).sum();
                let slack = queue.len() as f64 * REMAINING_EPS + traffic * 1e-9;
                prop_assert!(
                    (streamed - traffic).abs() <= slack,
                    "core {accel} streamed {streamed} B of {traffic} B"
                );

                let segments = sched.segments_for(accel);
                let order: Vec<JobId> = segments.iter().map(|s| s.job).collect();
                prop_assert_eq!(&order[..], queue);
                let mut clock = 0.0;
                for segment in segments {
                    prop_assert_eq!(segment.start_sec.to_bits(), f64::to_bits(clock));
                    prop_assert!(segment.end_sec >= segment.start_sec);
                    clock = segment.end_sec;
                }
            }
        }
    }

    #[test]
    fn a_job_that_is_granted_no_bandwidth_ends_the_replay_instead_of_hanging() {
        // One job with bytes to stream and no bandwidth required: its grant
        // is zero and it never completes. The replay runs on a thread of its
        // own so that a hang fails the test instead of stalling the suite.
        let (sent, received) = std::sync::mpsc::channel();
        let replaying = std::thread::spawn(move || {
            let mut queues = FlatQueues::new();
            queues.decode(&Mapping::new(vec![0], vec![0.5], 1));
            let cost =
                |_, _| LaunchCost { remaining_bytes: 1e6, required_bw_gbps: 0.0, energy_nj: 1.0 };
            let totals = replay(&queues, &mut LiveCores::new(), 16.0, cost, &mut NoRecord);
            sent.send(totals).expect("the test waits for the totals");
        });
        let (makespan_sec, _) = received
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the replay returns within seconds");
        replaying.join().expect("the replay thread ends cleanly");
        assert_eq!(makespan_sec, f64::INFINITY);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn allocator_terminates_and_covers_all_jobs(
            n in 4usize..60, seed in 0u64..20, bw in 1.0f64..64.0,
        ) {
            let (table, mapping) = setup(TaskType::Mix, n, Setting::S2, seed);
            let sched = BwAllocator::new().allocate(&mapping.decode(), &table, bw);
            prop_assert_eq!(sched.segments().len(), n);
            prop_assert!(sched.makespan_sec() > 0.0);
            prop_assert!(sched.throughput_gflops() > 0.0);
        }
    }
}
