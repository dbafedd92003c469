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

/// A core that still has work, with the job it is running.
#[derive(Debug, Clone, Copy)]
struct LiveCore {
    accel: usize,
    /// Position in [`FlatQueues::jobs`] of the core's next queued job.
    next: usize,
    /// One past the core's last queued job.
    end: usize,
    job: JobId,
    /// Remaining "work" expressed in bytes of DRAM traffic still to stream
    /// (`no-stall latency × required BW`, the `CurJobs` quantity of
    /// Algorithm 1).
    remaining_bytes: f64,
    /// The job's no-stall bandwidth requirement in GB/s.
    required_bw_gbps: f64,
    /// Bandwidth granted for the current slice, in GB/s.
    alloc_gbps: f64,
    /// Energy the job will charge at completion, in nJ (carried from launch
    /// so completion does not consult the table again).
    energy_nj: f64,
    /// When the job started executing.
    start_sec: f64,
}

impl LiveCore {
    /// The core `accel` starting, at `now`, the job at position `next` of
    /// its queue `jobs[..end]`.
    fn launched(
        accel: usize,
        next: usize,
        end: usize,
        jobs: &[JobId],
        cost: impl Fn(JobId, usize) -> LaunchCost,
        now: f64,
    ) -> Self {
        let job = jobs[next];
        let LaunchCost { remaining_bytes, required_bw_gbps, energy_nj } = cost(job, accel);
        LiveCore {
            accel,
            next: next + 1,
            end,
            job,
            remaining_bytes,
            required_bw_gbps,
            alloc_gbps: 0.0,
            energy_nj,
            start_sec: now,
        }
    }
}

/// What a replay reports as it goes. The loop is monomorphized per recorder,
/// so [`NoRecord`] costs the fitness path nothing.
trait Recorder {
    /// One bandwidth division: `live` holds the grant of every busy core.
    fn slice(&mut self, start_sec: f64, end_sec: f64, live: &[LiveCore]);
    /// One finished job.
    fn segment(&mut self, segment: ScheduleSegment);
}

/// Records nothing: the fitness function needs only the replay's totals.
struct NoRecord;

impl Recorder for NoRecord {
    fn slice(&mut self, _: f64, _: f64, _: &[LiveCore]) {}
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
    fn slice(&mut self, start_sec: f64, end_sec: f64, live: &[LiveCore]) {
        let mut alloc_gbps = vec![0.0_f64; self.num_accels];
        for core in live {
            alloc_gbps[core.accel] = core.alloc_gbps;
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
    live: Vec<LiveCore>,
}

thread_local! {
    /// Per thread because the evaluator is shared by reference across the
    /// evaluation pool (`evaluate` takes `&self`); each worker warms its own.
    static SCRATCH: RefCell<Scratch> =
        const { RefCell::new(Scratch { queues: FlatQueues::new(), live: Vec::new() }) };
}

/// Algorithm 1: replays `queues` under the system-bandwidth budget, taking
/// each launched job's quantities from `cost`, and returns the totals.
fn replay<R: Recorder>(
    queues: &FlatQueues,
    live: &mut Vec<LiveCore>,
    system_bw_gbps: f64,
    cost: impl Fn(JobId, usize) -> LaunchCost,
    recorder: &mut R,
) -> Totals {
    let jobs = queues.jobs();
    let mut now = 0.0_f64;
    let mut total_energy_nj = 0.0;

    // Launch the first job on every non-empty queue. The live list stays in
    // ascending core order and only shrinks: a drained core never revives.
    live.clear();
    live.reserve(queues.num_accels());
    for accel in 0..queues.num_accels() {
        let (next, end) = queues.span(accel);
        if next < end {
            live.push(LiveCore::launched(accel, next, end, jobs, &cost, now));
        }
    }

    while !live.is_empty() {
        // Proportional bandwidth division (Algorithm 1, lines 5–9).
        let sum_req: f64 = live.iter().map(|core| core.required_bw_gbps).sum();
        let scale = if sum_req <= system_bw_gbps { 1.0 } else { system_bw_gbps / sum_req };

        // Smallest time to the next completion under this allocation.
        let mut dt = f64::INFINITY;
        for core in live.iter_mut() {
            core.alloc_gbps = core.required_bw_gbps * scale;
            dt = dt.min(core.remaining_bytes / (core.alloc_gbps * 1e9));
        }
        let dt = dt.max(0.0);

        recorder.slice(now, now + dt, live);

        // Advance every live job by dt, compacting away drained cores.
        now += dt;
        let mut kept = 0;
        for i in 0..live.len() {
            let mut core = live[i];
            core.remaining_bytes -= dt * core.alloc_gbps * 1e9;
            if core.remaining_bytes <= REMAINING_EPS {
                total_energy_nj += core.energy_nj;
                recorder.segment(ScheduleSegment {
                    job: core.job,
                    accel: core.accel,
                    start_sec: core.start_sec,
                    end_sec: now,
                });
                if core.next == core.end {
                    continue;
                }
                core = LiveCore::launched(core.accel, core.next, core.end, jobs, &cost, now);
            }
            live[kept] = core;
            kept += 1;
        }
        live.truncate(kept);
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
    use crate::evaluator::{FitnessEvaluator, Objective};
    use magma_model::{TaskType, WorkloadSpec};
    use magma_platform::{settings, AcceleratorPlatform, Setting};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Barrier;

    const OBJECTIVES: [Objective; 4] = [
        Objective::Throughput,
        Objective::Latency,
        Objective::Energy,
        Objective::EnergyDelayProduct,
    ];

    /// S1–S6 (`which` 0..6) or, for 6, a 64-core platform: S6's sixteen
    /// big/little HB/LB cores four times over.
    fn platform(which: usize) -> AcceleratorPlatform {
        if let Some(&setting) = Setting::ALL.get(which) {
            return settings::build(setting);
        }
        let s6 = settings::build(Setting::S6);
        let cores = s6.sub_accels().iter().cycle().take(64).cloned().collect();
        AcceleratorPlatform::new("mesh64", cores, 64.0)
    }

    /// A mapping of one of four shapes: uniformly random; priorities drawn
    /// from five levels including both zeros and 1.0 (ties everywhere); one
    /// priority for every job; or all jobs on at most two cores (the rest
    /// stay empty).
    fn shaped_mapping(rng: &mut StdRng, shape: usize, jobs: usize, accels: usize) -> Mapping {
        let random = Mapping::random(rng, jobs, accels);
        let levels = [0.0, -0.0, 0.25, 0.5, 1.0];
        match shape {
            0 => random,
            1 => {
                let priority = (0..jobs).map(|_| levels[rng.gen_range(0..levels.len())]).collect();
                Mapping::new(random.accel_sel().to_vec(), priority, accels)
            }
            2 => Mapping::new(random.accel_sel().to_vec(), vec![0.5; jobs], accels),
            _ => {
                let pair = [rng.gen_range(0..accels), rng.gen_range(0..accels)];
                let accel_sel = (0..jobs).map(|_| pair[rng.gen_range(0..2)]).collect();
                Mapping::new(accel_sel, random.priority().to_vec(), accels)
            }
        }
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
            which in 0usize..7,
            jobs in 1usize..121,
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
            which in 0usize..7,
            jobs in 1usize..121,
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
