//! The repository's wall-clock benchmark. See `benchmark/README.md` for the
//! workloads, the metrics and how they interact.
//!
//! One invocation measures one workload: untraced (`--trace 0`) it prints
//! the end-to-end metrics, traced (`--trace 1`) the per-layer ones. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; everything before it is commentary.

pub mod inputs;
pub mod ladder;
pub mod rpc;
pub mod search;
pub mod sim;
pub mod stats;
pub mod suite;
pub mod tracer;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The four workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = ["search_offline", "rpc_mix", "rpc_hot", "sim_fleet"];

/// End-to-end metric names and units, as `BENCHMARK.json` lists them. Every
/// workload reports every one of them; `README.md` says what each means on
/// each workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p80", "ms"),
    ("slo_share", "share"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric names and units, as `BENCHMARK.json` lists them. A traced
/// run reports every one; a metric the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("m3e.evaluator.fitness_ns.s2", "ns"),
    ("m3e.evaluator.fitness_ns.s4", "ns"),
    ("m3e.evaluator.fitness_ns.mesh64", "ns"),
    ("m3e.encoding.decode_ns", "ns"),
    ("m3e.bw_alloc.allocate_ns", "ns"),
    ("m3e.evaluator.allocs_per_fitness", "count"),
    ("m3e.evaluator.busy_share", "share"),
    ("m3e.evaluator.calls_per_sample", "count"),
    ("m3e.evaluator.dup_share", "share"),
    ("m3e.analyzer.analyze_us.g30a4", "us"),
    ("m3e.analyzer.analyze_us.g100a64", "us"),
    ("cost.model.estimate_ns", "ns"),
    ("optim.magma_ga.gen_us.s2", "us"),
    ("optim.magma_ga.gen_us.s4", "us"),
    ("optim.magma_ga.gen_us.mesh64", "us"),
    ("optim.magma_ga.breed_share", "share"),
    ("optim.search.quality_gflops", "GFLOP/s"),
    ("optim.session.slice4_overhead_x", "x"),
    ("optim.pool.dispatch_us", "us"),
    ("optim.pool.speedup_2t", "x"),
    ("model.signature.distance_ns", "ns"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.lookup_near_us.e64", "us"),
    ("serve.cache.lookup_near_us.e256", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hit_share", "share"),
    ("serve.batcher.push_take_us", "us"),
    ("serve.router.place_ns", "ns"),
    ("serve.dispatch.plan_hit_us", "us"),
    ("serve.dispatch.plan_miss_us", "us"),
    ("serve.engine.submit_us", "us"),
    ("serve.engine.poll_us_p50", "us"),
    ("serve.engine.polls_per_group", "count"),
    ("serve.engine.service_ms_p50", "ms"),
    ("serve.fleet.host_us_per_sample", "us"),
    ("serve.fleet.quality_gflops", "GFLOP/s"),
    ("serve.fleet.sim_ms_p50", "ms"),
    ("serve.trace.generate_ms", "ms"),
    ("server.daemon.wait_ms_p50", "ms"),
    ("server.daemon.wait_share", "share"),
    ("server.daemon.idle_cpu_ms_per_s", "ms/s"),
    ("server.daemon.cpu_ms_per_group", "ms"),
    ("server.proto.submit_bytes", "B"),
    ("server.proto.encode_us", "us"),
    ("server.proto.decode_us", "us"),
    ("server.frame.roundtrip_us", "us"),
    ("server.client.latency_ms_p50", "ms"),
    ("server.client.latency_ms_p99", "ms"),
    ("server.client.sends", "count"),
    ("server.client.busy", "count"),
    ("server.client.errors", "count"),
    ("server.client.timed_out", "count"),
    ("server.client.unanswered", "count"),
    ("registry.load_dir_ms", "ms"),
    ("bench.gen.late_ms_p99", "ms"),
    ("bench.trace.overhead_share", "share"),
    ("bench.trace.spans", "count"),
    ("bench.trace.wall_s", "s"),
];

/// What an untraced run measured, before it is folded into the metric list.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-up time: the median of several set-ups, or the fastest where the
    /// set-up is deterministic CPU-bound work.
    pub setup_s: f64,
    /// Work completed per second, in the workload's own unit of work.
    pub throughput_per_s: f64,
    /// One latency sample per request that was answered, or per distinct
    /// operation (its fastest repeat) where operations are repeated.
    pub latency_ms: Vec<f64>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed: errored, timed out, unanswered or wrong.
    pub failed: u64,
    /// Operations counted against the latency limit, and how many met it.
    /// A failed operation misses the limit.
    pub limited: u64,
    pub within_limit: u64,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mb: f64,
    /// Commentary printed before the result line.
    pub notes: Vec<String>,
    /// Output checks that failed; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

/// What a traced run measured: one value per per-layer metric.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Layers {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Adds one sample of metric `name`; the median of its samples is
    /// reported.
    pub fn push_sample(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_string()).or_default().push(value);
    }

    /// The value metric `name` will report, if it has one yet.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied().or_else(|| self.samples.get(name).map(|s| stats::median(s)))
    }
}

/// One measured run's command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// The `magma_server` binary the RPC workloads start.
    pub server: PathBuf,
}

fn metrics_json(names: &[(&str, &str)], value_of: impl Fn(&str) -> f64) -> Result<String, String> {
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = value_of(name);
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

fn run_untraced(args: &Args) -> Result<String, String> {
    let e = match args.workload.as_str() {
        "search_offline" => search::run(args.seed, args.seconds)?,
        "rpc_mix" => rpc::run(&rpc::MIX, args)?,
        "rpc_hot" => rpc::run(&rpc::HOT, args)?,
        "sim_fleet" => sim::run(args.seed, args.seconds)?,
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    if e.latency_ms.is_empty() {
        return Err("no operation was answered, so there is no latency to report".to_string());
    }
    for note in &e.notes {
        println!("{note}");
    }
    for problem in &e.problems {
        println!("output check failed: {problem}");
    }
    let values: BTreeMap<&str, f64> = [
        ("setup_s", e.setup_s),
        ("throughput_per_s", e.throughput_per_s),
        ("latency_ms_p50", stats::percentile(&e.latency_ms, 0.5)),
        ("latency_ms_p80", stats::percentile(&e.latency_ms, 0.8)),
        ("slo_share", e.within_limit as f64 / e.limited as f64),
        ("cpu_ms_per_op", e.cpu_ms_per_op),
        ("peak_rss_mb", e.peak_rss_mb),
    ]
    .into();
    println!("latency samples: {}", e.latency_ms.len());
    let metrics = metrics_json(&END_TO_END, |name| values[name])?;
    Ok(result_line(e.problems.is_empty(), e.attempted, e.failed, &metrics))
}

fn run_traced(args: &Args) -> Result<String, String> {
    let started = std::time::Instant::now();
    let mut tracer = tracer::Tracer::default();
    let mut layers = Layers::default();
    // `search_offline` spends its traced time on more search rounds; the
    // other workloads trace one round, for the search-layer rows.
    let search_seconds = if args.workload == "search_offline" { args.seconds * 0.6 } else { 0.0 };
    search::trace(args.seed, search_seconds, &mut tracer, &mut layers)?;
    match args.workload.as_str() {
        "search_offline" => {}
        "rpc_mix" => rpc::trace(&rpc::MIX, args, &mut tracer, &mut layers)?,
        "rpc_hot" => rpc::trace(&rpc::HOT, args, &mut tracer, &mut layers)?,
        "sim_fleet" => sim::trace(args.seed, args.seconds * 0.4, &mut tracer, &mut layers)?,
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
    ladder::run(args.seed, &mut layers);
    let trace_file = PathBuf::from(format!("benchmark/out/trace.{}.json", args.workload));
    tracer.write(&trace_file).map_err(|e| format!("{}: {e}", trace_file.display()))?;
    layers.set("bench.trace.spans", tracer.span_count() as f64);
    layers.set("bench.trace.wall_s", started.elapsed().as_secs_f64());
    for problem in &layers.problems {
        println!("output check failed: {problem}");
    }
    if let Some(stray) = layers
        .values
        .keys()
        .chain(layers.samples.keys())
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == k))
    {
        return Err(format!("{stray} is not a per-layer metric of BENCHMARK.json"));
    }
    println!("spans written to {}", trace_file.display());
    let metrics = metrics_json(&PER_LAYER, |name| layers.get(name).unwrap_or(0.0))?;
    Ok(result_line(layers.problems.is_empty(), layers.attempted.max(1), layers.failed, &metrics))
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag}: cannot read {value:?}"))
}

/// Entry point of both binaries. `counting` says whether this binary counts
/// allocations, which only the traced one does.
pub fn main(counting: bool) -> std::process::ExitCode {
    match cli(counting) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("magma-benchmark: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn cli(counting: bool) -> Result<(), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 28.0f64, None);
    let (mut server, mut agree) = (None, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => workload = Some(parse::<String>(&flag, argv.next())?),
            "--seed" => seed = parse(&flag, argv.next())?,
            "--seconds" => seconds = parse(&flag, argv.next())?,
            "--trace" => trace = Some(parse::<u8>(&flag, argv.next())? != 0),
            "--server" => server = Some(parse::<PathBuf>(&flag, argv.next())?),
            "--agree" => agree = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let server = server.ok_or("--server <path to magma_server> is required")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    let Some(trace) = trace else {
        return suite::run(workload.as_deref(), seed, seconds, &server, agree);
    };
    if trace != counting {
        return Err("--trace 1 runs in magma_benchmark_traced, --trace 0 in magma_benchmark".into());
    }
    let workload = workload.ok_or("--workload is required with --trace")?;
    let args = Args { workload, seed, seconds, server };
    let line = if trace { run_traced(&args) } else { run_untraced(&args) }?;
    println!("{line}");
    Ok(())
}
