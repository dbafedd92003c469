//! The two ways of running more than one measured run: the suite (every
//! workload untraced, then traced, into `benchmark/out/results.json`) and
//! `--agree` (the end-to-end set twice, compared against the bounds of
//! `BENCHMARK.json`). Each measured run is a child process of its own, so
//! set-up time, CPU time and peak memory start from nothing every time.

use crate::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::Path;
use std::process::Command;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::I64(x) => Some(*x as f64),
        Value::U64(x) => Some(*x as f64),
        _ => None,
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => "",
    }
}

/// Reads `BENCHMARK.json` and checks that it names exactly the metrics and
/// workloads this program reports. Returns the end-to-end entries.
fn declared_metrics() -> Result<Vec<Value>, String> {
    let text_ =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc: Value = serde_json::from_str(&text_).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .as_seq()
            .unwrap_or(&[])
            .iter()
            .map(|m| text(m.get("name")).to_string())
            .collect()
    };
    if names("end_to_end") != END_TO_END.map(|m| m.0)
        || names("per_layer") != PER_LAYER.map(|m| m.0)
        || names("workloads") != WORKLOADS
    {
        return Err("BENCHMARK.json and the benchmark disagree on metric or workload names".into());
    }
    Ok(doc.get("end_to_end").as_seq().unwrap_or(&[]).to_vec())
}

/// One measured run as a child process. Echoes its commentary, returns its
/// result object and whether it called itself disturbed.
fn measured_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    server: &Path,
    trace: bool,
) -> Result<(Value, bool), String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let exe = if trace { me.with_file_name("magma_benchmark_traced") } else { me };
    let output = Command::new(&exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--server")
        .arg(server)
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in &lines {
        println!("  {line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} (trace {}) exited with {}", trace as u8, output.status));
    }
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    Ok((result, lines.iter().any(|l| l.starts_with("disturbed"))))
}

fn metrics_of(result: &Value) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .as_map()
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                number(m.get("value")).unwrap_or(f64::NAN),
                text(m.get("unit")).to_string(),
            )
        })
        .collect()
}

fn print_metrics(workload: &str, result: &Value) {
    for (name, value, unit) in metrics_of(result) {
        println!("{workload} {name} {value} {unit}");
    }
}

fn suite(workloads: &[&str], seed: u64, seconds: f64, server: &Path) -> Result<(), String> {
    let mut runs = Vec::new();
    let mut incorrect = Vec::new();
    for trace in [false, true] {
        for workload in workloads {
            println!("== {workload}, trace {} ==", trace as u8);
            let (mut result, disturbed) = measured_run(workload, seed, seconds, server, trace)?;
            let mut results = Vec::new();
            if disturbed {
                // Both results are kept; the second one is the one printed.
                println!("disturbed: running {workload} once more");
                results.push(result);
                result = measured_run(workload, seed, seconds, server, trace)?.0;
            }
            print_metrics(workload, &result);
            if *result.get("correct") != Value::Bool(true) {
                incorrect.push(format!("{workload} (trace {})", trace as u8));
            }
            results.push(result);
            for result in results {
                runs.push(Value::Map(vec![
                    ("workload".into(), Value::Str(workload.to_string())),
                    ("trace".into(), Value::U64(trace as u64)),
                    ("result".into(), result),
                ]));
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let summary = Value::Map(vec![
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::F64(seconds)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("magma_threads".into(), Value::U64(1)),
        ("runs".into(), Value::Seq(runs)),
        ("claim".into(), Value::Null),
    ]);
    let path = Path::new("benchmark/out/results.json");
    std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
    let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if incorrect.is_empty() {
        Ok(())
    } else {
        Err(format!("output checks failed on {}", incorrect.join(", ")))
    }
}

/// Runs the end-to-end set twice and compares the two values of every metric
/// on every workload with the metric's bound.
fn agree(
    workloads: &[&str],
    seed: u64,
    seconds: f64,
    server: &Path,
    declared: &[Value],
) -> Result<(), String> {
    let mut over = Vec::new();
    println!("workload metric first second gap bound");
    for workload in workloads {
        let (first, _) = measured_run(workload, seed, seconds, server, false)?;
        let (second, _) = measured_run(workload, seed, seconds, server, false)?;
        for ((name, a, _), (_, b, _)) in metrics_of(&first).into_iter().zip(metrics_of(&second)) {
            let bound = declared
                .iter()
                .find(|m| text(m.get("name")) == name)
                .and_then(|m| number(m.get("bound")))
                .ok_or_else(|| format!("{name} has no bound in BENCHMARK.json"))?;
            let gap = (a - b).abs() / a.abs();
            println!("{workload} {name} {a} {b} {gap:.4} {bound}");
            if gap.is_nan() || gap > bound {
                over.push(format!("{workload} {name}"));
            }
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("the two runs differ by more than the bound on {}", over.join(", ")))
    }
}

/// Entry point of the suite and of `--agree`.
pub fn run(
    workload: Option<&str>,
    seed: u64,
    seconds: f64,
    server: &Path,
    agree_mode: bool,
) -> Result<(), String> {
    let declared = declared_metrics()?;
    let chosen: Vec<&str> = match workload {
        Some(w) => vec![*WORKLOADS
            .iter()
            .find(|k| **k == w)
            .ok_or_else(|| format!("unknown workload {w:?}"))?],
        None => WORKLOADS.to_vec(),
    };
    if agree_mode {
        agree(&chosen, seed, seconds, server, &declared)
    } else {
        suite(&chosen, seed, seconds, server)
    }
}
