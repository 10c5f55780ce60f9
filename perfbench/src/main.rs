//! Command line of the benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sql_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs the three workloads one after another, each in a
//! child process of its own. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run also writes its spans to `perfbench/out/`.

use std::process::ExitCode;
use vdr_perfbench::probe::Outcome;
use vdr_perfbench::report::{end_to_end, failures, per_layer, result_json, Metric};
use vdr_perfbench::{peak_rss_mb, run, Config, RunResult, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload:<14} {:<48} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Write the traced run's spans, layer self times and check failures.
fn write_trace(r: &RunResult, seed: u64) -> std::io::Result<String> {
    use serde_json::Value;
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{seed}.json", r.workload));
    let self_times = Value::Object(
        r.probe
            .self_times_ms()
            .into_iter()
            .map(|(k, v)| (k, Value::Float(v)))
            .collect(),
    );
    let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::String).collect());
    let doc = Value::Object(vec![
        ("workload".into(), Value::String(r.workload.clone())),
        ("seed".into(), Value::UInt(seed)),
        ("self_time_ms".into(), self_times),
        (
            "reconcile_failures".into(),
            strings(&r.probe.layers.reconcile_failures),
        ),
        ("spans".into(), r.probe.spans_json()),
    ]);
    let text = serde_json::to_string(&doc).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

fn run_one(args: &Args) -> ExitCode {
    let cfg = Config::new(&args.workload, args.seed, args.seconds, args.trace);
    let r = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rss = peak_rss_mb();
    let metrics = if args.trace {
        per_layer(&r)
    } else {
        end_to_end(&r, rss)
    };
    let fails = failures(&r);
    let failed: usize = fails.iter().map(|f| f.1).sum();
    let wrong = r
        .probe
        .ops
        .iter()
        .any(|o| matches!(o.outcome, Outcome::Wrong(_)));
    let reconciled = r.probe.layers.reconcile_failures.is_empty();
    println!(
        "# {} seed={} passes={} window_s={:.3} own_s={:.3} setup_s={:?} ops={}",
        r.workload,
        args.seed,
        r.passes,
        r.window_secs,
        r.own_secs,
        r.setup_secs,
        r.probe.ops.len()
    );
    for (label, n, why) in &fails {
        println!("# failed {label}: {n}x, {why}");
    }
    for why in &r.probe.layers.reconcile_failures {
        println!("# reconcile: {why}");
    }
    if args.trace {
        match write_trace(&r, args.seed) {
            Ok(path) => println!("# spans written to {path}"),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    print_metrics(&r.workload, &metrics);
    let json = result_json(!wrong && reconciled, r.probe.ops.len(), failed, &metrics);
    println!(
        "{}",
        serde_json::to_string(&json).expect("metrics serialize")
    );
    ExitCode::SUCCESS
}

/// Run every workload in a child process and merge their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: {w} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let Ok(doc) = serde_json::from_str(last) else {
            eprintln!("perfbench: {w}: no result line");
            return ExitCode::FAILURE;
        };
        correct &= doc
            .get("correct")
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        attempted += doc.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += doc.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        if let Some(metrics) = doc.get("metrics").and_then(|m| m.as_object()) {
            for (name, v) in metrics {
                merged.push((format!("{w}.{name}"), v.clone()));
            }
        }
    }
    use serde_json::Value;
    let json = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(merged)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&json).expect("metrics serialize")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
