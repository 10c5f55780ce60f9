//! Exact-repeat self-check: two runs with the same seed give identical
//! modeled times and identical program counts, and within one run of a
//! time-bounded workload every pass repeats the first one, so the means
//! over a wall-clock-dependent pass count repeat too.
//!
//! Runs at a small data scale with a one-second window, so it is quick in a
//! debug build:
//!
//! ```text
//! cargo test --offline --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The workloads run one after another inside a single test: the program's
//! counters are process-wide, so a concurrent run would leak into the diffs.

use std::collections::BTreeMap;
use vdr_perfbench::probe::Outcome;
use vdr_perfbench::report::end_to_end;
use vdr_perfbench::{run, Config, RunResult, WORKLOADS};

/// Program counters that must repeat exactly between same-seed runs.
const COUNTS: [&str; 9] = [
    "exchange.rows",
    "exchange.bytes",
    "exec.scan.rows",
    "exec.output.rows",
    "scan.cache.hit",
    "scan.cache.miss",
    "vft.segment.bytes",
    "vft.receive.frames",
    "predict.rows",
];

/// Ledger sums that must repeat exactly (bytes written, read and sent).
const SUMS: [&str; 5] = [
    "ledger.disk_write",
    "ledger.disk_read",
    "ledger.disk_cached_read",
    "ledger.net",
    "storage.written_bytes",
];

fn small(workload: &str, trace: bool) -> Config {
    Config {
        scale: 0.02,
        ..Config::new(workload, 7, 1.0, trace)
    }
}

/// Each pass's ops as `(label, modeled_ns, outcome)`, in pass order.
fn pass_ops(r: &RunResult) -> Vec<Vec<(&'static str, Option<u64>, Outcome)>> {
    let mut passes: BTreeMap<usize, Vec<_>> = BTreeMap::new();
    for o in &r.probe.ops {
        passes
            .entry(o.pass)
            .or_default()
            .push((o.label, o.modeled_ns, o.outcome.clone()));
    }
    passes.into_values().collect()
}

/// The `COUNTS` counters of each traced pass.
fn pass_counts(r: &RunResult) -> Vec<Vec<u64>> {
    r.probe
        .layers
        .pass_counters
        .iter()
        .map(|p| COUNTS.map(|c| p.get(c).copied().unwrap_or(0)).to_vec())
        .collect()
}

/// Ledger sums per traced pass and the end-to-end modeled metrics: what
/// two same-seed runs must share whatever their pass counts.
fn totals(r: &RunResult) -> Vec<String> {
    let traced = r.probe.layers.traced_passes as f64;
    let mut out: Vec<String> = SUMS
        .iter()
        .map(|name| {
            let v = r.probe.layers.sums.get(*name).copied().unwrap_or(0.0);
            format!("{name} {:?}", v / traced)
        })
        .collect();
    for m in end_to_end(r, 0.0) {
        if m.name.ends_with("_modeled_ms") {
            out.push(format!("{} {:?}", m.name, m.value));
        }
    }
    out
}

#[test]
fn same_seed_runs_repeat_modeled_times_and_counts() {
    for workload in WORKLOADS {
        let a = run(&small(workload, true)).expect("first run");
        let b = run(&small(workload, true)).expect("second run");
        assert!(!a.probe.ops.is_empty(), "{workload}: no ops ran");
        for r in [&a, &b] {
            assert!(
                r.probe.layers.traced_passes >= 2,
                "{workload}: traced passes"
            );
        }
        assert_eq!(totals(&a), totals(&b), "{workload}: runs differ");
        if workload == "ingest_scan" {
            // A fixed schedule on a growing table: passes differ from each
            // other, but both runs have the same passes.
            assert_eq!(pass_ops(&a), pass_ops(&b), "{workload}: runs differ");
            assert_eq!(pass_counts(&a), pass_counts(&b), "{workload}: {COUNTS:?}");
        } else {
            // Time-bounded: the pass count follows the wall clock, so every
            // pass of both runs must repeat the first pass of the first.
            let first = &pass_ops(&a)[0];
            let counts = &pass_counts(&a)[0];
            for r in [&a, &b] {
                for (i, ops) in pass_ops(r).iter().enumerate() {
                    assert_eq!(ops, first, "{workload}: pass {i} differs from pass 0");
                }
                for (i, c) in pass_counts(r).iter().enumerate() {
                    assert_eq!(c, counts, "{workload}: traced pass {i}, {COUNTS:?}");
                }
            }
        }
        // The comparison is not vacuous: each workload's own layer moved.
        let moved = match workload {
            "sql_mix" => a.probe.layers.counter("exchange.bytes") as f64,
            "fig3_pipeline" => a.probe.layers.counter("vft.segment.bytes") as f64,
            _ => a.probe.layers.sums["storage.written_bytes"],
        };
        assert!(moved > 0.0, "{workload}: nothing counted");
        assert!(
            a.probe.layers.reconcile_failures.is_empty(),
            "{workload}: {:?}",
            a.probe.layers.reconcile_failures
        );
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run(&small("no_such_workload", false)).is_err());
}
