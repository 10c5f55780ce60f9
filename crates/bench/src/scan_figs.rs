//! Scan-path figure — projection pushdown and the block cache.
//!
//! Not a paper figure: the paper treats the scan as a black box feeding
//! the prediction operators. This report makes the overhauled scan path
//! observable in the same `figures --json` output CI smoke-runs, so the
//! scan counters (`exec.scan.cols_skipped`, `scan.cache.{hit,miss}`,
//! `scan.decode.ns_per_value`) are exercised end to end on every run.

use crate::report::FigureReport;
use std::time::Instant;
use vdr_cluster::SimCluster;
use vdr_columnar::{Batch, Column, DataType, Schema, Value};
use vdr_obs::MetricsSnapshot;
use vdr_verticadb::{Segmentation, TableDef, VerticaDb};

const NODES: usize = 3;
const ROWS: usize = 20_000;
const FLOAT_COLS: usize = 7; // plus the id column

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter_total(name) - before.counter_total(name)
}

/// Scan-path micro-report: one narrow query cold (projection pushdown,
/// cache miss) and warm (cache hit, zero decode), with the obs counters
/// that prove each mechanism fired.
pub fn scan_path() -> FigureReport {
    let db = VerticaDb::new(SimCluster::for_tests(NODES));
    let mut fields = vec![("id".to_string(), DataType::Int64)];
    for i in 0..FLOAT_COLS {
        fields.push((format!("c{i}"), DataType::Float64));
    }
    let schema = Schema::of(
        &fields
            .iter()
            .map(|(n, t)| (n.as_str(), *t))
            .collect::<Vec<_>>(),
    );
    db.create_table(TableDef {
        name: "scanfig".into(),
        schema: schema.clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    let mut cols = vec![Column::from_i64((0..ROWS as i64).collect())];
    for c in 0..FLOAT_COLS {
        cols.push(Column::from_f64(
            (0..ROWS).map(|r| r as f64 * (c + 1) as f64).collect(),
        ));
    }
    db.copy("scanfig", vec![Batch::new(schema, cols).unwrap()])
        .unwrap();

    let obs = vdr_obs::global();
    let query = "SELECT sum(c0) FROM scanfig";
    let expected: f64 = (0..ROWS).map(|r| r as f64).sum();

    let mut r = FigureReport::new(
        "scan",
        "Scan path: projection pushdown + block cache (not a paper figure)",
    );
    r.header(&[
        "pass",
        "wall ms",
        "exec.scan.cols_skipped",
        "scan.cache.hit",
        "scan.cache.miss",
        "decode ns/value",
    ]);

    for pass in ["cold", "warm"] {
        let before = obs.metrics().snapshot();
        let t = Instant::now();
        let out = db.query(query).unwrap();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = obs.metrics().snapshot();
        match out.batch.row(0)[0] {
            Value::Float64(s) => assert!(
                (s - expected).abs() < 1e-6,
                "scan figure query must stay correct"
            ),
            ref v => panic!("unexpected aggregate value {v:?}"),
        }
        let hist = |s: &MetricsSnapshot| {
            s.histogram_total("scan.decode.ns_per_value")
                .map(|h| (h.count, h.sum))
                .unwrap_or((0, 0.0))
        };
        let (hb, ha) = (hist(&before), hist(&after));
        let ns_per_value = if ha.0 == hb.0 {
            "0 (cache)".to_string()
        } else {
            format!("{:.1}", (ha.1 - hb.1) / (ha.0 - hb.0) as f64)
        };
        r.row(vec![
            pass.into(),
            format!("{wall_ms:.3}"),
            delta(&before, &after, "exec.scan.cols_skipped").to_string(),
            delta(&before, &after, "scan.cache.hit").to_string(),
            delta(&before, &after, "scan.cache.miss").to_string(),
            ns_per_value,
        ]);
    }
    r.note(format!(
        "{ROWS} rows x {} cols on {NODES} nodes; the query references 1 column, so the cold pass \
         skips {FLOAT_COLS} per-node column decodes and the warm pass is served entirely from the \
         block cache",
        FLOAT_COLS + 1
    ));
    r.note(
        "counters are process-global deltas around each query; cols_skipped > 0 on the cold pass \
         and cache.hit > 0 with zero new decode samples on the warm pass are the invariants CI checks",
    );
    r
}
