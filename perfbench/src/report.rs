//! Turning a run into metrics: the end-to-end set (untraced runs) and the
//! per-layer set (traced runs), each a list of `(name, value, unit)`.
//!
//! Every metric is present for every workload. A per-layer metric of a
//! layer the workload bypasses reads 0.

use crate::probe::{Kind, OpRecord, Outcome};
use crate::sql_mix::SHAPES;
use crate::RunResult;
use serde_json::Value;
use std::collections::BTreeMap;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The `q`-quantile with linear interpolation between closest ranks; 0
/// for no samples. Infinite samples sort last; a quantile that reaches
/// them is infinite.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || s[hi].is_infinite() {
        return s[hi];
    }
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean modeled milliseconds over ops with a modeled time. Sums whole
/// nanoseconds, so equal multisets of ops give bit-identical results.
fn modeled_mean_ms<'a>(ops: impl Iterator<Item = &'a OpRecord>) -> f64 {
    let (mut sum, mut n) = (0u128, 0u64);
    for op in ops {
        if let Some(ns) = op.modeled_ns {
            sum += ns as u128;
            n += 1;
        }
    }
    ratio(sum as f64, n as f64) / 1e6
}

fn walls_ms<'a>(ops: impl Iterator<Item = &'a OpRecord>) -> Vec<f64> {
    ops.map(|o| o.wall_ns as f64 / 1e6).collect()
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(r: &RunResult, peak_rss_mb: f64) -> Vec<Metric> {
    let ops = &r.probe.ops;
    let ok = || ops.iter().filter(|o| o.outcome.is_ok());
    let queries = || ok().filter(|o| o.kind == Kind::Query);
    let copies: Vec<&OpRecord> = ok().filter(|o| o.kind == Kind::Copy).collect();
    // Workloads with no COPY in the measured window report their set-up
    // loads, which are COPY batches of the same size.
    let (copy_walls, copy_modeled) = if copies.is_empty() {
        let walls: Vec<f64> = r
            .setup_copies
            .iter()
            .map(|c| c.wall_ns as f64 / 1e6)
            .collect();
        let sum: u128 = r.setup_copies.iter().map(|c| c.modeled_ns as u128).sum();
        (walls, ratio(sum as f64, r.setup_copies.len() as f64) / 1e6)
    } else {
        (
            walls_ms(copies.iter().copied()),
            modeled_mean_ms(copies.iter().copied()),
        )
    };
    let mut pass_wall: BTreeMap<usize, u64> = BTreeMap::new();
    let mut modeled_total = 0u128;
    for op in ok() {
        *pass_wall.entry(op.pass).or_default() += op.wall_ns;
        modeled_total += op.modeled_ns.unwrap_or(0) as u128;
    }
    let pass_walls: Vec<f64> = pass_wall.values().map(|&ns| ns as f64 / 1e6).collect();
    // A failed statement counts as slower than every success (it meets no
    // latency limit); a percentile that lands on failures reports the
    // whole measured window.
    let window_ms = r.window_secs * 1e3;
    let query_walls: Vec<f64> = ops
        .iter()
        .filter(|o| o.kind == Kind::Query)
        .map(|o| match o.outcome {
            Outcome::Ok => o.wall_ns as f64 / 1e6,
            _ => f64::INFINITY,
        })
        .collect();
    let latency = |q: f64| quantile(&query_walls, q).min(window_ms);
    vec![
        metric("setup_s", quantile(&r.setup_secs, 0.5), "s"),
        // Per second of the program's time: the window less the
        // benchmark's own checks, ledger drains and batch generation.
        metric(
            "ops_per_s",
            ratio(ops.len() as f64, r.window_secs - r.own_secs),
            "1/s",
        ),
        metric("query_p50_ms", latency(0.5), "ms"),
        metric("query_p90_ms", latency(0.9), "ms"),
        metric("query_modeled_ms", modeled_mean_ms(queries()), "ms"),
        metric("copy_p50_ms", quantile(&copy_walls, 0.5), "ms"),
        metric("copy_modeled_ms", copy_modeled, "ms"),
        metric("pass_p50_ms", quantile(&pass_walls, 0.5), "ms"),
        metric(
            "pass_modeled_ms",
            ratio(modeled_total as f64, r.passes as f64) / 1e6,
            "ms",
        ),
        metric(
            "ok_ratio",
            ratio(ok().count() as f64, ops.len() as f64),
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let l = &r.probe.layers;
    let passes = l.traced_passes.max(1) as f64;
    let c = |name: &str| l.counter(name) as f64;
    let per_pass = |name: &str| c(name) / passes;
    let s = |name: &str| l.samples.get(name).map_or(&[][..], Vec::as_slice);
    let med = |name: &str| quantile(s(name), 0.5);
    let sum = |name: &str| l.sums.get(name).copied().unwrap_or(0.0);
    let hist_mean = |name: &str| {
        l.histograms
            .get(name)
            .map_or(0.0, |&(sum, n)| ratio(sum, n as f64))
    };

    let mut m = vec![metric(
        "verticadb.sql.parse_us",
        mean(s("sql.parse_us")),
        "us",
    )];
    for shape in SHAPES {
        m.push(metric(
            format!("verticadb.exec.{shape}.wall_ms"),
            med(&format!("wall.{shape}")),
            "ms",
        ));
        m.push(metric(
            format!("verticadb.exec.{shape}.modeled_ms"),
            med(&format!("modeled.{shape}")),
            "ms",
        ));
    }
    let hits = c("scan.cache.hit");
    let predict_hits = c("predict.model_cache.hit");
    let fit_secs = sum("ml.fit_secs");
    let predict_modeled: Vec<f64> = s("modeled.glm_predict")
        .iter()
        .chain(s("modeled.kmeans_predict"))
        .copied()
        .collect();
    m.extend([
        metric(
            "verticadb.exec.rows_scanned_per_row_out",
            ratio(c("exec.scan.rows"), c("exec.output.rows")),
            "ratio",
        ),
        metric(
            "verticadb.exec.cols_skipped",
            per_pass("exec.scan.cols_skipped"),
            "count",
        ),
        metric(
            "verticadb.exec.gather_bytes",
            per_pass("exec.gather.bytes"),
            "B",
        ),
        metric(
            "verticadb.blockcache.hit_ratio",
            ratio(hits, hits + c("scan.cache.miss")),
            "ratio",
        ),
        metric(
            "verticadb.blockcache.evictions",
            per_pass("scan.cache.evict"),
            "count",
        ),
        metric(
            "verticadb.blockcache.invalidations",
            per_pass("scan.cache.invalidated"),
            "count",
        ),
        metric(
            "columnar.decode_ns_per_value",
            hist_mean("scan.decode.ns_per_value"),
            "ns",
        ),
        metric(
            "columnar.runs_skipped",
            per_pass("scan.encoded.runs_skipped"),
            "count",
        ),
        metric(
            "columnar.codes_tested",
            per_pass("scan.encoded.codes_tested"),
            "count",
        ),
        metric(
            "columnar.late_materialized_rows",
            per_pass("scan.encoded.late_materialized_rows"),
            "count",
        ),
        metric(
            "columnar.encoded_bytes_per_user_byte",
            r.encoded_bytes_per_user_byte,
            "ratio",
        ),
        metric("cluster.exchange.rows", per_pass("exchange.rows"), "count"),
        metric("cluster.exchange.bytes", per_pass("exchange.bytes"), "B"),
        metric(
            "cluster.exchange.frames",
            per_pass("exchange.frames"),
            "count",
        ),
        metric(
            "cluster.exchange.wait_ms",
            per_pass("exchange.wait_ns") / 1e6,
            "ms",
        ),
        metric(
            "cluster.exchange.encoded_cols",
            per_pass("exchange.encoded_cols"),
            "count",
        ),
        metric(
            "cluster.ledger.cpu_core_ms",
            sum("ledger.cpu_core_ns") / 1e6 / passes,
            "ms",
        ),
        metric(
            "cluster.ledger.disk_read_mb",
            sum("ledger.disk_read") / 1e6 / passes,
            "MB",
        ),
        metric(
            "cluster.ledger.disk_cached_read_mb",
            sum("ledger.disk_cached_read") / 1e6 / passes,
            "MB",
        ),
        metric(
            "cluster.ledger.disk_write_mb",
            sum("ledger.disk_write") / 1e6 / passes,
            "MB",
        ),
        metric(
            "cluster.ledger.net_mb",
            sum("ledger.net") / 1e6 / passes,
            "MB",
        ),
        metric(
            "cluster.ledger.node_skew",
            mean(s("ledger.node_skew")),
            "ratio",
        ),
        metric("verticadb.storage.copy_ms", med("wall.copy"), "ms"),
        metric(
            "verticadb.storage.write_bytes_per_user_byte",
            ratio(sum("storage.written_bytes"), sum("storage.user_bytes")),
            "ratio",
        ),
        metric(
            "transfer.vft.locality.wall_ms",
            med("wall.darray_locality"),
            "ms",
        ),
        metric(
            "transfer.vft.uniform.wall_ms",
            med("wall.darray_uniform"),
            "ms",
        ),
        metric("transfer.vft.dframe.wall_ms", med("wall.dframe"), "ms"),
        metric("transfer.vft.modeled_ms", mean(s("vft.modeled_ms")), "ms"),
        metric(
            "transfer.vft.db_modeled_ms",
            mean(s("vft.db_modeled_ms")),
            "ms",
        ),
        metric(
            "transfer.vft.client_modeled_ms",
            mean(s("vft.client_modeled_ms")),
            "ms",
        ),
        metric(
            "transfer.vft.queue_modeled_ms",
            mean(s("vft.queue_modeled_ms")),
            "ms",
        ),
        metric("transfer.vft.bytes", per_pass("vft.segment.bytes"), "B"),
        metric(
            "transfer.vft.frames",
            per_pass("vft.receive.frames"),
            "count",
        ),
        metric(
            "transfer.vft.receive_wait_ms",
            per_pass("vft.receive.wait_ns") / 1e6,
            "ms",
        ),
        metric(
            "transfer.vft.receive_decode_ms",
            per_pass("vft.receive.decode_ns") / 1e6,
            "ms",
        ),
        metric(
            "distr.partition_rows_max_over_mean",
            mean(s("distr.partition_skew")),
            "ratio",
        ),
        metric("ml.glm.fit_ms", med("wall.hpdglm"), "ms"),
        metric("ml.glm.iterations", mean(s("ml.glm.iterations")), "count"),
        metric("ml.kmeans.fit_ms", med("wall.hpdkmeans"), "ms"),
        metric(
            "ml.kmeans.iterations",
            mean(s("ml.kmeans.iterations")),
            "count",
        ),
        metric(
            "ml.train.rows_per_sec",
            ratio(sum("ml.row_iterations"), fit_secs),
            "1/s",
        ),
        metric(
            "transfer.train.wall_ms",
            med("wall.glm_while_loading"),
            "ms",
        ),
        metric(
            "transfer.train.overlap_ms",
            mean(s("train.overlap_ms")),
            "ms",
        ),
        metric("core.predict.glm.wall_ms", med("wall.glm_predict"), "ms"),
        metric(
            "core.predict.kmeans.wall_ms",
            med("wall.kmeans_predict"),
            "ms",
        ),
        metric("core.predict.modeled_ms", mean(&predict_modeled), "ms"),
        metric("core.predict.rows", per_pass("predict.rows"), "count"),
        metric(
            "core.predict.model_cache_hit_ratio",
            ratio(predict_hits, predict_hits + c("predict.model_cache.miss")),
            "ratio",
        ),
        metric("verticadb.models.deploy_ms", med("wall.deploy"), "ms"),
        metric("obs.trace_overhead_pct", trace_overhead_pct(l), "%"),
        metric(
            "obs.span_gap_pct",
            ratio(l.op_gap_ns as f64, l.op_span_ns as f64) * 100.0,
            "%",
        ),
        metric(
            "obs.reconcile_failures",
            l.reconcile_failures.len() as f64,
            "count",
        ),
    ]);
    m
}

/// Untraced ops per second over traced ops per second, as a percentage
/// above 100; 0 when the run had no pass of one kind.
fn trace_overhead_pct(l: &crate::probe::Layers) -> f64 {
    if l.plain_secs == 0.0 || l.traced_secs == 0.0 || l.traced_ops == 0 {
        return 0.0;
    }
    let plain = l.plain_ops as f64 / l.plain_secs;
    let traced = l.traced_ops as f64 / l.traced_secs;
    (plain / traced - 1.0) * 100.0
}

/// Failed operations by label: (label, count, first error).
pub fn failures(r: &RunResult) -> Vec<(&'static str, usize, String)> {
    let mut by: BTreeMap<&'static str, (usize, String)> = BTreeMap::new();
    for op in &r.probe.ops {
        let why = match &op.outcome {
            Outcome::Ok => continue,
            Outcome::Wrong(w) => format!("wrong result: {w}"),
            Outcome::Error(e) => format!("error: {e}"),
        };
        let e = by.entry(op.label).or_insert((0, why));
        e.0 += 1;
    }
    by.into_iter().map(|(k, (n, w))| (k, n, w)).collect()
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Value {
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted as u64)),
        ("failed".into(), Value::UInt(failed as u64)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Value::Object(vec![
                                ("value".into(), Value::Float(m.value)),
                                ("unit".into(), Value::String(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
