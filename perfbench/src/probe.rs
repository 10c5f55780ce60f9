//! What a run records: one [`OpRecord`] per operation, and — on traced
//! passes only — the benchmark's own spans (pass → op → layer call), the
//! program's counter deltas taken at the op boundaries, and the cost
//! ledger's phase reports.
//!
//! Spans live in memory and are written out when the run ends. Nothing here
//! switches anything inside the program: counters are read through the
//! `vdr_obs` metrics snapshot the program keeps at its default verbosity,
//! and phases through `Ledger::reports()`.

use std::collections::BTreeMap;
use std::time::Instant;
use vdr_cluster::{Ledger, PhaseReport};
use vdr_obs::{MetricValue, MetricsSnapshot};

/// The kind of an operation, which decides the end-to-end metric its
/// latency feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One SQL statement through `Session::sql`.
    Query,
    /// One `VerticaDb::copy` batch.
    Copy,
    /// Any other step of the Figure 3 pipeline: a transfer, a fit or a
    /// model deployment.
    Pipeline,
}

/// How an operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok,
    /// The program answered, but not with the answer derived from the
    /// generator.
    Wrong(String),
    /// The program returned an error.
    Error(String),
}

impl Outcome {
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok)
    }
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub pass: usize,
    pub kind: Kind,
    pub label: &'static str,
    /// Wall time of the call into the program (result checks excluded).
    pub wall_ns: u64,
    /// The cost ledger's modeled time for the operation, when it has one.
    pub modeled_ns: Option<u64>,
    pub outcome: Outcome,
}

/// One span of the benchmark's own trace. Times are nanoseconds since the
/// run started; `parent` is 0 for a pass span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer accumulators over the traced operations of a run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Counter deltas of each traced pass, in pass order.
    pub pass_counters: Vec<BTreeMap<String, u64>>,
    /// Σ histogram (sum, count) deltas.
    pub histograms: BTreeMap<String, (f64, u64)>,
    /// Named samples (wall or modeled milliseconds, ratios) whose median
    /// or mean becomes a metric.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Named running sums.
    pub sums: BTreeMap<String, f64>,
    /// Passes that were traced.
    pub traced_passes: usize,
    /// Wall seconds and op counts of traced and untraced passes, for the
    /// tracing overhead.
    pub traced_secs: f64,
    pub traced_ops: usize,
    pub plain_secs: f64,
    pub plain_ops: usize,
    /// Reconciliation checks that did not hold, one line each.
    pub reconcile_failures: Vec<String>,
    /// Σ op span and Σ of the part of it no child span covers.
    pub op_span_ns: u64,
    pub op_gap_ns: u64,
}

impl Layers {
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_string()).or_default() += value;
    }

    /// Σ of a counter's deltas over the traced passes.
    pub fn counter(&self, name: &str) -> u64 {
        self.pass_counters.iter().filter_map(|p| p.get(name)).sum()
    }

    fn absorb(&mut self, delta: &MetricsSnapshot) {
        for (key, value) in delta.iter() {
            match value {
                MetricValue::Counter(c) => {
                    let pass = self
                        .pass_counters
                        .last_mut()
                        .expect("a traced pass opened its counter map");
                    *pass.entry(key.name.clone()).or_default() += c;
                }
                MetricValue::Histogram(h) => {
                    let e = self.histograms.entry(key.name.clone()).or_default();
                    e.0 += h.sum;
                    e.1 += h.count;
                }
                MetricValue::Gauge(_) => {}
            }
        }
    }

    /// Fold one ledger phase into the resource sums.
    pub fn absorb_phase(&mut self, phase: &PhaseReport) {
        let mut slowest = 0.0f64;
        let mut total = 0.0f64;
        for n in &phase.nodes {
            let u = &n.usage;
            self.add("ledger.cpu_core_ns", u.cpu_core_ns);
            self.add("ledger.disk_read", u.disk_read_bytes as f64);
            self.add("ledger.disk_cached_read", u.disk_cached_read_bytes as f64);
            self.add("ledger.disk_write", u.disk_write_bytes as f64);
            self.add("ledger.net", u.net_out_bytes as f64);
            slowest = slowest.max(n.duration_secs);
            total += n.duration_secs;
        }
        if total > 0.0 {
            let mean = total / phase.nodes.len() as f64;
            self.sample("ledger.node_skew", slowest / mean);
        }
    }
}

/// Drain a ledger: the phases committed since the last drain.
pub fn take_phases(ledger: &Ledger) -> Vec<PhaseReport> {
    let phases = ledger.reports();
    ledger.reset();
    phases
}

/// Slowest-node duration of a phase — what the phase's own duration must
/// equal.
pub fn slowest_node_secs(phase: &PhaseReport) -> f64 {
    phase
        .nodes
        .iter()
        .map(|n| n.duration_secs)
        .fold(0.0, f64::max)
}

/// Seconds → whole nanoseconds, so modeled sums are exact integers and
/// repeat bit for bit whatever order they are added in.
pub fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

/// Everything one run records.
pub struct Probe {
    t0: Instant,
    trace: bool,
    traced_pass: bool,
    pass: usize,
    pass_span: u64,
    pass_started: Instant,
    pass_ops: usize,
    next_id: u64,
    /// Wall nanoseconds of the benchmark's own work: calls that are not an
    /// op's main call (result checks, ledger drains, the traced re-parse)
    /// and work wrapped in [`Probe::own_work`].
    pub own_ns: u64,
    pub ops: Vec<OpRecord>,
    pub spans: Vec<Span>,
    pub layers: Layers,
}

impl Probe {
    pub fn new(trace: bool) -> Self {
        let now = Instant::now();
        Probe {
            t0: now,
            trace,
            traced_pass: false,
            pass: 0,
            pass_span: 0,
            pass_started: now,
            pass_ops: 0,
            next_id: 1,
            own_ns: 0,
            ops: Vec::new(),
            spans: Vec::new(),
            layers: Layers::default(),
        }
    }

    /// Whether the current pass records spans, counter deltas and phases.
    pub fn traced(&self) -> bool {
        self.traced_pass
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &str, parent: u64, op: u64) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close_span(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Start pass `pass`. In a traced run, passes alternate traced and
    /// untraced so the two rates give the tracing overhead.
    pub fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
        self.traced_pass = self.trace && pass.is_multiple_of(2);
        self.pass_ops = 0;
        self.pass_started = Instant::now();
        if self.traced_pass {
            let idx = self.open_span(&format!("pass.{pass}"), 0, 0);
            self.pass_span = self.spans[idx].id;
            self.layers.pass_counters.push(BTreeMap::new());
        }
    }

    pub fn end_pass(&mut self) {
        let secs = self.pass_started.elapsed().as_secs_f64();
        if self.traced_pass {
            let idx = self
                .spans
                .iter()
                .rposition(|s| s.id == self.pass_span)
                .expect("the pass span was opened by begin_pass");
            self.close_span(idx);
            self.layers.traced_passes += 1;
            self.layers.traced_secs += secs;
            self.layers.traced_ops += self.pass_ops;
        } else {
            self.layers.plain_secs += secs;
            self.layers.plain_ops += self.pass_ops;
        }
    }

    /// Start one operation. On a traced pass this takes the counter
    /// snapshot the op's delta is measured against, then opens its span.
    pub fn begin(&mut self, kind: Kind, label: &'static str) -> Op {
        let before = self
            .traced_pass
            .then(|| vdr_obs::global().metrics().snapshot());
        let span = self
            .traced_pass
            .then(|| self.open_span(&format!("op.{label}"), self.pass_span, 0));
        if let Some(idx) = span {
            let id = self.spans[idx].id;
            self.spans[idx].op = id;
        }
        Op {
            kind,
            label,
            span,
            before,
            wall_ns: 0,
            modeled_ns: None,
        }
    }

    /// Run one call into a program layer as part of `op`. Its wall time
    /// becomes the op's latency when `main` is set (the call whose latency
    /// the end-to-end metrics report) and counts as the benchmark's own
    /// work otherwise; on traced passes it is also a child span of the op,
    /// named after the layer.
    pub fn call<R>(&mut self, op: &mut Op, layer: &str, main: bool, f: impl FnOnce() -> R) -> R {
        let child = op.span.map(|idx| {
            let (parent, op_id) = (self.spans[idx].id, self.spans[idx].op);
            self.open_span(layer, parent, op_id)
        });
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed().as_nanos() as u64;
        if let Some(idx) = child {
            self.close_span(idx);
        }
        if main {
            op.wall_ns += wall;
        } else {
            self.own_ns += wall;
        }
        out
    }

    /// Run benchmark work that belongs to no op (such as generating the
    /// next COPY batch), timed as the benchmark's own.
    pub fn own_work<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.own_ns += started.elapsed().as_nanos() as u64;
        out
    }

    /// Finish an op: close its span, fold its counter delta into the
    /// layers, and check that its children cover the op span.
    pub fn finish(&mut self, op: Op, outcome: Outcome) {
        if let Some(idx) = op.span {
            self.close_span(idx);
            let op_span = &self.spans[idx];
            let op_ns = op_span.end_ns.saturating_sub(op_span.start_ns);
            let covered: u64 = self.spans[idx + 1..]
                .iter()
                .filter(|s| s.parent == op_span.id)
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            let gap = op_ns.saturating_sub(covered);
            self.layers.op_span_ns += op_ns;
            self.layers.op_gap_ns += gap;
            // Stated tolerance: the children cover the op span to within 5%
            // of it, or within 20 ms (a descheduled thread between two
            // spans on a busy 2-core host) for short ops. `check_span_gaps`
            // holds the run as a whole to a tighter share.
            if gap as f64 > (0.05 * op_ns as f64).max(20e6) {
                self.layers.reconcile_failures.push(format!(
                    "op {} span {:.3} ms, children cover {:.3} ms",
                    op.label,
                    op_ns as f64 / 1e6,
                    covered as f64 / 1e6
                ));
            }
        }
        if let Some(before) = &op.before {
            let after = vdr_obs::global().metrics().snapshot();
            self.layers.absorb(&after.diff(before));
        }
        self.pass_ops += 1;
        self.ops.push(OpRecord {
            pass: self.pass,
            kind: op.kind,
            label: op.label,
            wall_ns: op.wall_ns,
            modeled_ns: op.modeled_ns,
            outcome,
        });
    }

    /// Fold the phases `op` committed to `ledger` into the layers (traced
    /// passes only), draining the ledger either way.
    pub fn phases(&mut self, op: &mut Op, ledger: &Ledger) -> Vec<PhaseReport> {
        let phases = self.call(op, "bench.ledger", false, || take_phases(ledger));
        if self.traced_pass {
            for p in &phases {
                self.layers.absorb_phase(p);
            }
        }
        phases
    }

    /// Record a layer sample on traced passes.
    pub fn sample(&mut self, name: &str, value: f64) {
        if self.traced_pass {
            self.layers.sample(name, value);
        }
    }

    /// After the run: the children of all traced ops together cover at
    /// least 98% of the ops' time.
    pub fn check_span_gaps(&mut self) {
        let l = &mut self.layers;
        if l.op_gap_ns as f64 > 0.02 * l.op_span_ns as f64 {
            l.reconcile_failures.push(format!(
                "child spans leave {:.3} of {:.3} ms of op time uncovered",
                l.op_gap_ns as f64 / 1e6,
                l.op_span_ns as f64 / 1e6
            ));
        }
    }

    /// Self time per span name: each span's duration minus what its
    /// children cover.
    pub fn self_times_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in &self.spans {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let name = if s.name.starts_with("pass.") {
                "pass"
            } else {
                &s.name
            };
            *out.entry(name.to_string()).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON, for the trace file written when the run ends.
    pub fn spans_json(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("id".into(), Value::UInt(s.id)),
                        ("parent".into(), Value::UInt(s.parent)),
                        ("op".into(), Value::UInt(s.op)),
                        ("name".into(), Value::String(s.name.clone())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// An operation in flight (see [`Probe::begin`]).
pub struct Op {
    kind: Kind,
    label: &'static str,
    span: Option<usize>,
    before: Option<MetricsSnapshot>,
    wall_ns: u64,
    modeled_ns: Option<u64>,
}

impl Op {
    /// Wall milliseconds of the op's main calls so far.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    pub fn set_modeled_secs(&mut self, secs: f64) {
        self.modeled_ns = Some(secs_to_ns(secs));
    }
}
