//! The repository's benchmark: three seeded, closed-loop workloads, each
//! driven by one client, on a simulated 3-node cluster with one real thread
//! and two R instances per node.
//!
//! * [`sql_mix`] — analytic SQL over warm data that fits the block cache.
//! * [`fig3`] — the paper's Figure 3 workflow: transfer, fit, deploy,
//!   predict.
//! * [`ingest`] — COPY batches beside reads, on a working set larger than
//!   the block cache.
//!
//! A run sets the workload up several times (the median is `setup_s`),
//! then runs passes over the workload's operations: for `--seconds` for
//! `sql_mix` and `fig3_pipeline`, and a fixed schedule sized by
//! `--seconds` for `ingest_scan`, so its table grows identically on every
//! run. Every answer is checked against one derived from the generator.
//! With tracing on, passes alternate between traced and untraced, and the
//! traced ones feed the per-layer metrics (see [`report`]).

pub mod common;
pub mod fig3;
pub mod ingest;
pub mod probe;
pub mod report;
pub mod sql_mix;

use common::CopySample;
use probe::Probe;
use std::time::Instant;

/// How many times a run sets its workload up; the median is `setup_s` and
/// the last set-up is measured.
pub const SETUP_REPS: usize = 3;

/// The workloads, by the names the command line uses.
pub const WORKLOADS: [&str; 3] = ["sql_mix", "fig3_pipeline", "ingest_scan"];

/// How one run is set up.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans, counter deltas and ledger phases (per-layer metrics).
    pub trace: bool,
    /// Data sizes relative to the published workload (1.0). Smaller
    /// scales exist for the benchmark's own tests.
    pub scale: f64,
}

impl Config {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            scale: 1.0,
        }
    }
}

/// One workload: its set-up (tables, session and one untimed warm pass)
/// and its passes.
pub trait Workload: Sized {
    fn setup(cfg: &Config, copies: &mut Vec<CopySample>) -> Result<Self, String>;

    /// One untimed pass that fills caches; by default an ordinary pass.
    fn warm(&mut self) {
        self.pass(&mut Probe::new(false), usize::MAX);
    }

    fn pass(&mut self, probe: &mut Probe, pass: usize);

    /// A fixed pass count, for a workload whose state must evolve the same
    /// way on every run; `None` runs passes until `--seconds` are up.
    fn fixed_passes(_cfg: &Config) -> Option<usize> {
        None
    }

    /// The workload's session, for the storage statistics read after a
    /// traced run.
    fn session(&self) -> &vdr_core::Session;

    /// Extra checks after a traced run's measured window.
    fn finish(&mut self, _probe: &mut Probe) {}
}

/// Everything a run measured.
pub struct RunResult {
    pub workload: String,
    pub setup_secs: Vec<f64>,
    /// COPY batches of the main table, over every set-up.
    pub setup_copies: Vec<CopySample>,
    pub window_secs: f64,
    /// The part of the window spent in the benchmark's own work (see
    /// [`Probe::own_ns`]).
    pub own_secs: f64,
    pub passes: usize,
    pub probe: Probe,
    /// Encoded bytes per user byte over all stored containers, read after
    /// a traced run (0 otherwise).
    pub encoded_bytes_per_user_byte: f64,
}

fn run_workload<W: Workload>(cfg: &Config) -> Result<RunResult, String> {
    let mut setup_secs = Vec::new();
    let mut setup_copies = Vec::new();
    let mut bench: Option<W> = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let started = Instant::now();
        let mut w = W::setup(cfg, &mut setup_copies)?;
        w.warm();
        setup_secs.push(started.elapsed().as_secs_f64());
        bench = Some(w);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let mut probe = Probe::new(cfg.trace);
    let fixed = W::fixed_passes(cfg);
    let started = Instant::now();
    let mut pass = 0;
    loop {
        let done = match fixed {
            Some(n) => pass >= n,
            None => pass > 0 && started.elapsed().as_secs_f64() >= cfg.seconds,
        };
        if done {
            break;
        }
        probe.begin_pass(pass);
        bench.pass(&mut probe, pass);
        probe.end_pass();
        pass += 1;
    }
    let window_secs = started.elapsed().as_secs_f64();
    let own_secs = probe.own_ns as f64 / 1e9;
    let mut encoded_bytes_per_user_byte = 0.0;
    if cfg.trace {
        probe.check_span_gaps();
        bench.finish(&mut probe);
        encoded_bytes_per_user_byte = common::encoded_bytes_per_user_byte(bench.session());
    }
    Ok(RunResult {
        workload: cfg.workload.clone(),
        setup_secs,
        setup_copies,
        window_secs,
        own_secs,
        passes: pass,
        probe,
        encoded_bytes_per_user_byte,
    })
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    match cfg.workload.as_str() {
        "sql_mix" => run_workload::<sql_mix::SqlMix>(cfg),
        "fig3_pipeline" => run_workload::<fig3::Fig3>(cfg),
        "ingest_scan" => run_workload::<ingest::Ingest>(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
