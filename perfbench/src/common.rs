//! Pieces every workload shares: the cluster shape, the session, timed
//! COPY batches, SQL statements run as ops, seeded shuffles, and result
//! checks.

use crate::probe::{secs_to_ns, slowest_node_secs, take_phases, Kind, Outcome, Probe};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;
use vdr_cluster::{HardwareProfile, SimCluster};
use vdr_columnar::{Batch, Value};
use vdr_core::{Session, SessionOptions};
use vdr_verticadb::{QueryOutput, VerticaDb};

/// Simulated nodes. With one real thread each this matches a 2-core host.
pub const NODES: usize = 3;
/// Real threads backing each node's pool.
pub const THREADS_PER_NODE: usize = 1;
/// Distributed R instances per node.
pub const R_INSTANCES_PER_NODE: usize = 2;
/// Rows per COPY batch, in set-up and in `ingest_scan`'s schedule.
pub const COPY_BATCH_ROWS: usize = 50_000;

/// A database on the benchmark's cluster shape. `mem_bytes` overrides the
/// paper-testbed node memory (the block cache gets 1/32 of it).
pub fn database(mem_bytes: Option<u64>) -> Arc<VerticaDb> {
    let mut profile = HardwareProfile::paper_testbed();
    if let Some(mem) = mem_bytes {
        profile.mem_bytes = mem;
    }
    VerticaDb::new(SimCluster::new(NODES, profile, THREADS_PER_NODE))
}

/// A session co-located on every node.
pub fn connect(db: &Arc<VerticaDb>) -> Result<Session, String> {
    Session::connect_colocated(
        Arc::clone(db),
        SessionOptions {
            r_instances_per_node: R_INSTANCES_PER_NODE,
            ..Default::default()
        },
    )
    .map_err(|e| format!("connect: {e}"))
}

/// Run DDL through the session.
pub fn ddl(session: &Session, sql: &str) -> Result<(), String> {
    session
        .sql(sql)
        .map(|_| ())
        .map_err(|e| format!("{sql}: {e}"))
}

/// Wall and modeled nanoseconds of one COPY batch.
#[derive(Debug, Clone, Copy)]
pub struct CopySample {
    pub wall_ns: u64,
    pub modeled_ns: u64,
}

/// COPY one batch during set-up. Batches of the workload's main table
/// record their wall and ledger times into `samples`.
pub fn setup_copy(
    db: &VerticaDb,
    table: &str,
    batch: Batch,
    samples: Option<&mut Vec<CopySample>>,
) -> Result<(), String> {
    let rows = batch.num_rows() as u64;
    let started = Instant::now();
    let loaded = db
        .copy(table, [batch])
        .map_err(|e| format!("COPY {table}: {e}"))?;
    let wall_ns = started.elapsed().as_nanos() as u64;
    if loaded != rows {
        return Err(format!("COPY {table}: loaded {loaded} of {rows} rows"));
    }
    let modeled = take_phases(db.ledger())
        .iter()
        .map(|p| p.duration_secs)
        .sum::<f64>();
    if let Some(samples) = samples {
        samples.push(CopySample {
            wall_ns,
            modeled_ns: secs_to_ns(modeled),
        });
    }
    Ok(())
}

/// COPY one batch as a timed op: the `verticadb.storage` layer.
pub fn copy_op(probe: &mut Probe, session: &Session, table: &str, batch: Batch) {
    let db = session.db();
    let rows = batch.num_rows() as u64;
    let user_bytes = batch.byte_size() as f64;
    let mut op = probe.begin(Kind::Copy, "copy");
    let result = probe.call(&mut op, "verticadb.storage", true, || {
        db.copy(table, [batch])
    });
    let phases = probe.phases(&mut op, db.ledger());
    let modeled: f64 = phases.iter().map(|p| p.duration_secs).sum();
    let written: u64 = phases
        .iter()
        .flat_map(|p| &p.nodes)
        .map(|n| n.usage.disk_write_bytes)
        .sum();
    op.set_modeled_secs(modeled);
    probe.sample("wall.copy", op.wall_ms());
    if probe.traced() {
        probe.layers.add("storage.user_bytes", user_bytes);
        probe.layers.add("storage.written_bytes", written as f64);
    }
    let outcome = match result {
        Ok(n) if n == rows => Outcome::Ok,
        Ok(n) => Outcome::Wrong(format!("loaded {n} of {rows} rows")),
        Err(e) => Outcome::Error(e.to_string()),
    };
    probe.finish(op, outcome);
}

/// Run one SQL statement through the session as a timed op, then check its
/// answer. On traced passes the statement is also parsed on its own (the
/// `verticadb.sql` layer), its ledger phase is reconciled against the
/// statement's `sim_time`, and the check runs in its own span.
pub fn sql_op(
    probe: &mut Probe,
    session: &Session,
    label: &'static str,
    sql: &str,
    check: impl FnOnce(&Batch) -> Result<(), String>,
) {
    let mut op = probe.begin(Kind::Query, label);
    if probe.traced() {
        let parse = probe.call(&mut op, "verticadb.sql", false, || {
            let started = Instant::now();
            let _ = vdr_verticadb::sql::parse(sql);
            started.elapsed()
        });
        probe.sample("sql.parse_us", parse.as_secs_f64() * 1e6);
    }
    let result = probe.call(&mut op, "verticadb.exec", true, || session.sql(sql));
    let phases = probe.phases(&mut op, session.ledger());
    let outcome = match &result {
        Err(e) => Outcome::Error(e.to_string()),
        Ok(out) => {
            let modeled = out.sim_time.as_secs();
            op.set_modeled_secs(modeled);
            if probe.traced() {
                reconcile_statement(probe, label, out, &phases);
                probe.sample(&format!("wall.{label}"), op.wall_ms());
                probe.sample(&format!("modeled.{label}"), modeled * 1e3);
            }
            match probe.call(&mut op, "bench.check", false, || check(&out.batch)) {
                Ok(()) => Outcome::Ok,
                Err(why) => Outcome::Wrong(why),
            }
        }
    };
    probe.finish(op, outcome);
}

/// A statement's slowest-node phase duration from `Ledger::reports()` must
/// equal the `sim_time` the statement returned.
fn reconcile_statement(
    probe: &mut Probe,
    label: &str,
    out: &QueryOutput,
    phases: &[vdr_cluster::PhaseReport],
) {
    match phases.iter().find(|p| p.query_id == out.query_id) {
        None => probe.layers.reconcile_failures.push(format!(
            "{label}: no ledger phase for query {}",
            out.query_id
        )),
        Some(phase) => {
            let slowest = slowest_node_secs(phase);
            let sim = out.sim_time.as_secs();
            if (slowest - sim).abs() > 1e-12 * sim.max(1.0) {
                probe.layers.reconcile_failures.push(format!(
                    "{label}: slowest node {slowest} s != sim_time {sim} s"
                ));
            }
        }
    }
}

/// `rows` at data scale `scale`, at least `floor`.
pub fn scaled(rows: usize, scale: f64, floor: usize) -> usize {
    ((rows as f64 * scale).round() as usize).max(floor)
}

/// The position of a result cell's text among `labels`; an unknown label
/// is a check failure.
pub fn label_index(labels: &[&str], cell: &Value) -> Result<usize, String> {
    labels
        .iter()
        .position(|l| cell.as_str() == Some(*l))
        .ok_or_else(|| format!("unknown label {cell:?}"))
}

/// The order of `n` items for one pass: a seeded Fisher–Yates shuffle.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// splitmix64: a cheap, well-mixed hash for order-independent checksums.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of a string for checksums.
pub fn str_hash(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// An integer cell.
pub fn int_at(batch: &Batch, col: usize, row: usize) -> Result<i64, String> {
    match batch.column(col).get(row) {
        Value::Int64(v) => Ok(v),
        other => Err(format!(
            "row {row} col {col}: expected an integer, got {other:?}"
        )),
    }
}

/// A numeric cell.
pub fn num_at(batch: &Batch, col: usize, row: usize) -> Result<f64, String> {
    batch
        .column(col)
        .get(row)
        .as_f64()
        .ok_or_else(|| format!("row {row} col {col}: expected a number"))
}

/// Exact equality, as a check.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// Equality within a relative tolerance, as a check.
pub fn expect_close(what: &str, got: f64, want: f64, rel: f64) -> Result<(), String> {
    if (got - want).abs() <= rel * want.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want} (±{rel} relative)"))
    }
}

/// Expect a one-row result of numbers.
pub fn expect_row(batch: &Batch, want: &[f64]) -> Result<(), String> {
    expect_eq("rows", batch.num_rows(), 1)?;
    expect_eq("columns", batch.num_columns(), want.len())?;
    for (i, &w) in want.iter().enumerate() {
        expect_eq(&format!("column {i}"), num_at(batch, i, 0)?, w)?;
    }
    Ok(())
}

/// Encoded bytes per user (decoded) byte over every stored container, from
/// `v_monitor.storage_containers`.
pub fn encoded_bytes_per_user_byte(session: &Session) -> f64 {
    let sql = "SELECT encoded_bytes, decoded_bytes FROM v_monitor.storage_containers";
    let Ok(out) = session.sql(sql) else {
        return 0.0;
    };
    let sum = |c: usize| out.batch.column(c).to_f64_cow().iter().sum::<f64>();
    let decoded = sum(1);
    if decoded > 0.0 {
        sum(0) / decoded
    } else {
        0.0
    }
}
