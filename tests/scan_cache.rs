//! Acceptance tests for the scan path: projection pushdown decodes only the
//! referenced columns (observable through `exec.scan.cols_skipped`), a
//! repeated scan is served from the block cache with zero decode CPU
//! (observable through the ledger) whatever statement shape scanned it
//! first, and the cache invalidates on append, drop, and re-create.
//!
//! The vdr-obs metrics are process-global, so the tests here serialize on
//! one lock, and one sequential story keeps the counter arithmetic exact.

use std::sync::{Arc, Mutex, MutexGuard};
use vertica_dr::cluster::{PhaseKind, PhaseRecorder, SimCluster};
use vertica_dr::columnar::{Batch, Column, DataType, Schema, Value};
use vertica_dr::core::{Session, SessionOptions};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

const NODES: u64 = 3;
const ROWS: i64 = 300;
const COLS: u64 = 6; // id + a..e

fn metrics_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn wide_batch(rows: i64) -> Batch {
    let f = |scale: f64| Column::from_f64((0..rows).map(|i| i as f64 * scale).collect());
    Batch::new(
        Schema::of(&[
            ("id", DataType::Int64),
            ("a", DataType::Float64),
            ("b", DataType::Float64),
            ("c", DataType::Float64),
            ("d", DataType::Float64),
            ("e", DataType::Float64),
        ]),
        vec![
            Column::from_i64((0..rows).collect()),
            f(1.0),
            f(2.0),
            f(3.0),
            f(4.0),
            f(5.0),
        ],
    )
    .unwrap()
}

#[test]
fn projection_skips_columns_and_cache_skips_decode() {
    let _guard = metrics_lock();
    let db = VerticaDb::new(SimCluster::for_tests(NODES as usize));
    db.create_table(TableDef {
        name: "w".into(),
        schema: wide_batch(1).schema().clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    db.copy("w", vec![wide_batch(ROWS)]).unwrap();

    let session = Session::connect_colocated(Arc::clone(&db), SessionOptions::default()).unwrap();
    let narrow = "SELECT sum(a) FROM w";
    let expected_sum = Value::Float64((0..ROWS).map(|i| i as f64).sum());

    // ---- cold narrow query: 1-of-6 columns decoded per container. One
    // container per node, so 5 skipped columns per node.
    let cold = session.sql(narrow).unwrap();
    assert_eq!(cold.batch.row(0)[0], expected_sum);
    let m1 = session.metrics();
    assert_eq!(
        m1.counter_total("exec.scan.cols_skipped"),
        (COLS - 1) * NODES
    );
    assert_eq!(m1.counter_total("scan.cache.miss"), NODES);
    assert_eq!(m1.counter_total("scan.cache.hit"), 0);
    assert!(
        m1.histogram_total("scan.decode.ns_per_value").is_some(),
        "decode throughput must be observable"
    );

    // ---- warm narrow query: pure cache hits — no decode at all, so no
    // skip counting, and the ledger charges zero CPU but still a cached
    // re-read of every container.
    let warm = session.sql(narrow).unwrap();
    assert_eq!(warm.batch.row(0)[0], expected_sum);
    let m2 = session.metrics();
    let delta = m2.diff(&m1);
    assert_eq!(delta.counter_total("scan.cache.hit"), NODES);
    assert_eq!(delta.counter_total("scan.cache.miss"), 0);
    assert_eq!(delta.counter_total("exec.scan.cols_skipped"), 0);
    let selects: Vec<_> = session
        .ledger()
        .reports()
        .into_iter()
        .filter(|r| r.name == "sql SELECT")
        .collect();
    assert_eq!(selects.len(), 2);
    assert_eq!(
        selects[1].total_cpu_core_ns, 0.0,
        "a fully cached scan must not charge decode CPU"
    );
    assert!(selects[1].total_cpu_core_ns < selects[0].total_cpu_core_ns);
    assert!(
        selects[1].total_disk_read > 0,
        "cache hits still pay the memory-speed re-read"
    );
    assert!(warm.sim_time <= cold.sim_time);

    // ---- SELECT *: the narrow cached entries don't cover a full decode,
    // so every container re-decodes (and the wider entries replace them).
    let star = session.sql("SELECT * FROM w").unwrap();
    assert_eq!(star.batch.num_rows(), ROWS as usize);
    let m3 = session.metrics();
    let delta = m3.diff(&m2);
    assert_eq!(delta.counter_total("scan.cache.miss"), NODES);
    assert_eq!(delta.counter_total("exec.scan.cols_skipped"), 0);

    // ---- narrow again: the full entries cover any projection.
    session.sql(narrow).unwrap();
    let m4 = session.metrics();
    let delta = m4.diff(&m3);
    assert_eq!(delta.counter_total("scan.cache.hit"), NODES);
    assert_eq!(delta.counter_total("scan.cache.miss"), 0);

    // ---- append: the new container misses while the old ones still hit.
    session
        .sql("INSERT INTO w VALUES (999, 1.5, 0.0, 0.0, 0.0, 0.0)")
        .unwrap();
    let appended = session.sql(narrow).unwrap();
    assert_eq!(
        appended.batch.row(0)[0],
        Value::Float64((0..ROWS).map(|i| i as f64).sum::<f64>() + 1.5)
    );
    let m5 = session.metrics();
    let delta = m5.diff(&m4);
    assert_eq!(delta.counter_total("scan.cache.hit"), NODES);
    assert_eq!(delta.counter_total("scan.cache.miss"), 1);
    assert_eq!(delta.counter_total("exec.scan.cols_skipped"), COLS - 1);

    // ---- drop: every cached entry for the table is purged (3 full
    // containers + 1 narrow from the append).
    session.sql("DROP TABLE w").unwrap();
    let delta = session.metrics().diff(&m5);
    assert_eq!(delta.counter_total("scan.cache.invalidated"), NODES + 1);
    assert!(db.storage().block_cache().is_empty());

    // ---- re-create under the same name with different data: container
    // paths repeat from c000000, yet no stale batch may survive.
    db.create_table(TableDef {
        name: "w".into(),
        schema: wide_batch(1).schema().clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    db.copy("w", vec![wide_batch(30)]).unwrap();
    let fresh = session.sql(narrow).unwrap();
    assert_eq!(
        fresh.batch.row(0)[0],
        Value::Float64((0..30).map(|i| i as f64).sum())
    );
}

/// A statement reuses what any earlier statement scanned: a filtered scan
/// and a sort over the same columns share one cache entry per container.
#[test]
fn filtered_and_sorted_scans_share_cache_entries() {
    let _guard = metrics_lock();
    let db = VerticaDb::new(SimCluster::for_tests(NODES as usize));
    db.query("CREATE TABLE t (grp INTEGER, x FLOAT)").unwrap();
    let values: Vec<String> = (0..600)
        .map(|i| format!("({}, {}.5)", (i * 7) % 50, i))
        .collect();
    db.query(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    let cache = db.storage().block_cache();

    db.query("SELECT grp, x FROM t WHERE grp = 1").unwrap();
    let (hits, misses) = (cache.hits(), cache.misses());
    assert_eq!(misses, NODES, "one cold container per node");

    let rec = Arc::new(PhaseRecorder::new(
        "t",
        PhaseKind::Sequential,
        NODES as usize,
    ));
    let top = db
        .query_with("SELECT grp, x FROM t ORDER BY x LIMIT 5", &rec)
        .unwrap();
    assert_eq!(top.row(0), vec![Value::Int64(0), Value::Float64(0.5)]);
    assert_eq!(cache.hits() - hits, NODES);
    assert_eq!(cache.misses(), misses);
    let Ok(rec) = Arc::try_unwrap(rec) else {
        panic!("the statement still holds its recorder")
    };
    let report = rec.finish(db.cluster().profile());
    assert_eq!(
        report.total_cpu_core_ns, 0.0,
        "a cached scan decodes nothing"
    );
}
