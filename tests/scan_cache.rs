//! Acceptance tests for the scan path: projection pushdown decodes only the
//! referenced columns (observable through `exec.scan.cols_skipped`), a
//! repeated scan is served from the block cache with zero decode CPU
//! (observable through the ledger) whatever statement shape scanned it
//! first, a container's entry widens to every column asked of it without
//! making narrower statements pay more, and the cache invalidates on
//! append, drop, and re-create.
//!
//! The vdr-obs metrics are process-global, so the tests here serialize on
//! one lock, and one sequential story keeps the counter arithmetic exact.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use vertica_dr::cluster::{PhaseKind, PhaseRecorder, SimCluster};
use vertica_dr::columnar::encoding::Encoding;
use vertica_dr::columnar::{Batch, Column, DataType, Schema, Value};
use vertica_dr::core::{Session, SessionOptions};
use vertica_dr::verticadb::{
    Result as DbResult, Segmentation, TableDef, TransformFunction, UdxContext, VerticaDb,
};

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

    // ---- SELECT *: the narrow cached entries don't cover it, so every
    // container misses, decodes only the 5 columns its entry lacks (the
    // held `a` counts as skipped), and the entry widens to the whole block.
    let star = session.sql("SELECT * FROM w").unwrap();
    assert_eq!(star.batch.num_rows(), ROWS as usize);
    let m3 = session.metrics();
    let delta = m3.diff(&m2);
    assert_eq!(delta.counter_total("scan.cache.miss"), NODES);
    assert_eq!(delta.counter_total("exec.scan.cols_skipped"), NODES);

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

/// Alternating projections widen one entry per container instead of
/// replacing it: after `sum(a)` and `sum(b)`, a statement reading both is
/// served entirely from the cache.
#[test]
fn alternating_projections_widen_one_entry() {
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

    session.sql("SELECT sum(a) FROM w").unwrap();
    session.sql("SELECT sum(b) FROM w").unwrap();
    let before = session.metrics();
    let both = session.sql("SELECT sum(a), sum(b) FROM w").unwrap();
    let sum: f64 = (0..ROWS).map(|i| i as f64).sum();
    assert_eq!(
        both.batch.row(0),
        vec![Value::Float64(sum), Value::Float64(2.0 * sum)]
    );
    let delta = session.metrics().diff(&before);
    assert_eq!(delta.counter_total("scan.cache.hit"), NODES);
    assert_eq!(delta.counter_total("scan.cache.miss"), 0);
    assert_eq!(db.storage().block_cache().len(), NODES as usize);
    let last = session.ledger().reports().pop().unwrap();
    assert_eq!(last.name, "sql SELECT");
    assert_eq!(last.total_cpu_core_ns, 0.0, "served from the widened entry");
}

/// A transform that emits the number of rows it was handed.
struct CountRows;

impl TransformFunction for CountRows {
    fn name(&self) -> &str {
        "CountRows"
    }

    fn output_schema(
        &self,
        _input: &Schema,
        _params: &BTreeMap<String, String>,
    ) -> DbResult<Schema> {
        Ok(Schema::of(&[("rows", DataType::Int64)]))
    }

    fn process_partition(
        &self,
        _ctx: &UdxContext<'_>,
        input: Vec<Batch>,
        emit: &mut dyn FnMut(Batch),
    ) -> DbResult<()> {
        let rows = input.iter().map(|b| b.num_rows() as i64).sum();
        emit(Batch::new(
            Schema::of(&[("rows", DataType::Int64)]),
            vec![Column::from_i64(vec![rows])],
        )?);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// `t` has an RLE `k`, a dictionary `tag`, a plain `v` and a plain join and
/// group key `p`; `d` joins it on `p`, co-located.
fn encoded_tables() -> Arc<VerticaDb> {
    const N: i64 = 3000;
    let db = VerticaDb::new(SimCluster::for_tests(NODES as usize));
    db.udx().register(Arc::new(CountRows));
    let t = Batch::new(
        Schema::of(&[
            ("k", DataType::Int64),
            ("tag", DataType::Varchar),
            ("v", DataType::Float64),
            ("p", DataType::Int64),
        ]),
        vec![
            Column::from_i64((0..N).map(|i| i / 500).collect()),
            Column::from_strings((0..N).map(|i| format!("tag{}", i % 4)).collect()),
            Column::from_f64((0..N).map(|i| i as f64 * 0.5).collect()),
            Column::from_i64((0..N).map(|i| (i * 7919) % 101).collect()),
        ],
    )
    .unwrap();
    let d = Batch::new(
        Schema::of(&[("p", DataType::Int64), ("w", DataType::Float64)]),
        vec![
            Column::from_i64((0..101).collect()),
            Column::from_f64((0..101).map(|i| i as f64).collect()),
        ],
    )
    .unwrap();
    for (name, batch) in [("t", t), ("d", d)] {
        db.create_table(TableDef {
            name: name.into(),
            schema: batch.schema().clone(),
            segmentation: Segmentation::Hash { column: "p".into() },
        })
        .unwrap();
        db.copy(name, vec![batch]).unwrap();
    }
    let encodings: Vec<Encoding> = db.storage().containers("t", vertica_dr::cluster::NodeId(0))[0]
        .columns
        .iter()
        .map(|c| c.encoding)
        .collect();
    assert_eq!(encodings[..2], [Encoding::Rle, Encoding::Dictionary]);
    assert!(
        !encodings[2..].contains(&Encoding::Rle) && !encodings[2..].contains(&Encoding::Dictionary)
    );
    db
}

/// Ledger CPU of one statement, and the cache hits and misses it counted.
fn run_charged(db: &VerticaDb, sql: &str) -> (f64, u64, u64) {
    let cache = db.storage().block_cache();
    let (hits, misses) = (cache.hits(), cache.misses());
    let rec = Arc::new(PhaseRecorder::new(
        "t",
        PhaseKind::Sequential,
        NODES as usize,
    ));
    db.query_with(sql, &rec).unwrap();
    let Ok(rec) = Arc::try_unwrap(rec) else {
        panic!("the statement still holds its recorder")
    };
    let cpu = rec.finish(db.cluster().profile()).total_cpu_core_ns;
    (cpu, cache.hits() - hits, cache.misses() - misses)
}

/// Widening an entry with an RLE and a dictionary column costs a statement
/// that reads neither nothing extra: each consumer materializes only its own
/// columns, whatever else the entry holds.
#[test]
fn wider_entry_costs_a_consumer_nothing_extra() {
    let _guard = metrics_lock();
    for (sql, tables) in [
        ("SELECT v FROM t WHERE v < 400", 1),
        ("SELECT p, sum(v) FROM t GROUP BY p", 1),
        (
            "SELECT count(*), sum(t.v), sum(d.w) FROM t JOIN d ON t.p = d.p",
            2,
        ),
        ("SELECT CountRows(v) OVER (PARTITION BEST) FROM t", 1),
    ] {
        let db = encoded_tables();
        run_charged(&db, sql);
        let (warm, hits, misses) = run_charged(&db, sql);
        assert_eq!((hits, misses), (NODES * tables, 0), "{sql}");
        // Widen every `t` entry with `k`, then with `tag`.
        for widen in [
            "SELECT max(k) FROM t",
            "SELECT count(*) FROM t WHERE tag = 'tag1'",
        ] {
            let (_, hits, misses) = run_charged(&db, widen);
            assert_eq!((hits, misses), (0, NODES), "{widen}");
        }
        let (again, hits, misses) = run_charged(&db, sql);
        assert_eq!(
            (hits, misses),
            (NODES * tables, 0),
            "{sql}: hits every node"
        );
        assert_eq!(again, warm, "{sql}: the wider entry changed the charge");
    }
}
