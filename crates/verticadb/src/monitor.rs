//! The `v_monitor` virtual schema: monitoring state exposed as tables.
//!
//! Vertica answers "what is the database doing?" with SQL — the `V_MONITOR`
//! schema and Data Collector tables the paper's evaluation reads its
//! per-operator statistics from. This module is that surface for our
//! engine: a [`SystemTableProvider`] materializes a [`Batch`] on demand,
//! and the executor resolves any `FROM v_monitor.<name>` through the
//! [`Monitor`] registry instead of the catalog, so the ordinary
//! `SELECT ... WHERE ... ORDER BY` machinery (projection pushdown,
//! predicate kernels, sorts) runs unchanged over telemetry.
//!
//! Built-in tables:
//!
//! | table                       | contents                                  |
//! |-----------------------------|-------------------------------------------|
//! | `query_requests`            | per-query history (ring of last 1024)     |
//! | `execution_engine_profiles` | per-query, per-node, per-phase counters   |
//! | `metrics`                   | live counter/gauge/histogram snapshot     |
//! |                             | (histograms with p50/p90/p99/p999)        |
//! | `spans`                     | the vdr-obs trace ring                    |
//! | `events`                    | the vdr-obs structured event log          |
//! | `slow_requests`             | statements over the slow-query threshold  |
//! | `storage_containers`        | ROS containers per table/node/column with |
//! |                             | encoding + encoded/decoded byte sizes     |
//! | `block_cache`               | block cache stats                         |
//! | `dfs_objects`               | DFS object store listing                  |
//! | `model_cache`               | prediction model cache stats (registered  |
//! |                             | by `vdr-core` alongside the UDx funcs)    |
//! | `dc_metrics_by_tick`        | data-collector per-tick metric deltas     |
//! | `dc_resource_usage`         | data-collector per-tick ledger readings   |
//! | `dc_query_summaries`        | per-tick query rollups with rolling       |
//! |                             | p50/p90/p99 latency                       |
//!
//! System tables are **cluster-wide**: the executor resolves them through
//! [`Monitor::materialize_cluster`], which asks every node for its share of
//! the rows ([`SystemTableProvider::batch_on`]), streams the encoded blocks
//! to the initiator over the same length-prefixed framing the VFT data path
//! uses (`vdr_cluster::gather_framed`), and unions them with a trailing
//! `node_name` column — so `SELECT node_name, ... FROM v_monitor.<t>` shows
//! which node produced each row, like Vertica's `v_monitor` does. Tables
//! whose state lives only on the initiator (query history, slow requests,
//! DFS metadata, DC rollups) keep the default `batch_on`: node 0 produces,
//! other nodes send nothing.

use crate::db::VerticaDb;
use crate::error::{DbError, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use vdr_cluster::{gather_framed, ClusterError, NodeId, PhaseRecorder, PhaseReport};
use vdr_columnar::{
    decode_batch, encode_batch, Batch, Column, ColumnBuilder, DataType, Field, Schema, Value,
};
use vdr_obs::{MetricValue, MetricsSnapshot, SpanRecord};

/// The virtual schema name system tables live under.
pub const V_MONITOR_SCHEMA: &str = "v_monitor";

/// The default query-history ring capacity: the last N completed (or
/// failed) statements. Runtime-configurable via
/// [`QueryHistory::set_capacity`]; older entries are evicted, counted on
/// `obs.query_history.evicted`, and reported as `query.history.evicted`
/// structured events.
pub const QUERY_HISTORY_CAPACITY: usize = 1024;

/// The slow-request ring keeps the last N statements that crossed the
/// slow-query threshold.
pub const SLOW_REQUESTS_CAPACITY: usize = 256;

/// Default slow-query threshold: 25ms of real (wall) execution time. The
/// simulated clock is not used here — slow-query detection is about what
/// the *host* actually spent, which is what an operator tuning the
/// reproduction cares about.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 25_000_000;

/// If `name` is `v_monitor.<table>` (case-insensitive), the bare table name.
pub fn v_monitor_table(name: &str) -> Option<&str> {
    let (schema, table) = name.split_once('.')?;
    schema
        .eq_ignore_ascii_case(V_MONITOR_SCHEMA)
        .then_some(table)
}

/// One completed statement in the query history.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The query id allocated for the statement (see `vdr_obs::query`).
    pub id: u64,
    /// SQL text, or the statement label when executed pre-parsed.
    pub sql: String,
    /// `complete`, or `error: <message>`.
    pub status: String,
    /// Simulated execution time, seconds.
    pub sim_secs: f64,
    /// Real (host) execution time, nanoseconds.
    pub wall_ns: u64,
    /// Rows in the statement's result batch.
    pub rows: u64,
    /// Bytes in the statement's result batch.
    pub bytes: u64,
    /// The ledger phases this statement produced.
    pub phases: Vec<PhaseReport>,
    /// Metrics activity during the statement (snapshot diff).
    pub metrics_delta: MetricsSnapshot,
}

/// Bounded ring of recent [`QueryRecord`]s.
pub struct QueryHistory {
    entries: Mutex<VecDeque<QueryRecord>>,
    capacity: AtomicUsize,
}

impl QueryHistory {
    pub fn new() -> Self {
        QueryHistory::with_capacity(QUERY_HISTORY_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        QueryHistory {
            entries: Mutex::new(VecDeque::new()),
            capacity: AtomicUsize::new(capacity),
        }
    }

    /// The current retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Change the retention bound at runtime; an over-capacity ring is
    /// trimmed (and the trim counted) immediately.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        let len = entries.len();
        Self::trim(&mut entries, capacity);
        drop(entries);
        if len > capacity {
            vdr_obs::event(
                "query.history.evicted",
                format!(
                    "trimmed {} records on set_capacity({capacity})",
                    len - capacity
                ),
            );
        }
    }

    fn trim(entries: &mut VecDeque<QueryRecord>, capacity: usize) {
        while entries.len() > capacity {
            entries.pop_front();
            vdr_obs::counter("obs.query_history.evicted", 1);
        }
    }

    /// Append a record, evicting the oldest past capacity.
    pub fn record(&self, record: QueryRecord) {
        let capacity = self.capacity();
        let mut entries = self.entries.lock();
        let evicted_id = (entries.len() >= capacity)
            .then(|| entries.front().map(|r| r.id))
            .flatten();
        entries.push_back(record);
        Self::trim(&mut entries, capacity);
        drop(entries);
        if let Some(id) = evicted_id {
            vdr_obs::event(
                "query.history.evicted",
                format!("query_id={id} dropped from history ring (capacity {capacity})"),
            );
        }
    }

    pub fn snapshot(&self) -> Vec<QueryRecord> {
        self.entries.lock().iter().cloned().collect()
    }

    pub fn get(&self, id: u64) -> Option<QueryRecord> {
        self.entries
            .lock()
            .iter()
            .rev()
            .find(|r| r.id == id)
            .cloned()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

impl Default for QueryHistory {
    fn default() -> Self {
        QueryHistory::new()
    }
}

/// A virtual table: materializes its rows on demand. Providers must be
/// cheap to call repeatedly and must not execute SQL (the executor calls
/// them mid-statement).
pub trait SystemTableProvider: Send + Sync {
    /// Bare table name under `v_monitor.` (lowercase).
    fn name(&self) -> &str;
    /// Materialize the table's current contents.
    fn batch(&self, db: &VerticaDb) -> Result<Batch>;
    /// The rows *node* contributes to the cluster-wide union
    /// ([`Monitor::materialize_cluster`]). `None` means the node sends no
    /// frames — the default keeps initiator-resident tables (query history,
    /// slow requests, DFS metadata) cheap: only node 0 produces, everyone
    /// else stays silent on the wire.
    fn batch_on(&self, db: &VerticaDb, node: NodeId) -> Result<Option<Batch>> {
        if node.0 == 0 {
            self.batch(db).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// One statement that crossed the slow-query threshold.
#[derive(Debug, Clone)]
pub struct SlowRequest {
    pub id: u64,
    pub sql: String,
    /// Real (host) execution time, nanoseconds.
    pub wall_ns: u64,
    /// Simulated execution time, seconds.
    pub sim_secs: f64,
    /// The threshold in force when the statement was recorded.
    pub threshold_ns: u64,
}

/// The registry of system-table providers plus the query history.
pub struct Monitor {
    providers: RwLock<BTreeMap<String, Arc<dyn SystemTableProvider>>>,
    history: QueryHistory,
    slow_threshold_ns: AtomicU64,
    slow: Mutex<VecDeque<SlowRequest>>,
}

impl Monitor {
    /// A registry pre-loaded with the built-in providers.
    pub fn new() -> Self {
        let m = Monitor {
            providers: RwLock::new(BTreeMap::new()),
            history: QueryHistory::new(),
            slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
            slow: Mutex::new(VecDeque::new()),
        };
        m.register(Arc::new(QueryRequestsTable));
        m.register(Arc::new(ExecutionEngineProfilesTable));
        m.register(Arc::new(MetricsTable));
        m.register(Arc::new(SpansTable));
        m.register(Arc::new(EventsTable));
        m.register(Arc::new(SlowRequestsTable));
        m.register(Arc::new(StorageContainersTable));
        m.register(Arc::new(BlockCacheTable));
        m.register(Arc::new(DfsObjectsTable));
        m.register(Arc::new(DcMetricsByTickTable));
        m.register(Arc::new(DcResourceUsageTable));
        m.register(Arc::new(DcQuerySummariesTable));
        m
    }

    /// The wall-time threshold (nanoseconds) past which a statement is
    /// recorded into `v_monitor.slow_requests`.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Change the slow-query threshold (nanoseconds of wall time).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Record a statement that crossed the threshold (called by the tracked
    /// execution path in `db.rs`).
    pub fn record_slow(&self, record: &QueryRecord, threshold_ns: u64) {
        let mut slow = self.slow.lock();
        if slow.len() >= SLOW_REQUESTS_CAPACITY {
            slow.pop_front();
        }
        slow.push_back(SlowRequest {
            id: record.id,
            sql: record.sql.clone(),
            wall_ns: record.wall_ns,
            sim_secs: record.sim_secs,
            threshold_ns,
        });
    }

    /// The retained slow requests, oldest first.
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.slow.lock().iter().cloned().collect()
    }

    /// Add (or replace) a provider. Other crates hook their own state in
    /// this way — `vdr-core` registers `model_cache` when it installs the
    /// prediction functions.
    pub fn register(&self, provider: Arc<dyn SystemTableProvider>) {
        self.providers
            .write()
            .insert(provider.name().to_ascii_lowercase(), provider);
    }

    pub fn history(&self) -> &QueryHistory {
        &self.history
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.providers.read().keys().cloned().collect()
    }

    /// Materialize `v_monitor.<table>`.
    pub fn materialize(&self, table: &str, db: &VerticaDb) -> Result<Batch> {
        self.provider(table)?.batch(db)
    }

    fn provider(&self, table: &str) -> Result<Arc<dyn SystemTableProvider>> {
        self.providers
            .read()
            .get(&table.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| {
                DbError::Plan(format!("unknown system table '{V_MONITOR_SCHEMA}.{table}'"))
            })
    }

    /// Materialize `v_monitor.<table>` as the union across all cluster
    /// nodes: every node runs the provider's [`SystemTableProvider::batch_on`]
    /// for itself, encodes the rows into a block, and streams it to the
    /// initiator over the same 16-byte-header/length-prefixed framing the
    /// VFT path uses (`vdr_cluster::gather_framed`). The initiator decodes
    /// and concatenates, appending a `node_name` column naming the producing
    /// node. Network bytes and encode/decode CPU are charged to `rec`.
    pub fn materialize_cluster(
        &self,
        table: &str,
        db: &VerticaDb,
        rec: &Arc<PhaseRecorder>,
    ) -> Result<Batch> {
        let provider = self.provider(table)?;
        let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
        let stage_key = format!("monitor.fetch.{}", provider.name());
        let gathered = gather_framed(db.cluster(), rec, &stage_key, |node| {
            let batch = provider
                .batch_on(db, node.id())
                .map_err(|e| ClusterError::Io(format!("system table produce: {e}")))?;
            Ok(match batch {
                Some(batch) if batch.num_rows() > 0 => {
                    rec.cpu_work(node.id(), batch.num_values() as f64, scan_cost);
                    vec![encode_batch(&batch)]
                }
                _ => Vec::new(),
            })
        })?;
        let initiator = NodeId(0);
        let mut parts: Vec<Batch> = Vec::new();
        for (node, frames) in gathered.into_iter().enumerate() {
            for frame in frames {
                let batch = decode_batch(&frame)?;
                rec.cpu_work(initiator, batch.num_values() as f64, scan_cost);
                parts.push(with_node_name(&batch, node)?);
            }
        }
        match parts.first() {
            // A table nobody contributed to still needs its schema: take the
            // provider's initiator-side shape (empty) and tag it.
            None => with_node_name(&provider.batch(db)?.slice(0, 0), 0),
            Some(first) => {
                let schema = first.schema().clone();
                Ok(Batch::concat(schema, &parts)?)
            }
        }
    }
}

/// The display name of a cluster node in `v_monitor` output, matching
/// Vertica's `v_<dbname>_nodeNNNN` convention.
pub fn node_name(node: usize) -> String {
    format!("v_vdr_node{:04}", node + 1)
}

/// `batch` with a trailing `node_name` Varchar column naming `node`.
fn with_node_name(batch: &Batch, node: usize) -> Result<Batch> {
    let mut fields = batch.schema().fields().to_vec();
    fields.push(Field::new("node_name".to_string(), DataType::Varchar));
    let mut columns = batch.columns().to_vec();
    columns.push(Column::from_strings(vec![
        node_name(node);
        batch.num_rows()
    ]));
    Ok(Batch::new(Schema::new(fields), columns)?)
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor::new()
    }
}

/// Build a batch from `(name, type, builder-fill)` columns with equal row
/// counts — the common shape of every provider below.
struct Rows {
    fields: Vec<Field>,
    builders: Vec<ColumnBuilder>,
}

impl Rows {
    fn new(cols: &[(&str, DataType)]) -> Self {
        Rows {
            fields: cols
                .iter()
                .map(|(n, t)| Field::new(n.to_string(), *t))
                .collect(),
            builders: cols.iter().map(|(_, t)| ColumnBuilder::new(*t)).collect(),
        }
    }

    fn push(&mut self, row: Vec<Value>) -> Result<()> {
        debug_assert_eq!(row.len(), self.builders.len());
        for (builder, value) in self.builders.iter_mut().zip(row) {
            match value {
                Value::Null => builder.push_null(),
                v => builder.push(v)?,
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Batch> {
        let columns = self.builders.into_iter().map(|b| b.finish()).collect();
        Ok(Batch::new(Schema::new(self.fields), columns)?)
    }
}

fn opt_node(node: Option<usize>) -> Value {
    match node {
        Some(n) => Value::Int64(n as i64),
        None => Value::Null,
    }
}

// ------------------------------------------------------ built-in providers

struct QueryRequestsTable;

impl SystemTableProvider for QueryRequestsTable {
    fn name(&self) -> &str {
        "query_requests"
    }

    fn batch(&self, db: &VerticaDb) -> Result<Batch> {
        let mut rows = Rows::new(&[
            ("query_id", DataType::Int64),
            ("sql", DataType::Varchar),
            ("status", DataType::Varchar),
            ("sim_us", DataType::Float64),
            ("wall_us", DataType::Float64),
            ("rows", DataType::Int64),
            ("bytes", DataType::Int64),
        ]);
        for r in db.monitor().history().snapshot() {
            rows.push(vec![
                Value::Int64(r.id as i64),
                Value::Varchar(r.sql),
                Value::Varchar(r.status),
                Value::Float64(r.sim_secs * 1e6),
                Value::Float64(r.wall_ns as f64 / 1e3),
                Value::Int64(r.rows as i64),
                Value::Int64(r.bytes as i64),
            ])?;
        }
        rows.finish()
    }
}

struct ExecutionEngineProfilesTable;

impl ExecutionEngineProfilesTable {
    fn rows(db: &VerticaDb, keep: impl Fn(usize) -> bool) -> Result<Batch> {
        let mut rows = Rows::new(&[
            ("query_id", DataType::Int64),
            ("phase", DataType::Varchar),
            ("node", DataType::Int64),
            ("sim_us", DataType::Float64),
            ("disk_read_bytes", DataType::Int64),
            ("disk_cached_read_bytes", DataType::Int64),
            ("disk_write_bytes", DataType::Int64),
            ("net_in_bytes", DataType::Int64),
            ("net_out_bytes", DataType::Int64),
            ("cpu_core_ns", DataType::Float64),
        ]);
        for r in db.monitor().history().snapshot() {
            for phase in &r.phases {
                // Phases recorded before attribution existed (or synthetic
                // ones) carry 0; fall back to the owning query's id.
                let qid = if phase.query_id != 0 {
                    phase.query_id
                } else {
                    r.id
                };
                for n in &phase.nodes {
                    if !keep(n.node) {
                        continue;
                    }
                    rows.push(vec![
                        Value::Int64(qid as i64),
                        Value::Varchar(phase.name.clone()),
                        Value::Int64(n.node as i64),
                        Value::Float64(n.duration_secs * 1e6),
                        Value::Int64(n.usage.disk_read_bytes as i64),
                        Value::Int64(n.usage.disk_cached_read_bytes as i64),
                        Value::Int64(n.usage.disk_write_bytes as i64),
                        Value::Int64(n.usage.net_in_bytes as i64),
                        Value::Int64(n.usage.net_out_bytes as i64),
                        Value::Float64(n.usage.cpu_core_ns),
                    ])?;
                }
            }
        }
        rows.finish()
    }
}

impl SystemTableProvider for ExecutionEngineProfilesTable {
    fn name(&self) -> &str {
        "execution_engine_profiles"
    }

    fn batch(&self, db: &VerticaDb) -> Result<Batch> {
        ExecutionEngineProfilesTable::rows(db, |_| true)
    }

    fn batch_on(&self, db: &VerticaDb, node: NodeId) -> Result<Option<Batch>> {
        // The history lives on the initiator, but each node "owns" its
        // per-node phase rows in the cluster union.
        ExecutionEngineProfilesTable::rows(db, |n| n == node.0).map(Some)
    }
}

struct MetricsTable;

impl MetricsTable {
    /// Rows for the metric entries `keep` selects (by node label).
    fn rows(keep: impl Fn(Option<usize>) -> bool) -> Result<Batch> {
        let snap = vdr_obs::global().metrics().snapshot();
        let mut rows = Rows::new(&[
            ("name", DataType::Varchar),
            ("node", DataType::Int64),
            ("kind", DataType::Varchar),
            ("value", DataType::Float64),
            ("p50", DataType::Float64),
            ("p90", DataType::Float64),
            ("p99", DataType::Float64),
            ("p999", DataType::Float64),
        ]);
        for (key, value) in snap.iter() {
            if !keep(key.node) {
                continue;
            }
            // The scalar `value` is the count for histograms; the
            // percentile columns carry the distribution (NULL for
            // counters/gauges, which have none).
            let (kind, v, pcts) = match value {
                MetricValue::Counter(c) => (
                    "counter",
                    *c as f64,
                    [Value::Null, Value::Null, Value::Null, Value::Null],
                ),
                MetricValue::Gauge(g) => (
                    "gauge",
                    *g,
                    [Value::Null, Value::Null, Value::Null, Value::Null],
                ),
                MetricValue::Histogram(h) => (
                    "histogram",
                    h.count as f64,
                    [
                        Value::Float64(h.p50()),
                        Value::Float64(h.p90()),
                        Value::Float64(h.p99()),
                        Value::Float64(h.p999()),
                    ],
                ),
            };
            let [p50, p90, p99, p999] = pcts;
            rows.push(vec![
                Value::Varchar(key.name.clone()),
                opt_node(key.node),
                Value::Varchar(kind.to_string()),
                Value::Float64(v),
                p50,
                p90,
                p99,
                p999,
            ])?;
        }
        rows.finish()
    }
}

impl SystemTableProvider for MetricsTable {
    fn name(&self) -> &str {
        "metrics"
    }

    fn batch(&self, _db: &VerticaDb) -> Result<Batch> {
        MetricsTable::rows(|_| true)
    }

    fn batch_on(&self, _db: &VerticaDb, node: NodeId) -> Result<Option<Batch>> {
        // Node-labelled entries belong to their node; unlabelled (global /
        // initiator-side) entries ride on node 0.
        MetricsTable::rows(|n| n == Some(node.0) || (node.0 == 0 && n.is_none())).map(Some)
    }
}

struct SpansTable;

impl SpansTable {
    fn rows(keep: impl Fn(Option<usize>) -> bool) -> Result<Batch> {
        let mut rows = Rows::new(&[
            ("span_id", DataType::Int64),
            ("parent_id", DataType::Int64),
            ("query_id", DataType::Int64),
            ("name", DataType::Varchar),
            ("node", DataType::Int64),
            ("start_seq", DataType::Int64),
            ("wall_ns", DataType::Int64),
            ("sim_us", DataType::Float64),
            ("fields", DataType::Varchar),
        ]);
        for s in vdr_obs::global().trace().snapshot() {
            if !keep(s.node) {
                continue;
            }
            let fields = s
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            rows.push(vec![
                Value::Int64(s.id as i64),
                Value::Int64(s.parent as i64),
                Value::Int64(s.query_id as i64),
                Value::Varchar(s.name),
                opt_node(s.node),
                Value::Int64(s.start_seq as i64),
                Value::Int64(s.wall_ns as i64),
                Value::Float64(s.sim_secs * 1e6),
                Value::Varchar(fields),
            ])?;
        }
        rows.finish()
    }
}

impl SystemTableProvider for SpansTable {
    fn name(&self) -> &str {
        "spans"
    }

    fn batch(&self, _db: &VerticaDb) -> Result<Batch> {
        SpansTable::rows(|_| true)
    }

    fn batch_on(&self, _db: &VerticaDb, node: NodeId) -> Result<Option<Batch>> {
        SpansTable::rows(|n| n == Some(node.0) || (node.0 == 0 && n.is_none())).map(Some)
    }
}

struct EventsTable;

impl EventsTable {
    fn rows(keep: impl Fn(Option<usize>) -> bool) -> Result<Batch> {
        let mut rows = Rows::new(&[
            ("seq", DataType::Int64),
            ("ts_ms", DataType::Float64),
            ("kind", DataType::Varchar),
            ("node", DataType::Int64),
            ("query_id", DataType::Int64),
            ("detail", DataType::Varchar),
        ]);
        for e in vdr_obs::global().events().snapshot() {
            if !keep(e.node) {
                continue;
            }
            rows.push(vec![
                Value::Int64(e.seq as i64),
                Value::Float64(e.ts_ns as f64 / 1e6),
                Value::Varchar(e.kind),
                opt_node(e.node),
                Value::Int64(e.query_id as i64),
                Value::Varchar(e.detail),
            ])?;
        }
        rows.finish()
    }
}

impl SystemTableProvider for EventsTable {
    fn name(&self) -> &str {
        "events"
    }

    fn batch(&self, _db: &VerticaDb) -> Result<Batch> {
        EventsTable::rows(|_| true)
    }

    fn batch_on(&self, _db: &VerticaDb, node: NodeId) -> Result<Option<Batch>> {
        EventsTable::rows(|n| n == Some(node.0) || (node.0 == 0 && n.is_none())).map(Some)
    }
}

struct SlowRequestsTable;

impl SystemTableProvider for SlowRequestsTable {
    fn name(&self) -> &str {
        "slow_requests"
    }

    fn batch(&self, db: &VerticaDb) -> Result<Batch> {
        let mut rows = Rows::new(&[
            ("query_id", DataType::Int64),
            ("sql", DataType::Varchar),
            ("wall_ms", DataType::Float64),
            ("sim_us", DataType::Float64),
            ("threshold_ms", DataType::Float64),
        ]);
        for r in db.monitor().slow_requests() {
            rows.push(vec![
                Value::Int64(r.id as i64),
                Value::Varchar(r.sql),
                Value::Float64(r.wall_ns as f64 / 1e6),
                Value::Float64(r.sim_secs * 1e6),
                Value::Float64(r.threshold_ns as f64 / 1e6),
            ])?;
        }
        rows.finish()
    }
}

struct StorageContainersTable;

impl StorageContainersTable {
    fn rows(db: &VerticaDb, nodes: std::ops::Range<usize>) -> Result<Batch> {
        // One row per container × column: per-column encoding choice and the
        // encoded-vs-decoded byte sizes make compression wins inspectable
        // from SQL. `bytes`/`crc32` describe the whole container block and
        // repeat on each of its column rows.
        let mut rows = Rows::new(&[
            ("table_name", DataType::Varchar),
            ("node", DataType::Int64),
            ("path", DataType::Varchar),
            ("rows", DataType::Int64),
            ("column_name", DataType::Varchar),
            ("encoding", DataType::Varchar),
            ("encoded_bytes", DataType::Int64),
            ("decoded_bytes", DataType::Int64),
            ("bytes", DataType::Int64),
            ("crc32", DataType::Int64),
        ]);
        for table in db.catalog().table_names() {
            for node in nodes.clone() {
                for c in db.storage().containers(&table, NodeId(node)) {
                    for col in &c.columns {
                        rows.push(vec![
                            Value::Varchar(table.clone()),
                            Value::Int64(node as i64),
                            Value::Varchar(c.path.clone()),
                            Value::Int64(c.rows as i64),
                            Value::Varchar(col.name.clone()),
                            Value::Varchar(format!("{:?}", col.encoding).to_lowercase()),
                            Value::Int64(col.encoded_bytes as i64),
                            Value::Int64(col.decoded_bytes as i64),
                            Value::Int64(c.bytes as i64),
                            Value::Int64(c.crc as i64),
                        ])?;
                    }
                }
            }
        }
        rows.finish()
    }
}

impl SystemTableProvider for StorageContainersTable {
    fn name(&self) -> &str {
        "storage_containers"
    }

    fn batch(&self, db: &VerticaDb) -> Result<Batch> {
        StorageContainersTable::rows(db, 0..db.cluster().num_nodes())
    }

    fn batch_on(&self, db: &VerticaDb, node: NodeId) -> Result<Option<Batch>> {
        StorageContainersTable::rows(db, node.0..node.0 + 1).map(Some)
    }
}

/// Stat-row shape shared by the cache tables: one `(stat, node, value)`
/// row per counter, with per-node rows where the cache tracks them.
pub fn cache_stats_batch(stats: &[(&str, Option<usize>, u64)]) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("stat", DataType::Varchar),
        ("node", DataType::Int64),
        ("value", DataType::Int64),
    ]);
    for (stat, node, value) in stats {
        rows.push(vec![
            Value::Varchar(stat.to_string()),
            opt_node(*node),
            Value::Int64(*value as i64),
        ])?;
    }
    rows.finish()
}

struct BlockCacheTable;

impl SystemTableProvider for BlockCacheTable {
    fn name(&self) -> &str {
        "block_cache"
    }

    fn batch(&self, db: &VerticaDb) -> Result<Batch> {
        let cache = db.storage().block_cache();
        let mut stats: Vec<(&str, Option<usize>, u64)> = vec![
            ("hits", None, cache.hits()),
            ("misses", None, cache.misses()),
            ("evictions", None, cache.evictions()),
            ("invalidations", None, cache.invalidations()),
            ("entries", None, cache.len() as u64),
        ];
        for node in 0..db.cluster().num_nodes() {
            stats.push(("bytes", Some(node), cache.bytes_on(NodeId(node))));
        }
        cache_stats_batch(&stats)
    }

    fn batch_on(&self, db: &VerticaDb, node: NodeId) -> Result<Option<Batch>> {
        let cache = db.storage().block_cache();
        let mut stats: Vec<(&str, Option<usize>, u64)> = Vec::new();
        if node.0 == 0 {
            // Process-wide counters ride on the initiator.
            stats.extend([
                ("hits", None, cache.hits()),
                ("misses", None, cache.misses()),
                ("evictions", None, cache.evictions()),
                ("invalidations", None, cache.invalidations()),
                ("entries", None, cache.len() as u64),
            ]);
        }
        stats.push(("bytes", Some(node.0), cache.bytes_on(node)));
        cache_stats_batch(&stats).map(Some)
    }
}

struct DfsObjectsTable;

impl SystemTableProvider for DfsObjectsTable {
    fn name(&self) -> &str {
        "dfs_objects"
    }

    fn batch(&self, db: &VerticaDb) -> Result<Batch> {
        let dfs = db.dfs();
        let mut rows = Rows::new(&[
            ("name", DataType::Varchar),
            ("bytes", DataType::Int64),
            ("crc32", DataType::Int64),
            ("replicas", DataType::Int64),
            ("readable", DataType::Bool),
        ]);
        for name in dfs.list() {
            rows.push(vec![
                Value::Varchar(name.clone()),
                Value::Int64(dfs.size_of(&name).unwrap_or(0) as i64),
                Value::Int64(dfs.checksum_of(&name).unwrap_or(0) as i64),
                Value::Int64(dfs.replicas_of(&name).len() as i64),
                Value::Bool(dfs.is_readable(&name)),
            ])?;
        }
        rows.finish()
    }
}

// ------------------------------------------------- data-collector tables

struct DcMetricsByTickTable;

impl DcMetricsByTickTable {
    fn rows(samples: &[(usize, Vec<vdr_obs::NodeSample>)]) -> Result<Batch> {
        let mut rows = Rows::new(&[
            ("tick", DataType::Int64),
            ("query_id", DataType::Int64),
            ("trigger", DataType::Varchar),
            ("name", DataType::Varchar),
            ("node", DataType::Int64),
            ("kind", DataType::Varchar),
            ("value", DataType::Float64),
            ("p50", DataType::Float64),
            ("p90", DataType::Float64),
            ("p99", DataType::Float64),
        ]);
        for (_, ring) in samples {
            for s in ring {
                for (key, value) in s.delta.iter() {
                    let (kind, v, pcts) = match value {
                        MetricValue::Counter(0) => continue,
                        MetricValue::Counter(c) => (
                            "counter",
                            *c as f64,
                            [Value::Null, Value::Null, Value::Null],
                        ),
                        MetricValue::Gauge(g) => {
                            ("gauge", *g, [Value::Null, Value::Null, Value::Null])
                        }
                        MetricValue::Histogram(h) if h.count == 0 => continue,
                        MetricValue::Histogram(h) => (
                            "histogram",
                            h.count as f64,
                            [
                                Value::Float64(h.p50()),
                                Value::Float64(h.p90()),
                                Value::Float64(h.p99()),
                            ],
                        ),
                    };
                    let [p50, p90, p99] = pcts;
                    rows.push(vec![
                        Value::Int64(s.tick as i64),
                        Value::Int64(s.query_id as i64),
                        Value::Varchar(s.trigger.to_string()),
                        Value::Varchar(key.name.clone()),
                        opt_node(key.node),
                        Value::Varchar(kind.to_string()),
                        Value::Float64(v),
                        p50,
                        p90,
                        p99,
                    ])?;
                }
            }
        }
        rows.finish()
    }
}

impl SystemTableProvider for DcMetricsByTickTable {
    fn name(&self) -> &str {
        "dc_metrics_by_tick"
    }

    fn batch(&self, _db: &VerticaDb) -> Result<Batch> {
        DcMetricsByTickTable::rows(&vdr_obs::global().dc().samples())
    }

    fn batch_on(&self, _db: &VerticaDb, node: NodeId) -> Result<Option<Batch>> {
        let ring = vdr_obs::global().dc().samples_on(node.0);
        DcMetricsByTickTable::rows(&[(node.0, ring)]).map(Some)
    }
}

struct DcResourceUsageTable;

impl DcResourceUsageTable {
    fn rows(samples: &[(usize, Vec<vdr_obs::NodeSample>)]) -> Result<Batch> {
        let mut rows = Rows::new(&[
            ("tick", DataType::Int64),
            ("query_id", DataType::Int64),
            ("trigger", DataType::Varchar),
            ("node", DataType::Int64),
            ("sim_us", DataType::Float64),
            ("cpu_core_ns", DataType::Float64),
            ("disk_read_bytes", DataType::Int64),
            ("disk_write_bytes", DataType::Int64),
            ("net_in_bytes", DataType::Int64),
            ("net_out_bytes", DataType::Int64),
            ("cache_bytes", DataType::Int64),
        ]);
        for (_, ring) in samples {
            for s in ring {
                let u = &s.usage;
                rows.push(vec![
                    Value::Int64(s.tick as i64),
                    Value::Int64(s.query_id as i64),
                    Value::Varchar(s.trigger.to_string()),
                    Value::Int64(u.node as i64),
                    Value::Float64(u.sim_secs * 1e6),
                    Value::Float64(u.cpu_core_ns),
                    Value::Int64(u.disk_read_bytes as i64),
                    Value::Int64(u.disk_write_bytes as i64),
                    Value::Int64(u.net_in_bytes as i64),
                    Value::Int64(u.net_out_bytes as i64),
                    Value::Int64(u.cache_bytes as i64),
                ])?;
            }
        }
        rows.finish()
    }
}

impl SystemTableProvider for DcResourceUsageTable {
    fn name(&self) -> &str {
        "dc_resource_usage"
    }

    fn batch(&self, _db: &VerticaDb) -> Result<Batch> {
        DcResourceUsageTable::rows(&vdr_obs::global().dc().samples())
    }

    fn batch_on(&self, _db: &VerticaDb, node: NodeId) -> Result<Option<Batch>> {
        let ring = vdr_obs::global().dc().samples_on(node.0);
        DcResourceUsageTable::rows(&[(node.0, ring)]).map(Some)
    }
}

struct DcQuerySummariesTable;

impl SystemTableProvider for DcQuerySummariesTable {
    fn name(&self) -> &str {
        "dc_query_summaries"
    }

    // Rollups are initiator-resident (the default `batch_on` keeps remote
    // nodes silent): one row per tick with rolling latency percentiles.
    fn batch(&self, _db: &VerticaDb) -> Result<Batch> {
        let mut rows = Rows::new(&[
            ("tick", DataType::Int64),
            ("query_id", DataType::Int64),
            ("trigger", DataType::Varchar),
            ("label", DataType::Varchar),
            ("status", DataType::Varchar),
            ("rows", DataType::Int64),
            ("bytes", DataType::Int64),
            ("sim_us", DataType::Float64),
            ("wall_us", DataType::Float64),
            ("p50_us", DataType::Float64),
            ("p90_us", DataType::Float64),
            ("p99_us", DataType::Float64),
        ]);
        for s in vdr_obs::global().dc().summaries() {
            rows.push(vec![
                Value::Int64(s.tick as i64),
                Value::Int64(s.query_id as i64),
                Value::Varchar(s.trigger.to_string()),
                Value::Varchar(s.label),
                Value::Varchar(s.status),
                Value::Int64(s.rows as i64),
                Value::Int64(s.bytes as i64),
                Value::Float64(s.sim_secs * 1e6),
                Value::Float64(s.wall_ns as f64 / 1e3),
                Value::Float64(s.p50_us),
                Value::Float64(s.p90_us),
                Value::Float64(s.p99_us),
            ])?;
        }
        rows.finish()
    }
}

// ----------------------------------------------------------------- PROFILE

/// The result batch of `PROFILE <statement>`: the inner statement's
/// per-node phase rows followed by its metric deltas, every row stamped
/// with the inner statement's query id.
pub fn profile_batch(record: &QueryRecord) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("query_id", DataType::Int64),
        ("section", DataType::Varchar),
        ("name", DataType::Varchar),
        ("node", DataType::Int64),
        ("value", DataType::Float64),
        ("unit", DataType::Varchar),
    ]);
    let qid = Value::Int64(record.id as i64);
    for phase in &record.phases {
        for n in &phase.nodes {
            rows.push(vec![
                qid.clone(),
                Value::Varchar("phase".to_string()),
                Value::Varchar(phase.name.clone()),
                Value::Int64(n.node as i64),
                Value::Float64(n.duration_secs * 1e6),
                Value::Varchar("sim_us".to_string()),
            ])?;
        }
    }
    for (key, value) in record.metrics_delta.iter() {
        let (section, v, unit) = match value {
            // Zero counter deltas are metrics the query never touched —
            // the diff passes every process-lifetime key through, so drop
            // the noise here.
            MetricValue::Counter(0) => continue,
            MetricValue::Counter(c) => ("counter", *c as f64, "count"),
            MetricValue::Gauge(g) => ("gauge", *g, "level"),
            MetricValue::Histogram(h) if h.count == 0 => continue,
            MetricValue::Histogram(h) => ("histogram", h.count as f64, "events"),
        };
        rows.push(vec![
            qid.clone(),
            Value::Varchar(section.to_string()),
            Value::Varchar(key.name.clone()),
            opt_node(key.node),
            Value::Float64(v),
            Value::Varchar(unit.to_string()),
        ])?;
        // Histograms the query touched additionally report their tail: one
        // p50 and one p99 row each, extracted from the windowed delta (so
        // the percentiles describe *this* statement's observations only).
        if let MetricValue::Histogram(h) = value {
            for (unit, p) in [("p50", h.p50()), ("p99", h.p99())] {
                rows.push(vec![
                    qid.clone(),
                    Value::Varchar("percentile".to_string()),
                    Value::Varchar(key.name.clone()),
                    opt_node(key.node),
                    Value::Float64(p),
                    Value::Varchar(unit.to_string()),
                ])?;
            }
        }
    }
    rows.finish()
}

// ------------------------------------------------------------------- TRACE

/// The result batch of `TRACE <statement>`: one row per span the inner
/// statement's execution closed, in open order — the flattened trace tree
/// (`parent_id` links rows; `node` shows where the work ran).
pub fn trace_batch(spans: &[SpanRecord]) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("span_id", DataType::Int64),
        ("parent_id", DataType::Int64),
        ("query_id", DataType::Int64),
        ("name", DataType::Varchar),
        ("node", DataType::Int64),
        ("tid", DataType::Int64),
        ("start_ms", DataType::Float64),
        ("wall_ms", DataType::Float64),
        ("sim_us", DataType::Float64),
        ("fields", DataType::Varchar),
    ]);
    for s in spans {
        let fields = s
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        rows.push(vec![
            Value::Int64(s.id as i64),
            Value::Int64(s.parent as i64),
            Value::Int64(s.query_id as i64),
            Value::Varchar(s.name.clone()),
            opt_node(s.node),
            Value::Int64(s.tid as i64),
            Value::Float64(s.start_ns as f64 / 1e6),
            Value::Float64(s.wall_ns as f64 / 1e6),
            Value::Float64(s.sim_secs * 1e6),
            Value::Varchar(fields),
        ])?;
    }
    rows.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> QueryRecord {
        QueryRecord {
            id,
            sql: format!("SELECT {id}"),
            status: "complete".to_string(),
            sim_secs: 0.0,
            wall_ns: 0,
            rows: 1,
            bytes: 8,
            phases: Vec::new(),
            metrics_delta: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn schema_prefix_resolution() {
        assert_eq!(v_monitor_table("v_monitor.metrics"), Some("metrics"));
        assert_eq!(v_monitor_table("V_MONITOR.Spans"), Some("Spans"));
        assert_eq!(v_monitor_table("public.t"), None);
        assert_eq!(v_monitor_table("metrics"), None);
    }

    #[test]
    fn history_ring_evicts_and_counts() {
        let before = vdr_obs::global().metrics().snapshot();
        let h = QueryHistory::with_capacity(4);
        for i in 1..=10 {
            h.record(record(i));
        }
        assert_eq!(h.len(), 4);
        let ids: Vec<u64> = h.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "oldest evicted first");
        assert!(h.get(3).is_none());
        assert_eq!(h.get(9).unwrap().sql, "SELECT 9");
        let diff = vdr_obs::global().metrics().snapshot().diff(&before);
        assert_eq!(diff.counter_total("obs.query_history.evicted"), 6);
    }

    #[test]
    fn profile_batch_stamps_query_id_and_drops_untouched_metrics() {
        let mut r = record(77);
        r.metrics_delta
            .insert("scan.cache.miss", Some(1), MetricValue::Counter(3));
        r.metrics_delta
            .insert("exec.untouched", None, MetricValue::Counter(0));
        let batch = profile_batch(&r).unwrap();
        assert_eq!(batch.num_rows(), 1, "zero-delta counter dropped");
        assert_eq!(batch.row(0)[0], Value::Int64(77));
        assert_eq!(batch.row(0)[2], Value::Varchar("scan.cache.miss".into()));
        assert_eq!(batch.row(0)[4], Value::Float64(3.0));
    }

    #[test]
    fn profile_batch_appends_percentile_rows_for_histograms() {
        let reg = vdr_obs::MetricsRegistry::new();
        for v in [1.0, 2.0, 4.0, 64.0] {
            reg.observe("exec.scan_ms", None, v);
        }
        let mut r = record(5);
        r.metrics_delta = reg.snapshot();
        let batch = profile_batch(&r).unwrap();
        // 1 histogram row + p50 + p99.
        assert_eq!(batch.num_rows(), 3);
        let units: Vec<Value> = (0..3).map(|i| batch.row(i)[5].clone()).collect();
        assert!(units.contains(&Value::Varchar("p50".into())));
        assert!(units.contains(&Value::Varchar("p99".into())));
        // The p99 estimate is near the max observation (within its bucket).
        let p99 = (0..3)
            .find(|&i| batch.row(i)[5] == Value::Varchar("p99".into()))
            .map(|i| batch.row(i)[4].clone())
            .unwrap();
        let Value::Float64(p99) = p99 else {
            panic!("p99 not a float")
        };
        assert!((60.0..=64.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn slow_requests_ring_records_over_threshold_statements() {
        let m = Monitor::new();
        assert_eq!(m.slow_threshold_ns(), DEFAULT_SLOW_THRESHOLD_NS);
        m.set_slow_threshold_ns(1);
        let mut r = record(9);
        r.wall_ns = 5_000_000;
        m.record_slow(&r, m.slow_threshold_ns());
        let slow = m.slow_requests();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].id, 9);
        assert_eq!(slow[0].threshold_ns, 1);
        // The ring is bounded.
        for i in 0..SLOW_REQUESTS_CAPACITY + 5 {
            m.record_slow(&record(i as u64 + 100), 1);
        }
        assert_eq!(m.slow_requests().len(), SLOW_REQUESTS_CAPACITY);
    }

    #[test]
    fn trace_batch_flattens_span_records() {
        let sink = vdr_obs::TraceSink::new();
        {
            let mut root = sink.span("exec.select");
            root.set_query_id(3);
            let mut child = sink.span("exec.scan");
            child.set_query_id(3);
            child.set_node(1);
            child.record("rows", 10);
        }
        let spans = sink.snapshot();
        let batch = trace_batch(&spans).unwrap();
        assert_eq!(batch.num_rows(), 2);
        // Rows are in open order: root first.
        assert_eq!(batch.row(0)[3], Value::Varchar("exec.select".into()));
        assert_eq!(batch.row(1)[3], Value::Varchar("exec.scan".into()));
        assert_eq!(batch.row(1)[4], Value::Int64(1));
        assert_eq!(batch.row(1)[1], batch.row(0)[0], "parent links to root");
        assert_eq!(batch.row(1)[9], Value::Varchar("rows=10".into()));
    }
}
