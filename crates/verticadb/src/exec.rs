//! The distributed query executor.
//!
//! Regular `SELECT`s run MPP-style: every node scans, filters, and projects
//! its own segment (and computes partial aggregates with the typed operator
//! in `exec_agg.rs`); the small per-node results are gathered to the
//! initiator node for the final merge, sort, and limit. Under a `LIMIT`,
//! each node ships only its first `offset + limit` rows. Transform (`OVER (PARTITION …)`) selects spawn UDx instances per
//! node, the paper's extension mechanism.
//!
//! # Compressed execution
//!
//! Every table read — SELECT, both JOIN sides, and the transform, VFT and
//! prediction scans — goes through the one storage scan
//! ([`crate::storage::SegmentStore::scan`]), which returns
//! [`EncodedBatch`]es whose Rle/Dictionary columns are still in run/code
//! form. Predicates evaluate per *run* or per *distinct dictionary code*
//! ([`vdr_columnar::kernels::cmp_scalar_rle`] / [`cmp_scalar_dict`]), and a
//! leaf those kernels cannot take decodes just its own column
//! ([`eval_predicate_encoded`]). A single-column dictionary GROUP BY maps
//! each code (not each row) to its group without hashing decoded strings,
//! and everything else is **late-materialized**: encoded columns expand only
//! for the rows that survived the filter bitmap, and decoded columns are
//! read in place when every row survives.

use crate::db::VerticaDb;
use crate::error::{DbError, Result};
use crate::expr::{cmp_op, literal_num, BinOp, Expr};
use crate::segmentation::hash_value;
use crate::sql::{AggFunc, Partition, SelectItem, SelectStmt, Statement};
use crate::storage::ScanSpec;
use crate::udx::UdxContext;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use vdr_cluster::{NodeId, PhaseRecorder};
use vdr_columnar::kernels::{self, CmpOp};
use vdr_columnar::{
    Batch, Bitmap, Column, ColumnBuilder, DataType, EncodedBatch, Field, Schema, Value,
};

#[path = "exec_agg.rs"]
mod agg;
#[path = "exec_join.rs"]
mod join;

use agg::{AggPartial, AggTable};

/// The node that runs final merges — where the client is connected.
const INITIATOR: NodeId = NodeId(0);

/// Execute any statement against the database, charging `rec`.
pub fn execute(db: &VerticaDb, stmt: &Statement, rec: &Arc<PhaseRecorder>) -> Result<Batch> {
    let mut stmt_span = vdr_obs::span("exec.statement");
    stmt_span.record("stmt", crate::db::statement_label(stmt));
    match stmt {
        Statement::Select(select) => execute_select(db, select, rec),
        Statement::CreateTable {
            name,
            columns,
            segmentation,
        } => {
            let schema = Schema::new(
                columns
                    .iter()
                    .map(|(n, t)| Field::new(n.clone(), *t))
                    .collect(),
            );
            let seg = match segmentation {
                Some(crate::sql::SegSpec::Hash(col)) => {
                    schema.index_of(col).map_err(|_| {
                        DbError::Plan(format!("segmentation column '{col}' not in table"))
                    })?;
                    crate::segmentation::Segmentation::Hash {
                        column: col.clone(),
                    }
                }
                Some(crate::sql::SegSpec::RoundRobin) | None => {
                    crate::segmentation::Segmentation::RoundRobin
                }
            };
            db.catalog().create_table(crate::catalog::TableDef {
                name: name.clone(),
                schema,
                segmentation: seg,
            })?;
            status_batch(&format!("CREATE TABLE {name}"))
        }
        Statement::CreateTableAs { name, query } => {
            let result = execute_select(db, query, rec)?;
            db.catalog().create_table(crate::catalog::TableDef {
                name: name.clone(),
                schema: result.schema().clone(),
                segmentation: crate::segmentation::Segmentation::RoundRobin,
            })?;
            let n = result.num_rows();
            let def = db.catalog().get(name)?;
            db.storage().load(&def, vec![result], rec)?;
            status_batch(&format!("CREATE TABLE {name} AS SELECT ({n} rows)"))
        }
        Statement::Insert { table, rows } => {
            let def = db.catalog().get(table)?;
            let one_row = Batch::from_rows(
                Schema::of(&[("dummy", DataType::Int64)]),
                &[vec![Value::Int64(0)]],
            )?;
            let mut value_rows = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != def.schema.len() {
                    return Err(DbError::Plan(format!(
                        "INSERT has {} values, table {} has {} columns",
                        row.len(),
                        def.name,
                        def.schema.len()
                    )));
                }
                let mut values = Vec::with_capacity(row.len());
                for e in row {
                    // Literal expressions evaluated against a 1-row dummy.
                    values.push(e.eval(&one_row)?.get(0));
                }
                value_rows.push(values);
            }
            let batch = Batch::from_rows(def.schema.clone(), &value_rows)?;
            let n = batch.num_rows();
            db.storage().load(&def, vec![batch], rec)?;
            status_batch(&format!("INSERT {n}"))
        }
        Statement::DropTable { name, if_exists } => {
            match db.catalog().drop_table(name) {
                Ok(_) => {}
                Err(_) if *if_exists => return status_batch("DROP TABLE (skipped)"),
                Err(e) => return Err(e),
            }
            db.storage().drop_table(name);
            status_batch(&format!("DROP TABLE {name}"))
        }
        // The tracked path (`VerticaDb::execute_tracked`) unwraps one
        // PROFILE layer before dispatching here, so reaching this arm means
        // PROFILE PROFILE … or a caller bypassing the tracked entry points.
        Statement::Profile(_) => Err(DbError::Plan(
            "PROFILE must be the outermost statement".into(),
        )),
        Statement::Trace(_) => Err(DbError::Plan(
            "TRACE must be the outermost statement".into(),
        )),
    }
}

fn status_batch(msg: &str) -> Result<Batch> {
    Ok(Batch::new(
        Schema::of(&[("status", DataType::Varchar)]),
        vec![Column::from_strings(vec![msg])],
    )?)
}

// ------------------------------------------------------------------ SELECT

fn execute_select(db: &VerticaDb, stmt: &SelectStmt, rec: &Arc<PhaseRecorder>) -> Result<Batch> {
    if let Some(SelectItem::Transform {
        name,
        args,
        params,
        partition,
    }) = stmt.transform_item()
    {
        if stmt.items.len() != 1 {
            return Err(DbError::Plan(
                "a transform function must be the only select item".into(),
            ));
        }
        if stmt.join.is_some() {
            return Err(DbError::Plan(
                "transform functions cannot be combined with JOIN".into(),
            ));
        }
        return run_transform(db, stmt, name, args, params, partition, rec);
    }

    if stmt.join.is_some() {
        return join::execute_join_select(db, stmt, rec);
    }

    let mut select_span = vdr_obs::span("exec.select");
    let select_span_id = select_span.id();

    // FROM-less: SELECT 1+1.
    let Some(table) = &stmt.from else {
        let one = Batch::from_rows(
            Schema::of(&[("dummy", DataType::Int64)]),
            &[vec![Value::Int64(0)]],
        )?;
        return project_batch(stmt, &one);
    };

    // Per-node pipelines.
    let per_node: Vec<Result<NodeResult>> =
        if let Some(sys) = crate::monitor::v_monitor_table(table) {
            // System tables materialize cluster-wide: every node contributes its
            // rows (framed and streamed to the initiator, charged to `rec`),
            // the union gains a `node_name` column, then the ordinary
            // WHERE/projection/ORDER BY machinery runs over it like any
            // gathered result.
            select_span.record("table", table);
            let batch = db.monitor().materialize_cluster(sys, db, rec)?;
            let filtered = apply_where(stmt, &batch)?;
            vec![NodeResult::of(stmt, &filtered)]
        } else if table.eq_ignore_ascii_case("r_models") {
            // The metadata table lives on the initiator.
            let models = db.models().as_batch();
            let filtered = apply_where(stmt, &models)?;
            vec![NodeResult::of(stmt, &filtered)]
        } else {
            let schema = db.catalog().get(table)?.schema;
            select_span.record("table", table);
            // Planner: push the referenced-column set down to the scan so
            // unused column payloads are never decoded.
            let wanted = referenced_columns(stmt);
            // Scatter spawns one OS thread per node: the query scope is
            // thread-local, so re-enter it in each worker (as span parents are
            // passed explicitly).
            let query_id = vdr_obs::current_query_id();
            db.cluster().scatter(|node| -> Result<NodeResult> {
                let _q = vdr_obs::QueryScope::enter(query_id);
                let _n = vdr_obs::NodeScope::enter(node.id().0);
                let mut scan_span = vdr_obs::detail_span_with_parent("exec.scan", select_span_id);
                scan_span.set_node(node.id().0);
                node_pipeline(
                    db,
                    stmt,
                    &schema,
                    table,
                    node.id(),
                    rec,
                    wanted.as_ref(),
                    &mut scan_span,
                )
            })
        };

    // GROUP BY partials whose key contains the segmentation key are already
    // node-disjoint; everything else benefits from the shuffled merge.
    let seg_aligned = db
        .catalog()
        .get(table)
        .ok()
        .map(|def| match &def.segmentation {
            crate::segmentation::Segmentation::Hash { column } => stmt
                .group_by
                .iter()
                .any(|g| matches!(g, Expr::Column(c) if c.eq_ignore_ascii_case(column))),
            _ => false,
        })
        .unwrap_or(true);

    let out = gather_and_finalize(db, stmt, rec, per_node, seg_aligned)?;
    select_span.record("rows_out", out.num_rows());
    vdr_obs::counter("exec.output.rows", out.num_rows() as u64);
    Ok(out)
}

/// The common tail of every SELECT: optionally repartition GROUP BY partials
/// across the cluster (shuffled two-phase merge), then gather the per-node
/// results to the initiator, merge, and finalize.
fn gather_and_finalize(
    db: &VerticaDb,
    stmt: &SelectStmt,
    rec: &Arc<PhaseRecorder>,
    per_node: Vec<Result<NodeResult>>,
    groupby_seg_aligned: bool,
) -> Result<Batch> {
    let partials = per_node.into_iter().collect::<Result<Vec<_>>>()?;
    let partials = match maybe_shuffle_group_by(db, stmt, rec, partials, groupby_seg_aligned)? {
        GroupByMerge::Local(batch) => return order_limit_aggregate_output(stmt, batch),
        GroupByMerge::Gather(p) => p,
    };

    // Gather partial results to the initiator, charging the network.
    // Aggregates travel in their partial-batch form.
    let mut gather_span = vdr_obs::span("exec.gather");
    let mut gather_bytes = 0u64;
    let mut rows: Vec<Batch> = Vec::new();
    let mut aggs: Vec<AggPartial> = Vec::new();
    let mut target: Option<AggTable> = None;
    for (i, nr) in partials.into_iter().enumerate() {
        let bytes = match nr {
            NodeResult::Rows(b) => {
                let bytes = b.byte_size();
                rows.push(b);
                bytes
            }
            NodeResult::Partial(t) => {
                target.get_or_insert_with(|| t.empty_like());
                let p = t.partial();
                let bytes = p.byte_size();
                aggs.push(p);
                bytes
            }
        };
        gather_bytes += bytes;
        rec.net(NodeId(i), INITIATOR, bytes);
    }
    gather_span.record("bytes", gather_bytes);
    vdr_obs::counter("exec.gather.bytes", gather_bytes);
    drop(gather_span);

    if let Some(mut table) = target {
        for p in &aggs {
            table.merge(p)?;
        }
        return order_limit_aggregate_output(stmt, table.finalize(stmt)?);
    }
    let mut rows = rows.into_iter();
    let mut all = rows
        .next()
        .ok_or_else(|| DbError::Exec("no nodes produced results".into()))?;
    for b in rows {
        all.extend(&b)?;
    }
    let sorted = apply_order_by_hidden(stmt, all)?;
    Ok(apply_offset_limit(stmt, sorted))
}

// ------------------------------------------------- shuffled two-phase GROUP BY

/// How the GROUP BY partials reach their final form.
enum GroupByMerge {
    /// The shuffle ran: every node finalized its disjoint key range locally
    /// and the initiator already put the finished rows back in key order —
    /// only the global ORDER BY / OFFSET / LIMIT remain.
    Local(Batch),
    /// No shuffle: partials flow to the classic gather-and-merge path.
    Gather(Vec<NodeResult>),
}

/// Repartition per-node GROUP BY partials by group-key hash so every node
/// merges — and finalizes — a disjoint key range in parallel, instead of the
/// initiator merging everything single-threaded. Partials cross the wire as
/// VCOL blocks (the JOIN shuffle's codec). Because post-shuffle ranges are
/// disjoint, each node ships one finished row per group back to the
/// initiator rather than aggregate states (a COUNT(DISTINCT) value set
/// collapses to a single integer before it crosses the wire). Skipped when
/// it cannot help: single node, partials that aren't grouped aggregates, or
/// a group key containing the segmentation key (already node-disjoint) —
/// those partials merge on the initiator by concatenation.
fn maybe_shuffle_group_by(
    db: &VerticaDb,
    stmt: &SelectStmt,
    rec: &Arc<PhaseRecorder>,
    partials: Vec<NodeResult>,
    seg_aligned: bool,
) -> Result<GroupByMerge> {
    let n = partials.len();
    if n <= 1
        || n != db.cluster().num_nodes()
        || seg_aligned
        || stmt.group_by.is_empty()
        || !partials.iter().all(|p| matches!(p, NodeResult::Partial(_)))
    {
        return Ok(GroupByMerge::Gather(partials));
    }
    // One slot per node: the scatter closure takes its node's table exactly
    // once, so the Mutex<Option<…>> is just a Sync-safe hand-off.
    let slots: Vec<std::sync::Mutex<Option<AggTable>>> = partials
        .into_iter()
        .map(|p| match p {
            NodeResult::Partial(t) => std::sync::Mutex::new(Some(t)),
            NodeResult::Rows(_) => unreachable!("checked above"),
        })
        .collect();
    let query_id = vdr_obs::current_query_id();
    let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
    let as_io = |e: DbError| vdr_cluster::ClusterError::Io(e.to_string());
    let merged = vdr_cluster::exchange_framed(
        db.cluster(),
        rec,
        "exec.groupby.shuffle",
        |node| {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _ns = vdr_obs::NodeScope::enter(node.id().0);
            let me = node.id().0;
            let table = slots[me]
                .lock()
                .expect("slot")
                .take()
                .expect("each node's partial is taken once");
            let target = table.empty_like();
            // The partition addressed to this node never leaves it: it rides
            // as the exchange's local carry, skipping the codec entirely.
            let mut own = None;
            let mut sent = 0u64;
            let frames: Vec<Vec<bytes::Bytes>> = table
                .shuffle_parts(n)
                .into_iter()
                .enumerate()
                .map(|(dst, part)| {
                    if dst == me {
                        own = Some(part);
                        return Vec::new();
                    }
                    if part.groups.num_rows() == 0 {
                        return Vec::new();
                    }
                    let f = part.encode();
                    sent += f.iter().map(|b| b.len() as u64).sum::<u64>();
                    f
                })
                .collect();
            // Encoding partial states is byte-proportional CPU work.
            if sent > 0 {
                rec.cpu_work(node.id(), sent as f64 / 8.0, scan_cost);
            }
            Ok((frames, (target, own.expect("one part per node"))))
        },
        |node, (mut table, own), recv| {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _ns = vdr_obs::NodeScope::enter(node.id().0);
            let me = node.id().0;
            table.merge(&own).map_err(as_io)?;
            let mut rows = 0u64;
            for frames in recv.frames.iter().filter(|f| !f.is_empty()) {
                let part = AggPartial::decode(frames).map_err(as_io)?;
                rows += part.groups.num_rows() as u64;
                table.merge(&part).map_err(as_io)?;
            }
            vdr_obs::counter_on("exchange.rows", me, rows);
            vdr_obs::counter_on("exchange.bytes", me, recv.bytes);
            vdr_obs::counter_on("exchange.frames", me, recv.num_frames);
            vdr_obs::counter_on("exchange.wait_ns", me, recv.wait_ns);
            // Merging the received range is this node's (not the
            // initiator's) work — that's the whole point.
            rec.cpu_work(node.id(), recv.bytes as f64 / 8.0, scan_cost);
            // The key range is disjoint across nodes after the shuffle, so
            // this node's groups are final: materialize the output rows here
            // and ship those instead of the (much heavier) aggregate states.
            table.finalize(stmt).map_err(as_io)
        },
    )
    .map_err(DbError::from)?;
    vdr_obs::counter("exec.groupby.shuffled", 1);

    // Gather the finished row slices — one row per group, so a shuffled
    // COUNT(DISTINCT) never ships its values twice — and merge the
    // key-sorted slices back into key order.
    let mut gather_span = vdr_obs::span("exec.gather");
    let mut gather_bytes = 0u64;
    for (i, b) in merged.iter().enumerate() {
        gather_bytes += b.byte_size();
        rec.net(NodeId(i), INITIATOR, b.byte_size());
    }
    gather_span.record("bytes", gather_bytes);
    vdr_obs::counter("exec.gather.bytes", gather_bytes);
    drop(gather_span);
    let all = Batch::concat(merged[0].schema().clone(), &merged)?;
    Ok(GroupByMerge::Local(agg::sort_by_group_keys(stmt, all)?))
}

/// Apply the WHERE clause, borrowing the input when nothing is filtered
/// out (no predicate, or an all-true mask) so cached batches aren't copied.
fn apply_where<'a>(stmt: &SelectStmt, batch: &'a Batch) -> Result<Cow<'a, Batch>> {
    match &stmt.where_clause {
        Some(pred) => {
            let mask = pred.eval_predicate(batch)?;
            if mask.all_set() {
                Ok(Cow::Borrowed(batch))
            } else {
                Ok(Cow::Owned(batch.filter(&mask)?))
            }
        }
        None => Ok(Cow::Borrowed(batch)),
    }
}

fn add_expr_columns(set: &mut HashSet<String>, e: &Expr) {
    for c in e.columns() {
        set.insert(c.to_ascii_lowercase());
    }
}

/// The lowercased set of table columns a SELECT references anywhere
/// (projection, WHERE, ORDER BY, GROUP BY) — the scan only needs to decode
/// these. `None` means "all columns" (a wildcard appears). An empty set is
/// legitimate (`SELECT count(*)`): the decoder keeps one cheap column to
/// preserve row counts.
fn referenced_columns(stmt: &SelectStmt) -> Option<HashSet<String>> {
    let mut cols = HashSet::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => return None,
            SelectItem::Expr { expr, .. } => add_expr_columns(&mut cols, expr),
            SelectItem::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    add_expr_columns(&mut cols, a);
                }
            }
            SelectItem::Transform { args, .. } => {
                for a in args {
                    add_expr_columns(&mut cols, a);
                }
            }
        }
    }
    if let Some(w) = &stmt.where_clause {
        add_expr_columns(&mut cols, w);
    }
    for k in &stmt.order_by {
        add_expr_columns(&mut cols, &k.expr);
    }
    for g in &stmt.group_by {
        add_expr_columns(&mut cols, g);
    }
    Some(cols)
}

// -------------------------------------------------- compressed execution

/// What one node's (or UDx instance's) pass over its scan did, for the cost
/// ledger and the `scan.encoded.*` counters.
#[derive(Debug, Default)]
struct EncodedScanStats {
    /// Per-row predicate evaluations avoided by run/code kernels.
    runs_skipped: u64,
    /// Runs resolved by binary-searched boundaries on sorted RLE columns.
    runs_bsearched: u64,
    /// Distinct dictionary codes a predicate actually compared.
    codes_tested: u64,
    /// Filter-surviving rows decoded out of encoded columns afterwards.
    late_materialized_rows: u64,
    /// Values expanded from encoded form (per column × row), by predicate
    /// fallbacks and late materialization alike — the decode work the
    /// ledger charges at scan cost.
    expanded_values: u64,
}

impl EncodedScanStats {
    /// The `mask` rows of `eb`'s `wanted` columns (`None` = all) as a plain
    /// batch, counting what had to be expanded out of encoded form. A cached
    /// entry may hold more columns than the scan asked for; only the scan's
    /// own are expanded.
    fn materialize<'a>(
        &mut self,
        eb: &'a EncodedBatch,
        mask: &Bitmap,
        wanted: Option<&HashSet<String>>,
    ) -> Result<Cow<'a, Batch>> {
        let (batch, expanded) = eb.materialize(mask, wanted)?;
        self.expanded_values += expanded;
        if expanded > 0 {
            self.late_materialized_rows += mask.count_set() as u64;
        }
        Ok(batch)
    }

    /// Charge the deferred expansion to `rec` at the same per-value scan
    /// cost the eager decoder pays, and report the `scan.encoded.*`
    /// counters.
    fn finish(&self, rec: &PhaseRecorder, node: NodeId, scan_cost: f64) {
        if self.expanded_values > 0 {
            rec.cpu_work(node, self.expanded_values as f64, scan_cost);
        }
        for (name, value) in [
            ("scan.encoded.runs_skipped", self.runs_skipped),
            ("scan.encoded.runs_bsearched", self.runs_bsearched),
            ("scan.encoded.codes_tested", self.codes_tested),
            (
                "scan.encoded.late_materialized_rows",
                self.late_materialized_rows,
            ),
        ] {
            if value > 0 {
                vdr_obs::counter_on(name, node.0, value);
            }
        }
    }
}

/// The WHERE selection over `eb`'s rows (every row without a WHERE).
fn where_mask(
    stmt: &SelectStmt,
    eb: &EncodedBatch,
    stats: &mut EncodedScanStats,
) -> Result<Bitmap> {
    match &stmt.where_clause {
        Some(pred) => eval_predicate_encoded(pred, eb, stats),
        None => Ok(Bitmap::all_valid(eb.num_rows())),
    }
}

/// Per-node SELECT pipeline: scan → encoded predicate → dictionary-code
/// GROUP BY or late materialization → partial result.
#[allow(clippy::too_many_arguments)]
fn node_pipeline(
    db: &VerticaDb,
    stmt: &SelectStmt,
    schema: &Schema,
    table: &str,
    node: NodeId,
    rec: &Arc<PhaseRecorder>,
    wanted: Option<&HashSet<String>>,
    scan_span: &mut vdr_obs::SpanGuard<'static>,
) -> Result<NodeResult> {
    let batches = db
        .storage()
        .scan(table, node, ScanSpec::columns(wanted), rec)?;
    let mut stats = EncodedScanStats::default();
    let mut rows_in = 0u64;
    let mut rows_out = 0u64;
    let mut result = NodeResult::new(stmt, schema)?;
    for eb in batches {
        rows_in += eb.num_rows() as u64;
        let mask = where_mask(stmt, &eb, &mut stats)?;
        rows_out += mask.count_set() as u64;
        match &mut result {
            NodeResult::Partial(t) => t.update_encoded(&eb, &mask, wanted, &mut stats)?,
            NodeResult::Rows(_) => {
                let batch = stats.materialize(&eb, &mask, wanted)?;
                result.push(stmt, &batch)?;
            }
        }
    }
    stats.finish(rec, node, db.cluster().profile().costs.db_scan_ns_per_value);
    scan_span.record("rows_in", rows_in);
    scan_span.record("rows_out", rows_out);
    vdr_obs::counter_on("exec.scan.rows", node.0, rows_in);
    vdr_obs::counter_on("exec.filter.rows", node.0, rows_out);
    result.finish(stmt)
}

/// Evaluate a WHERE predicate against an encoded batch, producing the
/// is-TRUE selection mask [`Expr::eval_predicate`] gives on decoded columns.
/// RLE columns compare once per run ([`kernels::cmp_scalar_rle`]),
/// dictionary columns once per distinct code
/// ([`kernels::cmp_scalar_dict`]); leaves outside the encoded kernels decode
/// just their own column and fall back to the decoded evaluator.
fn eval_predicate_encoded(
    e: &Expr,
    eb: &EncodedBatch,
    stats: &mut EncodedScanStats,
) -> Result<Bitmap> {
    let n = eb.num_rows();
    match e {
        Expr::Literal(Value::Bool(true)) => Ok(Bitmap::all_valid(n)),
        Expr::Literal(Value::Bool(false)) => Ok(Bitmap::all_clear(n)),
        Expr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => {
            // Same short-circuits as the decoded path: an all-false left arm
            // settles an AND, an all-true left arm an OR.
            let l = eval_predicate_encoded(left, eb, stats)?;
            match op {
                BinOp::And if !l.any_set() => Ok(l),
                BinOp::And => Ok(l.and(&eval_predicate_encoded(right, eb, stats)?)),
                _ if l.all_set() => Ok(l),
                _ => Ok(l.or(&eval_predicate_encoded(right, eb, stats)?)),
            }
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let cop = cmp_op(*op);
            if let (Expr::Column(name), Expr::Literal(v)) = (&**left, &**right) {
                if let Some(mask) = encoded_cmp_leaf(eb, name, cop, v, stats)? {
                    return Ok(mask);
                }
            }
            if let (Expr::Literal(v), Expr::Column(name)) = (&**left, &**right) {
                if let Some(mask) = encoded_cmp_leaf(eb, name, cop.flip(), v, stats)? {
                    return Ok(mask);
                }
            }
            decoded_predicate_leaf(e, eb, stats)
        }
        _ => decoded_predicate_leaf(e, eb, stats),
    }
}

/// Try the encoded comparison kernels for `column cop literal`. `Ok(None)`
/// means "no encoded kernel applies" (decoded column, bool runs, or a
/// type/kernels mismatch) and the caller falls back.
fn encoded_cmp_leaf(
    eb: &EncodedBatch,
    name: &str,
    cop: CmpOp,
    lit: &Value,
    stats: &mut EncodedScanStats,
) -> Result<Option<Bitmap>> {
    let Some(col) = eb.encoded_column(name) else {
        return Ok(None);
    };
    if let Some(rhs) = literal_num(lit) {
        if let Some((mask, s)) = kernels::cmp_scalar_rle(col, cop, rhs) {
            stats.runs_skipped += s.rows_skipped();
            stats.runs_bsearched += s.runs_bsearched;
            return Ok(Some(mask));
        }
    }
    if let Value::Varchar(s) = lit {
        if let Some((mask, s)) = kernels::cmp_scalar_dict(col, cop, s) {
            stats.codes_tested += s.comparisons;
            return Ok(Some(mask));
        }
    }
    Ok(None)
}

/// Fallback for a predicate leaf the encoded kernels can't take: expand only
/// the columns that leaf references (all rows — the mask isn't known yet),
/// charged like any other expansion, and run the decoded evaluator over
/// them. Decoded columns are read in place.
fn decoded_predicate_leaf(
    e: &Expr,
    eb: &EncodedBatch,
    stats: &mut EncodedScanStats,
) -> Result<Bitmap> {
    let cols: HashSet<String> = e.columns().iter().map(|c| c.to_ascii_lowercase()).collect();
    let all = Bitmap::all_valid(eb.num_rows());
    let (batch, expanded) = eb.materialize(&all, Some(&cols))?;
    stats.expanded_values += expanded;
    e.eval_predicate(&batch)
}

// --------------------------------------------------- per-node partial state

/// What a node contributes to the final answer: projected rows (with hidden
/// ORDER BY key columns appended, at most `offset + limit` of them under a
/// LIMIT) or its partial aggregate.
enum NodeResult {
    Rows(Batch),
    Partial(AggTable),
}

fn aggregating(stmt: &SelectStmt) -> bool {
    stmt.has_aggregates() || !stmt.group_by.is_empty()
}

impl NodeResult {
    /// The contribution of a node that has seen no rows of `schema` yet.
    fn new(stmt: &SelectStmt, schema: &Schema) -> Result<NodeResult> {
        if aggregating(stmt) {
            Ok(NodeResult::Partial(AggTable::new(stmt, schema)?))
        } else {
            let empty = Batch::empty(schema.clone());
            Ok(NodeResult::Rows(project_rows_with_order_keys(
                stmt, &empty,
            )?))
        }
    }

    /// The contribution of one whole input batch.
    fn of(stmt: &SelectStmt, batch: &Batch) -> Result<NodeResult> {
        let mut out = NodeResult::new(stmt, batch.schema())?;
        out.push(stmt, batch)?;
        out.finish(stmt)
    }

    /// Fold one filtered input batch in. Under a LIMIT only the first
    /// `k = offset + limit` rows of the stable order can reach the answer:
    /// once the buffer passes `2k` rows it is cut back to its first `k`, so
    /// each row takes part in O(log k) amortized trimming work.
    fn push(&mut self, stmt: &SelectStmt, batch: &Batch) -> Result<()> {
        match self {
            NodeResult::Partial(t) => t.update(batch),
            NodeResult::Rows(rows) => {
                let projected = project_rows_with_order_keys(stmt, batch)?;
                if rows.is_empty() {
                    *rows = projected;
                } else {
                    rows.extend(&projected)?;
                }
                if let Some(k) = rows_needed(stmt) {
                    if rows.num_rows() > k.saturating_mul(2) {
                        *rows = top_rows(stmt, rows, k)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// The node's contribution after its last batch: under a LIMIT, at most
    /// its first `offset + limit` rows (a per-node top-N before the gather).
    fn finish(self, stmt: &SelectStmt) -> Result<NodeResult> {
        match (self, rows_needed(stmt)) {
            (NodeResult::Rows(rows), Some(k)) if rows.num_rows() > k => {
                Ok(NodeResult::Rows(top_rows(stmt, &rows, k)?))
            }
            (out, _) => Ok(out),
        }
    }
}

/// How many leading rows of the ordered result a LIMIT can return.
fn rows_needed(stmt: &SelectStmt) -> Option<usize> {
    let limit = stmt.limit?;
    let n = stmt.offset.unwrap_or(0).saturating_add(limit);
    Some(usize::try_from(n).unwrap_or(usize::MAX))
}

/// The first `k` rows of `batch` in the statement's stable order (hidden
/// ORDER BY key columns), or simply its first `k` rows without ORDER BY.
fn top_rows(stmt: &SelectStmt, batch: &Batch, k: usize) -> Result<Batch> {
    if stmt.order_by.is_empty() {
        return Ok(batch.slice(0, k));
    }
    let keys = stmt
        .order_by
        .iter()
        .enumerate()
        .map(|(i, o)| Ok((batch.column_by_name(&format!("{HIDDEN}{i}"))?, o.desc)))
        .collect::<Result<Vec<_>>>()?;
    Ok(batch.take(&kernels::RowOrder::new(&keys, false).top(batch.num_rows(), k)))
}

/// ORDER BY (over aggregate output column names) plus OFFSET/LIMIT — the
/// shared tail of the initiator-merge and shuffled local-finalization paths.
/// Hidden group-key columns are dropped first.
fn order_limit_aggregate_output(stmt: &SelectStmt, batch: Batch) -> Result<Batch> {
    let visible: Vec<&str> = batch
        .schema()
        .names()
        .into_iter()
        .filter(|n| !n.starts_with(agg::GROUP_KEY))
        .collect();
    let batch = if visible.len() < batch.num_columns() {
        batch.project(&visible)?
    } else {
        batch
    };
    let sorted = if stmt.order_by.is_empty() {
        batch
    } else {
        sort_by_exprs(
            batch,
            &stmt
                .order_by
                .iter()
                .map(|k| (k.expr.clone(), k.desc))
                .collect::<Vec<_>>(),
        )?
    };
    Ok(apply_offset_limit(stmt, sorted))
}

// ------------------------------------------------------------- projections

fn item_name(i: usize, item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => unreachable!("wildcard expanded before naming"),
        SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| match expr {
            Expr::Column(c) => c.clone(),
            other => format!("col{i}_{other}"),
        }),
        SelectItem::Aggregate { func, alias, .. } => {
            alias.clone().unwrap_or_else(|| func.name().to_string())
        }
        SelectItem::Transform { name, .. } => name.clone(),
    }
}

/// Expand `*` into per-column expression items against `batch`'s schema.
fn expand_items(stmt: &SelectStmt, batch: &Batch) -> Vec<SelectItem> {
    let mut out = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for f in batch.schema().fields() {
                    out.push(SelectItem::Expr {
                        expr: Expr::Column(f.name.clone()),
                        alias: None,
                    });
                }
            }
            other => out.push(other.clone()),
        }
    }
    out
}

/// Hidden ORDER BY key columns use this prefix and are stripped after the
/// final sort.
const HIDDEN: &str = "__sortkey_";

fn project_rows_with_order_keys(stmt: &SelectStmt, batch: &Batch) -> Result<Batch> {
    let items = expand_items(stmt, batch);
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(DbError::Plan(
                "aggregates cannot mix with plain columns without GROUP BY".into(),
            ));
        };
        let col = expr.eval(batch)?;
        fields.push(Field::new(item_name(i, item), col.data_type()));
        columns.push(col);
    }
    for (i, key) in stmt.order_by.iter().enumerate() {
        let col = key.expr.eval(batch)?;
        fields.push(Field::new(format!("{HIDDEN}{i}"), col.data_type()));
        columns.push(col);
    }
    Ok(Batch::new(Schema::new(fields), columns)?)
}

fn project_batch(stmt: &SelectStmt, batch: &Batch) -> Result<Batch> {
    let projected = project_rows_with_order_keys(stmt, batch)?;
    let sorted = apply_order_by_hidden(stmt, projected)?;
    Ok(apply_offset_limit(stmt, sorted))
}

fn apply_order_by_hidden(stmt: &SelectStmt, batch: Batch) -> Result<Batch> {
    if stmt.order_by.is_empty() {
        return Ok(batch);
    }
    let keys: Vec<(Expr, bool)> = stmt
        .order_by
        .iter()
        .enumerate()
        .map(|(i, k)| (Expr::col(&format!("{HIDDEN}{i}")), k.desc))
        .collect();
    let sorted = sort_by_exprs(batch, &keys)?;
    // Strip hidden columns.
    let visible: Vec<&str> = sorted
        .schema()
        .names()
        .into_iter()
        .filter(|n| !n.starts_with(HIDDEN))
        .collect();
    Ok(sorted.project(&visible)?)
}

/// Stable sort of `batch` rows by the given key expressions.
fn sort_by_exprs(batch: Batch, keys: &[(Expr, bool)]) -> Result<Batch> {
    let cols = keys
        .iter()
        .map(|(e, _)| agg::eval_col(e, &batch))
        .collect::<Result<Vec<_>>>()?;
    let sort_keys: Vec<(&Column, bool)> = cols
        .iter()
        .zip(keys)
        .map(|(c, (_, d))| (c.as_ref(), *d))
        .collect();
    let idx = kernels::RowOrder::new(&sort_keys, false).sorted(batch.num_rows());
    drop(sort_keys);
    drop(cols);
    Ok(batch.take(&idx))
}

fn apply_offset_limit(stmt: &SelectStmt, batch: Batch) -> Batch {
    let n = batch.num_rows();
    let start = stmt.offset.unwrap_or(0).min(n as u64) as usize;
    let end = match stmt.limit {
        Some(l) => (start as u64 + l).min(n as u64) as usize,
        None => n,
    };
    batch.slice(start, end)
}

// -------------------------------------------------------------- aggregation

/// Validate the select list of an aggregating statement and collect the
/// aggregate specs: every non-aggregate item must be a GROUP BY expression.
fn agg_specs(stmt: &SelectStmt) -> Result<Vec<(AggFunc, Option<Expr>, bool)>> {
    let mut specs: Vec<(AggFunc, Option<Expr>, bool)> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Aggregate {
                func,
                arg,
                distinct,
                ..
            } => specs.push((*func, arg.clone(), *distinct)),
            SelectItem::Expr { expr, .. } => {
                if !stmt.group_by.iter().any(|g| g == expr) {
                    return Err(DbError::Plan(format!(
                        "'{expr}' must appear in GROUP BY or inside an aggregate"
                    )));
                }
            }
            SelectItem::Wildcard => {
                return Err(DbError::Plan("'*' cannot mix with aggregates".into()))
            }
            SelectItem::Transform { .. } => unreachable!("handled earlier"),
        }
    }
    Ok(specs)
}

// --------------------------------------------------------------- transforms

#[allow(clippy::too_many_arguments)]
fn run_transform(
    db: &VerticaDb,
    stmt: &SelectStmt,
    name: &str,
    args: &[Expr],
    params: &std::collections::BTreeMap<String, String>,
    partition: &Partition,
    rec: &Arc<PhaseRecorder>,
) -> Result<Batch> {
    let table = stmt
        .from
        .as_deref()
        .ok_or_else(|| DbError::Plan("transform functions require a FROM table".into()))?;
    let def = db.catalog().get(table)?;
    let func = db.udx().get(name)?;

    let mut tf_span = vdr_obs::span("exec.transform");
    tf_span.record("function", name);
    tf_span.record("table", table);
    let tf_span_id = tf_span.id();

    // Input schema: the evaluated argument columns, named after column refs
    // where possible.
    let arg_fields: Vec<Field> = args
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let name = match e {
                Expr::Column(c) => c.clone(),
                other => format!("arg{i}_{other}"),
            };
            // Types resolved against an empty batch of the table schema.
            let probe = Batch::empty(def.schema.clone());
            e.output_type(&probe).map(|t| Field::new(name, t))
        })
        .collect::<Result<_>>()?;
    let input_schema = Schema::new(arg_fields);
    let out_schema = func.output_schema(&input_schema, params)?;

    // PARTITION BEST: the planner is resource-aware — it spawns up to the
    // profile's export-lane count per node, bounded by the containers
    // available (an instance with no containers would idle).
    let lanes = db.cluster().profile().costs.vft_export_lanes;
    let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
    // Transforms reference a known column set — function args, WHERE, and
    // the PARTITION BY routing column — so the scan always gets a
    // projection to push down.
    let wanted: HashSet<String> = {
        let mut cols = HashSet::new();
        for a in args {
            add_expr_columns(&mut cols, a);
        }
        if let Some(w) = &stmt.where_clause {
            add_expr_columns(&mut cols, w);
        }
        if let Partition::By(col) = partition {
            cols.insert(col.to_ascii_lowercase());
        }
        cols
    };
    // Scatter workers and rayon instances run on their own threads;
    // re-enter the query scope in each so their spans stay attributed.
    let query_id = vdr_obs::current_query_id();
    let per_node_outputs: Vec<Result<Vec<Batch>>> = db.cluster().scatter(|node| {
        let _q = vdr_obs::QueryScope::enter(query_id);
        let node_id = node.id();
        let _n = vdr_obs::NodeScope::enter(node_id.0);
        let n_containers = db.storage().containers(table, node_id).len();
        let instances = match partition {
            Partition::Best => lanes.min(n_containers.max(1)),
            Partition::By(_) => lanes,
        };
        rec.set_lanes(node_id, instances);
        node.run(|| -> Result<Vec<Batch>> {
            use rayon::prelude::*;
            let results: Vec<Result<Vec<Batch>>> = (0..instances)
                .into_par_iter()
                .map(|instance| -> Result<Vec<Batch>> {
                    // Rayon pool threads are shared across queries: scope
                    // both the query id and the owning node for the spans
                    // and events this instance records.
                    let _q = vdr_obs::QueryScope::enter(query_id);
                    let _n = vdr_obs::NodeScope::enter(node_id.0);
                    let mut inst_span =
                        vdr_obs::detail_span_with_parent("exec.transform.instance", tf_span_id);
                    inst_span.set_node(node_id.0);
                    inst_span.record("instance", instance);
                    let spec = match partition {
                        // Each instance reads a disjoint slice of the node's
                        // containers ("UDFs on each database node read a
                        // unique segment of the table stored on that node").
                        Partition::Best => ScanSpec {
                            slice: instance,
                            num_slices: instances,
                            ..ScanSpec::columns(Some(&wanted))
                        },
                        // Every instance reads the whole segment and keeps
                        // its hash(col) share; the first read warms the page
                        // cache for the others.
                        Partition::By(_) => ScanSpec {
                            cached: instance > 0,
                            ..ScanSpec::columns(Some(&wanted))
                        },
                    };
                    let scanned = db.storage().scan(table, node_id, spec, rec)?;
                    // WHERE, PARTITION BY routing, argument projection.
                    let mut stats = EncodedScanStats::default();
                    let mut input = Vec::with_capacity(scanned.len());
                    for eb in &scanned {
                        let mask = where_mask(stmt, eb, &mut stats)?;
                        let mut batch = stats.materialize(eb, &mask, Some(&wanted))?;
                        if let Partition::By(col) = partition {
                            let key = batch.column_by_name(col)?;
                            let mine = Bitmap::from_fn(batch.num_rows(), |r| {
                                (hash_value(&key.get(r)) % instances as u64) as usize == instance
                            });
                            batch = Cow::Owned(batch.filter(&mine)?);
                        }
                        let cols: Vec<Column> =
                            args.iter().map(|e| e.eval(&batch)).collect::<Result<_>>()?;
                        input.push(Batch::new(input_schema.clone(), cols)?);
                    }
                    stats.finish(rec, node_id, scan_cost);
                    let ctx = UdxContext {
                        node: node_id,
                        instance,
                        instances_per_node: instances,
                        params,
                        dfs: db.dfs(),
                        cluster: db.cluster(),
                        rec,
                    };
                    let rows_in: u64 = input.iter().map(|b| b.num_rows() as u64).sum();
                    let mut out = Vec::new();
                    func.process_partition(&ctx, input, &mut |b| out.push(b))?;
                    let rows_out: u64 = out.iter().map(|b| b.num_rows() as u64).sum();
                    inst_span.record("rows_in", rows_in);
                    inst_span.record("rows_out", rows_out);
                    vdr_obs::counter_on("exec.transform.rows_in", node_id.0, rows_in);
                    vdr_obs::counter_on("exec.transform.rows_out", node_id.0, rows_out);
                    Ok(out)
                })
                .collect();
            let mut merged = Vec::new();
            for r in results {
                merged.extend(r?);
            }
            Ok(merged)
        })
    });

    // Collect outputs. Transform results materialize node-locally (as an
    // INSERT…SELECT would); we do not charge a gather — the paper's
    // prediction experiments measure in-database execution, not shipping a
    // billion rows to a client.
    let mut out = Batch::empty(out_schema);
    for node_batches in per_node_outputs {
        for b in node_batches? {
            out.extend(&b)?;
        }
    }
    let out = apply_offset_limit(stmt, out);
    tf_span.record("rows_out", out.num_rows());
    vdr_obs::counter("exec.output.rows", out.num_rows() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::VerticaDb;
    use vdr_cluster::SimCluster;

    fn db_with_data() -> Arc<VerticaDb> {
        let cluster = SimCluster::for_tests(3);
        let db = VerticaDb::new(cluster);
        db.query("CREATE TABLE t (id INTEGER, x FLOAT, tag VARCHAR) SEGMENTED BY HASH(id)")
            .unwrap();
        db.query(
            "INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, 3.5, 'a'), \
             (4, 4.5, 'b'), (5, 5.5, 'a'), (6, 6.5, 'c')",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_star_returns_all_rows() {
        let db = db_with_data();
        let out = db.query("SELECT * FROM t").unwrap().batch;
        assert_eq!(out.num_rows(), 6);
        assert_eq!(out.schema().names(), vec!["id", "x", "tag"]);
    }

    #[test]
    fn where_filters_across_nodes() {
        let db = db_with_data();
        let out = db.query("SELECT id FROM t WHERE x > 3.0").unwrap().batch;
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn order_by_limit_offset_shapes_odbc_range_queries() {
        let db = db_with_data();
        let out = db
            .query("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 2")
            .unwrap()
            .batch;
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column(0).get(0), Value::Int64(3));
        assert_eq!(out.column(0).get(1), Value::Int64(4));
        // DESC
        let out = db
            .query("SELECT id FROM t ORDER BY id DESC LIMIT 1")
            .unwrap()
            .batch;
        assert_eq!(out.column(0).get(0), Value::Int64(6));
    }

    #[test]
    fn order_by_column_not_in_projection() {
        let db = db_with_data();
        let out = db
            .query("SELECT tag FROM t ORDER BY x DESC LIMIT 1")
            .unwrap()
            .batch;
        assert_eq!(out.column(0).get(0), Value::Varchar("c".into()));
        assert_eq!(out.schema().names(), vec!["tag"]);
    }

    #[test]
    fn global_aggregates() {
        let db = db_with_data();
        let out = db
            .query("SELECT count(*), sum(x), avg(x), min(id), max(id) FROM t")
            .unwrap()
            .batch;
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int64(6));
        assert_eq!(out.row(0)[1], Value::Float64(24.0));
        assert_eq!(out.row(0)[2], Value::Float64(4.0));
        assert_eq!(out.row(0)[3], Value::Int64(1));
        assert_eq!(out.row(0)[4], Value::Int64(6));
    }

    #[test]
    fn group_by_with_order() {
        let db = db_with_data();
        let out = db
            .query("SELECT tag, count(*) AS n, avg(x) FROM t GROUP BY tag ORDER BY n DESC")
            .unwrap()
            .batch;
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.row(0)[0], Value::Varchar("a".into()));
        assert_eq!(out.row(0)[1], Value::Int64(3));
        assert_eq!(out.row(2)[0], Value::Varchar("c".into()));
    }

    #[test]
    fn aggregate_of_empty_table_is_zero() {
        let cluster = SimCluster::for_tests(2);
        let db = VerticaDb::new(cluster);
        db.query("CREATE TABLE e (a INTEGER)").unwrap();
        let out = db.query("SELECT count(*) FROM e").unwrap().batch;
        assert_eq!(out.row(0)[0], Value::Int64(0));
        let out = db.query("SELECT sum(a) FROM e").unwrap().batch;
        assert_eq!(out.row(0)[0], Value::Null);
    }

    #[test]
    fn expressions_and_aliases_in_projection() {
        let db = db_with_data();
        let out = db
            .query("SELECT id * 2 AS double_id, sqrt(x * x) FROM t ORDER BY id LIMIT 1")
            .unwrap()
            .batch;
        assert_eq!(out.schema().names()[0], "double_id");
        assert_eq!(out.row(0)[0], Value::Int64(2));
        assert_eq!(out.row(0)[1], Value::Float64(1.5));
    }

    #[test]
    fn non_grouped_column_rejected() {
        let db = db_with_data();
        let err = db.query("SELECT tag, count(*) FROM t").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = db_with_data();
        assert!(db.query("SELECT * FROM missing").is_err());
        assert!(db.query("SELECT nope FROM t").is_err());
    }

    #[test]
    fn fromless_select() {
        let db = db_with_data();
        let out = db.query("SELECT 1 + 2 AS three").unwrap().batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
        assert_eq!(out.schema().names(), vec!["three"]);
    }

    #[test]
    fn insert_validates_arity() {
        let db = db_with_data();
        assert!(db.query("INSERT INTO t VALUES (1, 2.0)").is_err());
    }

    #[test]
    fn drop_table_variants() {
        let db = db_with_data();
        db.query("DROP TABLE t").unwrap();
        assert!(db.query("SELECT * FROM t").is_err());
        assert!(db.query("DROP TABLE t").is_err());
        db.query("DROP TABLE IF EXISTS t").unwrap();
    }

    #[test]
    fn in_between_like_filters() {
        let db = db_with_data();
        let out = db
            .query("SELECT count(*) FROM t WHERE id IN (1, 3, 5, 99)")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
        let out = db
            .query("SELECT count(*) FROM t WHERE x BETWEEN 2.0 AND 4.5")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3)); // 2.5, 3.5, 4.5
        let out = db
            .query("SELECT count(*) FROM t WHERE tag LIKE 'a%' OR tag LIKE '_'")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(6)); // every tag is 1 char
        let out = db
            .query("SELECT count(*) FROM t WHERE tag NOT LIKE 'a'")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
    }

    #[test]
    fn count_distinct_across_nodes() {
        let db = db_with_data();
        // Six rows, three distinct tags, spread over a 3-node cluster —
        // the distinct sets must merge across node partials.
        let out = db
            .query("SELECT count(DISTINCT tag), count(tag), count(*) FROM t")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
        assert_eq!(out.row(0)[1], Value::Int64(6));
        assert_eq!(out.row(0)[2], Value::Int64(6));
        // Grouped distinct.
        let out = db
            .query("SELECT tag, count(DISTINCT id) AS n FROM t GROUP BY tag ORDER BY tag")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Varchar("a".into()));
        assert_eq!(out.row(0)[1], Value::Int64(3));
        assert_eq!(out.row(2)[1], Value::Int64(1));
    }

    #[test]
    fn create_table_as_select_materializes_results() {
        let db = db_with_data();
        db.query("CREATE TABLE evens AS SELECT id, x FROM t WHERE id % 2 = 0")
            .unwrap();
        let out = db
            .query("SELECT count(*), sum(id) FROM evens")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3)); // 2, 4, 6
        assert_eq!(out.row(0)[1], Value::Float64(12.0)); // SUM widens to float
                                                         // Aggregated CTAS too.
        db.query("CREATE TABLE tag_stats AS SELECT tag, count(*) AS n FROM t GROUP BY tag")
            .unwrap();
        let out = db
            .query("SELECT n FROM tag_stats ORDER BY n DESC LIMIT 1")
            .unwrap()
            .batch;
        assert_eq!(out.row(0)[0], Value::Int64(3));
        // Name collisions fail before any data moves.
        assert!(db.query("CREATE TABLE evens AS SELECT id FROM t").is_err());
    }

    /// What the old row-at-a-time partial charged for one group: each key
    /// value as a tag byte plus payload, and per aggregate 24 bytes of
    /// counters, its MIN and MAX values once a non-NULL argument arrived
    /// (every state tracked both), and each distinct value's tagged bytes.
    fn old_group_bytes(key: &[Value], args: &[(Vec<Value>, bool)]) -> u64 {
        fn size(v: &Value) -> u64 {
            match v {
                Value::Null => 1,
                Value::Int64(_) | Value::Float64(_) => 9,
                Value::Bool(_) => 2,
                Value::Varchar(s) => 1 + s.len() as u64,
            }
        }
        let mut n: u64 = key.iter().map(size).sum();
        for (vals, distinct) in args {
            n += 24;
            let present: Vec<&Value> = vals.iter().filter(|v| !v.is_null()).collect();
            let by_size = |want: std::cmp::Ordering| {
                present
                    .iter()
                    .copied()
                    .fold(None::<&Value>, |best, v| match best {
                        Some(b) if crate::expr::compare_values(v, b).unwrap() != want => Some(b),
                        _ => Some(v),
                    })
            };
            for extreme in [
                by_size(std::cmp::Ordering::Less),
                by_size(std::cmp::Ordering::Greater),
            ] {
                n += extreme.map_or(0, size);
            }
            if *distinct {
                let mut seen: Vec<&Value> = Vec::new();
                for v in present {
                    if !seen.contains(&v) {
                        seen.push(v);
                    }
                }
                n += seen.iter().map(|v| size(v)).sum::<u64>();
            }
        }
        n
    }

    /// Old and new partial weights of `sql` over `batch`: (old, new, number
    /// of distinct VARCHAR values carried).
    fn partial_weights(sql: &str, batch: &Batch) -> (u64, u64, u64) {
        let Statement::Select(stmt) = crate::sql::parse(sql).unwrap() else {
            panic!("not a SELECT: {sql}");
        };
        let mut table = agg::AggTable::new(&stmt, batch.schema()).unwrap();
        table.update(batch).unwrap();
        let new = table.partial().byte_size();
        let specs = agg_specs(&stmt).unwrap();
        let key_of = |r: usize| -> Vec<Value> {
            stmt.group_by
                .iter()
                .map(|g| g.eval(batch).unwrap().get(r))
                .collect()
        };
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        for r in 0..batch.num_rows() {
            let key = key_of(r);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, rows)) => rows.push(r),
                None => groups.push((key, vec![r])),
            }
        }
        let (mut old, mut strings) = (0u64, 0u64);
        for (key, rows) in &groups {
            let args: Vec<(Vec<Value>, bool)> = specs
                .iter()
                .map(|(_, arg, distinct)| {
                    let vals = match arg {
                        Some(a) => {
                            let col = a.eval(batch).unwrap();
                            rows.iter().map(|&r| col.get(r)).collect()
                        }
                        None => Vec::new(),
                    };
                    (vals, *distinct)
                })
                .collect();
            for (vals, distinct) in &args {
                if *distinct {
                    let mut seen: Vec<&Value> = Vec::new();
                    for v in vals.iter().filter(|v| matches!(v, Value::Varchar(_))) {
                        if !seen.contains(&v) {
                            seen.push(v);
                        }
                    }
                    strings += seen.len() as u64;
                }
            }
            old += old_group_bytes(key, &args);
        }
        (old, new, strings)
    }

    #[test]
    fn partial_batches_weigh_no_more_than_row_partials() {
        let mut rows = Vec::new();
        for i in 0..400i64 {
            let k = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int64(i % 17)
            };
            let tag = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Varchar(["alpha", "b", "", "delta"][(i % 4) as usize].into())
            };
            let x = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Float64((i % 9) as f64 - 2.5)
            };
            rows.push(vec![
                k,
                tag,
                x,
                Value::Int64(i % 23),
                Value::Bool(i % 3 == 0),
            ]);
        }
        let schema = Schema::of(&[
            ("k", DataType::Int64),
            ("tag", DataType::Varchar),
            ("x", DataType::Float64),
            ("n", DataType::Int64),
            ("flag", DataType::Bool),
        ]);
        let batch = Batch::from_rows(schema, &rows).unwrap();
        for sql in [
            "SELECT k, count(*), sum(x), avg(x), min(x), max(tag), count(DISTINCT n) FROM t GROUP BY k",
            "SELECT tag, count(x), min(n), max(n), count(DISTINCT x) FROM t GROUP BY tag",
            "SELECT k, tag, max(x), min(flag) FROM t GROUP BY k, tag",
            "SELECT count(*), sum(x), count(DISTINCT flag) FROM t",
            "SELECT tag, flag, count(*) FROM t GROUP BY tag, flag",
        ] {
            let (old, new, strings) = partial_weights(sql, &batch);
            assert_eq!(strings, 0);
            assert!(new <= old, "{sql}: partial batch {new} B > row partials {old} B");
        }
        // A COUNT(DISTINCT) over VARCHAR carries each string with the
        // column's 4-byte length instead of the old 1-byte tag: a group can
        // outweigh its row partial by at most 3 bytes per distinct string,
        // plus a validity bit.
        let sql = "SELECT k, count(DISTINCT tag) FROM t GROUP BY k";
        let (old, new, strings) = partial_weights(sql, &batch);
        assert!(strings > 0);
        assert!(
            new <= old + 3 * strings + strings.div_ceil(8),
            "{sql}: {new} B vs {old} B"
        );
    }

    #[test]
    fn group_table_keys_compare_by_bit_pattern() {
        let mut t = agg::GroupTable::new(&[DataType::Float64]);
        let mut b = vdr_columnar::ColumnBuilder::new(DataType::Float64);
        for v in [f64::NAN, 0.0, f64::NAN, -0.0, 0.0] {
            b.push(Value::Float64(v)).unwrap();
        }
        b.push_null();
        b.push_null();
        let col = b.finish();
        // NaN groups with NaN, -0.0 apart from 0.0, NULL with NULL.
        assert_eq!(t.intern(&[&col], 7).unwrap(), vec![0, 1, 0, 2, 1, 3, 3]);
        assert_eq!(t.len(), 4);
        assert!(t.intern(&[&Column::from_i64(vec![1])], 1).is_err());
    }

    // --------------------------------------------- compressed execution

    /// A table whose blocks actually pick RLE (sorted low-cardinality `grp`)
    /// and Dictionary (3-value `tag`) encodings, with NULLs in both.
    fn db_low_cardinality() -> Arc<VerticaDb> {
        let cluster = SimCluster::for_tests(2);
        let db = VerticaDb::new(cluster);
        db.query("CREATE TABLE lc (id INTEGER, grp INTEGER, x FLOAT, tag VARCHAR)")
            .unwrap();
        let mut values = Vec::new();
        for i in 0..600i64 {
            let grp = if i % 97 == 0 {
                "NULL".to_string()
            } else {
                (i / 200).to_string()
            };
            let tag = if i % 89 == 0 {
                "NULL".to_string()
            } else {
                format!("'{}'", ["a", "b", "c"][(i % 3) as usize])
            };
            values.push(format!("({i}, {grp}, {}.5, {tag})", i % 7));
        }
        db.query(&format!("INSERT INTO lc VALUES {}", values.join(", ")))
            .unwrap();
        db
    }

    fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
        (0..b.num_rows()).map(|r| b.row(r)).collect()
    }

    #[test]
    fn compressed_execution_matches_expected_rows() {
        use Value::{Float64 as F, Int64 as I, Null, Varchar};
        let db = db_low_cardinality();
        let s = |v: &str| Varchar(v.into());
        // Rows of `lc`: id i, grp i / 200 (NULL when i % 97 == 0), x
        // i % 7 + 0.5, tag "a"/"b"/"c" by i % 3 (NULL when i % 89 == 0).
        let cases: Vec<(&str, Vec<Vec<Value>>)> = vec![
            // RLE predicate, late-materialized projection.
            (
                "SELECT id, x FROM lc WHERE grp = 1 ORDER BY id",
                (200..400i64)
                    .filter(|i| i % 97 != 0)
                    .map(|i| vec![I(i), F((i % 7) as f64 + 0.5)])
                    .collect(),
            ),
            // Dictionary predicate plus RLE predicate in an AND tree.
            (
                "SELECT count(*), sum(x) FROM lc WHERE grp >= 1 AND tag = 'b'",
                vec![vec![I(131), F(457.5)]],
            ),
            // OR tree, flipped literal-first operand order.
            (
                "SELECT count(*) FROM lc WHERE 2 <= grp OR tag <> 'a'",
                vec![vec![I(462)]],
            ),
            // Dictionary GROUP BY (dense per-code path) with NULL keys.
            (
                "SELECT tag, count(*) AS n, avg(x), min(id), max(id) FROM lc GROUP BY tag ORDER BY tag",
                vec![
                    vec![s("a"), I(197), F(694.5 / 197.0), I(3), I(597)],
                    vec![s("b"), I(198), F(688.0 / 198.0), I(1), I(598)],
                    vec![s("c"), I(198), F(688.0 / 198.0), I(2), I(599)],
                    vec![Null, I(7), F(3.5), I(0), I(534)],
                ],
            ),
            // Dictionary GROUP BY whose argument reads no column.
            (
                "SELECT tag, sum(1), count(*) FROM lc GROUP BY tag ORDER BY tag",
                vec![
                    vec![s("a"), F(197.0), I(197)],
                    vec![s("b"), F(198.0), I(198)],
                    vec![s("c"), F(198.0), I(198)],
                    vec![Null, F(7.0), I(7)],
                ],
            ),
            // Filtered dictionary GROUP BY with a distinct aggregate.
            (
                "SELECT tag, count(DISTINCT grp) FROM lc WHERE id < 500 GROUP BY tag ORDER BY tag",
                vec![
                    vec![s("a"), I(3)],
                    vec![s("b"), I(3)],
                    vec![s("c"), I(3)],
                    vec![Null, I(3)],
                ],
            ),
            // NULL-heavy predicate: NULL grp rows drop.
            ("SELECT count(*) FROM lc WHERE grp <= 2", vec![vec![I(593)]]),
            // Non-dictionary GROUP BY falls back to late materialization.
            (
                "SELECT grp, count(*) FROM lc WHERE tag = 'c' GROUP BY grp ORDER BY grp",
                vec![
                    vec![I(0), I(64)],
                    vec![I(1), I(66)],
                    vec![I(2), I(66)],
                    vec![Null, I(2)],
                ],
            ),
        ];
        for (sql, want) in cases {
            assert_eq!(rows_of(&db.query(sql).unwrap().batch), want, "{sql}");
        }
    }

    #[test]
    fn predicate_fallback_decode_is_charged() {
        // `grp` is RLE (four runs of 1000), `x` plain. A kernel predicate
        // and an IN list select the same rows; the IN leaf has no encoded
        // kernel, so it expands `grp` for every row, and that decode costs
        // the same per value as any other expansion.
        let db = VerticaDb::new(SimCluster::for_tests(1));
        db.query("CREATE TABLE r (grp INTEGER, x FLOAT)").unwrap();
        let rows = 4000i64;
        let values: Vec<String> = (0..rows)
            .map(|i| format!("({}, {i}.5)", i / 1000))
            .collect();
        db.query(&format!("INSERT INTO r VALUES {}", values.join(", ")))
            .unwrap();
        let warm_cpu = |sql: &str| {
            db.query(sql).unwrap();
            let rec = Arc::new(PhaseRecorder::new(
                "t",
                vdr_cluster::PhaseKind::Sequential,
                1,
            ));
            let out = db.query_with(sql, &rec).unwrap();
            let Ok(rec) = Arc::try_unwrap(rec) else {
                panic!("the statement still holds its recorder")
            };
            (
                out.row(0),
                rec.finish(db.cluster().profile()).total_cpu_core_ns,
            )
        };
        let (kernel, kernel_cpu) = warm_cpu("SELECT sum(x) FROM r WHERE grp = 1 OR grp = 2");
        let (fallback, fallback_cpu) = warm_cpu("SELECT sum(x) FROM r WHERE grp IN (1, 2)");
        assert_eq!(kernel, fallback);
        let per_value = db.cluster().profile().costs.db_scan_ns_per_value;
        assert_eq!(fallback_cpu - kernel_cpu, rows as f64 * per_value);
    }

    #[test]
    fn encoded_predicate_skips_runs_under_profile() {
        let db = db_low_cardinality();
        db.query("PROFILE SELECT count(*) FROM lc WHERE grp = 1")
            .unwrap();
        db.query("PROFILE SELECT tag, count(*) FROM lc WHERE tag = 'b' GROUP BY tag")
            .unwrap();
        let m = db
            .query(
                "SELECT name, value FROM v_monitor.metrics \
                 WHERE name LIKE 'scan.encoded.%' ORDER BY name",
            )
            .unwrap()
            .batch;
        let total = |want: &str| -> f64 {
            (0..m.num_rows())
                .filter(|&r| matches!(&m.row(r)[0], Value::Varchar(n) if n == want))
                .map(|r| m.row(r)[1].as_f64().unwrap_or(0.0))
                .sum()
        };
        // The RLE predicate evaluated per run, not per row — the acceptance
        // criterion for compressed execution.
        assert!(
            total("scan.encoded.runs_skipped") > 0.0,
            "RLE predicate must skip per-row work: {m:?}"
        );
        assert!(
            total("scan.encoded.codes_tested") > 0.0,
            "dictionary predicate must test codes"
        );
        assert!(
            total("scan.encoded.late_materialized_rows") > 0.0,
            "surviving rows must late-materialize"
        );
    }

    #[test]
    fn sorted_rle_predicates_binary_search_run_boundaries() {
        let db = VerticaDb::new(SimCluster::for_tests(2));
        db.query("CREATE TABLE st (s INTEGER, x FLOAT)").unwrap();
        // `s` is sorted with 64 runs of 40 rows: each node's round-robin
        // share keeps all 64 runs (of 20), well past the bsearch threshold.
        let values: Vec<String> = (0..2560i64)
            .map(|i| format!("({}, {}.25)", i / 40, i % 9))
            .collect();
        db.query(&format!("INSERT INTO st VALUES {}", values.join(", ")))
            .unwrap();
        let cases = [
            (
                "SELECT count(*) FROM st WHERE s < 20",
                vec![Value::Int64(800)],
            ),
            (
                "SELECT count(*), sum(x) FROM st WHERE s >= 48",
                vec![Value::Int64(640), Value::Float64(2719.0)],
            ),
            (
                "SELECT s, count(*) FROM st WHERE s = 7 GROUP BY s",
                vec![Value::Int64(7), Value::Int64(40)],
            ),
        ];
        for (sql, want) in cases {
            let out = db.query(sql).unwrap().batch;
            assert_eq!(rows_of(&out), vec![want], "{sql}");
        }
        let m = db
            .query(
                "SELECT sum(value) FROM v_monitor.metrics \
                 WHERE name = 'scan.encoded.runs_bsearched'",
            )
            .unwrap()
            .batch;
        let total = m.row(0)[0].as_f64().unwrap_or(0.0);
        // 3 queries × 2 nodes × 64 runs resolved by binary search.
        assert!(
            total >= (3 * 2 * 64) as f64,
            "sorted RLE predicates should binary-search, got {total}"
        );
    }
}
