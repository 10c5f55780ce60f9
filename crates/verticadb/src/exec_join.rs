//! Distributed hash JOIN: planning, repartitioning, and the partitioned
//! build+probe executor.
//!
//! A JOIN resolves to one of three strategies against the two tables'
//! segmentation metadata:
//!
//! - **Co-located**: both sides are `SEGMENTED BY HASH` on their join key, so
//!   equal keys already live on the same node and every node joins its local
//!   segments with no data movement at all.
//! - **Shuffle**: the side(s) not hash-segmented on the join key repartition
//!   over the [`vdr_cluster::exchange_framed`] fabric by `hash(key) % N` —
//!   the same routing [`Segmentation::Hash`] uses at load time, so shuffled
//!   rows land exactly where a hash-segmented side's matches live.
//! - **Broadcast**: when neither side is aligned and the right side is small,
//!   every node receives the whole right table (one refcounted frame fanned
//!   out N ways) and joins it against its local left segment.
//!
//! Shuffled partitions travel as VCOL blocks ([`encode_batch`]), so a
//! low-cardinality or sorted join-key column stays RLE/dictionary-encoded
//! across the wire and decodes late on the receiver
//! ([`decode_batch_encoded`] + [`EncodedBatch::materialize`]); the
//! `exchange.encoded_cols` counter reports how many columns arrived still
//! encoded. The local join itself is a rayon-parallel partitioned hash join:
//! build tables are split `hash(key) % P` ways and built concurrently, then
//! probe chunks run in parallel and concatenate in left-row order, keeping
//! the output deterministic.

use super::*;
use crate::segmentation::Segmentation;
use crate::sql::{JoinClause, JoinKind};
use bytes::Bytes;
use rayon::prelude::*;
use vdr_cluster::{exchange_framed, ClusterError, ExchangeRecv, Node};
use vdr_columnar::{decode_batch_encoded, encode_batch};

/// How the two sides meet on each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Strategy {
    /// Both sides hash-segmented on their join keys: no movement.
    CoLocated,
    /// Repartition the flagged side(s) by `hash(key) % N`.
    Shuffle { left: bool, right: bool },
    /// Ship the whole right side to every node.
    BroadcastRight,
}

impl Strategy {
    fn name(&self) -> &'static str {
        match self {
            Strategy::CoLocated => "colocated",
            Strategy::Shuffle {
                left: true,
                right: true,
            } => "shuffle_both",
            Strategy::Shuffle { left: true, .. } => "shuffle_left",
            Strategy::Shuffle { .. } => "shuffle_right",
            Strategy::BroadcastRight => "broadcast_right",
        }
    }
}

/// Which side a qualified name resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// A bare column name's resolution in the joined namespace.
enum NameRes {
    Out(String),
    /// The bare name exists on both sides; it must be qualified.
    Ambiguous,
}

/// The resolved plan: tables, join keys (canonical, unqualified), the output
/// naming of every column, and the movement strategy.
pub(super) struct JoinPlan {
    kind: JoinKind,
    left_table: String,
    right_table: String,
    left_key: String,
    right_key: String,
    /// Per side, in schema order: `(original column name, output name)`.
    /// Output names are the bare column name when unique across both sides,
    /// `alias.column` otherwise.
    left_out: Vec<(String, String)>,
    right_out: Vec<(String, String)>,
    /// Lowercased lookup (bare and alias-qualified) → output name.
    name_map: HashMap<String, NameRes>,
    pub(super) strategy: Strategy,
}

impl JoinPlan {
    pub(super) fn resolve(db: &VerticaDb, stmt: &SelectStmt) -> Result<JoinPlan> {
        let left_table = stmt
            .from
            .clone()
            .ok_or_else(|| DbError::Plan("JOIN requires a FROM table".into()))?;
        let j: &JoinClause = stmt.join.as_ref().expect("caller checked");
        if crate::monitor::v_monitor_table(&left_table).is_some()
            || crate::monitor::v_monitor_table(&j.table).is_some()
            || left_table.eq_ignore_ascii_case("r_models")
            || j.table.eq_ignore_ascii_case("r_models")
        {
            return Err(DbError::Plan(
                "JOIN is not supported on system tables".into(),
            ));
        }
        let left_def = db.catalog().get(&left_table)?;
        let right_def = db.catalog().get(&j.table)?;
        let left_alias = stmt
            .from_alias
            .clone()
            .unwrap_or_else(|| left_def.name.clone());
        let right_alias = j.alias.clone().unwrap_or_else(|| right_def.name.clone());
        if left_alias.eq_ignore_ascii_case(&right_alias) {
            return Err(DbError::Plan(format!(
                "both JOIN sides are named '{left_alias}'; alias one of them"
            )));
        }

        let resolve_side = |key: &str| -> Result<(Side, String)> {
            if let Some((q, c)) = key.split_once('.') {
                let (side, def) = if q.eq_ignore_ascii_case(&left_alias)
                    || q.eq_ignore_ascii_case(&left_def.name)
                {
                    (Side::Left, &left_def)
                } else if q.eq_ignore_ascii_case(&right_alias)
                    || q.eq_ignore_ascii_case(&right_def.name)
                {
                    (Side::Right, &right_def)
                } else {
                    return Err(DbError::Plan(format!(
                        "unknown table qualifier '{q}' in ON clause"
                    )));
                };
                let i = def.schema.index_of(c).map_err(|_| {
                    DbError::Plan(format!("no column '{c}' in table '{}'", def.name))
                })?;
                Ok((side, def.schema.fields()[i].name.clone()))
            } else {
                let l = left_def.schema.index_of(key).ok();
                let r = right_def.schema.index_of(key).ok();
                match (l, r) {
                    (Some(_), Some(_)) => Err(DbError::Plan(format!(
                        "join key '{key}' is ambiguous; qualify it"
                    ))),
                    (Some(i), None) => Ok((Side::Left, left_def.schema.fields()[i].name.clone())),
                    (None, Some(i)) => Ok((Side::Right, right_def.schema.fields()[i].name.clone())),
                    (None, None) => Err(DbError::Plan(format!(
                        "join key '{key}' not found on either side"
                    ))),
                }
            }
        };
        let k1 = resolve_side(&j.left_key)?;
        let k2 = resolve_side(&j.right_key)?;
        let (left_key, right_key) = match (k1, k2) {
            ((Side::Left, l), (Side::Right, r)) | ((Side::Right, r), (Side::Left, l)) => (l, r),
            _ => {
                return Err(DbError::Plan(
                    "ON condition must reference one column from each side".into(),
                ))
            }
        };
        let ldt = left_def.schema.fields()[left_def.schema.index_of(&left_key)?].dtype;
        let rdt = right_def.schema.fields()[right_def.schema.index_of(&right_key)?].dtype;
        if ldt != rdt {
            return Err(DbError::Plan(format!(
                "join key type mismatch: {left_key} is {ldt:?}, {right_key} is {rdt:?}"
            )));
        }

        // Output naming: bare when unique, alias-qualified otherwise.
        let mut name_map: HashMap<String, NameRes> = HashMap::new();
        let mut side_out = |def: &crate::catalog::TableDef,
                            other: &crate::catalog::TableDef,
                            alias: &str|
         -> Vec<(String, String)> {
            let mut out = Vec::new();
            for f in def.schema.fields() {
                let unique = other.schema.index_of(&f.name).is_err();
                let out_name = if unique {
                    f.name.clone()
                } else {
                    format!("{alias}.{}", f.name)
                };
                name_map.insert(
                    format!(
                        "{}.{}",
                        alias.to_ascii_lowercase(),
                        f.name.to_ascii_lowercase()
                    ),
                    NameRes::Out(out_name.clone()),
                );
                if !alias.eq_ignore_ascii_case(&def.name) {
                    name_map.insert(
                        format!(
                            "{}.{}",
                            def.name.to_ascii_lowercase(),
                            f.name.to_ascii_lowercase()
                        ),
                        NameRes::Out(out_name.clone()),
                    );
                }
                let bare = f.name.to_ascii_lowercase();
                if unique {
                    name_map.insert(bare, NameRes::Out(out_name.clone()));
                } else {
                    name_map.insert(bare, NameRes::Ambiguous);
                }
                out.push((f.name.clone(), out_name));
            }
            out
        };
        let left_out = side_out(&left_def, &right_def, &left_alias);
        let right_out = side_out(&right_def, &left_def, &right_alias);

        let aligned = |def: &crate::catalog::TableDef, key: &str| {
            matches!(&def.segmentation,
                Segmentation::Hash { column } if column.eq_ignore_ascii_case(key))
        };
        // On one node everything is local; any movement would be a
        // self-send through the loopback.
        let single_node = db.cluster().num_nodes() == 1;
        let left_aligned = single_node || aligned(&left_def, &left_key);
        let right_aligned = single_node || aligned(&right_def, &right_key);
        let strategy = if left_aligned && right_aligned {
            Strategy::CoLocated
        } else if left_aligned {
            Strategy::Shuffle {
                left: false,
                right: true,
            }
        } else if right_aligned {
            Strategy::Shuffle {
                left: true,
                right: false,
            }
        } else {
            let n = db.cluster().num_nodes() as u64;
            let lrows: u64 = db.storage().segment_rows(&left_table).iter().sum();
            let rrows: u64 = db.storage().segment_rows(&j.table).iter().sum();
            // Broadcast ships the right side N ways; a shuffle ships both
            // sides once. Pick whichever moves fewer rows.
            if rrows.saturating_mul(n) <= lrows + rrows {
                Strategy::BroadcastRight
            } else {
                Strategy::Shuffle {
                    left: true,
                    right: true,
                }
            }
        };

        Ok(JoinPlan {
            kind: j.kind,
            left_table: left_def.name.clone(),
            right_table: right_def.name.clone(),
            left_key,
            right_key,
            left_out,
            right_out,
            name_map,
            strategy,
        })
    }

    /// Rewrite the statement into the joined namespace: every column
    /// reference (projection, WHERE, GROUP BY, ORDER BY) becomes its output
    /// name, and the join clause is dropped — downstream the statement
    /// behaves like a single-table SELECT over the joined batch.
    pub(super) fn rewrite(&self, stmt: &SelectStmt) -> Result<SelectStmt> {
        let mut out = stmt.clone();
        out.join = None;
        for item in &mut out.items {
            match item {
                SelectItem::Wildcard => {}
                SelectItem::Expr { expr, .. } => self.rewrite_expr(expr)?,
                SelectItem::Aggregate { arg, .. } => {
                    if let Some(a) = arg {
                        self.rewrite_expr(a)?;
                    }
                }
                SelectItem::Transform { args, .. } => {
                    for a in args {
                        self.rewrite_expr(a)?;
                    }
                }
            }
        }
        if let Some(w) = &mut out.where_clause {
            self.rewrite_expr(w)?;
        }
        for g in &mut out.group_by {
            self.rewrite_expr(g)?;
        }
        for k in &mut out.order_by {
            self.rewrite_expr(&mut k.expr)?;
        }
        Ok(out)
    }

    fn rewrite_expr(&self, e: &mut Expr) -> Result<()> {
        match e {
            Expr::Column(name) => match self.name_map.get(&name.to_ascii_lowercase()) {
                Some(NameRes::Out(o)) => {
                    *name = o.clone();
                    Ok(())
                }
                Some(NameRes::Ambiguous) => Err(DbError::Plan(format!(
                    "column '{name}' is ambiguous in this JOIN; qualify it"
                ))),
                None => Err(DbError::Plan(format!(
                    "unknown column '{name}' in JOIN query"
                ))),
            },
            Expr::Literal(_) => Ok(()),
            Expr::Neg(a) | Expr::Not(a) | Expr::IsNull(a) | Expr::IsNotNull(a) => {
                self.rewrite_expr(a)
            }
            Expr::InList { expr, list, .. } => {
                self.rewrite_expr(expr)?;
                list.iter_mut().try_for_each(|x| self.rewrite_expr(x))
            }
            Expr::Like { expr, pattern, .. } => {
                self.rewrite_expr(expr)?;
                self.rewrite_expr(pattern)
            }
            Expr::Binary { left, right, .. } => {
                self.rewrite_expr(left)?;
                self.rewrite_expr(right)
            }
            Expr::Func { args, .. } => args.iter_mut().try_for_each(|x| self.rewrite_expr(x)),
        }
    }

    /// The per-side scan column sets implied by the rewritten statement's
    /// referenced columns: output names map back to original side columns,
    /// plus the join key on each side. `None` = wildcard = scan everything.
    fn side_wanted(
        &self,
        inner: &SelectStmt,
    ) -> (Option<HashSet<String>>, Option<HashSet<String>>) {
        let Some(outs) = referenced_columns(inner) else {
            return (None, None);
        };
        let pick = |side: &[(String, String)], key: &str| -> HashSet<String> {
            let mut w: HashSet<String> = side
                .iter()
                .filter(|(_, out)| outs.contains(&out.to_ascii_lowercase()))
                .map(|(orig, _)| orig.to_ascii_lowercase())
                .collect();
            w.insert(key.to_ascii_lowercase());
            w
        };
        (
            Some(pick(&self.left_out, &self.left_key)),
            Some(pick(&self.right_out, &self.right_key)),
        )
    }

    /// Output name of an original column on the given side.
    fn out_name(&self, side: Side, orig: &str) -> String {
        let table = match side {
            Side::Left => &self.left_out,
            Side::Right => &self.right_out,
        };
        table
            .iter()
            .find(|(o, _)| o.eq_ignore_ascii_case(orig))
            .map(|(_, out)| out.clone())
            .unwrap_or_else(|| orig.to_string())
    }
}

// ------------------------------------------------------------- entry point

pub(super) fn execute_join_select(
    db: &VerticaDb,
    stmt: &SelectStmt,
    rec: &Arc<PhaseRecorder>,
) -> Result<Batch> {
    let plan = JoinPlan::resolve(db, stmt)?;
    let inner = plan.rewrite(stmt)?;
    let mut join_span = vdr_obs::span("exec.join");
    join_span.record("strategy", plan.strategy.name());
    join_span.record("left", &plan.left_table);
    join_span.record("right", &plan.right_table);
    let span_id = join_span.id();
    let per_node = match plan.strategy {
        Strategy::CoLocated => colocated(db, &plan, &inner, rec, span_id),
        Strategy::Shuffle { left, right } => {
            shuffled(db, &plan, &inner, rec, left, right, false, span_id)?
        }
        Strategy::BroadcastRight => shuffled(db, &plan, &inner, rec, false, true, true, span_id)?,
    };
    drop(join_span);
    // The joined per-node partials flow through the ordinary gather / merge /
    // finalize machinery (including the shuffled two-phase GROUP BY — a
    // joined GROUP BY key is never segmentation-aligned).
    gather_and_finalize(db, &inner, rec, per_node, false)
}

/// Scan one side of the join on one node, concatenated into a single batch
/// restricted to the `wanted` columns.
fn scan_side(
    db: &VerticaDb,
    table: &str,
    node: &Arc<Node>,
    rec: &Arc<PhaseRecorder>,
    wanted: Option<&HashSet<String>>,
) -> Result<Batch> {
    let batches = db
        .storage()
        .scan_node_projected(table, node.id(), rec, false, wanted)?;
    match batches.len() {
        0 => {
            // Empty segment: synthesize the projected schema so downstream
            // column lookups still resolve.
            let def = db.catalog().get(table)?;
            let keep = |name: &str| match wanted {
                None => true,
                Some(set) => set.iter().any(|w| w.eq_ignore_ascii_case(name)),
            };
            let fields: Vec<Field> = def
                .schema
                .fields()
                .iter()
                .filter(|f| keep(&f.name))
                .cloned()
                .collect();
            Ok(Batch::empty(Schema::new(fields)))
        }
        1 => Ok(batches[0].as_ref().clone()),
        _ => {
            let schema = batches[0].schema().clone();
            let owned: Vec<Batch> = batches.iter().map(|b| b.as_ref().clone()).collect();
            Ok(Batch::concat(schema, &owned)?)
        }
    }
}

/// Co-located fast path: plain scatter, both sides scanned locally, no
/// serialization and no wire traffic at all.
fn colocated(
    db: &VerticaDb,
    plan: &JoinPlan,
    inner: &SelectStmt,
    rec: &Arc<PhaseRecorder>,
    span_id: u64,
) -> Vec<Result<NodeResult>> {
    let (lw, rw) = plan.side_wanted(inner);
    let query_id = vdr_obs::current_query_id();
    db.cluster().scatter(|node| -> Result<NodeResult> {
        let _q = vdr_obs::QueryScope::enter(query_id);
        let _n = vdr_obs::NodeScope::enter(node.id().0);
        let left = scan_side(db, &plan.left_table, node, rec, lw.as_ref())?;
        let right = scan_side(db, &plan.right_table, node, rec, rw.as_ref())?;
        join_and_partial(db, plan, inner, node, &left, &right, rec, span_id)
    })
}

/// Shuffle / broadcast path: one all-to-all exchange moves the flagged
/// side(s); the non-shuffled side rides along locally as the exchange carry.
#[allow(clippy::too_many_arguments)]
fn shuffled(
    db: &VerticaDb,
    plan: &JoinPlan,
    inner: &SelectStmt,
    rec: &Arc<PhaseRecorder>,
    ship_left: bool,
    ship_right: bool,
    broadcast: bool,
    span_id: u64,
) -> Result<Vec<Result<NodeResult>>> {
    let n = db.cluster().num_nodes();
    let (lw, rw) = plan.side_wanted(inner);
    let query_id = vdr_obs::current_query_id();
    let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
    let as_io = |e: DbError| ClusterError::Io(e.to_string());
    type Carry = (Option<Batch>, Option<Batch>);
    let results = exchange_framed(
        db.cluster(),
        rec,
        "exec.join.shuffle",
        |node| -> vdr_cluster::Result<(Vec<Vec<Bytes>>, Carry)> {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _n = vdr_obs::NodeScope::enter(node.id().0);
            let left = scan_side(db, &plan.left_table, node, rec, lw.as_ref()).map_err(as_io)?;
            let right = scan_side(db, &plan.right_table, node, rec, rw.as_ref()).map_err(as_io)?;
            let mut parts: Vec<Vec<Bytes>> = (0..n).map(|_| Vec::new()).collect();
            let mut sent_values = 0u64;
            // Positional frame protocol per destination: the left partition
            // frame (if the left ships), then the right one (if it ships).
            // Every destination gets a frame per shipped side even when its
            // partition is empty, so receivers never guess.
            let mut carry: Carry = (None, None);
            if ship_left {
                for (dst, part) in partition_batch(&left, &plan.left_key, n)
                    .map_err(as_io)?
                    .into_iter()
                    .enumerate()
                {
                    sent_values += part.num_values();
                    parts[dst].push(encode_batch(&part));
                }
            } else {
                carry.0 = Some(left);
            }
            if broadcast {
                // One encoded block, fanned out as N refcounted handles.
                sent_values += right.num_values();
                let frame = encode_batch(&right);
                for p in parts.iter_mut() {
                    p.push(frame.clone());
                }
            } else if ship_right {
                for (dst, part) in partition_batch(&right, &plan.right_key, n)
                    .map_err(as_io)?
                    .into_iter()
                    .enumerate()
                {
                    sent_values += part.num_values();
                    parts[dst].push(encode_batch(&part));
                }
            } else {
                carry.1 = Some(right);
            }
            // Serializing partitions is scan-shaped work on the sender.
            if sent_values > 0 {
                rec.cpu_work(node.id(), sent_values as f64, scan_cost);
            }
            Ok((parts, carry))
        },
        |node, carry, recv| -> vdr_cluster::Result<NodeResult> {
            let _q = vdr_obs::QueryScope::enter(query_id);
            let _n = vdr_obs::NodeScope::enter(node.id().0);
            let me = node.id().0;
            let (left_parts, right_parts, stats) =
                decode_received(node, plan, ship_left, ship_right || broadcast, &recv)
                    .map_err(as_io)?;
            // Receive-side telemetry and cost: rows/bytes/frames/wait land on
            // the *receiving* node, so PROFILE shows the probe side too.
            vdr_obs::counter_on("exchange.rows", me, stats.rows);
            vdr_obs::counter_on("exchange.bytes", me, recv.bytes);
            vdr_obs::counter_on("exchange.frames", me, recv.num_frames);
            vdr_obs::counter_on("exchange.wait_ns", me, recv.wait_ns);
            if stats.encoded_cols > 0 {
                vdr_obs::counter_on("exchange.encoded_cols", me, stats.encoded_cols);
            }
            if stats.expanded_values > 0 {
                rec.cpu_work(node.id(), stats.expanded_values as f64, scan_cost);
            }
            let left = match carry.0 {
                Some(b) => b,
                None => concat_parts(left_parts).map_err(as_io)?,
            };
            let right = match carry.1 {
                Some(b) => b,
                None => concat_parts(right_parts).map_err(as_io)?,
            };
            join_and_partial(db, plan, inner, node, &left, &right, rec, span_id).map_err(as_io)
        },
    )
    .map_err(DbError::from)?;
    Ok(results.into_iter().map(Ok).collect())
}

/// Receive-side decode telemetry.
#[derive(Default)]
struct RecvStats {
    rows: u64,
    encoded_cols: u64,
    expanded_values: u64,
}

/// Decode every received frame in parallel on the node's pool. Frames keep
/// their VCOL encodings through [`decode_batch_encoded`]; RLE/dictionary
/// columns expand only here, on the receiver (late materialization across
/// the wire).
fn decode_received(
    node: &Arc<Node>,
    plan: &JoinPlan,
    left_shipped: bool,
    right_shipped: bool,
    recv: &ExchangeRecv,
) -> Result<(Vec<Batch>, Vec<Batch>, RecvStats)> {
    let _ = plan;
    // (side, frame bytes): side 0 = left, 1 = right, per the positional
    // protocol in `shuffled`.
    let mut tagged: Vec<(usize, &Bytes)> = Vec::new();
    for frames in &recv.frames {
        let mut expect = usize::from(left_shipped) + usize::from(right_shipped);
        if frames.is_empty() {
            continue;
        }
        if frames.len() != expect {
            return Err(DbError::Exec(format!(
                "exchange stream carried {} frames, expected {expect}",
                frames.len()
            )));
        }
        let mut it = frames.iter();
        if left_shipped {
            tagged.push((0, it.next().expect("counted")));
            expect -= 1;
        }
        if right_shipped {
            tagged.push((1, it.next().expect("counted")));
        }
        let _ = expect;
    }
    let decoded: Vec<Result<(usize, Batch, u64, u64)>> = node.run(|| {
        tagged
            .par_iter()
            .map(|(side, bytes)| {
                let (eb, dstats) = decode_batch_encoded(bytes, None)
                    .map_err(|e| DbError::Exec(format!("exchange decode: {e}")))?;
                let mask = Bitmap::all_valid(eb.num_rows());
                let (batch, expanded) = eb
                    .materialize(&mask, None)
                    .map_err(|e| DbError::Exec(format!("exchange materialize: {e}")))?;
                Ok((*side, batch, dstats.cols_kept_encoded as u64, expanded))
            })
            .collect()
    });
    let mut stats = RecvStats::default();
    let mut left_parts = Vec::new();
    let mut right_parts = Vec::new();
    for d in decoded {
        let (side, batch, kept, expanded) = d?;
        stats.rows += batch.num_rows() as u64;
        stats.encoded_cols += kept;
        stats.expanded_values += expanded;
        if side == 0 {
            left_parts.push(batch);
        } else {
            right_parts.push(batch);
        }
    }
    Ok((left_parts, right_parts, stats))
}

fn concat_parts(parts: Vec<Batch>) -> Result<Batch> {
    let Some(first) = parts.first() else {
        return Err(DbError::Exec("exchange produced no partitions".into()));
    };
    if parts.len() == 1 {
        return Ok(parts.into_iter().next().expect("len checked"));
    }
    let schema = first.schema().clone();
    Ok(Batch::concat(schema, &parts)?)
}

/// Split `batch` into `n` partitions by `hash(key) % n` — the exact routing
/// [`Segmentation::Hash`] applies at load time, so a shuffled side lands
/// co-resident with a hash-segmented one.
fn partition_batch(batch: &Batch, key: &str, n: usize) -> Result<Vec<Batch>> {
    let hashes = crate::segmentation::hash_column(batch.column_by_name(key)?);
    let mut idx: Vec<Vec<usize>> = (0..n).map(|_| Vec::new()).collect();
    for (i, h) in hashes.into_iter().enumerate() {
        idx[(h % n as u64) as usize].push(i);
    }
    Ok(idx.iter().map(|ix| batch.take(ix)).collect())
}

// -------------------------------------------------------- local hash join

/// Join the node-local sides, apply WHERE, and fold into the standard
/// per-node partial result.
#[allow(clippy::too_many_arguments)]
fn join_and_partial(
    db: &VerticaDb,
    plan: &JoinPlan,
    inner: &SelectStmt,
    node: &Arc<Node>,
    left: &Batch,
    right: &Batch,
    rec: &Arc<PhaseRecorder>,
    span_id: u64,
) -> Result<NodeResult> {
    let mut span = vdr_obs::detail_span_with_parent("exec.join.node", span_id);
    span.set_node(node.id().0);
    let (li, ri) =
        node.run(|| hash_join_indices(plan.kind, left, &plan.left_key, right, &plan.right_key))?;
    // Build + probe cost: one hash/compare per build row and per probe row,
    // plus per-output-row materialization, at scan-value cost.
    let scan_cost = db.cluster().profile().costs.db_scan_ns_per_value;
    let work = (left.num_rows() + right.num_rows() + li.len()) as f64;
    rec.cpu_work(node.id(), work, scan_cost);
    vdr_obs::counter_on("exec.join.build_rows", node.id().0, right.num_rows() as u64);
    vdr_obs::counter_on("exec.join.probe_rows", node.id().0, left.num_rows() as u64);
    vdr_obs::counter_on("exec.join.output_rows", node.id().0, li.len() as u64);
    span.record("rows_out", li.len());
    let joined = materialize_join(plan, left, right, &li, &ri)?;
    let filtered = apply_where(inner, &joined)?;
    NodeResult::of(inner, &filtered)
}

/// The build+probe kernel: the right side's keys intern into the aggregate
/// operator's typed [`agg::GroupTable`] (one group per distinct key, its
/// rows listed in ascending order), then rayon-parallel probe chunks look
/// left keys up and concatenate in order. Returns matched row index pairs
/// in left-row order (`right = None` marks a LEFT JOIN row with no match).
/// NULL keys never match.
fn hash_join_indices(
    kind: JoinKind,
    left: &Batch,
    left_key: &str,
    right: &Batch,
    right_key: &str,
) -> Result<(Vec<usize>, Vec<Option<usize>>)> {
    let lk = left.column_by_name(left_key)?;
    let rk = right.column_by_name(right_key)?;
    // Build: NULL keys are left out, so they can never be found.
    let valid = rk.validity();
    let build_rows: Vec<usize> = (0..rk.len()).filter(|&i| valid.get(i)).collect();
    let build_keys = rk.take(&build_rows);
    let mut table = agg::GroupTable::new(&[rk.data_type()]);
    let gids = table.intern(&[&build_keys], build_rows.len())?;
    // Build rows per key, ascending: `rows[starts[g]..starts[g + 1]]`.
    let (starts, order) = agg::rows_by_group(gids.iter().map(|&g| g as usize), table.len());
    let rows: Vec<usize> = order.into_iter().map(|i| build_rows[i]).collect();
    // Chunked probe: chunks run in parallel and concatenate in order, so the
    // output is deterministic regardless of thread count.
    const CHUNK: usize = 8192;
    let nrows = left.num_rows();
    let chunks: Vec<Vec<(usize, Option<usize>)>> = (0..nrows.div_ceil(CHUNK))
        .into_par_iter()
        .map(|c| {
            let lo = c * CHUNK;
            let hits = table.lookup(&[lk], lo..((c + 1) * CHUNK).min(nrows));
            let mut out = Vec::new();
            for (i, hit) in (lo..).zip(hits) {
                match hit {
                    Some(g) => out.extend(
                        rows[starts[g as usize]..starts[g as usize + 1]]
                            .iter()
                            .map(|&r| (i, Some(r))),
                    ),
                    None => {
                        if kind == JoinKind::Left {
                            out.push((i, None));
                        }
                    }
                }
            }
            out
        })
        .collect();
    let mut li = Vec::new();
    let mut ri = Vec::new();
    for chunk in chunks {
        for (l, r) in chunk {
            li.push(l);
            ri.push(r);
        }
    }
    Ok((li, ri))
}

/// Materialize the joined batch in the output namespace: left columns gather
/// by `take`, right columns by `take_opt` (a `None` index is the NULL row of
/// an unmatched LEFT JOIN row).
fn materialize_join(
    plan: &JoinPlan,
    left: &Batch,
    right: &Batch,
    li: &[usize],
    ri: &[Option<usize>],
) -> Result<Batch> {
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (f, col) in left.schema().fields().iter().zip(left.columns()) {
        fields.push(Field::new(plan.out_name(Side::Left, &f.name), f.dtype));
        columns.push(col.take(li));
    }
    for (f, col) in right.schema().fields().iter().zip(right.columns()) {
        fields.push(Field::new(plan.out_name(Side::Right, &f.name), f.dtype));
        columns.push(col.take_opt(ri));
    }
    Ok(Batch::new(Schema::new(fields), columns)?)
}
