//! The aggregate operator: one vectorized, typed hash aggregate behind every
//! GROUP BY and every global aggregate.
//!
//! - **Group ids.** Each input batch maps its key columns to dense group ids
//!   through a [`GroupTable`]: per-column typed hashes ([`key_hashes`])
//!   folded into one key hash, then typed key equality
//!   ([`kernels::eq_key`]) against the table's own key columns. A
//!   dictionary-encoded key interns each *code* once per batch and maps rows
//!   through that lookup table, so strings are never hashed per row.
//! - **Typed states.** Each aggregate keeps only the state columns it needs,
//!   indexed by group id ([`Acc`]): COUNT a count, SUM/AVG a non-NULL count
//!   and a sum, MIN/MAX one column of the argument's own dtype, and
//!   COUNT(DISTINCT) a set of typed (group, value) pairs.
//! - **Partials.** A node's partial ([`AggPartial`]) is a [`Batch`] of key
//!   columns plus state columns, one row per group, and one single-column
//!   batch of distinct values per COUNT(DISTINCT) (grouped by group row; the
//!   state column holds each group's value count). Merging a partial interns
//!   its key columns and folds the state columns in column-wise, so the
//!   initiator merge, the shuffled merge, and a node's own batches are all
//!   the same operation. Output dtypes come from the state and key columns,
//!   which carry the input columns' dtypes — never from the data.

use super::*;
use std::cmp::Ordering as CmpOrdering;
use std::collections::hash_map::Entry;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::ops::Range;

// ---------------------------------------------------------------- group ids

/// Pass-through hasher for keys that already are well-mixed 64-bit hashes
/// (seeded per table, see [`GroupTable`]).
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("IdHasher only hashes u64 keys")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

const NO_GROUP: u32 = u32::MAX;

/// Murmur3's 64-bit finalizer: a cheap bijective bit mix.
#[inline]
fn mix64(h: u64) -> u64 {
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Bytes eight at a time, then the length.
fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = 0u64;
    let mut chunks = b.chunks_exact(8);
    for c in &mut chunks {
        h = mix64(h ^ u64::from_le_bytes(c.try_into().expect("8 bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix64(h ^ u64::from_le_bytes(tail) ^ ((b.len() as u64) << 56))
}

/// The key hash of rows `range`, starting from `seed`: each column's typed
/// values (floats by bit pattern, NULL as a constant) folded in left to
/// right. Equal keys hash equal. With [`ROUTE_SEED`] the hash routes a
/// group to its node in the shuffled merge, so it must be the same on every
/// node and in every run; it lives only for one statement, so unlike the
/// segmentation hash it is free to favor speed.
fn key_hashes(cols: &[&Column], range: Range<usize>, seed: u64) -> Vec<u64> {
    fn fold(acc: &mut [u64], valid: &Bitmap, range: Range<usize>, value: impl Fn(usize) -> u64) {
        const NULL: u64 = 0x9e37_79b9_7f4a_7c15;
        for (h, r) in acc.iter_mut().zip(range) {
            let v = if valid.get(r) { value(r) } else { NULL };
            *h = mix64(h.rotate_left(23) ^ v);
        }
    }
    let mut acc = vec![seed; range.len()];
    for col in cols {
        let (valid, rows) = (col.validity(), range.clone());
        match col {
            Column::Int64 { data, .. } => fold(&mut acc, valid, rows, |r| data[r] as u64),
            Column::Float64 { data, .. } => fold(&mut acc, valid, rows, |r| data[r].to_bits()),
            Column::Bool { data, .. } => fold(&mut acc, valid, rows, |r| data[r] as u64),
            Column::Varchar { data, .. } => {
                fold(&mut acc, valid, rows, |r| hash_bytes(data[r].as_bytes()))
            }
        }
    }
    acc
}

/// The seed of the key hash that routes groups between nodes.
const ROUTE_SEED: u64 = 0;

/// Dense group ids for typed key tuples: group `g`'s key is row `g` of the
/// key columns. A table with no key columns has exactly one group (a global
/// aggregate).
///
/// The key hash, from a per-table random `seed` so crafted keys cannot force
/// collisions, finds the first group with that hash in `heads`; groups whose
/// hashes collide chain through `next`, and typed equality against the
/// table's key columns decides.
pub(super) struct GroupTable {
    keys: Vec<Column>,
    seed: u64,
    heads: HashMap<u64, u32, BuildHasherDefault<IdHasher>>,
    next: Vec<u32>,
}

impl GroupTable {
    pub(super) fn new(dtypes: &[DataType]) -> GroupTable {
        GroupTable {
            keys: dtypes.iter().map(|d| Column::empty(*d)).collect(),
            seed: RandomState::new().build_hasher().finish(),
            heads: HashMap::default(),
            next: Vec::new(),
        }
    }

    pub(super) fn len(&self) -> usize {
        if self.keys.is_empty() {
            1
        } else {
            self.keys[0].len()
        }
    }

    fn check_dtypes(&self, cols: &[&Column]) -> Result<()> {
        for (k, c) in self.keys.iter().zip(cols) {
            if k.data_type() != c.data_type() {
                return Err(DbError::Exec(format!(
                    "group key type mismatch: expected {}, found {}",
                    k.data_type(),
                    c.data_type()
                )));
            }
        }
        Ok(())
    }

    /// The group id of every row of `cols`, adding unseen keys as new groups
    /// in first-seen order.
    pub(super) fn intern(&mut self, cols: &[&Column], rows: usize) -> Result<Vec<u32>> {
        if self.keys.is_empty() {
            return Ok(vec![0; rows]);
        }
        self.check_dtypes(cols)?;
        let GroupTable {
            keys,
            seed,
            heads,
            next,
        } = self;
        let mut gids = Vec::with_capacity(rows);
        for (r, h) in key_hashes(cols, 0..rows, *seed).into_iter().enumerate() {
            let new_id = keys[0].len() as u32;
            let gid = match heads.entry(h) {
                Entry::Occupied(mut e) => {
                    let mut g = *e.get();
                    while g != NO_GROUP && !same_key(keys, g, cols, r) {
                        g = next[g as usize];
                    }
                    if g == NO_GROUP {
                        next.push(*e.get());
                        e.insert(new_id);
                        g = new_id;
                    }
                    g
                }
                Entry::Vacant(e) => {
                    next.push(NO_GROUP);
                    *e.insert(new_id)
                }
            };
            if gid == new_id {
                for (k, c) in keys.iter_mut().zip(cols) {
                    push_row(k, c, r);
                }
            }
            gids.push(gid);
        }
        Ok(gids)
    }

    /// The group of each row in `range` of `cols`, `None` for keys the table
    /// has not seen — the probe side of a hash join.
    pub(super) fn lookup(&self, cols: &[&Column], range: Range<usize>) -> Vec<Option<u32>> {
        key_hashes(cols, range.clone(), self.seed)
            .into_iter()
            .zip(range)
            .map(|(h, r)| {
                let mut g = *self.heads.get(&h)?;
                while g != NO_GROUP && !same_key(&self.keys, g, cols, r) {
                    g = self.next[g as usize];
                }
                (g != NO_GROUP).then_some(g)
            })
            .collect()
    }

    /// Group ids in ascending key order (NULLs last, [`kernels::cmp_key`]):
    /// the deterministic output order of a GROUP BY.
    fn sorted_order(&self) -> Vec<usize> {
        let keys: Vec<(&Column, bool)> = self.keys.iter().map(|k| (k, false)).collect();
        kernels::RowOrder::new(&keys, true).sorted(self.len())
    }
}

/// Rows listed group by group (a stable counting sort): group `g`'s rows,
/// ascending, are `order[starts[g]..starts[g + 1]]`.
pub(super) fn rows_by_group(
    gids: impl Iterator<Item = usize> + Clone,
    groups: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut starts = vec![0usize; groups + 1];
    for g in gids.clone() {
        starts[g + 1] += 1;
    }
    for g in 0..groups {
        starts[g + 1] += starts[g];
    }
    let mut fill = starts.clone();
    let mut order = vec![0usize; starts[groups]];
    for (row, g) in gids.enumerate() {
        order[fill[g]] = row;
        fill[g] += 1;
    }
    (starts, order)
}

/// Does group `g` of `keys` hold the key of row `r` of `cols`?
fn same_key(keys: &[Column], g: u32, cols: &[&Column], r: usize) -> bool {
    keys.iter()
        .zip(cols)
        .all(|(k, c)| kernels::eq_key(k, g as usize, c, r))
}

/// Append row `i` of `src` to `dst` (dtypes already checked equal).
fn push_row(dst: &mut Column, src: &Column, i: usize) {
    let valid = src.validity().get(i);
    match (dst, src) {
        (Column::Int64 { data, validity }, Column::Int64 { data: s, .. }) => {
            data.push(s[i]);
            validity.push(valid);
        }
        (Column::Float64 { data, validity }, Column::Float64 { data: s, .. }) => {
            data.push(s[i]);
            validity.push(valid);
        }
        (Column::Bool { data, validity }, Column::Bool { data: s, .. }) => {
            data.push(s[i]);
            validity.push(valid);
        }
        (Column::Varchar { data, validity }, Column::Varchar { data: s, .. }) => {
            data.push(if valid { s[i].clone() } else { String::new() });
            validity.push(valid);
        }
        _ => unreachable!("dtypes checked by the caller"),
    }
}

/// Overwrite row `g` of `dst` with the (non-NULL) row `i` of `src`.
fn set_row(dst: &mut Column, g: usize, src: &Column, i: usize) {
    match (dst, src) {
        (Column::Int64 { data, validity }, Column::Int64 { data: s, .. }) => {
            data[g] = s[i];
            validity.set(g);
        }
        (Column::Float64 { data, validity }, Column::Float64 { data: s, .. }) => {
            data[g] = s[i];
            validity.set(g);
        }
        (Column::Bool { data, validity }, Column::Bool { data: s, .. }) => {
            data[g] = s[i];
            validity.set(g);
        }
        (Column::Varchar { data, validity }, Column::Varchar { data: s, .. }) => {
            data[g].clone_from(&s[i]);
            validity.set(g);
        }
        _ => unreachable!("dtypes checked by the caller"),
    }
}

/// Grow `col` to `len` rows with NULLs.
fn pad_nulls(col: &mut Column, len: usize) {
    if col.len() < len {
        let mut nulls = ColumnBuilder::with_capacity(col.data_type(), len - col.len());
        (col.len()..len).for_each(|_| nulls.push_null());
        col.extend(&nulls.finish()).expect("same dtype");
    }
}

/// A column of per-group values with NULL where `valid` is false (the data
/// slot then holds the type's default, as everywhere else).
fn f64_column(data: Vec<f64>, valid: impl Fn(usize) -> bool) -> Column {
    let validity = Bitmap::from_fn(data.len(), &valid);
    let data = data
        .into_iter()
        .enumerate()
        .map(|(g, x)| if valid(g) { x } else { 0.0 })
        .collect();
    Column::Float64 { data, validity }
}

fn i64_state<'a>(col: &'a Column, what: &str) -> Result<&'a [i64]> {
    col.i64_data()
        .ok_or_else(|| DbError::Exec(format!("partial {what} column is not Int64")))
}

// ------------------------------------------------------------ typed states

/// One aggregate's typed state columns, indexed by group id.
enum Acc {
    /// COUNT(*): rows per group.
    Rows(Vec<i64>),
    /// COUNT(e): non-NULL arguments per group.
    Count(Vec<i64>),
    /// SUM/AVG: non-NULL arguments and their running sum.
    Sum { non_null: Vec<i64>, sum: Vec<f64> },
    /// MIN/MAX: the best argument so far, in the argument's dtype; NULL
    /// until a non-NULL argument arrives.
    Extreme { max: bool, best: Column },
    /// COUNT(DISTINCT e): the set of (group id, value) pairs seen.
    Distinct(GroupTable),
}

impl Acc {
    /// State columns this aggregate contributes to a partial batch.
    fn width(&self) -> usize {
        match self {
            Acc::Sum { .. } => 2,
            _ => 1,
        }
    }

    fn grow(&mut self, groups: usize) {
        match self {
            Acc::Rows(v) | Acc::Count(v) => v.resize(groups, 0),
            Acc::Sum { non_null, sum } => {
                non_null.resize(groups, 0);
                sum.resize(groups, 0.0);
            }
            Acc::Extreme { best, .. } => pad_nulls(best, groups),
            Acc::Distinct(_) => {}
        }
    }

    /// Fold raw rows in: row `r` belongs to group `gids[r]` and carries
    /// argument row `r` of `arg` (`None` for COUNT(*)).
    fn update(&mut self, gids: &[u32], arg: Option<&Column>) -> Result<()> {
        if let Acc::Rows(v) = self {
            for &g in gids {
                v[g as usize] += 1;
            }
            return Ok(());
        }
        // Only COUNT(*) takes no argument.
        let Some(arg) = arg else { return Ok(()) };
        let valid = arg.validity();
        match self {
            Acc::Rows(_) => unreachable!("handled above"),
            Acc::Count(v) => {
                for (r, &g) in gids.iter().enumerate() {
                    if valid.get(r) {
                        v[g as usize] += 1;
                    }
                }
            }
            Acc::Sum { non_null, sum } => {
                fn add(
                    gids: &[u32],
                    valid: &Bitmap,
                    non_null: &mut [i64],
                    sum: &mut [f64],
                    val: impl Fn(usize) -> f64,
                ) {
                    for (r, &g) in gids.iter().enumerate() {
                        if valid.get(r) {
                            non_null[g as usize] += 1;
                            sum[g as usize] += val(r);
                        }
                    }
                }
                match arg {
                    Column::Int64 { data, .. } => {
                        add(gids, valid, non_null, sum, |r| data[r] as f64)
                    }
                    Column::Float64 { data, .. } => add(gids, valid, non_null, sum, |r| data[r]),
                    Column::Bool { data, .. } => {
                        add(gids, valid, non_null, sum, |r| data[r] as u8 as f64)
                    }
                    // A string argument counts as non-NULL but adds nothing.
                    Column::Varchar { .. } => add(gids, valid, non_null, sum, |_| 0.0),
                }
            }
            Acc::Extreme { max, best } => {
                if best.data_type() != arg.data_type() {
                    return Err(DbError::Exec(format!(
                        "MIN/MAX argument type mismatch: expected {}, found {}",
                        best.data_type(),
                        arg.data_type()
                    )));
                }
                let want = if *max {
                    CmpOrdering::Greater
                } else {
                    CmpOrdering::Less
                };
                for (r, &g) in gids.iter().enumerate() {
                    let g = g as usize;
                    if valid.get(r)
                        && (!best.validity().get(g) || kernels::cmp_key(arg, r, best, g) == want)
                    {
                        set_row(best, g, arg, r);
                    }
                }
            }
            Acc::Distinct(pairs) => {
                // COUNT(DISTINCT) ignores NULL arguments.
                let (groups, values) = if valid.all_set() {
                    let g = gids.iter().map(|&g| g as i64).collect();
                    (Column::from_i64(g), Cow::Borrowed(arg))
                } else {
                    let mut g = Vec::with_capacity(valid.count_set());
                    valid.for_each_set(|r| g.push(gids[r] as i64));
                    (Column::from_i64(g), Cow::Owned(arg.filter(valid)?))
                };
                pairs.intern(&[&groups, &values], groups.len())?;
            }
        }
        Ok(())
    }

    /// Fold another partial's state columns in: its group row `j` maps to
    /// our group `gids[j]`; `values` is its distinct-value batch, if any.
    fn merge(&mut self, gids: &[u32], state: &[Column], values: Option<&Batch>) -> Result<()> {
        match self {
            Acc::Rows(v) | Acc::Count(v) => {
                for (j, &c) in i64_state(&state[0], "count")?.iter().enumerate() {
                    v[gids[j] as usize] += c;
                }
            }
            Acc::Sum { non_null, sum } => {
                let nn = i64_state(&state[0], "non-NULL count")?;
                let s = state[1]
                    .f64_data()
                    .ok_or_else(|| DbError::Exec("partial sum column is not Float64".into()))?;
                for (j, &g) in gids.iter().enumerate() {
                    non_null[g as usize] += nn[j];
                    sum[g as usize] += s[j];
                }
            }
            // The other side's best value is just one more argument.
            Acc::Extreme { .. } => self.update(gids, Some(&state[0]))?,
            Acc::Distinct(pairs) => {
                let counts = i64_state(&state[0], "distinct count")?;
                let values = values
                    .ok_or_else(|| DbError::Exec("partial lacks its distinct values".into()))?
                    .column(0);
                let total = counts.iter().try_fold(0usize, |acc, &c| {
                    usize::try_from(c).ok().and_then(|c| acc.checked_add(c))
                });
                if total != Some(values.len()) {
                    return Err(DbError::Exec(
                        "partial distinct counts disagree with its values".into(),
                    ));
                }
                let mut groups = Vec::with_capacity(values.len());
                for (j, &c) in counts.iter().enumerate() {
                    groups.extend(std::iter::repeat_n(gids[j] as i64, c as usize));
                }
                let groups = Column::from_i64(groups);
                pairs.intern(&[&groups, values], values.len())?;
            }
        }
        Ok(())
    }

    /// This state's partial-batch columns for groups `pick` (appended to
    /// `cols`) and, for COUNT(DISTINCT), those groups' values in group order
    /// (appended to `values`).
    fn state_of(
        &self,
        pick: &[usize],
        groups: usize,
        cols: &mut Vec<Column>,
        values: &mut Vec<Batch>,
    ) {
        let ints = |v: &[i64]| Column::from_i64(pick.iter().map(|&g| v[g]).collect());
        match self {
            Acc::Rows(v) | Acc::Count(v) => cols.push(ints(v)),
            Acc::Sum { non_null, sum } => {
                cols.push(ints(non_null));
                cols.push(Column::from_f64(pick.iter().map(|&g| sum[g]).collect()));
            }
            Acc::Extreme { best, .. } => cols.push(best.take(pick)),
            Acc::Distinct(pairs) => {
                let owner = pairs.keys[0]
                    .i64_data()
                    .expect("pair group column is Int64");
                let (starts, order) = rows_by_group(owner.iter().map(|&g| g as usize), groups);
                cols.push(Column::from_i64(
                    pick.iter()
                        .map(|&g| (starts[g + 1] - starts[g]) as i64)
                        .collect(),
                ));
                let rows: Vec<usize> = pick
                    .iter()
                    .flat_map(|&g| order[starts[g]..starts[g + 1]].iter().copied())
                    .collect();
                let col = pairs.keys[1].take(&rows);
                let schema = Schema::new(vec![Field::new("__value", col.data_type())]);
                values.push(Batch::new(schema, vec![col]).expect("one column"));
            }
        }
    }

    /// The aggregate's final value per group.
    fn finish(self, func: AggFunc, groups: usize) -> Column {
        match self {
            Acc::Rows(v) | Acc::Count(v) => Column::from_i64(v),
            Acc::Sum { non_null, sum } => {
                let avg = matches!(func, AggFunc::Avg);
                let out = sum
                    .iter()
                    .zip(&non_null)
                    .map(|(s, &n)| if avg { s / n as f64 } else { *s })
                    .collect();
                f64_column(out, |g| non_null[g] > 0)
            }
            Acc::Extreme { best, .. } => best,
            Acc::Distinct(pairs) => {
                let mut counts = vec![0i64; groups];
                for &g in pairs.keys[0]
                    .i64_data()
                    .expect("pair group column is Int64")
                {
                    counts[g as usize] += 1;
                }
                Column::from_i64(counts)
            }
        }
    }
}

// ------------------------------------------------------------ the operator

/// One node's (or one merge's) aggregate state for a statement.
pub(super) struct AggTable {
    key_exprs: Vec<Expr>,
    key_dtypes: Vec<DataType>,
    /// Per aggregate: function, argument, and the argument's dtype.
    specs: Vec<(AggFunc, Option<Expr>, bool, Option<DataType>)>,
    groups: GroupTable,
    accs: Vec<Acc>,
}

/// A partial aggregate as it travels: key columns plus state columns (one
/// row per group), and one distinct-value batch per COUNT(DISTINCT).
pub(super) struct AggPartial {
    pub(super) groups: Batch,
    pub(super) values: Vec<Batch>,
}

impl AggPartial {
    /// Bytes on the wire (gather and merge accounting).
    pub(super) fn byte_size(&self) -> u64 {
        self.groups.byte_size() + self.values.iter().map(Batch::byte_size).sum::<u64>()
    }

    /// VCOL frames: the group batch, then each distinct-value batch.
    pub(super) fn encode(&self) -> Vec<bytes::Bytes> {
        std::iter::once(&self.groups)
            .chain(&self.values)
            .map(vdr_columnar::encode_batch)
            .collect()
    }

    pub(super) fn decode(frames: &[bytes::Bytes]) -> Result<AggPartial> {
        let mut batches = frames.iter().map(|f| {
            vdr_columnar::decode_batch(f)
                .map_err(|e| DbError::Exec(format!("partial aggregate decode: {e}")))
        });
        let groups = batches
            .next()
            .ok_or_else(|| DbError::Exec("empty partial aggregate stream".into()))??;
        Ok(AggPartial {
            groups,
            values: batches.collect::<Result<_>>()?,
        })
    }
}

/// Evaluate `e` over `batch`, borrowing plain column references instead of
/// cloning them.
pub(super) fn eval_col<'a>(e: &Expr, batch: &'a Batch) -> Result<Cow<'a, Column>> {
    match e {
        Expr::Column(name) => Ok(Cow::Borrowed(batch.column_by_name(name)?)),
        other => Ok(Cow::Owned(other.eval(batch)?)),
    }
}

impl AggTable {
    /// An empty aggregate for `stmt` over input rows of `schema`: key and
    /// argument dtypes are those of the expressions over that schema.
    pub(super) fn new(stmt: &SelectStmt, schema: &Schema) -> Result<AggTable> {
        let probe = Batch::empty(schema.clone());
        let key_dtypes = stmt
            .group_by
            .iter()
            .map(|e| Ok(e.eval(&probe)?.data_type()))
            .collect::<Result<_>>()?;
        let specs = agg_specs(stmt)?
            .into_iter()
            .map(|(func, arg, distinct)| {
                let dtype = arg
                    .as_ref()
                    .map(|a| Ok::<_, DbError>(a.eval(&probe)?.data_type()))
                    .transpose()?;
                Ok((func, arg, distinct, dtype))
            })
            .collect::<Result<_>>()?;
        Ok(AggTable::with_types(
            stmt.group_by.clone(),
            key_dtypes,
            specs,
        ))
    }

    fn with_types(
        key_exprs: Vec<Expr>,
        key_dtypes: Vec<DataType>,
        specs: Vec<(AggFunc, Option<Expr>, bool, Option<DataType>)>,
    ) -> AggTable {
        let accs = specs
            .iter()
            .map(|(func, arg, distinct, dtype)| match (func, arg, distinct) {
                (AggFunc::Count, None, _) => Acc::Rows(Vec::new()),
                (AggFunc::Count, Some(_), true) => Acc::Distinct(GroupTable::new(&[
                    DataType::Int64,
                    dtype.expect("argument typed"),
                ])),
                (AggFunc::Count, Some(_), false) => Acc::Count(Vec::new()),
                (AggFunc::Sum | AggFunc::Avg, _, _) => Acc::Sum {
                    non_null: Vec::new(),
                    sum: Vec::new(),
                },
                (AggFunc::Min | AggFunc::Max, _, _) => Acc::Extreme {
                    max: matches!(func, AggFunc::Max),
                    best: Column::empty(dtype.unwrap_or(DataType::Float64)),
                },
            })
            .collect();
        let mut table = AggTable {
            groups: GroupTable::new(&key_dtypes),
            key_exprs,
            key_dtypes,
            specs,
            accs,
        };
        table.grow();
        table
    }

    /// An empty table with this one's types — the target a merge folds
    /// partials into.
    pub(super) fn empty_like(&self) -> AggTable {
        AggTable::with_types(
            self.key_exprs.clone(),
            self.key_dtypes.clone(),
            self.specs.clone(),
        )
    }

    fn grow(&mut self) {
        let n = self.groups.len();
        for acc in &mut self.accs {
            acc.grow(n);
        }
    }

    /// Fold rows already mapped to group ids in; argument expressions
    /// evaluate over `batch`, whose row `r` belongs to `gids[r]`.
    fn update_groups(&mut self, gids: &[u32], batch: &Batch) -> Result<()> {
        self.grow();
        for (acc, (_, arg, _, _)) in self.accs.iter_mut().zip(&self.specs) {
            match arg {
                Some(a) => {
                    let col = eval_col(a, batch)?;
                    if col.len() != gids.len() {
                        return Err(DbError::Exec(format!(
                            "aggregate argument has {} rows for {} grouped rows",
                            col.len(),
                            gids.len()
                        )));
                    }
                    acc.update(gids, Some(&col))?
                }
                None => acc.update(gids, None)?,
            }
        }
        Ok(())
    }

    /// Aggregate one input batch.
    pub(super) fn update(&mut self, batch: &Batch) -> Result<()> {
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(());
        }
        let keys = self
            .key_exprs
            .iter()
            .map(|e| eval_col(e, batch))
            .collect::<Result<Vec<_>>>()?;
        let refs: Vec<&Column> = keys.iter().map(|c| c.as_ref()).collect();
        let gids = self.groups.intern(&refs, rows)?;
        self.update_groups(&gids, batch)
    }

    /// Aggregate the `mask` rows of an encoded batch. A single
    /// dictionary-encoded key maps each code to its group once; any other
    /// key late-materializes just the referenced columns.
    pub(super) fn update_encoded(
        &mut self,
        eb: &EncodedBatch,
        mask: &Bitmap,
        stats: &mut EncodedScanStats,
    ) -> Result<()> {
        let dict_key = match self.key_exprs.as_slice() {
            [Expr::Column(name)] => match eb.column_by_name(name) {
                Ok(ScanColumn::Encoded(col)) => col.dict().map(|d| (name, d, col.validity())),
                _ => None,
            },
            _ => None,
        };
        let Some((key_name, (dict, codes), validity)) = dict_key else {
            let (batch, expanded) = eb.materialize(mask, None)?;
            stats.expanded_values += expanded;
            if expanded > 0 {
                stats.late_materialized_rows += mask.count_set() as u64;
            }
            return self.update(&batch);
        };
        // Slot per dictionary code, plus one for NULL keys; only slots some
        // selected row uses become groups.
        let null_slot = dict.len();
        let slot = |row: usize| {
            if validity.get(row) {
                codes[row] as usize
            } else {
                null_slot
            }
        };
        let mut used = vec![false; dict.len() + 1];
        mask.for_each_set(|row| used[slot(row)] = true);
        let used_slots: Vec<usize> = (0..used.len()).filter(|&s| used[s]).collect();
        let entries = Column::Varchar {
            data: used_slots
                .iter()
                .map(|&s| dict.get(s).cloned().unwrap_or_default())
                .collect(),
            validity: Bitmap::from_fn(used_slots.len(), |i| used_slots[i] != null_slot),
        };
        let slot_gids = self.groups.intern(&[&entries], used_slots.len())?;
        let mut lut = vec![NO_GROUP; dict.len() + 1];
        for (s, g) in used_slots.iter().zip(slot_gids) {
            lut[*s] = g;
        }
        let mut gids = Vec::with_capacity(mask.count_set());
        mask.for_each_set(|row| gids.push(lut[slot(row)]));
        let mut arg_cols = HashSet::new();
        for (_, arg, _, _) in &self.specs {
            if let Some(a) = arg {
                add_expr_columns(&mut arg_cols, a);
            }
        }
        if arg_cols.is_empty() {
            // Arguments that read no column (`sum(1)`) still need the row
            // count, which a column-less batch does not carry.
            arg_cols.insert(key_name.to_ascii_lowercase());
        }
        let (arg_batch, expanded) = eb.materialize(mask, Some(&arg_cols))?;
        stats.expanded_values += expanded;
        self.update_groups(&gids, &arg_batch)
    }

    /// Fold another table's partial in, column-wise.
    pub(super) fn merge(&mut self, p: &AggPartial) -> Result<()> {
        let nk = self.key_dtypes.len();
        let cols = p.groups.columns();
        let width: usize = nk + self.accs.iter().map(Acc::width).sum::<usize>();
        if cols.len() != width {
            return Err(DbError::Exec(format!(
                "partial aggregate has {} columns, expected {width}",
                cols.len()
            )));
        }
        // Without key columns there is exactly one group.
        let rows = if nk == 0 { 1 } else { p.groups.num_rows() };
        if width > nk && p.groups.num_rows() != rows {
            return Err(DbError::Exec(
                "global partial aggregate must have one row".into(),
            ));
        }
        let keys: Vec<&Column> = cols[..nk].iter().collect();
        let gids = self.groups.intern(&keys, rows)?;
        self.grow();
        let mut at = nk;
        let mut values = p.values.iter();
        for acc in &mut self.accs {
            let w = acc.width();
            let v = matches!(acc, Acc::Distinct(_))
                .then(|| values.next())
                .flatten();
            acc.merge(&gids, &cols[at..at + w], v)?;
            at += w;
        }
        Ok(())
    }

    /// The partial batch of groups `pick`.
    fn partial_of(&self, pick: &[usize]) -> AggPartial {
        let groups = self.groups.len();
        let mut fields: Vec<Field> = self
            .key_dtypes
            .iter()
            .enumerate()
            .map(|(i, d)| Field::new(format!("__key{i}"), *d))
            .collect();
        let mut cols: Vec<Column> = self.groups.keys.iter().map(|k| k.take(pick)).collect();
        let mut values = Vec::new();
        for (i, acc) in self.accs.iter().enumerate() {
            let before = cols.len();
            acc.state_of(pick, groups, &mut cols, &mut values);
            for (j, c) in cols[before..].iter().enumerate() {
                fields.push(Field::new(format!("__agg{i}_{j}"), c.data_type()));
            }
        }
        AggPartial {
            groups: Batch::new(Schema::new(fields), cols).expect("state columns are per group"),
            values,
        }
    }

    /// The partial batch form of this table.
    pub(super) fn partial(&self) -> AggPartial {
        self.partial_of(&(0..self.groups.len()).collect::<Vec<_>>())
    }

    /// One partial per node, groups routed by key hash — the shuffled
    /// merge's partitioning. Each group's distinct values follow it.
    pub(super) fn shuffle_parts(&self, n: usize) -> Vec<AggPartial> {
        let keys: Vec<&Column> = self.groups.keys.iter().collect();
        let mut picks: Vec<Vec<usize>> = vec![Vec::new(); n];
        let hashes = key_hashes(&keys, 0..self.groups.len(), ROUTE_SEED);
        for (g, h) in hashes.into_iter().enumerate() {
            picks[(h % n as u64) as usize].push(g);
        }
        picks.iter().map(|pick| self.partial_of(pick)).collect()
    }

    /// Final rows, one per group in ascending key order, columns in select
    /// list order, then a hidden `__groupkey_i` copy of every group key the
    /// select list does not project (so finalized slices from several nodes
    /// can be put back in key order; see [`sort_by_group_keys`]).
    pub(super) fn finalize(self, stmt: &SelectStmt) -> Result<Batch> {
        let groups = self.groups.len();
        let order = self.groups.sorted_order();
        let keys = &self.groups.keys;
        let mut finished = self
            .accs
            .into_iter()
            .zip(&self.specs)
            .map(|(acc, (func, ..))| acc.finish(*func, groups));
        let mut fields = Vec::new();
        let mut columns = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            let col = match item {
                SelectItem::Aggregate { .. } => finished.next().expect("one per aggregate"),
                SelectItem::Expr { expr, .. } => {
                    let gi = stmt.group_by.iter().position(|g| g == expr);
                    keys[gi.expect("validated by agg_specs")].clone()
                }
                _ => unreachable!("validated by agg_specs"),
            };
            fields.push(Field::new(item_name(i, item), col.data_type()));
            columns.push(col.take(&order));
        }
        for (gi, g) in stmt.group_by.iter().enumerate() {
            if projected_at(stmt, g).is_none() {
                fields.push(Field::new(format!("{GROUP_KEY}{gi}"), keys[gi].data_type()));
                columns.push(keys[gi].take(&order));
            }
        }
        Ok(Batch::new(Schema::new(fields), columns)?)
    }
}

/// Hidden group-key columns of finalized aggregate output use this prefix.
pub(super) const GROUP_KEY: &str = "__groupkey_";

/// The select item that projects group expression `g`, if any.
fn projected_at(stmt: &SelectStmt, g: &Expr) -> Option<usize> {
    stmt.items
        .iter()
        .position(|it| matches!(it, SelectItem::Expr { expr, .. } if expr == g))
}

/// Re-establish group-key order over concatenated finalized slices (each
/// already key-sorted, so the stable sort only merges the runs).
pub(super) fn sort_by_group_keys(stmt: &SelectStmt, batch: Batch) -> Result<Batch> {
    let mut cols = Vec::with_capacity(stmt.group_by.len());
    for (gi, g) in stmt.group_by.iter().enumerate() {
        let idx = match projected_at(stmt, g) {
            Some(i) => i,
            None => batch.schema().index_of(&format!("{GROUP_KEY}{gi}"))?,
        };
        cols.push((batch.column(idx), false));
    }
    let order = kernels::RowOrder::new(&cols, true).sorted(batch.num_rows());
    Ok(batch.take(&order))
}
