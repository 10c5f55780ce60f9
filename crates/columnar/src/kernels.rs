//! Vectorized predicate and arithmetic kernels.
//!
//! The row-at-a-time expression evaluator boxes every value (`Value`) and
//! pushes through a type-checking builder; on numeric columns that is almost
//! pure overhead. These kernels run tight typed loops over `Int64`/`Float64`
//! data with validity bitmaps, and return `None` whenever the operands fall
//! outside the fast path (Varchar, Bool, mixed non-numeric) so the caller
//! can keep the boxed path as the semantic fallback.
//!
//! Comparison results come back as a pair of [`Bitmap`]s:
//!
//! * **truth** — set iff both operands are valid *and* the comparison holds
//!   (exactly the SQL "is TRUE" selection mask a WHERE clause needs), and
//! * **validity** — set iff both operands are valid (what a materialized
//!   three-valued `Bool` column needs for its NULLs).
//!
//! Semantics match the boxed evaluator bit for bit: numerics compare in the
//! `f64` domain via `partial_cmp(..).unwrap_or(Equal)` (ints widen; NaN
//! compares Equal), and `Int64 ⊕ Int64` arithmetic computes in `f64` before
//! truncating back, as the `Value`-based path does.

//! # Encoded kernels
//!
//! [`cmp_scalar_rle`] and [`cmp_scalar_dict`] are the compressed-execution
//! counterparts: they take an [`EncodedColumn`] and evaluate the comparison
//! once per RLE run (filling the selection mask a word at a time via
//! [`Bitmap::set_range`]) or once per distinct dictionary code, without ever
//! materializing the plain column. They return the same truth bitmap the
//! decoded kernels would, plus an [`EncodedCmpStats`] of how much per-row
//! work was skipped.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::encoded::{EncodedColumn, EncodedValues};
use std::cmp::Ordering;

/// Comparison operators the kernels implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`), for
    /// normalizing literal-on-the-left comparisons.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    #[inline]
    fn holds(self, a: f64, b: f64) -> bool {
        // Mirrors compare_values: incomparable (NaN) collapses to Equal.
        self.holds_ord(a.partial_cmp(&b).unwrap_or(Ordering::Equal))
    }

    /// Whether the operator accepts an already-computed ordering (the form
    /// string comparisons produce).
    #[inline]
    pub fn holds_ord(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Arithmetic operators the kernels implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Mod => a % b,
        }
    }

    fn null_on_zero_rhs(self) -> bool {
        matches!(self, ArithOp::Div | ArithOp::Mod)
    }
}

/// A borrowed numeric view of a column: the typed data plus its validity.
/// `None` for Bool/Varchar columns (those stay on the boxed path).
enum NumView<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
}

impl NumView<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            NumView::I64(d) => d[i] as f64,
            NumView::F64(d) => d[i],
        }
    }
}

fn numeric_view(col: &Column) -> Option<(NumView<'_>, &Bitmap)> {
    match col {
        Column::Int64 { data, validity } => Some((NumView::I64(data), validity)),
        Column::Float64 { data, validity } => Some((NumView::F64(data), validity)),
        _ => None,
    }
}

/// Compare a numeric column against a numeric scalar. Returns
/// `(truth, validity)` bitmaps, or `None` if the column is not numeric.
/// A NULL scalar makes every result NULL (both bitmaps all-clear).
pub fn cmp_scalar(col: &Column, op: CmpOp, rhs: Option<f64>) -> Option<(Bitmap, Bitmap)> {
    let n = col.len();
    let (view, valid) = numeric_view(col)?;
    let Some(rhs) = rhs else {
        return Some((Bitmap::all_clear(n), Bitmap::all_clear(n)));
    };
    if valid.all_set() {
        let truth = Bitmap::from_fn(n, |i| op.holds(view.get(i), rhs));
        return Some((truth, Bitmap::all_valid(n)));
    }
    let truth = Bitmap::from_fn(n, |i| valid.get(i) && op.holds(view.get(i), rhs));
    Some((truth, valid.clone()))
}

/// Compare two equal-length numeric columns element-wise. Returns
/// `(truth, validity)` bitmaps, or `None` if either side is non-numeric.
pub fn cmp_columns(l: &Column, r: &Column, op: CmpOp) -> Option<(Bitmap, Bitmap)> {
    if l.len() != r.len() {
        return None;
    }
    let n = l.len();
    let (lv, lval) = numeric_view(l)?;
    let (rv, rval) = numeric_view(r)?;
    if lval.all_set() && rval.all_set() {
        let truth = Bitmap::from_fn(n, |i| op.holds(lv.get(i), rv.get(i)));
        return Some((truth, Bitmap::all_valid(n)));
    }
    let validity = lval.and(rval);
    let truth = Bitmap::from_fn(n, |i| validity.get(i) && op.holds(lv.get(i), rv.get(i)));
    Some((truth, validity))
}

/// Element-wise arithmetic over two equal-length numeric columns. Mirrors
/// the boxed evaluator: `Int64 ⊕ Int64` (except Div) yields Int64 computed
/// through `f64`, everything else yields Float64; Div/Mod by zero yields
/// NULL. Returns `None` if either side is non-numeric.
pub fn arith_columns(l: &Column, r: &Column, op: ArithOp) -> Option<Column> {
    if l.len() != r.len() {
        return None;
    }
    let n = l.len();
    let (lv, lval) = numeric_view(l)?;
    let (rv, rval) = numeric_view(r)?;
    let int_out =
        matches!(lv, NumView::I64(_)) && matches!(rv, NumView::I64(_)) && op != ArithOp::Div;
    let both_valid = lval.all_set() && rval.all_set();
    let mut validity = if both_valid {
        Bitmap::all_valid(n)
    } else {
        lval.and(rval)
    };
    if int_out {
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            let b = rv.get(i);
            if op.null_on_zero_rhs() && b == 0.0 {
                data.push(0);
                if validity.get(i) {
                    validity = clear_bit(validity, i);
                }
            } else {
                data.push(op.apply(lv.get(i), b) as i64);
            }
        }
        Some(Column::Int64 { data, validity })
    } else {
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            let b = rv.get(i);
            if op.null_on_zero_rhs() && b == 0.0 {
                data.push(0.0);
                if validity.get(i) {
                    validity = clear_bit(validity, i);
                }
            } else {
                data.push(op.apply(lv.get(i), b));
            }
        }
        Some(Column::Float64 { data, validity })
    }
}

/// Clear one bit by rebuilding through `from_fn` — division-by-zero is the
/// rare path, so this stays out of the hot loop's way.
fn clear_bit(bm: Bitmap, idx: usize) -> Bitmap {
    Bitmap::from_fn(bm.len(), |i| i != idx && bm.get(i))
}

// ------------------------------------------------------- encoded kernels

/// What an encoded predicate kernel did: `comparisons` scalar compares for
/// `rows` rows of output. The gap is the per-row work compressed execution
/// skipped (`scan.encoded.runs_skipped` counts it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedCmpStats {
    /// Rows the resulting truth bitmap covers.
    pub rows: u64,
    /// Scalar comparisons actually evaluated (runs, distinct codes, or
    /// binary-search probes).
    pub comparisons: u64,
    /// Runs resolved by binary-searching a sorted column's boundaries
    /// instead of walking them (zero on the linear path).
    pub runs_bsearched: u64,
}

impl EncodedCmpStats {
    /// Per-row evaluations avoided relative to the decoded kernel.
    pub fn rows_skipped(&self) -> u64 {
        self.rows.saturating_sub(self.comparisons)
    }
}

/// Compare a run-length-encoded numeric column against a numeric scalar,
/// evaluating once per run and filling the truth bitmap a run at a time.
/// Semantics match [`cmp_scalar`] on the decoded column bit for bit (f64
/// domain, NaN collapses to Equal, NULL scalar ⇒ nothing true). Returns
/// `None` for non-numeric encoded forms (Bool runs, dictionaries).
pub fn cmp_scalar_rle(
    col: &EncodedColumn,
    op: CmpOp,
    rhs: Option<f64>,
) -> Option<(Bitmap, EncodedCmpStats)> {
    let n = col.len();
    enum Runs<'a> {
        I64(&'a [(u64, i64)]),
        F64(&'a [(u64, u64)]),
    }
    let runs = match col.values() {
        EncodedValues::RleI64(r) => Runs::I64(r),
        EncodedValues::RleF64(r) => Runs::F64(r),
        _ => return None,
    };
    let Some(rhs) = rhs else {
        return Some((
            Bitmap::all_clear(n),
            EncodedCmpStats {
                rows: n as u64,
                comparisons: 0,
                runs_bsearched: 0,
            },
        ));
    };
    // Sorted runs (e.g. a sort-ordered projection column): every operator's
    // truth set is one contiguous row range or its complement, so two binary
    // searches over the run values replace the run walk entirely.
    // Worth it only when the two searches (≤ 2·log₂ runs probes) beat the
    // walk; below this the linear path is already a handful of compares.
    const MIN_BSEARCH_RUNS: usize = 16;
    if let Some(starts) = col.sorted_run_starts() {
        if !rhs.is_nan() && starts.len() > MIN_BSEARCH_RUNS {
            let nruns = starts.len() - 1;
            let val = |i: usize| -> f64 {
                match &runs {
                    Runs::I64(rs) => rs[i].1 as f64,
                    Runs::F64(rs) => f64::from_bits(rs[i].1),
                }
            };
            let mut probes = 0u64;
            let mut search = |include_equal: bool| -> usize {
                let (mut lo, mut hi) = (0usize, nruns);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    probes += 1;
                    let v = val(mid);
                    let below = if include_equal { v <= rhs } else { v < rhs };
                    if below {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            };
            // First run not < rhs, and first run not <= rhs: together they
            // bracket the (possibly empty) range of runs equal to rhs.
            let lt_end = search(false);
            let le_end = search(true);
            let row = |ri: usize| starts[ri] as usize;
            let mut truth = Bitmap::all_clear(n);
            match op {
                CmpOp::Lt => truth.set_range(0, row(lt_end)),
                CmpOp::Le => truth.set_range(0, row(le_end)),
                CmpOp::Gt => truth.set_range(row(le_end), n),
                CmpOp::Ge => truth.set_range(row(lt_end), n),
                CmpOp::Eq => truth.set_range(row(lt_end), row(le_end)),
                CmpOp::Ne => {
                    truth.set_range(0, row(lt_end));
                    truth.set_range(row(le_end), n);
                }
            }
            let truth = if col.validity().all_set() {
                truth
            } else {
                truth.and(col.validity())
            };
            return Some((
                truth,
                EncodedCmpStats {
                    rows: n as u64,
                    comparisons: probes,
                    runs_bsearched: nruns as u64,
                },
            ));
        }
    }
    let mut truth = Bitmap::all_clear(n);
    let mut pos = 0usize;
    let mut comparisons = 0u64;
    let mut fill = |count: u64, v: f64, truth: &mut Bitmap, pos: &mut usize| {
        comparisons += 1;
        let end = *pos + count as usize;
        if op.holds(v, rhs) {
            truth.set_range(*pos, end);
        }
        *pos = end;
    };
    match runs {
        Runs::I64(rs) => {
            for &(count, v) in rs {
                fill(count, v as f64, &mut truth, &mut pos);
            }
        }
        Runs::F64(rs) => {
            for &(count, bits) in rs {
                fill(count, f64::from_bits(bits), &mut truth, &mut pos);
            }
        }
    }
    let truth = if col.validity().all_set() {
        truth
    } else {
        truth.and(col.validity())
    };
    Some((
        truth,
        EncodedCmpStats {
            rows: n as u64,
            comparisons,
            runs_bsearched: 0,
        },
    ))
}

/// Compare a dictionary-encoded string column against a string scalar,
/// evaluating once per distinct code and then mapping codes to bits.
/// Ordering matches the boxed evaluator's `str::cmp`; NULL rows are never
/// true. Returns `None` for non-dictionary encoded forms.
pub fn cmp_scalar_dict(
    col: &EncodedColumn,
    op: CmpOp,
    rhs: &str,
) -> Option<(Bitmap, EncodedCmpStats)> {
    let (dict, codes) = col.dict()?;
    let n = col.len();
    let code_truth: Vec<bool> = dict
        .iter()
        .map(|s| op.holds_ord(s.as_str().cmp(rhs)))
        .collect();
    let valid = col.validity();
    let truth = if valid.all_set() {
        Bitmap::from_fn(n, |i| code_truth[codes[i] as usize])
    } else {
        Bitmap::from_fn(n, |i| valid.get(i) && code_truth[codes[i] as usize])
    };
    Some((
        truth,
        EncodedCmpStats {
            rows: n as u64,
            comparisons: dict.len() as u64,
            runs_bsearched: 0,
        },
    ))
}

// ------------------------------------------------------------ row kernels
//
// Typed row-versus-row comparisons for sorting, top-N, grouping, and hash
// joins: they read the column's own data in place instead of boxing each
// operand into a `Value` per comparison.

/// SQL order of two floats: numeric order with `-0.0 == 0.0`, and NaN above
/// every number (and equal to itself), as in PostgreSQL. Unlike
/// `partial_cmp(..).unwrap_or(Equal)` this is a consistent total preorder,
/// so sorts over NaN-bearing columns are well defined.
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

/// Total order over two non-NULL key values of the same dtype: numbers by
/// [`cmp_f64`] with float ties broken by `f64::total_cmp` (so keys that
/// group apart — `-0.0` and `0.0`, NaNs with different payloads — never
/// compare Equal), strings by bytes, `false < true`. Gives GROUP BY output
/// and MIN/MAX a result independent of input order. Mismatched dtypes
/// compare Equal.
#[inline]
pub fn cmp_key(l: &Column, a: usize, r: &Column, b: usize) -> Ordering {
    match (l, r) {
        (Column::Int64 { data: x, .. }, Column::Int64 { data: y, .. }) => x[a].cmp(&y[b]),
        (Column::Float64 { data: x, .. }, Column::Float64 { data: y, .. }) => {
            cmp_f64_total(x[a], y[b])
        }
        (Column::Varchar { data: x, .. }, Column::Varchar { data: y, .. }) => x[a].cmp(&y[b]),
        (Column::Bool { data: x, .. }, Column::Bool { data: y, .. }) => x[a].cmp(&y[b]),
        _ => Ordering::Equal,
    }
}

/// [`cmp_f64`] with ties broken by bit pattern.
#[inline]
fn cmp_f64_total(a: f64, b: f64) -> Ordering {
    cmp_f64(a, b).then_with(|| a.total_cmp(&b))
}

/// One column's typed data, borrowed for row comparisons.
enum Values<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    Str(&'a [String]),
}

struct OrderKey<'a> {
    values: Values<'a>,
    /// `None` when the column has no NULLs.
    validity: Option<&'a Bitmap>,
    desc: bool,
}

/// A typed multi-column row comparator for ORDER BY, top-N, and group-key
/// order. Each key reads its column's own slice in place (no boxed values
/// per comparison). SQL puts NULLs last in either direction; numbers order
/// by [`cmp_f64`], strings by bytes, `false < true`.
pub struct RowOrder<'a> {
    keys: Vec<OrderKey<'a>>,
    /// Break float ties by bit pattern, as [`cmp_key`] does.
    total: bool,
}

impl<'a> RowOrder<'a> {
    /// `keys` are `(column, descending)` pairs, most significant first.
    pub fn new(keys: &[(&'a Column, bool)], total: bool) -> RowOrder<'a> {
        let keys = keys
            .iter()
            .map(|&(col, desc)| OrderKey {
                values: match col {
                    Column::Int64 { data, .. } => Values::I64(data),
                    Column::Float64 { data, .. } => Values::F64(data),
                    Column::Bool { data, .. } => Values::Bool(data),
                    Column::Varchar { data, .. } => Values::Str(data),
                },
                validity: (!col.validity().all_set()).then(|| col.validity()),
                desc,
            })
            .collect();
        RowOrder { keys, total }
    }

    /// Order rows `a` and `b`.
    #[inline]
    pub fn cmp(&self, a: usize, b: usize) -> Ordering {
        for k in &self.keys {
            let valid = k.validity.map_or((true, true), |v| (v.get(a), v.get(b)));
            let ord = match valid {
                (true, true) => {
                    let ord = match k.values {
                        Values::I64(d) => d[a].cmp(&d[b]),
                        Values::F64(d) if self.total => cmp_f64_total(d[a], d[b]),
                        Values::F64(d) => cmp_f64(d[a], d[b]),
                        Values::Bool(d) => d[a].cmp(&d[b]),
                        Values::Str(d) => d[a].cmp(&d[b]),
                    };
                    if k.desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                }
                (false, false) => Ordering::Equal,
                (false, true) => Ordering::Greater,
                (true, false) => Ordering::Less,
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// The stable sort permutation of the first `rows` rows.
    pub fn sorted(&self, rows: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..rows).collect();
        idx.sort_by(|&a, &b| self.cmp(a, b));
        idx
    }

    /// The first `k` rows of [`RowOrder::sorted`], found by selection
    /// instead of sorting all `rows`.
    pub fn top(&self, rows: usize, k: usize) -> Vec<usize> {
        if k >= rows {
            return self.sorted(rows);
        }
        if k == 0 {
            return Vec::new();
        }
        // Ties broken by row position reproduce the stable order exactly.
        let total = |a: &usize, b: &usize| self.cmp(*a, *b).then(a.cmp(b));
        let mut idx: Vec<usize> = (0..rows).collect();
        idx.select_nth_unstable_by(k - 1, total);
        idx.truncate(k);
        idx.sort_unstable_by(total);
        idx
    }
}

/// Key equality of row `a` of `l` and row `b` of `r` (same dtype): NULL
/// equals NULL, floats compare by bit pattern (NaN groups with NaN, `-0.0`
/// apart from `0.0`).
#[inline]
pub fn eq_key(l: &Column, a: usize, r: &Column, b: usize) -> bool {
    let (va, vb) = (l.validity().get(a), r.validity().get(b));
    if !(va && vb) {
        return va == vb;
    }
    match (l, r) {
        (Column::Int64 { data: x, .. }, Column::Int64 { data: y, .. }) => x[a] == y[b],
        (Column::Float64 { data: x, .. }, Column::Float64 { data: y, .. }) => {
            x[a].to_bits() == y[b].to_bits()
        }
        (Column::Varchar { data: x, .. }, Column::Varchar { data: y, .. }) => x[a] == y[b],
        (Column::Bool { data: x, .. }, Column::Bool { data: y, .. }) => x[a] == y[b],
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::value::{DataType, Value};

    fn nullable_f64(vals: &[Option<f64>]) -> Column {
        let mut b = ColumnBuilder::new(DataType::Float64);
        for v in vals {
            match v {
                Some(x) => b.push(Value::Float64(*x)).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    }

    #[test]
    fn scalar_compare_respects_validity() {
        let col = nullable_f64(&[Some(1.0), None, Some(3.0)]);
        let (truth, validity) = cmp_scalar(&col, CmpOp::Gt, Some(2.0)).unwrap();
        assert_eq!(
            (truth.get(0), truth.get(1), truth.get(2)),
            (false, false, true)
        );
        assert!(!validity.get(1));
        // NULL scalar: nothing is true, nothing is valid.
        let (truth, validity) = cmp_scalar(&col, CmpOp::Gt, None).unwrap();
        assert!(!truth.any_set());
        assert!(!validity.any_set());
    }

    #[test]
    fn int_columns_compare_in_f64_domain() {
        let col = Column::from_i64(vec![1, 5, 9]);
        let (truth, _) = cmp_scalar(&col, CmpOp::Le, Some(5.0)).unwrap();
        assert_eq!(
            (truth.get(0), truth.get(1), truth.get(2)),
            (true, true, false)
        );
        // Mixed int/float column-column comparison.
        let r = Column::from_f64(vec![0.5, 5.0, 100.0]);
        let (truth, _) = cmp_columns(&col, &r, CmpOp::Lt).unwrap();
        assert_eq!(
            (truth.get(0), truth.get(1), truth.get(2)),
            (false, false, true)
        );
    }

    #[test]
    fn row_order_puts_nulls_last_and_nan_above_numbers() {
        let col = nullable_f64(&[
            Some(2.0),
            None,
            Some(f64::NAN),
            Some(-0.0),
            Some(0.0),
            Some(2.0),
        ]);
        let asc = RowOrder::new(&[(&col, false)], false);
        assert_eq!(asc.sorted(6), vec![3, 4, 0, 5, 2, 1]);
        let desc = RowOrder::new(&[(&col, true)], false);
        assert_eq!(desc.sorted(6), vec![2, 0, 5, 3, 4, 1]);
        // With bit-pattern tie-breaks -0.0 sorts before 0.0.
        assert_eq!(
            RowOrder::new(&[(&col, true)], true).sorted(6),
            vec![2, 0, 5, 4, 3, 1]
        );
        // A top-N is exactly the prefix of the stable sort, ties included.
        for k in 0..=6 {
            assert_eq!(desc.top(6, k), desc.sorted(6)[..k].to_vec());
        }
        assert_eq!(cmp_key(&col, 3, &col, 4), Ordering::Less);
        assert!(eq_key(&col, 2, &col, 2) && !eq_key(&col, 3, &col, 4));
        assert!(eq_key(&col, 1, &col, 1) && !eq_key(&col, 1, &col, 0));
    }

    #[test]
    fn nan_compares_equal_like_the_boxed_path() {
        // compare_values collapses incomparable pairs to Equal; kernels must
        // agree so the fast path never changes query results.
        let col = Column::from_f64(vec![f64::NAN]);
        let (truth, _) = cmp_scalar(&col, CmpOp::Eq, Some(7.0)).unwrap();
        assert!(truth.get(0));
        let (truth, _) = cmp_scalar(&col, CmpOp::Lt, Some(7.0)).unwrap();
        assert!(!truth.get(0));
    }

    #[test]
    fn flip_is_an_involution_that_swaps_operands() {
        let l = Column::from_i64(vec![1, 2, 3]);
        let r = Column::from_i64(vec![2, 2, 2]);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            let (a, _) = cmp_columns(&l, &r, op).unwrap();
            let (b, _) = cmp_columns(&r, &l, op.flip()).unwrap();
            assert_eq!(a, b, "{op:?}");
        }
    }

    #[test]
    fn non_numeric_columns_decline() {
        let s = Column::from_strings(vec!["a"]);
        let b = Column::from_bool(vec![true]);
        assert!(cmp_scalar(&s, CmpOp::Eq, Some(0.0)).is_none());
        assert!(cmp_columns(&s, &s, CmpOp::Eq).is_none());
        assert!(cmp_columns(&b, &b, CmpOp::Eq).is_none());
        assert!(arith_columns(&s, &s, ArithOp::Add).is_none());
        // Length mismatch declines rather than panicking.
        let a = Column::from_i64(vec![1]);
        let c = Column::from_i64(vec![1, 2]);
        assert!(cmp_columns(&a, &c, CmpOp::Eq).is_none());
    }

    #[test]
    fn arithmetic_types_and_zero_division() {
        let l = Column::from_i64(vec![7, 8, 9]);
        let r = Column::from_i64(vec![2, 0, 3]);
        // Int + Int stays Int.
        let sum = arith_columns(&l, &r, ArithOp::Add).unwrap();
        assert_eq!(sum.data_type(), DataType::Int64);
        assert_eq!(sum.get(0), Value::Int64(9));
        // Int / Int widens to Float, and /0 is NULL.
        let div = arith_columns(&l, &r, ArithOp::Div).unwrap();
        assert_eq!(div.data_type(), DataType::Float64);
        assert_eq!(div.get(0), Value::Float64(3.5));
        assert_eq!(div.get(1), Value::Null);
        // Mod by zero is NULL even on the Int64 output path.
        let m = arith_columns(&l, &r, ArithOp::Mod).unwrap();
        assert_eq!(m.data_type(), DataType::Int64);
        assert_eq!(m.get(1), Value::Null);
        assert_eq!(m.get(2), Value::Int64(0));
    }

    #[test]
    fn arithmetic_propagates_nulls() {
        let l = nullable_f64(&[Some(1.0), None]);
        let r = Column::from_f64(vec![2.0, 2.0]);
        let out = arith_columns(&l, &r, ArithOp::Mul).unwrap();
        assert_eq!(out.get(0), Value::Float64(2.0));
        assert_eq!(out.get(1), Value::Null);
    }

    fn encoded(col: &Column, enc: crate::encoding::Encoding) -> EncodedColumn {
        let mut buf = Vec::new();
        crate::encoding::encode_column(col, enc, &mut buf).unwrap();
        let mut pos = 0;
        EncodedColumn::from_payload(col.data_type(), enc, col.len(), &buf, &mut pos)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn rle_kernel_matches_decoded_kernel() {
        let mut vals = Vec::new();
        for run in 0..20i64 {
            vals.extend(std::iter::repeat_n(run / 3, 17));
        }
        let col = Column::from_i64(vals);
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let (fast, stats) = cmp_scalar_rle(&ec, op, Some(3.0)).unwrap();
            let (slow, _) = cmp_scalar(&col, op, Some(3.0)).unwrap();
            assert_eq!(fast, slow, "{op:?}");
            assert!(stats.comparisons < stats.rows, "{op:?}");
            assert!(stats.rows_skipped() > 0);
        }
        // NULL scalar: nothing true, zero comparisons.
        let (truth, stats) = cmp_scalar_rle(&ec, CmpOp::Eq, None).unwrap();
        assert!(!truth.any_set());
        assert_eq!(stats.comparisons, 0);
    }

    #[test]
    fn sorted_rle_kernel_binary_searches_run_boundaries() {
        // 40 sorted runs of 9 rows: well past the bsearch threshold.
        let mut vals = Vec::new();
        for run in 0..40i64 {
            vals.extend(std::iter::repeat_n(run, 9));
        }
        let col = Column::from_i64(vals);
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        assert!(ec.sorted_run_starts().is_some());
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            // Boundary values, interior values, and out-of-range values.
            for rhs in [-1.0, 0.0, 7.0, 7.5, 39.0, 99.0] {
                let (fast, stats) = cmp_scalar_rle(&ec, op, Some(rhs)).unwrap();
                let (slow, _) = cmp_scalar(&col, op, Some(rhs)).unwrap();
                assert_eq!(fast, slow, "{op:?} {rhs}");
                assert_eq!(stats.runs_bsearched, 40, "{op:?} {rhs}");
                // Two binary searches over 40 runs, not a 40-run walk.
                assert!(stats.comparisons <= 12, "{op:?} {rhs}: {stats:?}");
            }
        }
        // NaN rhs falls back to the linear walk (NaN collapses to Equal).
        let (fast, stats) = cmp_scalar_rle(&ec, CmpOp::Eq, Some(f64::NAN)).unwrap();
        let (slow, _) = cmp_scalar(&col, CmpOp::Eq, Some(f64::NAN)).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(stats.runs_bsearched, 0);
    }

    #[test]
    fn sorted_starts_detection() {
        // Unsorted runs: no starts.
        let col = Column::from_i64([vec![5i64; 20], vec![1; 20], vec![9; 20]].concat());
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        assert!(ec.sorted_run_starts().is_none());
        // Sorted floats: starts with the right offsets.
        let col = Column::from_f64([vec![1.0f64; 30], vec![2.0; 10], vec![3.5; 5]].concat());
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        assert_eq!(ec.sorted_run_starts().unwrap(), &[0, 30, 40, 45]);
        // A NaN run disqualifies the column (NaN breaks the ordering the
        // binary search relies on).
        let col = Column::from_f64([vec![1.0f64; 20], vec![f64::NAN; 20]].concat());
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        assert!(ec.sorted_run_starts().is_none());
    }

    #[test]
    fn rle_kernel_respects_validity_and_nan() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        for i in 0..30 {
            if i % 5 == 1 {
                b.push_null();
            } else if i < 10 {
                b.push(Value::Float64(f64::NAN)).unwrap();
            } else {
                b.push(Value::Float64(2.0)).unwrap();
            }
        }
        let col = b.finish();
        let ec = encoded(&col, crate::encoding::Encoding::Rle);
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            let (fast, _) = cmp_scalar_rle(&ec, op, Some(2.0)).unwrap();
            let (slow, _) = cmp_scalar(&col, op, Some(2.0)).unwrap();
            assert_eq!(fast, slow, "{op:?}");
        }
    }

    #[test]
    fn dict_kernel_compares_once_per_code() {
        let col = Column::from_strings((0..200).map(|i| format!("g{}", i % 4)).collect());
        let ec = encoded(&col, crate::encoding::Encoding::Dictionary);
        let (truth, stats) = cmp_scalar_dict(&ec, CmpOp::Eq, "g2").unwrap();
        assert_eq!(stats.comparisons, 4);
        assert_eq!(truth.count_set(), 50);
        // Ordering comparisons use str::cmp like the boxed path.
        let (truth, _) = cmp_scalar_dict(&ec, CmpOp::Lt, "g2").unwrap();
        assert_eq!(truth.count_set(), 100); // g0, g1
    }

    #[test]
    fn encoded_kernels_decline_wrong_forms() {
        let b = Column::from_bool(vec![true; 8]);
        let eb = encoded(&b, crate::encoding::Encoding::Rle);
        assert!(cmp_scalar_rle(&eb, CmpOp::Eq, Some(1.0)).is_none());
        assert!(cmp_scalar_dict(&eb, CmpOp::Eq, "x").is_none());
        let s = Column::from_strings(vec!["a"; 8]);
        let es = encoded(&s, crate::encoding::Encoding::Dictionary);
        assert!(cmp_scalar_rle(&es, CmpOp::Eq, Some(1.0)).is_none());
    }
}
