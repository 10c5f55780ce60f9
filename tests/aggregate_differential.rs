//! Differential tests for the scan pipeline's WHERE evaluation, the typed
//! aggregate operator and the per-node top-N of `ORDER BY … LIMIT`.
//!
//! Random NULL-heavy tables with a column of every dtype (NaN, `-0.0` next to
//! `0.0`, and empty strings included; long runs make the block encoder pick
//! RLE and dictionary encodings) run filtered projections, GROUP BY and
//! ORDER BY queries on 1, 3, and 4 nodes × hash and round-robin
//! segmentation, and every answer must equal a brute-force oracle: same
//! rows, same row order, same schema. WHERE clauses mix leaves the encoded
//! kernels evaluate per run or per dictionary code with leaves that fall
//! back to the decoded evaluator (LIKE, IN, IS NULL, NOT, column against
//! column, arithmetic) under AND/OR, NULL-producing comparisons included.

use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;
use vertica_dr::cluster::SimCluster;
use vertica_dr::columnar::{Batch, DataType, Schema, Value};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

// ---------------------------------------------------------- the regression

/// `MAX` over a VARCHAR column whose group holds only NULLs returns NULL in
/// a VARCHAR column instead of failing with a type mismatch.
#[test]
fn max_of_all_null_varchar_group_is_null() {
    for nodes in [1, 3] {
        for seg in ["SEGMENTED BY HASH(k)", ""] {
            let db = VerticaDb::new(SimCluster::for_tests(nodes));
            db.query(&format!("CREATE TABLE t (k INT, s VARCHAR, v FLOAT) {seg}"))
                .unwrap();
            db.query("INSERT INTO t VALUES (1, NULL, NULL)").unwrap();
            db.query("INSERT INTO t VALUES (2, 'a', 1.5)").unwrap();
            let out = db
                .query("SELECT k, max(s) FROM t GROUP BY k")
                .unwrap_or_else(|e| panic!("{nodes} nodes {seg:?}: {e}"))
                .batch;
            let rows: Vec<Vec<Value>> = (0..out.num_rows()).map(|r| out.row(r)).collect();
            assert_eq!(
                rows,
                vec![
                    vec![Value::Int64(1), Value::Null],
                    vec![Value::Int64(2), Value::Varchar("a".into())],
                ],
                "{nodes} nodes {seg:?}"
            );
            let dtypes: Vec<DataType> = out.schema().fields().iter().map(|f| f.dtype).collect();
            assert_eq!(dtypes, vec![DataType::Int64, DataType::Varchar]);
        }
    }
}

// -------------------------------------------------------------- the table

const FLOATS: [f64; 7] = [f64::NAN, -0.0, 0.0, 1.0, -1.0, 2.5, 1000.0];
const STRINGS: [&str; 6] = ["", "a", "b", "ab", "zz", "alpha"];
/// Columns after `id`, in schema order.
const COLS: [&str; 4] = ["i", "f", "b", "s"];

type RowSpec = (Option<i64>, Option<usize>, Option<bool>, Option<usize>);

/// Rows `[id, i, f, b, s]`, each spec repeated `run` times (runs make the
/// block encoder pick RLE and dictionary encodings).
fn expand(spec: &[(RowSpec, usize)]) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for ((i, f, b, s), run) in spec {
        for _ in 0..*run {
            rows.push(vec![
                Value::Int64(rows.len() as i64),
                i.map_or(Value::Null, Value::Int64),
                f.map_or(Value::Null, |x| Value::Float64(FLOATS[x])),
                b.map_or(Value::Null, Value::Bool),
                s.map_or(Value::Null, |x| Value::Varchar(STRINGS[x].into())),
            ]);
        }
    }
    rows
}

fn schema() -> Schema {
    Schema::of(&[
        ("id", DataType::Int64),
        ("i", DataType::Int64),
        ("f", DataType::Float64),
        ("b", DataType::Bool),
        ("s", DataType::Varchar),
    ])
}

fn make_db(nodes: usize, seg: &Segmentation, rows: &[Vec<Value>]) -> Arc<VerticaDb> {
    let db = VerticaDb::new(SimCluster::for_tests(nodes));
    db.create_table(TableDef {
        name: "t".into(),
        schema: schema(),
        segmentation: seg.clone(),
    })
    .unwrap();
    if !rows.is_empty() {
        db.copy("t", vec![Batch::from_rows(schema(), rows).unwrap()])
            .unwrap();
    }
    db
}

fn dtype_of(col: &str) -> DataType {
    schema().fields()[1 + COLS.iter().position(|c| *c == col).unwrap()].dtype
}

// ------------------------------------------------------------- the oracle

/// Key and result equality: NULL equals NULL, floats by bit pattern except
/// that any NaN equals any NaN (a NaN sum's payload is not specified).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

/// GROUP BY key equality: floats by bit pattern, NaN payloads included.
fn same_key(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// SQL order of two non-NULL values: numbers with `-0.0 == 0.0` and NaN
/// above every number, strings by bytes, `false < true`.
fn sql_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => match (x.is_nan(), y.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            _ => x.partial_cmp(y).unwrap(),
        },
        (Value::Int64(x), Value::Int64(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Varchar(x), Value::Varchar(y)) => x.cmp(y),
        _ => panic!("mixed types {a:?} {b:?}"),
    }
}

/// The total key order: [`sql_cmp`], float ties broken by `total_cmp`.
fn key_cmp(a: &Value, b: &Value) -> Ordering {
    sql_cmp(a, b).then_with(|| match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.total_cmp(y),
        _ => Ordering::Equal,
    })
}

/// NULLs last in either direction.
fn nulls_last(a: &Value, b: &Value, desc: bool, cmp: fn(&Value, &Value) -> Ordering) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        _ if desc => cmp(a, b).reverse(),
        _ => cmp(a, b),
    }
}

// ------------------------------------------------------------ predicates

#[derive(Clone, Copy, Debug)]
enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Op {
    fn sql(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Ne => "<>",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }

    fn holds(self, o: Ordering) -> bool {
        match self {
            Op::Eq => o == Ordering::Equal,
            Op::Ne => o != Ordering::Equal,
            Op::Lt => o == Ordering::Less,
            Op::Le => o != Ordering::Greater,
            Op::Gt => o == Ordering::Greater,
            Op::Ge => o != Ordering::Less,
        }
    }
}

/// A WHERE clause over the table's columns.
#[derive(Clone, Debug)]
enum Pred {
    /// `col op literal`, or `literal op col` when the flag is set.
    Cmp(&'static str, Op, Value, bool),
    /// `col op col` over two numeric columns.
    Cols(&'static str, Op, &'static str),
    /// `i + k op literal`.
    Arith(i64, Op, i64),
    /// `col [NOT] IN (…)`.
    In(&'static str, Vec<Value>, bool),
    /// `s [NOT] LIKE pattern`.
    Like(&'static str, bool),
    /// `col IS [NOT] NULL`.
    IsNull(&'static str, bool),
    Not(Box<Pred>),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int64(x) => x.to_string(),
        Value::Float64(x) => format!("{x:?}"),
        Value::Bool(x) => if *x { "TRUE" } else { "FALSE" }.into(),
        Value::Varchar(x) => format!("'{x}'"),
    }
}

/// The engine's comparison: NULL against anything is unknown; numbers
/// compare as floats, with a NaN equal to everything.
fn sql_compare(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => None,
        (Value::Varchar(x), Value::Varchar(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        _ => Some(
            a.as_f64()
                .unwrap()
                .partial_cmp(&b.as_f64().unwrap())
                .unwrap_or(Ordering::Equal),
        ),
    }
}

/// SQL LIKE: `%` matches any run, `_` one character.
fn like(s: &[char], p: &[char]) -> bool {
    match p.split_first() {
        None => s.is_empty(),
        Some(('%', rest)) => (0..=s.len()).any(|i| like(&s[i..], rest)),
        Some((c, rest)) => !s.is_empty() && (*c == '_' || *c == s[0]) && like(&s[1..], rest),
    }
}

impl Pred {
    fn sql(&self) -> String {
        match self {
            Pred::Cmp(c, op, v, false) => format!("{c} {} {}", op.sql(), literal(v)),
            Pred::Cmp(c, op, v, true) => format!("{} {} {c}", literal(v), op.sql()),
            Pred::Cols(a, op, b) => format!("{a} {} {b}", op.sql()),
            Pred::Arith(k, op, v) => format!("i + {k} {} {v}", op.sql()),
            Pred::In(c, list, negated) => {
                let items: Vec<String> = list.iter().map(literal).collect();
                let not = if *negated { "NOT " } else { "" };
                format!("{c} {not}IN ({})", items.join(", "))
            }
            Pred::Like(p, negated) => {
                format!("s {}LIKE '{p}'", if *negated { "NOT " } else { "" })
            }
            Pred::IsNull(c, negated) => {
                format!("{c} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Pred::Not(p) => format!("NOT ({})", p.sql()),
            Pred::And(a, b) => format!("({}) AND ({})", a.sql(), b.sql()),
            Pred::Or(a, b) => format!("({}) OR ({})", a.sql(), b.sql()),
        }
    }

    /// Three-valued truth of the predicate on one row (`None` = NULL).
    fn eval(&self, row: &[Value]) -> Option<bool> {
        let col = |c: &str| {
            if c == "id" {
                &row[0]
            } else {
                &row[col_index(c)]
            }
        };
        match self {
            Pred::Cmp(c, op, v, false) => sql_compare(col(c), v).map(|o| op.holds(o)),
            Pred::Cmp(c, op, v, true) => sql_compare(v, col(c)).map(|o| op.holds(o)),
            Pred::Cols(a, op, b) => sql_compare(col(a), col(b)).map(|o| op.holds(o)),
            Pred::Arith(k, op, v) => match col("i") {
                Value::Int64(x) => Some(op.holds((x + k).cmp(v))),
                _ => None,
            },
            Pred::In(c, list, negated) => {
                let v = col(c);
                if v.is_null() {
                    return None;
                }
                let found = list
                    .iter()
                    .any(|item| sql_compare(v, item) == Some(Ordering::Equal));
                Some(found != *negated)
            }
            Pred::Like(p, negated) => match col("s") {
                Value::Varchar(x) => {
                    let (x, p): (Vec<char>, Vec<char>) = (x.chars().collect(), p.chars().collect());
                    Some(like(&x, &p) != *negated)
                }
                _ => None,
            },
            Pred::IsNull(c, negated) => Some(col(c).is_null() != *negated),
            Pred::Not(p) => p.eval(row).map(|v| !v),
            Pred::And(a, b) => match (a.eval(row), b.eval(row)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Pred::Or(a, b) => match (a.eval(row), b.eval(row)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        }
    }
}

fn where_sql(filter: &Option<Pred>) -> String {
    filter
        .as_ref()
        .map_or(String::new(), |p| format!(" WHERE {}", p.sql()))
}

/// The rows a WHERE clause keeps (those it holds TRUE for), in table order.
fn filtered<'a>(rows: &'a [Vec<Value>], filter: &Option<Pred>) -> Vec<&'a Vec<Value>> {
    rows.iter()
        .filter(|r| filter.as_ref().is_none_or(|p| p.eval(r) == Some(true)))
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Agg {
    CountStar,
    Count,
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
}

impl Agg {
    fn sql(self, col: &str) -> String {
        match self {
            Agg::CountStar => "count(*)".into(),
            Agg::Count => format!("count({col})"),
            Agg::CountDistinct => format!("count(DISTINCT {col})"),
            Agg::Sum => format!("sum({col})"),
            Agg::Avg => format!("avg({col})"),
            Agg::Min => format!("min({col})"),
            Agg::Max => format!("max({col})"),
        }
    }

    fn dtype(self, col: &str) -> DataType {
        match self {
            Agg::CountStar | Agg::Count | Agg::CountDistinct => DataType::Int64,
            Agg::Sum | Agg::Avg => DataType::Float64,
            Agg::Min | Agg::Max => dtype_of(col),
        }
    }

    fn eval(self, vals: &[&Value]) -> Value {
        let present: Vec<&Value> = vals.iter().copied().filter(|v| !v.is_null()).collect();
        let best = |want: Ordering| {
            present
                .iter()
                .copied()
                .fold(None::<&Value>, |acc, v| match acc {
                    Some(a) if key_cmp(v, a) != want => Some(a),
                    _ => Some(v),
                })
                .cloned()
                .unwrap_or(Value::Null)
        };
        match self {
            Agg::CountStar => Value::Int64(vals.len() as i64),
            Agg::Count => Value::Int64(present.len() as i64),
            Agg::CountDistinct => {
                let mut seen: Vec<&Value> = Vec::new();
                for v in &present {
                    if !seen.iter().any(|s| same_key(s, v)) {
                        seen.push(v);
                    }
                }
                Value::Int64(seen.len() as i64)
            }
            Agg::Sum | Agg::Avg => {
                if present.is_empty() {
                    return Value::Null;
                }
                // Sums start from +0.0, so an all `-0.0` group sums to 0.0.
                let sum = present
                    .iter()
                    .fold(0.0, |acc, v| acc + v.as_f64().unwrap_or(0.0));
                match self {
                    Agg::Sum => Value::Float64(sum),
                    _ => Value::Float64(sum / present.len() as f64),
                }
            }
            Agg::Min => best(Ordering::Less),
            Agg::Max => best(Ordering::Greater),
        }
    }
}

/// The expected answer: column names, dtypes, and rows.
struct Expected {
    names: Vec<String>,
    dtypes: Vec<DataType>,
    rows: Vec<Vec<Value>>,
}

fn col_index(col: &str) -> usize {
    1 + COLS.iter().position(|c| *c == col).unwrap()
}

fn slice_rows(rows: Vec<Vec<Value>>, offset: usize, limit: Option<usize>) -> Vec<Vec<Value>> {
    let end = limit.map_or(rows.len(), |l| (offset + l).min(rows.len()));
    rows.into_iter().take(end).skip(offset).collect()
}

/// One GROUP BY query: its SQL and the oracle's answer over `rows`.
struct GroupQuery {
    filter: Option<Pred>,
    keys: Vec<&'static str>,
    aggs: Vec<(Agg, &'static str)>,
    /// `ORDER BY a{i} [DESC]` plus OFFSET/LIMIT over the aggregate output.
    order: Option<(usize, bool, usize, usize)>,
}

impl GroupQuery {
    fn sql(&self) -> String {
        let mut items: Vec<String> = self
            .keys
            .iter()
            .enumerate()
            .map(|(i, k)| format!("{k} AS k{i}"))
            .collect();
        items.extend(
            self.aggs
                .iter()
                .enumerate()
                .map(|(i, (a, c))| format!("{} AS a{i}", a.sql(c))),
        );
        let mut sql = format!(
            "SELECT {} FROM t{}",
            items.join(", "),
            where_sql(&self.filter)
        );
        if !self.keys.is_empty() {
            sql += &format!(" GROUP BY {}", self.keys.join(", "));
        }
        if let Some((a, desc, offset, limit)) = self.order {
            let dir = if desc { " DESC" } else { "" };
            sql += &format!(" ORDER BY a{a}{dir} LIMIT {limit} OFFSET {offset}");
        }
        sql
    }

    fn expected(&self, rows: &[Vec<Value>]) -> Expected {
        let rows = filtered(rows, &self.filter);
        let key_idx: Vec<usize> = self.keys.iter().map(|k| col_index(k)).collect();
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        if self.keys.is_empty() {
            groups.push((Vec::new(), (0..rows.len()).collect()));
        } else {
            for (r, row) in rows.iter().enumerate() {
                let key: Vec<Value> = key_idx.iter().map(|&c| row[c].clone()).collect();
                match groups
                    .iter_mut()
                    .find(|(k, _)| k.iter().zip(&key).all(|(a, b)| same_key(a, b)))
                {
                    Some((_, members)) => members.push(r),
                    None => groups.push((key, vec![r])),
                }
            }
        }
        groups.sort_by(|(a, _), (b, _)| {
            a.iter()
                .zip(b)
                .map(|(x, y)| nulls_last(x, y, false, key_cmp))
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });
        let mut out: Vec<Vec<Value>> = groups
            .into_iter()
            .map(|(key, members)| {
                let mut row = key;
                for (agg, col) in &self.aggs {
                    let c = col_index(col);
                    let vals: Vec<&Value> = members.iter().map(|&r| &rows[r][c]).collect();
                    row.push(agg.eval(&vals));
                }
                row
            })
            .collect();
        if let Some((a, desc, offset, limit)) = self.order {
            let at = self.keys.len() + a;
            out.sort_by(|x, y| nulls_last(&x[at], &y[at], desc, sql_cmp));
            out = slice_rows(out, offset, Some(limit));
        }
        let mut names: Vec<String> = (0..self.keys.len()).map(|i| format!("k{i}")).collect();
        names.extend((0..self.aggs.len()).map(|i| format!("a{i}")));
        let mut dtypes: Vec<DataType> = self.keys.iter().map(|k| dtype_of(k)).collect();
        dtypes.extend(self.aggs.iter().map(|(a, c)| a.dtype(c)));
        Expected {
            names,
            dtypes,
            rows: out,
        }
    }
}

/// One ORDER BY row query: `id` and two sort columns, ordered by both and
/// then by `id`, so the expected order is fully determined.
struct OrderQuery {
    filter: Option<Pred>,
    cols: [&'static str; 2],
    desc: [bool; 2],
    offset: usize,
    limit: Option<usize>,
}

impl OrderQuery {
    fn order_by(&self) -> String {
        let dir = |d: bool| if d { " DESC" } else { "" };
        format!(
            "ORDER BY {}{}, {}{}",
            self.cols[0],
            dir(self.desc[0]),
            self.cols[1],
            dir(self.desc[1])
        )
    }

    fn tail(&self) -> String {
        match self.limit {
            Some(l) => format!(" LIMIT {l} OFFSET {}", self.offset),
            None => String::new(),
        }
    }

    fn sql(&self) -> String {
        format!(
            "SELECT id AS r0, {} AS r1 FROM t{} {}, id{}",
            self.cols[0],
            where_sql(&self.filter),
            self.order_by(),
            self.tail()
        )
    }

    /// The same order without the `id` tie-breaker: ties stay in the
    /// engine's stable order, which a LIMIT must cut exactly.
    fn sql_with_ties(&self, limited: bool) -> String {
        let tail = if limited { self.tail() } else { String::new() };
        format!(
            "SELECT id AS r0, {} AS r1 FROM t{} {}{tail}",
            self.cols[0],
            where_sql(&self.filter),
            self.order_by()
        )
    }

    fn expected(&self, rows: &[Vec<Value>]) -> Expected {
        let (c0, c1) = (col_index(self.cols[0]), col_index(self.cols[1]));
        let mut sorted = filtered(rows, &self.filter);
        sorted.sort_by(|x, y| {
            nulls_last(&x[c0], &y[c0], self.desc[0], sql_cmp)
                .then_with(|| nulls_last(&x[c1], &y[c1], self.desc[1], sql_cmp))
                .then_with(|| sql_cmp(&x[0], &y[0]))
        });
        let out = sorted
            .into_iter()
            .map(|r| vec![r[0].clone(), r[c0].clone()])
            .collect();
        Expected {
            names: vec!["r0".into(), "r1".into()],
            dtypes: vec![DataType::Int64, dtype_of(self.cols[0])],
            rows: slice_rows(out, self.offset, self.limit),
        }
    }
}

/// A filtered plain projection without ORDER BY: the engine returns rows in
/// node order, so both sides compare sorted by the unique `id`.
struct ProjectQuery {
    filter: Option<Pred>,
    col: &'static str,
}

impl ProjectQuery {
    fn sql(&self) -> String {
        format!(
            "SELECT id AS r0, {} AS r1 FROM t{}",
            self.col,
            where_sql(&self.filter)
        )
    }

    fn expected(&self, rows: &[Vec<Value>]) -> Expected {
        let c = col_index(self.col);
        Expected {
            names: vec!["r0".into(), "r1".into()],
            dtypes: vec![DataType::Int64, dtype_of(self.col)],
            rows: filtered(rows, &self.filter)
                .into_iter()
                .map(|r| vec![r[0].clone(), r[c].clone()])
                .collect(),
        }
    }
}

/// `batch` with its rows sorted by the Int64 first column.
fn sorted_by_first(batch: &Batch) -> Batch {
    let mut order: Vec<usize> = (0..batch.num_rows()).collect();
    order.sort_by_key(|&r| batch.row(r)[0].as_f64().unwrap() as i64);
    Batch::from_rows(
        batch.schema().clone(),
        &order.iter().map(|&r| batch.row(r)).collect::<Vec<_>>(),
    )
    .unwrap()
}

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|r| b.row(r)).collect()
}

fn check(got: &Batch, want: &Expected, what: &str) -> Result<(), TestCaseError> {
    let names: Vec<String> = got
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect();
    let dtypes: Vec<DataType> = got.schema().fields().iter().map(|f| f.dtype).collect();
    prop_assert!(names == want.names, "names of {what}: {names:?}");
    prop_assert!(dtypes == want.dtypes, "dtypes of {what}: {dtypes:?}");
    let got = rows_of(got);
    let equal = got.len() == want.rows.len()
        && got
            .iter()
            .zip(&want.rows)
            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| same(x, y)));
    prop_assert!(equal, "{what}\n got {got:?}\nwant {:?}", want.rows);
    Ok(())
}

// ------------------------------------------------------ query generation

/// Small deterministic generator for query shapes.
struct Pick(u64);

impl Pick {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn col(&mut self) -> &'static str {
        COLS[self.below(COLS.len())]
    }

    fn op(&mut self) -> Op {
        [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge][self.below(6)]
    }

    /// A literal of `col`'s type, from the values the table holds.
    fn literal(&mut self, col: &str) -> Value {
        match col {
            "i" => Value::Int64(self.below(6) as i64 - 1),
            "f" => Value::Float64([0.0, 1.0, 2.5, 1000.0][self.below(4)]),
            "b" => Value::Bool(self.below(2) == 0),
            _ => Value::Varchar(STRINGS[self.below(STRINGS.len())].into()),
        }
    }

    /// A WHERE clause: mostly leaves the encoded kernels take (a column
    /// against a literal, either operand order), the rest fallbacks and
    /// NULL-producing comparisons, combined under AND, OR and NOT.
    fn pred(&mut self, depth: usize) -> Pred {
        if depth == 0 || self.below(3) == 0 {
            return self.leaf();
        }
        let a = Box::new(self.pred(depth - 1));
        match self.below(3) {
            0 => Pred::And(a, Box::new(self.pred(depth - 1))),
            1 => Pred::Or(a, Box::new(self.pred(depth - 1))),
            _ => Pred::Not(a),
        }
    }

    fn leaf(&mut self) -> Pred {
        match self.below(12) {
            0..=4 => {
                let c = self.col();
                let (op, v) = (self.op(), self.literal(c));
                Pred::Cmp(c, op, v, self.below(3) == 0)
            }
            5 => {
                let c = ["i", "f"][self.below(2)];
                Pred::Cmp(c, self.op(), Value::Null, self.below(2) == 0)
            }
            6 => {
                let pair = [("i", "f"), ("f", "i"), ("i", "id")][self.below(3)];
                Pred::Cols(pair.0, self.op(), pair.1)
            }
            7 => Pred::Arith(self.below(3) as i64, self.op(), self.below(5) as i64),
            8 => {
                let c = ["i", "s"][self.below(2)];
                let list = (0..1 + self.below(3)).map(|_| self.literal(c)).collect();
                Pred::In(c, list, self.below(3) == 0)
            }
            9 => Pred::Like(
                ["a%", "%b", "_", "", "%", "a_"][self.below(6)],
                self.below(3) == 0,
            ),
            10 => Pred::IsNull(self.col(), self.below(2) == 0),
            _ => Pred::Not(Box::new(self.leaf())),
        }
    }

    /// A WHERE clause half of the time.
    fn filter(&mut self) -> Option<Pred> {
        (self.below(2) == 0).then(|| self.pred(2))
    }
}

fn group_queries(seed: u64) -> Vec<GroupQuery> {
    const AGGS: [Agg; 7] = [
        Agg::CountStar,
        Agg::Count,
        Agg::CountDistinct,
        Agg::Sum,
        Agg::Avg,
        Agg::Min,
        Agg::Max,
    ];
    let mut p = Pick(seed);
    (0..6)
        .map(|q| {
            // 0, 1, and 2 keys in turn.
            let mut keys: Vec<&'static str> = Vec::new();
            while keys.len() < q % 3 {
                let c = p.col();
                if !keys.contains(&c) {
                    keys.push(c);
                }
            }
            let aggs: Vec<(Agg, &'static str)> = (0..1 + p.below(4))
                .map(|_| (AGGS[p.below(AGGS.len())], p.col()))
                .collect();
            let order = (p.below(3) == 0).then(|| {
                (
                    p.below(aggs.len()),
                    p.below(2) == 0,
                    p.below(3),
                    1 + p.below(4),
                )
            });
            GroupQuery {
                filter: p.filter(),
                keys,
                aggs,
                order,
            }
        })
        .collect()
}

fn order_queries(seed: u64) -> Vec<OrderQuery> {
    let mut p = Pick(seed ^ 0x5eed);
    (0..3)
        .map(|_| {
            let limit = (p.below(4) != 0).then(|| 1 + p.below(8));
            OrderQuery {
                filter: p.filter(),
                cols: [p.col(), p.col()],
                desc: [p.below(2) == 0, p.below(2) == 0],
                offset: limit.map_or(0, |_| p.below(4)),
                limit,
            }
        })
        .collect()
}

fn project_queries(seed: u64) -> Vec<ProjectQuery> {
    let mut p = Pick(seed ^ 0x9e37);
    (0..3)
        .map(|_| ProjectQuery {
            filter: Some(p.pred(2)),
            col: p.col(),
        })
        .collect()
}

/// One row spec and its run length: short runs, or runs long enough that a
/// node's share still averages more than eight rows per run, so the block
/// encoder picks RLE (and dictionary for the few distinct strings).
fn row_spec() -> impl Strategy<Value = (RowSpec, usize)> {
    (
        (
            prop::option::of(0i64..5),
            prop::option::of(0usize..FLOATS.len()),
            prop::option::of(any::<bool>()),
            prop::option::of(0usize..STRINGS.len()),
        ),
        (any::<bool>(), 1usize..5, 40usize..80).prop_map(|(long, s, l)| if long { l } else { s }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every configuration answers filtered projections, GROUP BY and
    /// ORDER BY queries exactly as the brute-force oracle does, and a LIMIT
    /// keeps exactly the first rows of the same statement's unlimited
    /// stable order, ties included.
    #[test]
    fn every_configuration_matches_the_oracle(
        spec in prop::collection::vec(row_spec(), 0..40),
        seed in any::<u64>(),
    ) {
        let rows = expand(&spec);
        let groups = group_queries(seed);
        let orders = order_queries(seed);
        let projects = project_queries(seed);
        for nodes in [1usize, 3, 4] {
            for seg in [Segmentation::Hash { column: "i".into() }, Segmentation::RoundRobin] {
                let db = make_db(nodes, &seg, &rows);
                let at = format!("{nodes} nodes, {seg:?}");
                let run = |sql: &str| {
                    db.query(sql)
                        .map(|out| out.batch)
                        .map_err(|e| TestCaseError::fail(format!("{sql} ({at}): {e}")))
                };
                for q in &groups {
                    let sql = q.sql();
                    check(&run(&sql)?, &q.expected(&rows), &format!("{sql} ({at})"))?;
                }
                for q in &projects {
                    let sql = q.sql();
                    let got = sorted_by_first(&run(&sql)?);
                    check(&got, &q.expected(&rows), &format!("{sql} ({at})"))?;
                }
                for q in &orders {
                    let sql = q.sql();
                    check(&run(&sql)?, &q.expected(&rows), &format!("{sql} ({at})"))?;
                    let all = rows_of(&run(&q.sql_with_ties(false))?);
                    let cut = rows_of(&run(&q.sql_with_ties(true))?);
                    let want = slice_rows(all, q.offset, q.limit);
                    prop_assert!(
                        cut.len() == want.len()
                            && cut.iter().zip(&want).all(|(a, b)| {
                                a.iter().zip(b).all(|(x, y)| same(x, y))
                            }),
                        "{} ({at}) cut {cut:?} from {want:?}",
                        q.sql_with_ties(true)
                    );
                }
            }
        }
    }
}

/// WHERE leaves over RLE and dictionary columns run on the encoded kernels
/// (per run, per distinct code) and still agree with the oracle.
#[test]
fn where_kernels_run_on_encoded_columns() {
    // Long runs: every column RLE- or dictionary-encodes on every node.
    let spec: Vec<(RowSpec, usize)> = (0..24)
        .map(|k| {
            let i = (k % 5) as i64;
            let spec = (
                (k % 7 != 6).then_some(i),
                Some(k % FLOATS.len()),
                Some(k % 2 == 0),
                (k % 5 != 4).then_some(k % STRINGS.len()),
            );
            (spec, 60)
        })
        .collect();
    let rows = expand(&spec);
    let s = |v: &str| Value::Varchar(v.into());
    let queries = [
        Pred::Cmp("i", Op::Eq, Value::Int64(2), false),
        Pred::Cmp("i", Op::Le, Value::Int64(1), true),
        Pred::Cmp("f", Op::Gt, Value::Float64(0.0), false),
        Pred::Cmp("s", Op::Eq, s("ab"), false),
        Pred::Or(
            Box::new(Pred::Cmp("s", Op::Lt, s("b"), false)),
            Box::new(Pred::Cmp("i", Op::Ge, Value::Int64(3), false)),
        ),
        Pred::And(
            Box::new(Pred::Cmp("i", Op::Ne, Value::Int64(0), false)),
            Box::new(Pred::In("s", vec![s(""), s("zz")], false)),
        ),
    ];
    let before = vertica_dr::obs::global().metrics().snapshot();
    for nodes in [1usize, 3] {
        let db = make_db(nodes, &Segmentation::Hash { column: "i".into() }, &rows);
        for pred in &queries {
            let q = ProjectQuery {
                filter: Some(pred.clone()),
                col: "f",
            };
            let sql = q.sql();
            let got = sorted_by_first(&db.query(&sql).unwrap().batch);
            check(&got, &q.expected(&rows), &format!("{sql} ({nodes} nodes)")).unwrap();
            let g = GroupQuery {
                filter: Some(pred.clone()),
                keys: vec!["s"],
                aggs: vec![(Agg::CountStar, "i"), (Agg::Sum, "f")],
                order: None,
            };
            let sql = g.sql();
            let got = db.query(&sql).unwrap().batch;
            check(&got, &g.expected(&rows), &format!("{sql} ({nodes} nodes)")).unwrap();
        }
    }
    let delta = vertica_dr::obs::global().metrics().snapshot().diff(&before);
    assert!(delta.counter_total("scan.encoded.runs_skipped") > 0);
    assert!(delta.counter_total("scan.encoded.codes_tested") > 0);
}

/// The oracle itself: a hand-checked GROUP BY over NaN, signed zeros, and
/// NULLs, so a bug shared by engine and oracle cannot hide.
#[test]
fn oracle_groups_floats_by_bit_pattern() {
    let rows = expand(&[
        ((Some(1), Some(0), None, Some(0)), 2),     // NaN, ""
        ((Some(1), Some(1), Some(true), None), 1),  // -0.0
        ((None, Some(2), Some(false), Some(1)), 1), // 0.0, "a"
    ]);
    let q = GroupQuery {
        filter: None,
        keys: vec!["f"],
        aggs: vec![(Agg::CountStar, "i"), (Agg::Max, "s"), (Agg::Min, "b")],
        order: None,
    };
    let want = q.expected(&rows);
    let expect = [
        [
            Value::Float64(-0.0),
            Value::Int64(1),
            Value::Null,
            Value::Bool(true),
        ],
        [
            Value::Float64(0.0),
            Value::Int64(1),
            Value::Varchar("a".into()),
            Value::Bool(false),
        ],
        [
            Value::Float64(f64::NAN),
            Value::Int64(2),
            Value::Varchar("".into()),
            Value::Null,
        ],
    ];
    assert_eq!(want.rows.len(), expect.len());
    for (got, exp) in want.rows.iter().zip(&expect) {
        assert!(
            got.iter().zip(exp).all(|(a, b)| same(a, b)),
            "{got:?} != {exp:?}"
        );
    }
}
