//! `sql_mix`: analytic SQL over warm data that fits the block cache.
//!
//! Tables (sizes at scale 1):
//! * `fact` — 500k rows, hash-segmented on `k`. `k` comes in runs of 40
//!   (RLE), `tag` has 8 values (dictionary), `g` is high-cardinality, `v`
//!   is an integer-valued float (so every sum is exact in any order), and
//!   `note` is a nullable VARCHAR that is NULL on every row of some `k`
//!   groups, the lowest among them.
//! * `fact_rr` — the same rows, round-robin segmented.
//! * `dim` — 50k keys, hash-segmented on `k`.
//! * `wide` — 200k rows of the 6-column transfer-table shape.
//!
//! One pass runs the 11 shapes below, always in this order: the block
//! cache keeps each container in one tier (encoded or decoded) at a time,
//! so what a shape costs depends on which shapes ran before it, and an
//! order drawn from the seed would make the cost profile differ from seed
//! to seed. The seed draws the data. Every pass (and the warm pass) starts
//! from the same cache state and repeats the same modeled time. Every
//! answer is derived from the generator, not from the program.

use crate::common::{
    connect, database, ddl, expect_close, expect_eq, expect_row, int_at, label_index, mix64,
    num_at, scaled, setup_copy, sql_op, str_hash, CopySample, COPY_BATCH_ROWS,
};
use crate::probe::{take_phases, Outcome, Probe};
use crate::{Config, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use vdr_columnar::{Batch, Column, ColumnBuilder, DataType, Schema, Value};
use vdr_core::Session;

const FACT_ROWS: usize = 500_000;
const DIM_KEYS: usize = 50_000;
const WIDE_ROWS: usize = 200_000;
const K_RUN: usize = 40;
const G_CARD: i64 = 100_000;
const TAGS: [&str; 8] = [
    "alpha", "bravo", "delta", "echo", "golf", "hotel", "kilo", "lima",
];

/// The shapes of one pass, in their canonical order.
pub const SHAPES: [&str; 11] = [
    "narrow_sum",
    "selective_where",
    "rle_where",
    "dict_groupby",
    "shuffled_groupby",
    "distinct_groupby",
    "nullable_max_groupby",
    "colocated_join",
    "shuffled_join",
    "orderby_limit",
    "full_select",
];

/// Answers derived from the generated rows.
struct Expected {
    fact_rows: usize,
    total_v: f64,
    selective: (f64, f64),
    rle: (f64, f64),
    by_tag: [(f64, f64); 8],
    g_groups: usize,
    g_check_count: u64,
    g_check_sum: u64,
    distinct_g_by_tag: [f64; 8],
    k_groups: usize,
    k_null_groups: usize,
    k_check: u64,
    join_w: f64,
    top: Vec<(i64, f64)>,
    wide_rows: usize,
    wide_sums: [f64; 6],
}

pub struct SqlMix {
    session: Session,
    sql: Vec<String>,
    expected: Expected,
}

fn note_text(i: u8) -> String {
    format!("n{i:02}")
}

struct Fact {
    k: Vec<i64>,
    tag: Vec<u8>,
    g: Vec<i64>,
    v: Vec<f64>,
    note: Vec<Option<u8>>,
}

fn generate_fact(rows: usize, rng: &mut StdRng, null_every: i64, notes: usize) -> Fact {
    let mut f = Fact {
        k: Vec::with_capacity(rows),
        tag: Vec::with_capacity(rows),
        g: Vec::with_capacity(rows),
        v: Vec::with_capacity(rows),
        note: Vec::with_capacity(rows),
    };
    for i in 0..rows {
        let k = (i / K_RUN) as i64;
        f.k.push(k);
        f.tag.push(rng.gen_range(0..TAGS.len()) as u8);
        f.g.push(rng.gen_range(0..G_CARD));
        f.v.push(rng.gen_range(0..1000i64) as f64);
        let note = rng.gen_range(0..notes) as u8;
        f.note.push((k % null_every != 0).then_some(note));
    }
    f
}

fn fact_schema() -> Schema {
    Schema::of(&[
        ("k", DataType::Int64),
        ("tag", DataType::Varchar),
        ("g", DataType::Int64),
        ("v", DataType::Float64),
        ("note", DataType::Varchar),
    ])
}

fn fact_batch(f: &Fact, lo: usize, hi: usize) -> Result<Batch, String> {
    let mut note = ColumnBuilder::with_capacity(DataType::Varchar, hi - lo);
    for n in &f.note[lo..hi] {
        match n {
            Some(i) => note
                .push(Value::Varchar(note_text(*i)))
                .map_err(|e| e.to_string())?,
            None => note.push_null(),
        }
    }
    Batch::new(
        fact_schema(),
        vec![
            Column::from_i64(f.k[lo..hi].to_vec()),
            Column::from_strings(f.tag[lo..hi].iter().map(|&t| TAGS[t as usize]).collect()),
            Column::from_i64(f.g[lo..hi].to_vec()),
            Column::from_f64(f.v[lo..hi].to_vec()),
            note.finish(),
        ],
    )
    .map_err(|e| e.to_string())
}

fn dim_w(k: i64) -> f64 {
    (k % 100) as f64
}

fn expected(f: &Fact, dim_keys: usize, rle: (i64, i64), g_cut: i64, wide: &[Vec<f64>]) -> Expected {
    let n = f.k.len();
    let total_v: f64 = f.v.iter().sum();
    let mut selective = (0.0, 0.0);
    let mut rle_ans = (0.0, 0.0);
    let mut by_tag = [(0.0, 0.0); 8];
    let mut by_g: HashMap<i64, (u64, f64)> = HashMap::new();
    let mut distinct: Vec<std::collections::HashSet<i64>> = vec![Default::default(); 8];
    let mut max_note: HashMap<i64, Option<u8>> = HashMap::new();
    let mut join_w = 0.0;
    for i in 0..n {
        let (k, g, v) = (f.k[i], f.g[i], f.v[i]);
        if g < g_cut {
            selective.0 += 1.0;
            selective.1 += v;
        }
        if k >= rle.0 && k <= rle.1 {
            rle_ans.0 += 1.0;
            rle_ans.1 += v;
        }
        let t = f.tag[i] as usize;
        by_tag[t].0 += 1.0;
        by_tag[t].1 += v;
        let e = by_g.entry(g).or_default();
        e.0 += 1;
        e.1 += v;
        distinct[t].insert(g);
        let m = max_note.entry(k).or_default();
        *m = (*m).max(f.note[i]);
        if (k as usize) < dim_keys {
            join_w += dim_w(k);
        }
    }
    let mut g_check_count = 0u64;
    let mut g_check_sum = 0u64;
    for (&g, &(c, s)) in &by_g {
        g_check_count = g_check_count.wrapping_add(mix64(g as u64).wrapping_mul(c));
        g_check_sum = g_check_sum.wrapping_add(mix64(g as u64).wrapping_mul(s as u64));
    }
    let mut k_check = 0u64;
    let mut k_null_groups = 0;
    for (&k, m) in &max_note {
        match m {
            Some(i) => {
                k_check = k_check.wrapping_add(mix64(k as u64) ^ str_hash(&note_text(*i)));
            }
            None => k_null_groups += 1,
        }
    }
    let mut top: Vec<(i64, f64)> = f.g.iter().copied().zip(f.v.iter().copied()).collect();
    top.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.total_cmp(&a.1)));
    top.truncate(10);
    let mut wide_sums = [0.0; 6];
    for (c, col) in wide.iter().enumerate() {
        wide_sums[c] = col.iter().sum();
    }
    Expected {
        fact_rows: n,
        total_v,
        selective,
        rle: rle_ans,
        by_tag,
        g_groups: by_g.len(),
        g_check_count,
        g_check_sum,
        distinct_g_by_tag: std::array::from_fn(|t| distinct[t].len() as f64),
        k_groups: max_note.len(),
        k_null_groups,
        k_check,
        join_w,
        top,
        wide_rows: wide.first().map_or(0, Vec::len),
        wide_sums,
    }
}

impl Workload for SqlMix {
    fn session(&self) -> &Session {
        &self.session
    }

    fn setup(cfg: &Config, copies: &mut Vec<CopySample>) -> Result<Self, String> {
        let fact_rows = scaled(FACT_ROWS, cfg.scale, K_RUN);
        let dim_keys = scaled(DIM_KEYS, cfg.scale, K_RUN);
        let wide_rows = scaled(WIDE_ROWS, cfg.scale, K_RUN);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // k = 0 is always a NULL-note group: the lowest key.
        let null_every = rng.gen_range(3..8i64);
        // The seed also sets how many distinct notes there are, so the
        // dictionary (and the modeled cost of loading it) differs by seed.
        let notes = rng.gen_range(32..64usize);
        let fact = generate_fact(fact_rows, &mut rng, null_every, notes);
        let wide: Vec<Vec<f64>> = {
            let mut cols = vec![(0..wide_rows).map(|i| i as f64).collect::<Vec<f64>>()];
            for _ in 0..5 {
                cols.push(
                    (0..wide_rows)
                        .map(|_| rng.gen_range(-1000..1000i64) as f64)
                        .collect(),
                );
            }
            cols
        };
        let keys = (fact_rows / K_RUN) as i64;
        let rle_lo = rng.gen_range(0..keys - keys / 20);
        let rle = (rle_lo, rle_lo + keys / 20);
        let g_cut = G_CARD / 100;
        let expected = expected(&fact, dim_keys, rle, g_cut, &wide);

        let db = database(None);
        let session = connect(&db)?;
        ddl(
            &session,
            "CREATE TABLE fact (k INT, tag VARCHAR, g INT, v FLOAT, note VARCHAR) SEGMENTED BY HASH(k)",
        )?;
        ddl(
            &session,
            "CREATE TABLE fact_rr (k INT, tag VARCHAR, g INT, v FLOAT, note VARCHAR) SEGMENTED ROUND ROBIN",
        )?;
        ddl(
            &session,
            "CREATE TABLE dim (k INT, name VARCHAR, w FLOAT) SEGMENTED BY HASH(k)",
        )?;
        ddl(
            &session,
            "CREATE TABLE wide (id INT, a FLOAT, b FLOAT, c FLOAT, d FLOAT, e FLOAT) SEGMENTED BY HASH(id)",
        )?;
        // `fact` is the main table: its batches are the COPY samples.
        for lo in (0..fact_rows).step_by(COPY_BATCH_ROWS) {
            let hi = (lo + COPY_BATCH_ROWS).min(fact_rows);
            setup_copy(&db, "fact", fact_batch(&fact, lo, hi)?, Some(&mut *copies))?;
            setup_copy(&db, "fact_rr", fact_batch(&fact, lo, hi)?, None)?;
        }
        let dim_schema = Schema::of(&[
            ("k", DataType::Int64),
            ("name", DataType::Varchar),
            ("w", DataType::Float64),
        ]);
        for lo in (0..dim_keys).step_by(COPY_BATCH_ROWS) {
            let hi = (lo + COPY_BATCH_ROWS).min(dim_keys);
            let keys: Vec<i64> = (lo as i64..hi as i64).collect();
            let batch = Batch::new(
                dim_schema.clone(),
                vec![
                    Column::from_i64(keys.clone()),
                    Column::from_strings(keys.iter().map(|k| format!("d{}", k % 7)).collect()),
                    Column::from_f64(keys.iter().map(|&k| dim_w(k)).collect()),
                ],
            )
            .map_err(|e| e.to_string())?;
            setup_copy(&db, "dim", batch, None)?;
        }
        let wide_schema = Schema::of(&[
            ("id", DataType::Int64),
            ("a", DataType::Float64),
            ("b", DataType::Float64),
            ("c", DataType::Float64),
            ("d", DataType::Float64),
            ("e", DataType::Float64),
        ]);
        for lo in (0..wide_rows).step_by(COPY_BATCH_ROWS) {
            let hi = (lo + COPY_BATCH_ROWS).min(wide_rows);
            let mut cols = vec![Column::from_i64((lo as i64..hi as i64).collect())];
            cols.extend(
                wide[1..]
                    .iter()
                    .map(|c| Column::from_f64(c[lo..hi].to_vec())),
            );
            let batch = Batch::new(wide_schema.clone(), cols).map_err(|e| e.to_string())?;
            setup_copy(&db, "wide", batch, None)?;
        }

        let sql = vec![
            "SELECT sum(v) FROM fact".to_string(),
            format!("SELECT count(*), sum(v) FROM fact WHERE g < {g_cut}"),
            format!(
                "SELECT count(*), sum(v) FROM fact WHERE k BETWEEN {} AND {}",
                rle.0, rle.1
            ),
            "SELECT tag, count(*), sum(v) FROM fact GROUP BY tag".to_string(),
            "SELECT g, count(*), sum(v) FROM fact_rr GROUP BY g".to_string(),
            "SELECT tag, count(DISTINCT g) FROM fact_rr GROUP BY tag".to_string(),
            "SELECT k, max(note) FROM fact GROUP BY k".to_string(),
            "SELECT count(*), sum(f.v), sum(d.w) FROM fact f JOIN dim d ON f.k = d.k".to_string(),
            "SELECT count(*), sum(f.v), sum(d.w) FROM fact_rr f JOIN dim d ON f.k = d.k"
                .to_string(),
            "SELECT g, v FROM fact ORDER BY g DESC, v DESC LIMIT 10".to_string(),
            "SELECT * FROM wide".to_string(),
        ];
        Ok(SqlMix {
            session,
            sql,
            expected,
        })
    }

    fn pass(&mut self, probe: &mut Probe, _pass: usize) {
        let expected = &self.expected;
        for (shape, sql) in self.sql.iter().enumerate() {
            sql_op(probe, &self.session, SHAPES[shape], sql, |b| {
                check(shape, expected, b)
            });
        }
    }

    /// `PROFILE` each shape once: its slowest node's phase time must equal
    /// the statement's `sim_time`. A shape may skip this only when its plain
    /// statement also returned an error in the measured window.
    fn finish(&mut self, probe: &mut Probe) {
        for (shape, sql) in SHAPES.iter().zip(&self.sql) {
            let out = match self.session.sql(&format!("PROFILE {sql}")) {
                Ok(out) => out,
                Err(e) => {
                    let plain_failed = probe
                        .ops
                        .iter()
                        .any(|o| o.label == *shape && matches!(o.outcome, Outcome::Error(_)));
                    if !plain_failed {
                        probe
                            .layers
                            .reconcile_failures
                            .push(format!("PROFILE {shape}: {e}"));
                    }
                    continue;
                }
            };
            let b = &out.batch;
            let slowest_us = (0..b.num_rows())
                .filter(|&r| b.column(1).get(r).as_str() == Some("phase"))
                .filter_map(|r| b.column(4).get(r).as_f64())
                .fold(0.0, f64::max);
            let sim_us = out.sim_time.as_secs() * 1e6;
            if (slowest_us - sim_us).abs() > 1e-6 * sim_us.max(1.0) {
                probe.layers.reconcile_failures.push(format!(
                    "PROFILE {shape}: slowest node {slowest_us} us != sim_time {sim_us} us"
                ));
            }
        }
        take_phases(self.session.ledger());
    }
}

/// Check one shape's answer against the generator's.
fn check(shape: usize, e: &Expected, b: &Batch) -> Result<(), String> {
    match SHAPES[shape] {
        "narrow_sum" => expect_row(b, &[e.total_v]),
        "selective_where" => expect_row(b, &[e.selective.0, e.selective.1]),
        "rle_where" => expect_row(b, &[e.rle.0, e.rle.1]),
        "dict_groupby" => {
            expect_eq("groups", b.num_rows(), TAGS.len())?;
            for r in 0..b.num_rows() {
                let t = label_index(&TAGS, &b.column(0).get(r))?;
                expect_eq(TAGS[t], (num_at(b, 1, r)?, num_at(b, 2, r)?), e.by_tag[t])?;
            }
            Ok(())
        }
        "shuffled_groupby" => {
            expect_eq("groups", b.num_rows(), e.g_groups)?;
            let (mut ck_count, mut ck_sum) = (0u64, 0u64);
            for r in 0..b.num_rows() {
                let h = mix64(int_at(b, 0, r)? as u64);
                ck_count = ck_count.wrapping_add(h.wrapping_mul(int_at(b, 1, r)? as u64));
                ck_sum = ck_sum.wrapping_add(h.wrapping_mul(num_at(b, 2, r)? as u64));
            }
            expect_eq("count checksum", ck_count, e.g_check_count)?;
            expect_eq("sum checksum", ck_sum, e.g_check_sum)
        }
        "distinct_groupby" => {
            expect_eq("groups", b.num_rows(), TAGS.len())?;
            for r in 0..b.num_rows() {
                let t = label_index(&TAGS, &b.column(0).get(r))?;
                expect_eq(TAGS[t], num_at(b, 1, r)?, e.distinct_g_by_tag[t])?;
            }
            Ok(())
        }
        "nullable_max_groupby" => {
            expect_eq("groups", b.num_rows(), e.k_groups)?;
            let (mut check, mut nulls) = (0u64, 0usize);
            for r in 0..b.num_rows() {
                let k = int_at(b, 0, r)?;
                match b.column(1).get(r) {
                    Value::Null => nulls += 1,
                    Value::Varchar(s) => {
                        check = check.wrapping_add(mix64(k as u64) ^ str_hash(&s));
                    }
                    other => return Err(format!("max(note) = {other:?}")),
                }
            }
            expect_eq("NULL groups", nulls, e.k_null_groups)?;
            expect_eq("max checksum", check, e.k_check)
        }
        "colocated_join" | "shuffled_join" => {
            expect_row(b, &[e.fact_rows as f64, e.total_v, e.join_w])
        }
        "orderby_limit" => {
            expect_eq("rows", b.num_rows(), e.top.len())?;
            for (r, &(g, v)) in e.top.iter().enumerate() {
                expect_eq(
                    &format!("row {r}"),
                    (int_at(b, 0, r)?, num_at(b, 1, r)?),
                    (g, v),
                )?;
            }
            Ok(())
        }
        "full_select" => {
            expect_eq("rows", b.num_rows(), e.wide_rows)?;
            expect_eq("columns", b.num_columns(), 6)?;
            for c in 0..6 {
                let sum: f64 = b.column(c).to_f64_cow().iter().sum();
                expect_close(&format!("sum of column {c}"), sum, e.wide_sums[c], 0.0)?;
            }
            Ok(())
        }
        other => Err(format!("no check for shape {other}")),
    }
}
