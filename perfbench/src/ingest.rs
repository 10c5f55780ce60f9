//! `ingest_scan`: COPY batches beside reads, on a working set larger than
//! the block cache.
//!
//! `events(ts INT, kind VARCHAR, usr INT, amount FLOAT)` starts at 1M rows
//! (scale 1), hash-segmented on `usr`. `ts` is the row's global position,
//! `kind` has 8 values (dictionary) and `amount` is an integer-valued float,
//! so every answer is exact. Each node's `mem_bytes` is set so its block
//! cache (1/32 of it) holds about half of that node's decoded segment of
//! the initial table; the table then grows past it.
//!
//! The schedule has a fixed length, set by `--seconds`, so the table grows
//! identically on every run: each round COPYs one 50k-row batch and then
//! runs a recent-window filter, a dictionary GROUP BY and a full-table
//! aggregate in a seeded order.

use crate::common::{
    connect, copy_op, database, ddl, expect_eq, expect_row, label_index, mix64, num_at, scaled,
    setup_copy, shuffled, sql_op, CopySample, COPY_BATCH_ROWS, NODES,
};
use crate::probe::Probe;
use crate::{Config, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdr_columnar::{Batch, Column, DataType, Schema};
use vdr_core::Session;

const INITIAL_ROWS: usize = 1_000_000;
/// Rows the recent-window filter covers.
const WINDOW_ROWS: usize = 100_000;
/// Schedule rounds per second of `--seconds`, calibrated so the schedule
/// takes about `--seconds` on a 2-core host.
const ROUNDS_PER_SECOND: f64 = 2.5;
const KINDS: [&str; 8] = [
    "click", "view", "cart", "buy", "refund", "login", "logout", "search",
];
const READS: [&str; 3] = ["recent_window", "kind_groupby", "full_aggregate"];

/// Running answers, advanced with every COPY.
#[derive(Default)]
struct State {
    rows: usize,
    /// Prefix sums of `amount` by `ts` (exact: integer values).
    prefix: Vec<f64>,
    by_kind: [(f64, f64); 8],
}

impl State {
    fn total(&self) -> f64 {
        self.prefix.last().copied().unwrap_or(0.0)
    }

    fn window(&self) -> (usize, f64, f64) {
        let from = self.rows.saturating_sub(WINDOW_ROWS);
        let base = if from == 0 {
            0.0
        } else {
            self.prefix[from - 1]
        };
        (from, (self.rows - from) as f64, self.total() - base)
    }
}

pub struct Ingest {
    session: Session,
    state: State,
    seed: u64,
}

fn schema() -> Schema {
    Schema::of(&[
        ("ts", DataType::Int64),
        ("kind", DataType::Varchar),
        ("usr", DataType::Int64),
        ("amount", DataType::Float64),
    ])
}

/// Generate rows `[lo, hi)`; rows depend only on the seed and their `ts`
/// block, so the schedule's batches are the same on every run.
fn batch(seed: u64, lo: usize, hi: usize, state: &mut State) -> Result<Batch, String> {
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ mix64(lo as u64)));
    let n = hi - lo;
    let mut kind = Vec::with_capacity(n);
    let mut usr = Vec::with_capacity(n);
    let mut amount = Vec::with_capacity(n);
    for _ in 0..n {
        let k = rng.gen_range(0..KINDS.len());
        let a = rng.gen_range(0..1000i64) as f64;
        kind.push(KINDS[k]);
        usr.push(rng.gen_range(0..1_000_000i64));
        amount.push(a);
        state.by_kind[k].0 += 1.0;
        state.by_kind[k].1 += a;
        state.prefix.push(state.total() + a);
    }
    state.rows = hi;
    Batch::new(
        schema(),
        vec![
            Column::from_i64((lo as i64..hi as i64).collect()),
            Column::from_strings(kind),
            Column::from_i64(usr),
            Column::from_f64(amount),
        ],
    )
    .map_err(|e| e.to_string())
}

impl Ingest {
    fn read(&self, probe: &mut Probe, which: usize) {
        let s = &self.state;
        match READS[which] {
            "recent_window" => {
                let (from, n, sum) = s.window();
                let sql = format!("SELECT count(*), sum(amount) FROM events WHERE ts >= {from}");
                sql_op(probe, &self.session, READS[which], &sql, |b| {
                    expect_row(b, &[n, sum])
                });
            }
            "kind_groupby" => {
                let sql = "SELECT kind, count(*), sum(amount) FROM events GROUP BY kind";
                sql_op(probe, &self.session, READS[which], sql, |b| {
                    expect_eq("groups", b.num_rows(), KINDS.len())?;
                    for r in 0..b.num_rows() {
                        let k = label_index(&KINDS, &b.column(0).get(r))?;
                        expect_eq(KINDS[k], (num_at(b, 1, r)?, num_at(b, 2, r)?), s.by_kind[k])?;
                    }
                    Ok(())
                });
            }
            _ => {
                let sql = "SELECT count(*), sum(amount), max(ts) FROM events";
                sql_op(probe, &self.session, READS[which], sql, |b| {
                    expect_row(b, &[s.rows as f64, s.total(), (s.rows - 1) as f64])
                });
            }
        }
    }
}

impl Workload for Ingest {
    fn session(&self) -> &Session {
        &self.session
    }

    fn setup(cfg: &Config, copies: &mut Vec<CopySample>) -> Result<Self, String> {
        let initial = scaled(INITIAL_ROWS, cfg.scale, COPY_BATCH_ROWS);
        let mut state = State::default();
        let mut batches = Vec::new();
        for lo in (0..initial).step_by(COPY_BATCH_ROWS) {
            let hi = (lo + COPY_BATCH_ROWS).min(initial);
            batches.push(batch(cfg.seed, lo, hi, &mut state)?);
        }
        // Block cache per node = mem_bytes / 32 ≈ half the node's decoded
        // share of the initial table.
        let decoded: u64 = batches.iter().map(Batch::byte_size).sum();
        let per_node = decoded / NODES as u64;
        let db = database(Some(32 * (per_node / 2)));
        let session = connect(&db)?;
        ddl(
            &session,
            "CREATE TABLE events (ts INT, kind VARCHAR, usr INT, amount FLOAT) SEGMENTED BY HASH(usr)",
        )?;
        for b in batches {
            setup_copy(&db, "events", b, Some(&mut *copies))?;
        }
        Ok(Ingest {
            session,
            state,
            seed: cfg.seed,
        })
    }

    /// The warm pass reads but does not write, so every run's schedule
    /// starts from the same table.
    fn warm(&mut self) {
        let mut probe = Probe::new(false);
        for which in 0..READS.len() {
            self.read(&mut probe, which);
        }
    }

    fn pass(&mut self, probe: &mut Probe, pass: usize) {
        let lo = self.state.rows;
        let (seed, state) = (self.seed, &mut self.state);
        let next = probe
            .own_work(|| batch(seed, lo, lo + COPY_BATCH_ROWS, state))
            .expect("generated columns match the events schema");
        copy_op(probe, &self.session, "events", next);
        let mut rng = StdRng::seed_from_u64(mix64(self.seed ^ mix64(pass as u64 + 1)));
        for which in shuffled(READS.len(), &mut rng) {
            self.read(probe, which);
        }
    }

    fn fixed_passes(cfg: &Config) -> Option<usize> {
        Some(((cfg.seconds * ROUNDS_PER_SECOND).round() as usize).max(2))
    }
}
