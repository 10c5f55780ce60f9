//! `fig3_pipeline`: the paper's Figure 3 workflow, pass after pass.
//!
//! Tables (sizes at scale 1):
//! * `reg` — 500k rows of `x1..x6, y` with `y = β0 + x·β + noise`,
//!   hash-segmented on `x1`.
//! * `km` — 8 well-separated centers × 62.5k rows of `id, f1..f5,
//!   true_label`, hash-segmented on `id`.
//!
//! One pass: `db2darray(reg)` under Locality then `hpdglm`;
//! `db2darray(km)` under Uniform then `hpdkmeans` (k = 8, fixed seed and
//! iteration cap); `db2dframe(km)`; `glm_while_loading(reg)`;
//! `deploy_model` for both models and a look at `R_Models`; then
//! `glmPredict` and `KmeansPredict … OVER (PARTITION BEST)` over the full
//! tables. No GROUP BY, JOIN or exchange.

use crate::common::{
    connect, database, ddl, expect_close, expect_eq, mix64, scaled, setup_copy, sql_op, CopySample,
    COPY_BATCH_ROWS,
};
use crate::probe::{Kind, Outcome, Probe};
use crate::{Config, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdr_columnar::{Batch, Column, DataType, Field, Schema};
use vdr_core::{Model, Session};
use vdr_distr::DArray;
use vdr_ml::{hpdglm, hpdkmeans, Family, GlmOptions, KmeansInit, KmeansOptions};
use vdr_transfer::{
    glm_while_loading, install_export_function, FastTransfer, TransferPolicy, TransferReport,
};

const REG_ROWS: usize = 500_000;
const REG_D: usize = 6;
const KM_PER_CENTER: usize = 62_500;
const KM_K: usize = 8;
const KM_D: usize = 5;
const KM_SPREAD: f64 = 0.05;
const KM_MAX_ITERATIONS: usize = 20;
const NOISE: f64 = 0.5;
const REG_COLS: [&str; 7] = ["x1", "x2", "x3", "x4", "x5", "x6", "y"];
const KM_FEATURES: [&str; 5] = ["f1", "f2", "f3", "f4", "f5"];
const KM_COLS: [&str; 7] = ["id", "f1", "f2", "f3", "f4", "f5", "true_label"];
/// Coefficient tolerance: the fit from 500k rows with ±0.5 noise lands
/// within about 1e-3 of the generating β.
const BETA_TOL: f64 = 0.02;
/// Center tolerance: a recovered center lies within this distance of its
/// true center.
const CENTER_TOL: f64 = 0.25;

struct Expected {
    reg_rows: usize,
    /// Column sums of `reg`, in `REG_COLS` order.
    reg_sums: [f64; 7],
    /// Intercept then β.
    beta: Vec<f64>,
    km_rows: usize,
    /// Column sums of `km`, in `KM_COLS` order.
    km_sums: [f64; 7],
    centers: Vec<Vec<f64>>,
}

pub struct Fig3 {
    session: Session,
    vft: FastTransfer,
    expected: Expected,
    seed: u64,
}

/// Eight centers in [-50, 50]^5, at least 20 apart.
fn centers(rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    while out.len() < KM_K {
        let c: Vec<f64> = (0..KM_D).map(|_| rng.gen_range(-50.0..50.0)).collect();
        if out.iter().all(|o| dist(o, &c) >= 20.0) {
            out.push(c);
        }
    }
    out
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

fn schema(cols: &[&str], types: impl Fn(usize) -> DataType) -> Schema {
    Schema::new(
        cols.iter()
            .enumerate()
            .map(|(i, c)| Field::new(*c, types(i)))
            .collect(),
    )
}

impl Workload for Fig3 {
    fn session(&self) -> &Session {
        &self.session
    }

    fn setup(cfg: &Config, copies: &mut Vec<CopySample>) -> Result<Self, String> {
        let reg_rows = scaled(REG_ROWS, cfg.scale, 100);
        let per_center = scaled(KM_PER_CENTER, cfg.scale, 100);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let intercept = rng.gen_range(-5.0..5.0);
        let beta: Vec<f64> = (0..REG_D).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let (x, y) = vdr_workloads::linear_data(reg_rows, intercept, &beta, NOISE, mix64(cfg.seed));
        let true_centers = centers(&mut rng);
        let (pts, labels) = vdr_workloads::gaussian_mixture(
            per_center,
            &true_centers,
            KM_SPREAD,
            mix64(cfg.seed ^ 1),
        );
        let km_rows = labels.len();

        let mut reg_sums = [0.0; 7];
        for (i, row) in x.chunks(REG_D).enumerate() {
            for (j, v) in row.iter().enumerate() {
                reg_sums[j] += v;
            }
            reg_sums[REG_D] += y[i];
        }
        let mut km_sums = [0.0; 7];
        for (i, row) in pts.chunks(KM_D).enumerate() {
            km_sums[0] += i as f64;
            for (j, v) in row.iter().enumerate() {
                km_sums[1 + j] += v;
            }
            km_sums[6] += labels[i] as f64;
        }
        let mut full_beta = vec![intercept];
        full_beta.extend(&beta);

        let db = database(None);
        let session = connect(&db)?;
        ddl(
            &session,
            "CREATE TABLE reg (x1 FLOAT, x2 FLOAT, x3 FLOAT, x4 FLOAT, x5 FLOAT, x6 FLOAT, y FLOAT) SEGMENTED BY HASH(x1)",
        )?;
        ddl(
            &session,
            "CREATE TABLE km (id INT, f1 FLOAT, f2 FLOAT, f3 FLOAT, f4 FLOAT, f5 FLOAT, true_label INT) SEGMENTED BY HASH(id)",
        )?;
        let reg_schema = schema(&REG_COLS, |_| DataType::Float64);
        for lo in (0..reg_rows).step_by(COPY_BATCH_ROWS) {
            let hi = (lo + COPY_BATCH_ROWS).min(reg_rows);
            let mut cols: Vec<Column> = (0..REG_D)
                .map(|j| Column::from_f64((lo..hi).map(|r| x[r * REG_D + j]).collect()))
                .collect();
            cols.push(Column::from_f64(y[lo..hi].to_vec()));
            let batch = Batch::new(reg_schema.clone(), cols).map_err(|e| e.to_string())?;
            setup_copy(&db, "reg", batch, Some(&mut *copies))?;
        }
        let km_schema = schema(&KM_COLS, |i| {
            if i == 0 || i == 6 {
                DataType::Int64
            } else {
                DataType::Float64
            }
        });
        for lo in (0..km_rows).step_by(COPY_BATCH_ROWS) {
            let hi = (lo + COPY_BATCH_ROWS).min(km_rows);
            let mut cols = vec![Column::from_i64((lo as i64..hi as i64).collect())];
            cols.extend(
                (0..KM_D).map(|j| Column::from_f64((lo..hi).map(|r| pts[r * KM_D + j]).collect())),
            );
            cols.push(Column::from_i64(
                labels[lo..hi].iter().map(|&l| l as i64).collect(),
            ));
            let batch = Batch::new(km_schema.clone(), cols).map_err(|e| e.to_string())?;
            setup_copy(&db, "km", batch, None)?;
        }
        let vft = install_export_function(&db);
        Ok(Fig3 {
            session,
            vft,
            expected: Expected {
                reg_rows,
                reg_sums,
                beta: full_beta,
                km_rows,
                km_sums,
                centers: true_centers,
            },
            seed: cfg.seed,
        })
    }

    fn pass(&mut self, probe: &mut Probe, _pass: usize) {
        let e = &self.expected;
        let reg = self.transfer(
            probe,
            "darray_locality",
            "reg",
            &REG_COLS,
            TransferPolicy::Locality,
            e.reg_rows,
            &e.reg_sums,
        );
        if let Some(data) = reg {
            self.fit_glm(probe, &data);
        }
        let km = self.transfer(
            probe,
            "darray_uniform",
            "km",
            &KM_FEATURES,
            TransferPolicy::Uniform,
            e.km_rows,
            &e.km_sums[1..6],
        );
        if let Some(data) = km {
            self.fit_kmeans(probe, &data);
        }
        self.dframe(probe);
        self.glm_while_loading(probe);
        let models = "SELECT model, type FROM R_Models";
        sql_op(probe, &self.session, "r_models", models, |b| {
            let mut found: Vec<(String, String)> = (0..b.num_rows())
                .map(|r| {
                    let text =
                        |c: usize| b.column(c).get(r).as_str().unwrap_or_default().to_string();
                    (text(0), text(1))
                })
                .collect();
            found.sort();
            expect_eq(
                "R_Models",
                found,
                vec![
                    ("bench_glm".to_string(), "regression".to_string()),
                    ("bench_km".to_string(), "kmeans".to_string()),
                ],
            )
        });
        let glm_predict =
            "SELECT glmPredict(x1, x2, x3, x4, x5, x6 USING PARAMETERS model='bench_glm') \
                           OVER (PARTITION BEST) FROM reg";
        let y_sum = e.reg_sums[REG_D];
        let reg_rows = e.reg_rows;
        sql_op(probe, &self.session, "glm_predict", glm_predict, |b| {
            expect_eq("rows scored", b.num_rows(), reg_rows)?;
            // Least squares with an intercept: fitted values sum to Σy.
            let sum: f64 = b.column(0).to_f64_cow().iter().sum();
            expect_close("Σ prediction", sum, y_sum, 1e-6)
        });
        let km_predict =
            "SELECT KmeansPredict(f1, f2, f3, f4, f5 USING PARAMETERS model='bench_km') \
                          OVER (PARTITION BEST) FROM km";
        let km_rows = e.km_rows;
        sql_op(probe, &self.session, "kmeans_predict", km_predict, |b| {
            expect_eq("rows scored", b.num_rows(), km_rows)?;
            let mut sizes = [0usize; KM_K];
            for v in b.column(0).to_f64_cow().iter() {
                let c = *v as usize;
                if c >= KM_K {
                    return Err(format!("cluster id {v}"));
                }
                sizes[c] += 1;
            }
            // Separated blobs: every cluster gets exactly its own rows.
            expect_eq("cluster sizes", sizes, [km_rows / KM_K; KM_K])
        });
    }
}

impl Fig3 {
    /// One `db2darray` under `policy`, checked by row count and column sums.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &self,
        probe: &mut Probe,
        label: &'static str,
        table: &str,
        cols: &[&str],
        policy: TransferPolicy,
        rows: usize,
        sums: &[f64],
    ) -> Option<DArray> {
        let mut op = probe.begin(Kind::Pipeline, label);
        let result = probe.call(&mut op, "transfer.vft", true, || {
            self.session.db2darray_with_policy(table, cols, policy)
        });
        probe.phases(&mut op, self.session.ledger());
        let (data, report) = match result {
            Ok(r) => r,
            Err(e) => {
                probe.finish(op, Outcome::Error(e.to_string()));
                return None;
            }
        };
        op.set_modeled_secs(report.total().as_secs());
        if probe.traced() {
            probe.sample(&format!("wall.{label}"), op.wall_ms());
            transfer_samples(probe, &report);
            let parts: Vec<f64> = data.partition_sizes().iter().map(|p| p.0 as f64).collect();
            let mean = parts.iter().sum::<f64>() / parts.len().max(1) as f64;
            let max = parts.iter().copied().fold(0.0, f64::max);
            probe.sample(
                "distr.partition_skew",
                if mean > 0.0 { max / mean } else { 0.0 },
            );
        }
        let checked = probe.call(&mut op, "bench.check", false, || {
            expect_eq("rows", report.rows as usize, rows)?;
            expect_eq("dim", data.dim(), (rows as u64, cols.len() as u64))?;
            let part_sums = data
                .map_partitions(|_, p| {
                    let mut s = vec![0.0; p.ncol];
                    for r in 0..p.nrow {
                        for (j, v) in p.row(r).iter().enumerate() {
                            s[j] += v;
                        }
                    }
                    s
                })
                .map_err(|e| e.to_string())?;
            for (j, want) in sums.iter().enumerate() {
                let got: f64 = part_sums.iter().map(|s| s[j]).sum();
                expect_close(&format!("Σ {}", cols[j]), got, *want, 1e-9)?;
            }
            Ok(())
        });
        let ok = checked.is_ok();
        probe.finish(op, outcome(checked));
        ok.then_some(data)
    }

    fn fit_glm(&self, probe: &mut Probe, data: &DArray) {
        let mut op = probe.begin(Kind::Pipeline, "hpdglm");
        let split = probe.call(&mut op, "distr", true, || {
            Ok::<_, String>((
                data.split_columns(&[0, 1, 2, 3, 4, 5])
                    .map_err(|e| e.to_string())?,
                data.split_columns(&[REG_D]).map_err(|e| e.to_string())?,
            ))
        });
        let (x, y) = match split {
            Ok(xy) => xy,
            Err(e) => return probe.finish(op, Outcome::Error(e)),
        };
        let fit = probe.call(&mut op, "ml", true, || {
            hpdglm(&x, &y, Family::Gaussian, &GlmOptions::default())
        });
        let model = match fit {
            Ok(m) => m,
            Err(e) => return probe.finish(op, Outcome::Error(e.to_string())),
        };
        if probe.traced() {
            let secs = op.wall_ms() / 1e3;
            probe.sample("wall.hpdglm", op.wall_ms());
            probe.sample("ml.glm.iterations", model.iterations as f64);
            probe.layers.add("ml.fit_secs", secs);
            probe.layers.add(
                "ml.row_iterations",
                (self.expected.reg_rows * model.iterations) as f64,
            );
        }
        let checked = probe.call(&mut op, "bench.check", false, || {
            check_beta(&model.coefficients, &self.expected.beta)
        });
        let ok = checked.is_ok();
        probe.finish(op, outcome(checked));
        if ok {
            self.deploy(probe, Model::Glm(model), "bench_glm");
        }
    }

    fn fit_kmeans(&self, probe: &mut Probe, data: &DArray) {
        let mut op = probe.begin(Kind::Pipeline, "hpdkmeans");
        let opts = KmeansOptions {
            k: KM_K,
            max_iterations: KM_MAX_ITERATIONS,
            init: KmeansInit::PlusPlus,
            seed: self.seed,
            ..Default::default()
        };
        let fit = probe.call(&mut op, "ml", true, || hpdkmeans(data, &opts));
        let model = match fit {
            Ok(m) => m,
            Err(e) => return probe.finish(op, Outcome::Error(e.to_string())),
        };
        if probe.traced() {
            probe.sample("wall.hpdkmeans", op.wall_ms());
            probe.sample("ml.kmeans.iterations", model.iterations as f64);
            probe.layers.add("ml.fit_secs", op.wall_ms() / 1e3);
            probe.layers.add(
                "ml.row_iterations",
                (self.expected.km_rows * model.iterations) as f64,
            );
        }
        let checked = probe.call(&mut op, "bench.check", false, || {
            for (i, want) in self.expected.centers.iter().enumerate() {
                let nearest = model
                    .centers
                    .iter()
                    .map(|c| dist(c, want))
                    .fold(f64::INFINITY, f64::min);
                if nearest > CENTER_TOL {
                    return Err(format!("center {i}: nearest fitted center {nearest} away"));
                }
            }
            Ok(())
        });
        let ok = checked.is_ok();
        probe.finish(op, outcome(checked));
        if ok {
            self.deploy(probe, Model::Kmeans(model), "bench_km");
        }
    }

    /// `db2dframe(km)`, checked by row count and the integer column sums.
    fn dframe(&self, probe: &mut Probe) {
        let mut op = probe.begin(Kind::Pipeline, "dframe");
        let result = probe.call(&mut op, "transfer.vft", true, || {
            self.session.db2dframe("km", &KM_COLS)
        });
        probe.phases(&mut op, self.session.ledger());
        let (frame, report) = match result {
            Ok(r) => r,
            Err(e) => return probe.finish(op, Outcome::Error(e.to_string())),
        };
        op.set_modeled_secs(report.total().as_secs());
        if probe.traced() {
            probe.sample("wall.dframe", op.wall_ms());
            transfer_samples(probe, &report);
        }
        let e = &self.expected;
        let checked = probe.call(&mut op, "bench.check", false, || {
            expect_eq("rows", report.rows as usize, e.km_rows)?;
            let sums = frame
                .map_partitions(|_, b| {
                    [0usize, 6].map(|c| b.column(c).to_f64_cow().iter().sum::<f64>())
                })
                .map_err(|e| e.to_string())?;
            let id: f64 = sums.iter().map(|s| s[0]).sum();
            let label: f64 = sums.iter().map(|s| s[1]).sum();
            expect_eq("Σ id", id, e.km_sums[0])?;
            expect_eq("Σ true_label", label, e.km_sums[6])
        });
        probe.finish(op, outcome(checked));
    }

    fn glm_while_loading(&self, probe: &mut Probe) {
        let mut op = probe.begin(Kind::Pipeline, "glm_while_loading");
        let fit = probe.call(&mut op, "transfer.train", true, || {
            glm_while_loading(
                &self.vft,
                self.session.db(),
                self.session.dr(),
                "reg",
                &REG_COLS[..REG_D],
                "y",
                Family::Gaussian,
                &GlmOptions::default(),
                TransferPolicy::Locality,
                self.session.ledger(),
            )
        });
        probe.phases(&mut op, self.session.ledger());
        let fit = match fit {
            Ok(f) => f,
            Err(e) => return probe.finish(op, Outcome::Error(e.to_string())),
        };
        op.set_modeled_secs(fit.report.total().as_secs());
        if probe.traced() {
            probe.sample("wall.glm_while_loading", op.wall_ms());
            probe.sample("train.overlap_ms", fit.overlap_ns as f64 / 1e6);
        }
        let checked = probe.call(&mut op, "bench.check", false, || {
            expect_eq("rows", fit.report.rows as usize, self.expected.reg_rows)?;
            check_beta(&fit.model.coefficients, &self.expected.beta)
        });
        probe.finish(op, outcome(checked));
    }

    fn deploy(&self, probe: &mut Probe, model: Model, name: &str) {
        let mut op = probe.begin(Kind::Pipeline, "deploy");
        let result = probe.call(&mut op, "verticadb.models", true, || {
            self.session.deploy_model(&model, name, "benchmark pass")
        });
        let phases = probe.phases(&mut op, self.session.ledger());
        op.set_modeled_secs(phases.iter().map(|p| p.duration_secs).sum());
        if probe.traced() {
            probe.sample("wall.deploy", op.wall_ms());
        }
        let outcome = match result {
            Ok(()) => Outcome::Ok,
            Err(e) => Outcome::Error(e.to_string()),
        };
        probe.finish(op, outcome);
    }
}

fn transfer_samples(probe: &mut Probe, report: &TransferReport) {
    probe.sample("vft.modeled_ms", report.total().as_secs() * 1e3);
    probe.sample("vft.db_modeled_ms", report.db_time.as_secs() * 1e3);
    probe.sample("vft.client_modeled_ms", report.client_time.as_secs() * 1e3);
    probe.sample("vft.queue_modeled_ms", report.queue_time.as_secs() * 1e3);
}

fn check_beta(got: &[f64], want: &[f64]) -> Result<(), String> {
    expect_eq("coefficients", got.len(), want.len())?;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if (g - w).abs() > BETA_TOL {
            return Err(format!("β{i}: got {g}, want {w} ± {BETA_TOL}"));
        }
    }
    Ok(())
}

fn outcome(checked: Result<(), String>) -> Outcome {
    match checked {
        Ok(()) => Outcome::Ok,
        Err(why) => Outcome::Wrong(why),
    }
}
