//! Table segmentation: how rows are distributed across database nodes.
//!
//! "Initially data resides as tables in Vertica and is stored as *segments*
//! on the database nodes" (Section 3.1). The segmentation scheme decides
//! which node owns each row, which in turn decides how even the partitions
//! are when the locality-preserving transfer policy is used (Section 3.2
//! discusses skewed segmentation causing stragglers).

use crate::error::{DbError, Result};

use vdr_columnar::{Batch, Column, Value};

/// A segmentation scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum Segmentation {
    /// `SEGMENTED BY HASH(column)` — rows routed by a hash of one column.
    /// Even for high-cardinality columns.
    Hash { column: String },
    /// Round-robin over nodes — always even (Vertica's auto-segmentation for
    /// tables with no natural key).
    RoundRobin,
    /// Deliberately skewed: node `i` receives a share proportional to
    /// `weights[i]`. Models the "skewed segmentation" scenario of Section
    /// 3.2 for the policy experiments; not real Vertica DDL.
    Skewed { weights: Vec<f64> },
}

impl Segmentation {
    /// Split a batch into one sub-batch per node, preserving relative row
    /// order within each sub-batch. `start_row` is the global index of the
    /// batch's first row (round-robin and skew need global positions to stay
    /// deterministic across batches).
    pub fn split(&self, batch: &Batch, num_nodes: usize, start_row: u64) -> Result<Vec<Batch>> {
        let n = batch.num_rows();
        let mut routes: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
        match self {
            Segmentation::Hash { column } => {
                let hashes = hash_column(batch.column_by_name(column)?);
                for (i, h) in hashes.into_iter().enumerate() {
                    routes[(h % num_nodes as u64) as usize].push(i);
                }
            }
            Segmentation::RoundRobin => {
                for i in 0..n {
                    routes[((start_row + i as u64) % num_nodes as u64) as usize].push(i);
                }
            }
            Segmentation::Skewed { weights } => {
                if weights.len() != num_nodes {
                    return Err(DbError::Plan(format!(
                        "skew weights ({}) must match node count ({num_nodes})",
                        weights.len()
                    )));
                }
                let total: f64 = weights.iter().sum();
                if total <= 0.0 || weights.iter().any(|w| *w < 0.0) {
                    return Err(DbError::Plan(
                        "skew weights must be non-negative, sum > 0".into(),
                    ));
                }
                // Deterministic proportional routing: walk the cumulative
                // distribution with a low-discrepancy position per row.
                let cumulative: Vec<f64> = weights
                    .iter()
                    .scan(0.0, |acc, w| {
                        *acc += w / total;
                        Some(*acc)
                    })
                    .collect();
                for i in 0..n {
                    let g = start_row + i as u64;
                    // Golden-ratio sequence in [0,1): even coverage, no RNG.
                    let u = (g as f64 * 0.618_033_988_749_894_9).fract();
                    let node = cumulative
                        .iter()
                        .position(|&c| u < c)
                        .unwrap_or(num_nodes - 1);
                    routes[node].push(i);
                }
            }
        }
        Ok(routes.into_iter().map(|idx| batch.take(&idx)).collect())
    }

    /// The DDL rendering (used by `SHOW CREATE`-style output and tests).
    pub fn describe(&self) -> String {
        match self {
            Segmentation::Hash { column } => format!("SEGMENTED BY HASH({column})"),
            Segmentation::RoundRobin => "SEGMENTED ROUND ROBIN".to_string(),
            Segmentation::Skewed { weights } => format!("SEGMENTED SKEWED {weights:?}"),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a: a type tag byte, then the payload bytes.
#[inline]
fn fnv(tag: u8, payload: &[u8]) -> u64 {
    let mut h = (FNV_OFFSET ^ tag as u64).wrapping_mul(FNV_PRIME);
    for &b in payload {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Deterministic 64-bit hash of a value (FNV-1a over a canonical byte form).
/// Independent of Rust's `Hash` so the routing is stable across releases —
/// it is part of the storage layout.
pub fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => fnv(0, &[]),
        Value::Int64(x) => fnv(1, &x.to_le_bytes()),
        Value::Float64(x) => fnv(2, &x.to_bits().to_le_bytes()),
        Value::Bool(b) => fnv(3, &[*b as u8]),
        Value::Varchar(s) => fnv(4, s.as_bytes()),
    }
}

/// [`hash_value`] of every row of `col`, read from the typed data without
/// boxing a [`Value`] per row.
pub fn hash_column(col: &Column) -> Vec<u64> {
    let valid = col.validity();
    let null = fnv(0, &[]);
    let hash_rows = |f: &dyn Fn(usize) -> u64| -> Vec<u64> {
        (0..col.len())
            .map(|i| if valid.get(i) { f(i) } else { null })
            .collect()
    };
    match col {
        Column::Int64 { data, .. } => hash_rows(&|i| fnv(1, &data[i].to_le_bytes())),
        Column::Float64 { data, .. } => hash_rows(&|i| fnv(2, &data[i].to_bits().to_le_bytes())),
        Column::Bool { data, .. } => hash_rows(&|i| fnv(3, &[data[i] as u8])),
        Column::Varchar { data, .. } => hash_rows(&|i| fnv(4, data[i].as_bytes())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_columnar::{Column, DataType, Schema};

    fn batch(n: usize) -> Batch {
        let schema = Schema::of(&[("id", DataType::Int64), ("x", DataType::Float64)]);
        Batch::new(
            schema,
            vec![
                Column::from_i64((0..n as i64).collect()),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_robin_is_perfectly_even() {
        let b = batch(100);
        let parts = Segmentation::RoundRobin.split(&b, 4, 0).unwrap();
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(p.num_rows(), 25);
        }
        // Continuation across batches: starting at row 2 shifts the pattern.
        let parts = Segmentation::RoundRobin.split(&b, 4, 2).unwrap();
        assert_eq!(parts[2].column(0).get(0), Value::Int64(0));
    }

    #[test]
    fn hash_split_is_deterministic_and_complete() {
        let b = batch(500);
        let seg = Segmentation::Hash {
            column: "id".into(),
        };
        let parts1 = seg.split(&b, 3, 0).unwrap();
        let parts2 = seg.split(&b, 3, 0).unwrap();
        let total: usize = parts1.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 500);
        for (a, b) in parts1.iter().zip(&parts2) {
            assert_eq!(a, b);
        }
        // Reasonably even for sequential ids.
        for p in &parts1 {
            assert!(p.num_rows() > 100, "{}", p.num_rows());
        }
    }

    #[test]
    fn hash_on_missing_column_errors() {
        let b = batch(10);
        let seg = Segmentation::Hash {
            column: "zz".into(),
        };
        assert!(seg.split(&b, 2, 0).is_err());
    }

    #[test]
    fn skewed_split_matches_weights() {
        let b = batch(10_000);
        let seg = Segmentation::Skewed {
            weights: vec![3.0, 1.0],
        };
        let parts = seg.split(&b, 2, 0).unwrap();
        let total: usize = parts.iter().map(Batch::num_rows).sum();
        assert_eq!(total, 10_000);
        let share = parts[0].num_rows() as f64 / 10_000.0;
        assert!((0.72..0.78).contains(&share), "share {share}");
    }

    #[test]
    fn skewed_weights_validated() {
        let b = batch(10);
        assert!(Segmentation::Skewed { weights: vec![1.0] }
            .split(&b, 2, 0)
            .is_err());
        assert!(Segmentation::Skewed {
            weights: vec![0.0, 0.0]
        }
        .split(&b, 2, 0)
        .is_err());
        assert!(Segmentation::Skewed {
            weights: vec![-1.0, 2.0]
        }
        .split(&b, 2, 0)
        .is_err());
    }

    #[test]
    fn value_hash_distinguishes_types_and_values() {
        assert_ne!(
            hash_value(&Value::Int64(1)),
            hash_value(&Value::Float64(1.0))
        );
        assert_ne!(hash_value(&Value::Int64(1)), hash_value(&Value::Int64(2)));
        assert_eq!(
            hash_value(&Value::Varchar("ab".into())),
            hash_value(&Value::Varchar("ab".into()))
        );
        assert_ne!(hash_value(&Value::Null), hash_value(&Value::Bool(false)));
    }

    #[test]
    fn column_hash_matches_value_hash_row_for_row() {
        let cols = [
            Column::from_i64(vec![0, -7, i64::MAX]),
            Column::from_f64(vec![0.0, -0.0, f64::NAN]),
            Column::from_bool(vec![true, false]),
            Column::from_strings(vec!["", "ab", "alpha"]),
            Column::from_value(&Value::Null, 2),
        ];
        for col in &cols {
            let hashes = hash_column(col);
            for (i, h) in hashes.iter().enumerate() {
                assert_eq!(*h, hash_value(&col.get(i)), "{col:?} row {i}");
            }
        }
    }

    #[test]
    fn describe_renders_ddl() {
        assert_eq!(
            Segmentation::Hash {
                column: "id".into()
            }
            .describe(),
            "SEGMENTED BY HASH(id)"
        );
        assert_eq!(Segmentation::RoundRobin.describe(), "SEGMENTED ROUND ROBIN");
    }
}
