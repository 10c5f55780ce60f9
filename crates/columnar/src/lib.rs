#![allow(clippy::needless_range_loop)] // validity-bitmap and center loops index by row/center id
//! # vdr-columnar — columnar storage primitives
//!
//! Vertica is "a disk-based, columnar store with MPP architecture"
//! (Section 2). This crate provides the columnar layer the simulated engine
//! is built on:
//!
//! * typed [`column::Column`]s with validity bitmaps,
//! * a [`schema::Schema`] of named, typed fields,
//! * [`batch::Batch`] — a schema plus equal-length columns (the unit the
//!   vectorized executor and the transfer paths operate on),
//! * [`encoding`] — plain, run-length, dictionary, and delta-varint
//!   encodings, with a heuristic encoder that picks the cheapest,
//! * [`block`] — the checksummed binary format used both for on-disk
//!   segment containers and for Vertica Fast Transfer's wire batches, with
//!   a per-column offset index enabling projection pushdown
//!   ([`block::decode_batch_encoded`]),
//! * [`kernels`] — vectorized comparison/arithmetic kernels over typed
//!   slices and validity bitmaps, feeding `Bitmap` selection masks,
//! * [`encoded`] — compressed execution: [`EncodedColumn`]/[`EncodedBatch`]
//!   keep Rle/Dictionary payloads in run/code form past the block read
//!   ([`block::decode_batch_encoded`]) so kernels evaluate per run or per
//!   distinct code and values late-materialize only for surviving rows.

pub mod batch;
pub mod bitmap;
pub mod block;
pub mod checksum;
pub mod column;
pub mod encoded;
pub mod encoding;
pub mod error;
pub mod kernels;
pub mod schema;
pub mod value;

pub use batch::Batch;
pub use bitmap::Bitmap;
pub use block::{
    block_checksum, block_column_info, decode_batch, decode_batch_encoded, encode_batch,
    encode_batch_with, BlockColumnInfo, DecodeStats,
};
pub use column::{Column, ColumnBuilder};
pub use encoded::{EncodedBatch, EncodedColumn, EncodedValues, ScanColumn};
pub use error::{ColumnarError, Result};
pub use schema::{Field, Schema};
pub use value::{DataType, Value};
