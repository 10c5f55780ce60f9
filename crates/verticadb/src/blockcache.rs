//! Node-local cache of scanned segment containers.
//!
//! A real Vertica node keeps hot ROS containers in the OS page cache, but
//! our engine was still paying the *decode* on every re-read. This cache
//! keeps the scan product — an [`EncodedBatch`] — per `(node, container
//! path)`, mirroring the prediction path's `ModelCache`: entries carry the
//! container's crc32 as a content version tag, so a same-named table that
//! was dropped and re-created (container paths restart at `c000000`) misses
//! on the stale entry and reloads.
//!
//! Entries are charged at their *encoded* byte size (Rle/Dictionary columns
//! in run/code form, the rest decoded), so low-cardinality columns cache far
//! more rows per budget byte. Capacity is bounded in charged bytes **per
//! node** (a slice of the cluster profile's `mem_bytes`, as each simulated
//! node has its own RAM), with LRU eviction; prefix invalidation
//! (`drop_table`) removes a table's entries on every node. Projection
//! pushdown interacts with caching: an entry remembers which columns it
//! holds, and a lookup hits only if the wanted set is covered — a cached
//! `{a, b}` batch serves a later `SELECT a`. An entry that lacks some wanted
//! columns is handed back as [`Lookup::Partial`]: the scan decodes just the
//! missing columns and inserts the union, so a container's entry *widens*
//! to every column asked of it, as a column store reads each column of a
//! container on its own. A `SELECT *` after `SELECT a` decodes the other
//! columns once and never re-decodes `a`.
//!
//! Cost model: a hit charges `disk_cached_read` (memory-speed re-read) and
//! **zero** decode CPU; a miss or a partial entry pays the disk read and the
//! per-value decode of the columns it lacked. Emits
//! `scan.cache.{hit,miss,evict,invalidated}` per-node counters through
//! `vdr-obs`; a partial entry counts as a miss.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vdr_cluster::NodeId;
use vdr_columnar::EncodedBatch;

/// What [`BlockCache::get`] found for a container.
#[derive(Debug)]
pub enum Lookup {
    /// The entry holds every wanted column.
    Hit(Arc<EncodedBatch>),
    /// The entry is current but lacks some wanted columns: decode only
    /// those and insert the union. Counted as a miss.
    Partial(Arc<EncodedBatch>),
    /// No current entry.
    Miss,
}

struct Entry {
    /// Content version tag: the container block's crc32.
    crc: u32,
    /// Lowercased names of the columns this entry holds; `None` means the
    /// whole block (covers any projection).
    cols: Option<HashSet<String>>,
    batch: Arc<EncodedBatch>,
    /// Charged bytes: the batch's encoded size.
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<(usize, String), Entry>,
    /// Charged bytes currently cached per node id.
    bytes_per_node: HashMap<usize, u64>,
    /// Monotonic LRU clock.
    tick: u64,
}

/// The scanned-block cache. One instance serves the whole database; keys
/// carry the node id so each node has its own logical cache and byte
/// budget, as it would on real hardware.
pub struct BlockCache {
    inner: Mutex<Inner>,
    capacity_per_node: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl BlockCache {
    /// `capacity_per_node` bounds the charged bytes each node may cache.
    pub fn new(capacity_per_node: u64) -> Self {
        BlockCache {
            inner: Mutex::new(Inner::default()),
            capacity_per_node: AtomicU64::new(capacity_per_node),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Shrink or grow the per-node byte budget (tests exercise eviction by
    /// lowering it). Takes effect on the next insert.
    pub fn set_capacity_per_node(&self, bytes: u64) {
        self.capacity_per_node.store(bytes, Ordering::Relaxed);
    }

    /// Look up the scanned batch for `(node, path)`. Hits require the
    /// content tag to match and the cached projection to cover `wanted`
    /// (`None` = all columns). A tag mismatch drops the stale entry and
    /// counts an invalidation; an uncovered projection counts a plain miss
    /// and returns the entry as [`Lookup::Partial`], for the caller to
    /// widen and re-insert.
    pub fn get(
        &self,
        node: NodeId,
        path: &str,
        crc: u32,
        wanted: Option<&HashSet<String>>,
    ) -> Lookup {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = (node.0, path.to_string());
        let mut partial = None;
        if let Some(e) = inner.entries.get_mut(&key) {
            if e.crc != crc {
                let bytes = e.bytes;
                inner.entries.remove(&key);
                *inner.bytes_per_node.entry(node.0).or_default() -= bytes;
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                vdr_obs::counter_on("scan.cache.invalidated", node.0, 1);
                vdr_obs::event_on(
                    "cache.invalidate",
                    node.0,
                    format!("path={path} reason=crc"),
                );
            } else {
                let covered = match (&e.cols, wanted) {
                    (None, _) => true,
                    (Some(_), None) => false,
                    (Some(have), Some(want)) => want.iter().all(|w| have.contains(w)),
                };
                if covered {
                    e.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    vdr_obs::counter_on("scan.cache.hit", node.0, 1);
                    return Lookup::Hit(Arc::clone(&e.batch));
                }
                partial = Some(Arc::clone(&e.batch));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        vdr_obs::counter_on("scan.cache.miss", node.0, 1);
        match partial {
            Some(batch) => Lookup::Partial(batch),
            None => Lookup::Miss,
        }
    }

    /// Cache a scanned batch, charged at its encoded byte size. `cols` is
    /// the lowercased set of columns the batch holds (`None` for the whole
    /// block). Evicts the node's least-recently-used entries until the
    /// batch fits; a batch larger than the whole per-node budget is not
    /// cached at all.
    pub fn insert(
        &self,
        node: NodeId,
        path: &str,
        crc: u32,
        cols: Option<HashSet<String>>,
        batch: Arc<EncodedBatch>,
    ) {
        let bytes = batch.byte_size();
        let capacity = self.capacity_per_node.load(Ordering::Relaxed);
        if bytes > capacity {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = (node.0, path.to_string());
        if let Some(old) = inner.entries.remove(&key) {
            *inner.bytes_per_node.entry(node.0).or_default() -= old.bytes;
        }
        while inner.bytes_per_node.get(&node.0).copied().unwrap_or(0) + bytes > capacity {
            let victim = inner
                .entries
                .iter()
                .filter(|((n, _), _)| *n == node.0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            let freed = inner.entries.remove(&victim).expect("victim present").bytes;
            *inner.bytes_per_node.entry(node.0).or_default() -= freed;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            vdr_obs::counter_on("scan.cache.evict", node.0, 1);
            vdr_obs::event_on(
                "cache.evict",
                node.0,
                format!("path={} freed={freed}", victim.1),
            );
        }
        *inner.bytes_per_node.entry(node.0).or_default() += bytes;
        inner.entries.insert(
            key,
            Entry {
                crc,
                cols,
                batch,
                bytes,
                last_used: tick,
            },
        );
    }

    /// Drop every entry (on any node) whose container path starts with
    /// `prefix` — the `drop_table` hook (`tables/<name>/`).
    pub fn invalidate_prefix(&self, prefix: &str) {
        let mut inner = self.inner.lock();
        let victims: Vec<(usize, String)> = inner
            .entries
            .keys()
            .filter(|(_, p)| p.starts_with(prefix))
            .cloned()
            .collect();
        for key in victims {
            let e = inner.entries.remove(&key).expect("victim present");
            *inner.bytes_per_node.entry(key.0).or_default() -= e.bytes;
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            vdr_obs::counter_on("scan.cache.invalidated", key.0, 1);
            vdr_obs::event_on(
                "cache.invalidate",
                key.0,
                format!("path={} reason=drop prefix={prefix}", key.1),
            );
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Number of cached entries across all nodes.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Charged bytes cached on `node`.
    pub fn bytes_on(&self, node: NodeId) -> u64 {
        self.inner
            .lock()
            .bytes_per_node
            .get(&node.0)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_columnar::{Batch, Column, DataType, Schema};

    /// A scanned batch of `rows` rows of one column: a distinct-valued (so
    /// decoded) column, or a constant (so RLE-encoded) one.
    fn scanned(rows: i64, constant: bool) -> Arc<EncodedBatch> {
        let values = (0..rows).map(|i| if constant { 7 } else { i }).collect();
        let b = Batch::new(
            Schema::of(&[("id", DataType::Int64)]),
            vec![Column::from_i64(values)],
        )
        .unwrap();
        let bytes = vdr_columnar::encode_batch(&b);
        let (eb, _) = vdr_columnar::decode_batch_encoded(&bytes, None).unwrap();
        Arc::new(eb)
    }

    fn batch(rows: i64) -> Arc<EncodedBatch> {
        scanned(rows, false)
    }

    fn set(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn is_hit(l: Lookup) -> bool {
        matches!(l, Lookup::Hit(_))
    }

    fn is_miss(l: Lookup) -> bool {
        matches!(l, Lookup::Miss)
    }

    #[test]
    fn projection_coverage_rules() {
        let cache = BlockCache::new(1 << 20);
        let b = batch(10);
        // Narrow entry serves an equal-or-narrower projection only.
        cache.insert(
            NodeId(0),
            "tables/t/c0",
            7,
            Some(set(&["a", "b"])),
            b.clone(),
        );
        assert!(is_hit(cache.get(
            NodeId(0),
            "tables/t/c0",
            7,
            Some(&set(&["a"]))
        )));
        assert!(is_hit(cache.get(
            NodeId(0),
            "tables/t/c0",
            7,
            Some(&set(&["a", "b"]))
        )));
        // A wider projection gets the held entry back, counted as a miss.
        let (hits, misses) = (cache.hits(), cache.misses());
        let partial = cache.get(NodeId(0), "tables/t/c0", 7, Some(&set(&["c"])));
        assert!(matches!(&partial, Lookup::Partial(held) if Arc::ptr_eq(held, &b)));
        assert!(matches!(
            cache.get(NodeId(0), "tables/t/c0", 7, None),
            Lookup::Partial(_)
        ));
        assert_eq!((cache.hits(), cache.misses()), (hits, misses + 2));
        // Full entry serves everything.
        cache.insert(NodeId(0), "tables/t/c0", 7, None, b);
        assert!(is_hit(cache.get(NodeId(0), "tables/t/c0", 7, None)));
        assert!(is_hit(cache.get(
            NodeId(0),
            "tables/t/c0",
            7,
            Some(&set(&["z"]))
        )));
    }

    #[test]
    fn widened_insert_replaces_the_partial_entry() {
        let narrow = batch(10);
        let wide = batch(1000);
        let cache = BlockCache::new(1 << 20);
        cache.insert(NodeId(0), "c0", 3, Some(set(&["a"])), narrow);
        let Lookup::Partial(_) = cache.get(NodeId(0), "c0", 3, Some(&set(&["a", "b"]))) else {
            panic!("an uncovered projection returns the held entry")
        };
        cache.insert(NodeId(0), "c0", 3, Some(set(&["a", "b"])), wide.clone());
        assert_eq!(cache.len(), 1, "one entry per container");
        assert_eq!(cache.bytes_on(NodeId(0)), wide.byte_size());
        assert_eq!(cache.evictions(), 0, "widening is not an eviction");
        assert!(is_hit(cache.get(NodeId(0), "c0", 3, Some(&set(&["b"])))));
        // A stale tag still invalidates rather than widening.
        assert!(is_miss(cache.get(NodeId(0), "c0", 4, Some(&set(&["c"])))));
        assert_eq!(cache.invalidations(), 1);
    }

    #[test]
    fn crc_mismatch_invalidates() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(NodeId(1), "tables/t/c0", 1, None, batch(5));
        assert!(is_miss(cache.get(NodeId(1), "tables/t/c0", 2, None)));
        assert_eq!(cache.invalidations(), 1);
        // The stale entry is gone entirely.
        assert!(cache.is_empty());
    }

    #[test]
    fn nodes_have_separate_budgets_and_lru_eviction() {
        let b = batch(1000);
        let size = b.byte_size();
        // Budget fits exactly two batches per node.
        let cache = BlockCache::new(size * 2);
        cache.insert(NodeId(0), "p0", 0, None, b.clone());
        cache.insert(NodeId(0), "p1", 0, None, b.clone());
        cache.insert(NodeId(1), "p0", 0, None, b.clone());
        assert_eq!(cache.len(), 3, "node budgets are independent");
        // Touch p0 so p1 becomes the LRU victim.
        assert!(is_hit(cache.get(NodeId(0), "p0", 0, None)));
        cache.insert(NodeId(0), "p2", 0, None, b.clone());
        assert_eq!(cache.evictions(), 1);
        assert!(is_miss(cache.get(NodeId(0), "p1", 0, None)), "LRU evicted");
        assert!(is_hit(cache.get(NodeId(0), "p0", 0, None)));
        assert!(is_hit(cache.get(NodeId(0), "p2", 0, None)));
        assert!(cache.bytes_on(NodeId(0)) <= size * 2);
        // An oversized batch is refused outright.
        let tiny = BlockCache::new(8);
        tiny.insert(NodeId(0), "p", 0, None, b);
        assert!(tiny.is_empty());
    }

    #[test]
    fn prefix_invalidation_hits_all_nodes() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(NodeId(0), "tables/t/c0", 0, None, batch(1));
        cache.insert(NodeId(1), "tables/t/c0", 0, None, scanned(100, true));
        cache.insert(NodeId(0), "tables/u/c0", 0, None, batch(1));
        cache.invalidate_prefix("tables/t/");
        assert_eq!(cache.len(), 1);
        assert!(is_hit(cache.get(NodeId(0), "tables/u/c0", 0, None)));
    }

    #[test]
    fn entries_charge_encoded_bytes() {
        let eb = scanned(10_000, true);
        assert_eq!(eb.num_encoded(), 1, "constant column must stay encoded");
        let decoded_size = batch(10_000).byte_size();
        assert!(eb.byte_size() * 10 < decoded_size);
        // A budget far below decoded size still accepts the encoded entry.
        let cache = BlockCache::new(decoded_size / 4);
        cache.insert(NodeId(0), "tables/t/c0", 5, None, eb.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes_on(NodeId(0)), eb.byte_size());
        assert!(is_hit(cache.get(NodeId(0), "tables/t/c0", 5, None)));
    }
}
