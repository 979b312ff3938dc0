//! In-network processing: duplicate suppression and the data-fusion "peek".
//!
//! The paper's third headline property: "nodes can 'peak' at encrypted data
//! using their cluster key and decide upon forwarding or discarding
//! redundant information". After a Step-2 unwrap, an intermediate node sees
//! the [`crate::msg::DataUnit`]; in fusion mode (`sealed == false`) it also
//! sees the reading itself. [`DedupCache`] is the discard decision:
//! a bounded LRU over data-unit dedup keys, so the same reading arriving on
//! two paths is forwarded once.

use std::collections::HashSet;
use std::collections::VecDeque;
use wsn_sim::hash::FoldState;

/// A bounded set with FIFO eviction, keyed by [`crate::msg::DataUnit::dedup_key`].
/// The keys are FNV hashes, so the set uses the non-keyed
/// `FoldState`; the bound keeps a flood of colliding keys harmless
/// (DESIGN.md §5a item 12).
#[derive(Clone, Debug)]
pub struct DedupCache {
    set: HashSet<u64, FoldState>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl DedupCache {
    /// Creates a cache remembering the last `capacity` keys. Nothing is
    /// allocated until the first insert: most nodes of a large deployment
    /// never forward a reading, so reserving `capacity` slots up front
    /// would dominate their memory.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        DedupCache {
            set: HashSet::default(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Inserts `key`; returns `true` if it was new (forward it), `false`
    /// if it is a duplicate (discard it).
    pub fn insert(&mut self, key: u64) -> bool {
        if self.set.contains(&key) {
            return false;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        self.set.insert(key);
        self.order.push_back(key);
        true
    }

    /// Whether `key` is currently remembered.
    pub fn contains(&self, key: u64) -> bool {
        self.set.contains(&key)
    }

    /// Number of remembered keys.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// A tiny in-network aggregation helper: keeps the extrema of plaintext
/// readings seen while forwarding, demonstrating what the fusion-mode
/// "peek" enables (an intermediate node could suppress readings inside an
/// already-reported range).
#[derive(Clone, Debug, Default)]
pub struct PeekAggregator {
    /// Number of readings peeked at.
    pub seen: u64,
    /// Minimum reading value observed (first 8 body bytes as BE u64).
    pub min: Option<u64>,
    /// Maximum reading value observed.
    pub max: Option<u64>,
}

impl PeekAggregator {
    /// Observes a plaintext reading body. Non-numeric (short) bodies are
    /// counted but not folded into the extrema.
    pub fn observe(&mut self, body: &[u8]) {
        self.seen += 1;
        if body.len() >= 8 {
            let v = u64::from_be_bytes(body[..8].try_into().unwrap());
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        }
    }

    /// Whether `body` is redundant given what this node already forwarded
    /// (inside the closed [min, max] envelope).
    pub fn is_redundant(&self, body: &[u8]) -> bool {
        if body.len() < 8 {
            return false;
        }
        let v = u64::from_be_bytes(body[..8].try_into().unwrap());
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => v >= lo && v <= hi,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_basic() {
        let mut c = DedupCache::new(4);
        assert!(c.insert(1));
        assert!(!c.insert(1));
        assert!(c.insert(2));
        assert!(c.contains(1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn dedup_evicts_fifo() {
        let mut c = DedupCache::new(2);
        c.insert(1);
        c.insert(2);
        c.insert(3); // evicts 1
        assert!(!c.contains(1));
        assert!(c.contains(2));
        assert!(c.contains(3));
        // 1 is forwardable again after eviction.
        assert!(c.insert(1));
    }

    #[test]
    fn dedup_allocates_nothing_until_first_insert() {
        let mut c = DedupCache::new(256);
        assert_eq!(c.set.capacity(), 0);
        assert_eq!(c.order.capacity(), 0);
        assert!(c.insert(7));
        assert!(c.set.capacity() > 0);
        assert!(c.order.capacity() > 0);
    }

    #[test]
    fn dedup_evicts_fifo_at_full_capacity() {
        let mut c = DedupCache::new(256);
        for k in 0..256 {
            assert!(c.insert(k));
        }
        assert_eq!(c.len(), 256);
        assert!(c.insert(256)); // evicts 0, the oldest
        assert_eq!(c.len(), 256);
        assert!(!c.contains(0));
        assert!((1..=256).all(|k| c.contains(k)));
        assert!(!c.insert(1));
        assert!(c.insert(0)); // evicts 1
        assert!(!c.contains(1));
        assert_eq!(c.len(), 256);
    }

    #[test]
    fn colliding_keys_keep_fifo_eviction_and_the_bound() {
        use std::hash::BuildHasher;
        // An insider who can choose dedup keys picks ones whose hashes
        // agree in the low 12 bits: every one of them starts its probe at
        // the same bucket of any table up to 4096 buckets (a 256-entry
        // cache never grows past 512).
        let state = FoldState::default();
        let target = state.hash_one(0u64) & 0xFFF;
        let keys: Vec<u64> = (0u64..)
            .filter(|&k| state.hash_one(k) & 0xFFF == target)
            .take(3 * 256)
            .collect();
        let cap = 256;
        let mut c = DedupCache::new(cap);
        for (i, &k) in keys.iter().enumerate() {
            assert!(c.insert(k), "fresh colliding key {i} reported as duplicate");
            assert!(c.len() <= cap);
            assert_eq!(c.len(), (i + 1).min(cap));
            if i >= cap {
                assert!(!c.contains(keys[i - cap]), "key {} not evicted", i - cap);
            }
            let oldest_kept = (i + 1).saturating_sub(cap);
            assert!(c.contains(keys[oldest_kept]));
            // A duplicate of a remembered key is refused and evicts nothing.
            assert!(!c.insert(keys[oldest_kept]));
            assert_eq!(c.len(), (i + 1).min(cap));
        }
        assert!(keys[keys.len() - cap..].iter().all(|&k| c.contains(k)));
        assert!(keys[..keys.len() - cap].iter().all(|&k| !c.contains(k)));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = DedupCache::new(0);
    }

    #[test]
    fn aggregator_envelope() {
        let mut a = PeekAggregator::default();
        assert!(!a.is_redundant(&10u64.to_be_bytes()));
        a.observe(&10u64.to_be_bytes());
        a.observe(&20u64.to_be_bytes());
        assert_eq!(a.seen, 2);
        assert!(a.is_redundant(&15u64.to_be_bytes()));
        assert!(a.is_redundant(&10u64.to_be_bytes()));
        assert!(!a.is_redundant(&21u64.to_be_bytes()));
        assert!(!a.is_redundant(&9u64.to_be_bytes()));
    }

    #[test]
    fn aggregator_short_bodies() {
        let mut a = PeekAggregator::default();
        a.observe(b"hi");
        assert_eq!(a.seen, 1);
        assert_eq!(a.min, None);
        assert!(!a.is_redundant(b"hi"));
    }
}
