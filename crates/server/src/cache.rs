//! A sharded LRU cache for rendered response bodies.
//!
//! Pipeline runs are deterministic in (request, seed), so a response can
//! be cached forever — the only policy question is capacity. Keys hash
//! (FNV-1a, deterministic across processes) onto independent shards so
//! concurrent workers rarely contend on the same lock; within a shard,
//! recency is a monotone tick per entry and eviction scans for the
//! minimum. Shards are small (capacity/num_shards entries), so the scan
//! is a handful of comparisons, not a real LRU list.
//!
//! Bodies are stored as `Arc<str>`: a hit hands out another reference
//! to the rendered bytes, never a copy, and the same allocation goes on
//! to the socket writer. Callers that know a class of keys can no longer
//! be requested drop them with [`ShardedCache::remove_if`] instead of
//! waiting for eviction.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const NUM_SHARDS: usize = 8;

/// 64-bit FNV-1a — stable across processes (unlike `DefaultHasher`), so
/// shard placement is reproducible.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[derive(Debug)]
struct Entry {
    value: Arc<str>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, Entry>,
    tick: u64,
}

/// The sharded cache.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
}

impl ShardedCache {
    /// Creates a cache holding roughly `capacity` entries total
    /// (rounded up to a multiple of the shard count; minimum one entry
    /// per shard).
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity.div_ceil(NUM_SHARDS).max(1),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(key.as_bytes()) as usize) % NUM_SHARDS]
    }

    /// Fetches a cached body, refreshing its recency. The body is
    /// shared with the cache, not copied.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.value))
    }

    /// Inserts a body, evicting the least-recently-used entry of the
    /// target shard when it is full.
    pub fn insert(&self, key: String, value: Arc<str>) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if shard.map.len() >= self.capacity_per_shard && !shard.map.contains_key(&key) {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
            }
        }
        shard.map.insert(key, Entry { value, last_used: tick });
    }

    /// Drops every entry whose key matches `dead`, in one pass over the
    /// shards.
    pub fn remove_if(&self, dead: impl Fn(&str) -> bool) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.retain(|key, _| !dead(key));
        }
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert() {
        let c = ShardedCache::new(16);
        assert!(c.get("k").is_none());
        let body: Arc<str> = "v".into();
        c.insert("k".into(), Arc::clone(&body));
        let got = c.get("k").expect("inserted");
        assert_eq!(&*got, "v");
        assert!(Arc::ptr_eq(&got, &body), "a hit shares the inserted body");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_if_drops_only_matching_keys() {
        let c = ShardedCache::new(64);
        for i in 0..20 {
            c.insert(format!("key-{i}"), "v".into());
        }
        c.remove_if(|k| k.ends_with('7'));
        assert_eq!(c.len(), 18);
        assert!(c.get("key-7").is_none() && c.get("key-17").is_none());
        assert!(c.get("key-8").is_some());
    }

    #[test]
    fn eviction_prefers_the_least_recently_used() {
        // Capacity 8 → one entry per shard: the second insert into a
        // shard must evict the first unless it was just touched.
        let c = ShardedCache::new(8);
        // Find two keys landing on the same shard.
        let base = "key-0".to_string();
        let shard_of = |k: &str| (fnv1a(k.as_bytes()) as usize) % NUM_SHARDS;
        let sibling = (1..1000)
            .map(|i| format!("key-{i}"))
            .find(|k| shard_of(k) == shard_of(&base))
            .expect("some key collides in 1000 tries");
        c.insert(base.clone(), "a".into());
        c.insert(sibling.clone(), "b".into());
        assert!(c.get(&base).is_none(), "evicted by the sibling");
        assert_eq!(c.get(&sibling).as_deref(), Some("b"));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let c = ShardedCache::new(8);
        c.insert("k".into(), "v1".into());
        c.insert("k".into(), "v2".into());
        assert_eq!(c.get("k").as_deref(), Some("v2"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so shard placement never silently changes.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn empty_and_len() {
        let c = ShardedCache::new(4);
        assert!(c.is_empty());
        c.insert("x".into(), "y".into());
        assert!(!c.is_empty());
    }
}
