//! A sharded LRU cache for rendered response bodies.
//!
//! Pipeline runs are deterministic in (request, seed), so a response can
//! be cached forever — the only policy question is capacity. Keys hash
//! onto independent shards so concurrent workers rarely contend on the
//! same lock; within a shard, recency is a monotone tick per entry and
//! eviction scans for the minimum. Shards are small
//! (capacity/num_shards entries), so the scan is a handful of
//! comparisons, not a real LRU list.
//!
//! Keys are bytes (`tn_core::cache_key` writes them). The shard comes
//! from [`shard_hash`], which reads the key eight bytes per multiply (an
//! inline fleet key runs to about a kilobyte, and a byte-serial hash of
//! it cost microseconds per hit) and is the same in every process, so
//! shard placement is reproducible. A full-avalanche
//! finaliser spreads every key byte into the low bits that pick the
//! shard. It is not keyed, so a client could aim many keys at one
//! shard; that costs only lock sharing. Within a shard the map keeps
//! std's keyed SipHash, so crafted keys cannot pile into one bucket.
//!
//! Bodies are stored as `Arc<str>`: a hit hands out another reference
//! to the rendered bytes, never a copy, and the same allocation goes on
//! to the socket writer. Callers that know a class of keys can no longer
//! be requested drop them with [`ShardedCache::remove_if`] instead of
//! waiting for eviction.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const NUM_SHARDS: usize = 8;

/// The 64-bit hash that picks a key's shard: the same in every process
/// (unlike std's `RandomState`), so shard placement is reproducible.
///
/// Seeded with the length, it folds the bytes in eight at a time, the
/// last word zero-padded (the length tells a padded tail from real zero
/// bytes), with a rotate, xor and multiply per word. A splitmix64 step
/// (add its increment, then its finaliser) then mixes every bit into
/// every other, as the low bits the shard index reads need.
pub fn shard_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut hash = (bytes.len() as u64).wrapping_mul(K);
    for word in &mut words {
        hash = fold(
            hash,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash = fold(hash, u64::from_le_bytes(word));
    }
    hash = hash.wrapping_add(K);
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

#[derive(Debug)]
struct Entry {
    value: Arc<str>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    /// Keys are boxed slices: a key keeps no spare capacity.
    map: HashMap<Box<[u8]>, Entry>,
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
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            capacity_per_shard: capacity.div_ceil(NUM_SHARDS).max(1),
        }
    }

    fn shard(&self, key: &[u8]) -> &Mutex<Shard> {
        &self.shards[(shard_hash(key) as usize) % NUM_SHARDS]
    }

    /// Fetches a cached body, refreshing its recency. The body is
    /// shared with the cache, not copied.
    pub fn get(&self, key: &[u8]) -> Option<Arc<str>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.value))
    }

    /// Inserts a body, evicting the least-recently-used entry of the
    /// target shard when it is full.
    pub fn insert(&self, key: Vec<u8>, value: Arc<str>) {
        let key = key.into_boxed_slice();
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
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Drops every entry whose key matches `dead`, in one pass over the
    /// shards.
    pub fn remove_if(&self, dead: impl Fn(&[u8]) -> bool) {
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
        assert!(c.get(b"k").is_none());
        let body: Arc<str> = "v".into();
        c.insert(b"k".to_vec(), Arc::clone(&body));
        let got = c.get(b"k").expect("inserted");
        assert_eq!(&*got, "v");
        assert!(Arc::ptr_eq(&got, &body), "a hit shares the inserted body");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_if_drops_only_matching_keys() {
        let c = ShardedCache::new(64);
        for i in 0..20 {
            c.insert(format!("key-{i}").into_bytes(), "v".into());
        }
        c.remove_if(|k| k.ends_with(b"7"));
        assert_eq!(c.len(), 18);
        assert!(c.get(b"key-7").is_none() && c.get(b"key-17").is_none());
        assert!(c.get(b"key-8").is_some());
    }

    #[test]
    fn eviction_prefers_the_least_recently_used() {
        // Capacity 8 → one entry per shard: the second insert into a
        // shard must evict the first unless it was just touched.
        let c = ShardedCache::new(8);
        // Find two keys landing on the same shard.
        let base = b"key-0".to_vec();
        let shard_of = |k: &[u8]| (shard_hash(k) as usize) % NUM_SHARDS;
        let sibling = (1..1000)
            .map(|i| format!("key-{i}").into_bytes())
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
        c.insert(b"k".to_vec(), "v1".into());
        c.insert(b"k".to_vec(), "v2".into());
        assert_eq!(c.get(b"k").as_deref(), Some("v2"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shard_hash_is_stable() {
        // Pinned so shard placement never silently changes. The empty
        // key gives splitmix64's first output from seed 0.
        assert_eq!(shard_hash(b""), 0xe220_a839_7b1d_cdaf);
        assert_eq!(shard_hash(b"a"), 0x429b_a92f_8bdd_cab7);
        let long: Vec<u8> = (0..2048u32).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(shard_hash(&long), 0xbc22_7db7_e0f7_107f);
    }

    #[test]
    fn fleet_keys_spread_over_every_shard() {
        // Inline fleet keys as the handler builds them: one to sixteen
        // entries that differ in a few bits of one number, or in an id.
        let mut rng = tn_rng::Rng::seed_from_u64(19);
        let mut counts = [0usize; NUM_SHARDS];
        for k in 0..2048 {
            let mut key = b"fleet|inline|".to_vec();
            tn_core::cache_key::push_bits(&mut key, &[2020, u64::from(k % 3 == 0)]);
            for i in 0..rng.gen_range(1..17usize) {
                let mut entry = tn_fleet::FleetEntry::new(format!("inline-{i:04}"), "NVIDIA K20");
                entry.altitude_m = rng.gen_range(0..4000usize) as f64;
                entry.avf = (1 + rng.gen_range(0..1000usize)) as f64 / 1000.0;
                entry
                    .fields()
                    .push_cache_key(&mut key)
                    .expect("a valid entry");
            }
            counts[(shard_hash(&key) as usize) % NUM_SHARDS] += 1;
        }
        let floor = 2048 / NUM_SHARDS / 2;
        assert!(counts.iter().all(|&n| n >= floor), "{counts:?}");
    }

    #[test]
    fn empty_and_len() {
        let c = ShardedCache::new(4);
        assert!(c.is_empty());
        c.insert(b"x".to_vec(), "y".into());
        assert!(!c.is_empty());
    }
}
