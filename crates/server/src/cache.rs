//! One memo for everything the server computes once: rendered response
//! bodies, pipeline studies and risk surfaces.
//!
//! Pipeline runs are deterministic in (request, seed), so a value can be
//! kept forever — the only policy question is capacity. A key's slot is
//! a stored value or a pending call, and [`Memo::get_or_compute`] hits,
//! leads or follows:
//!
//! - **Lead.** The first caller for a key inserts a pending slot,
//!   computes with no lock held, then swaps its value in under the shard
//!   lock: the value is stored before the key is released.
//! - **Follow.** A caller that finds the slot pending waits on the call
//!   and shares the leader's value, which is exactly what it would have
//!   computed. A body is one `Arc<str>`, so no caller copies it.
//! - **Purge.** [`Memo::remove_if`] drops pending slots too. A leader
//!   whose slot is gone hands its value to its followers and stores
//!   nothing.
//! - **Unwind.** A leader that unwinds frees its slot and wakes its
//!   followers, which run the call again (one leads, the rest follow).
//!   No key stays blocked behind a panic.
//!
//! A computation may read another memo, never its own: two calls on one
//! memo could each wait on the other's key, or one on its own.
//!
//! Keys are bytes (`tn_core::cache_key` writes them) and hash onto
//! independent shards, so concurrent workers rarely share a lock. Within
//! a shard, recency is a monotone tick per stored value and eviction
//! scans for the minimum, never evicting a pending slot; shards are
//! small, so the scan is a handful of comparisons. The shard comes from
//! [`shard_hash`], which reads the key eight bytes per multiply (an
//! inline fleet key runs to about a kilobyte) and is the same in every
//! process, so shard placement is reproducible. It is not keyed, so a
//! client could aim many keys at one shard; that costs only lock
//! sharing. Within a shard the map keeps std's keyed SipHash, so crafted
//! keys cannot pile into one bucket.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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

/// How a [`Memo::get_or_compute`] call came by its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Got {
    /// The value was stored.
    Hit,
    /// This caller computed it.
    Led,
    /// This caller waited on another caller's computation.
    Followed,
}

#[derive(Debug)]
enum Slot<V> {
    Ready { value: V, last_used: u64 },
    Pending(Arc<Call<V>>),
}

/// A computation in flight: followers wait on the condvar until the
/// leader leaves `Running`.
type Call<V> = (Mutex<State<V>>, Condvar);

#[derive(Debug)]
enum State<V> {
    Running,
    Done(V),
    /// The leader unwound before it had a value.
    Abandoned,
}

#[derive(Debug)]
struct Shard<V> {
    /// Keys are boxed slices: a key keeps no spare capacity.
    map: HashMap<Box<[u8]>, Slot<V>>,
    tick: u64,
}

/// The memo: a sharded get-or-compute store with LRU eviction.
#[derive(Debug)]
pub struct Memo<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    capacity_per_shard: usize,
}

impl<V: Clone> Memo<V> {
    /// Creates a memo of `shards` (at least one) shards holding roughly
    /// `capacity` values in all (rounded up to a multiple of the shard
    /// count; at least one per shard).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shard = || {
            let map = HashMap::new();
            Mutex::new(Shard { map, tick: 0 })
        };
        Self {
            shards: std::iter::repeat_with(shard).take(shards).collect(),
            capacity_per_shard: capacity.div_ceil(shards).max(1),
        }
    }

    fn shard(&self, key: &[u8]) -> &Mutex<Shard<V>> {
        &self.shards[(shard_hash(key) % self.shards.len() as u64) as usize]
    }

    /// The value stored under `key`, computed by `compute` if none is
    /// (see the module docs), and how this call came by it. A hit
    /// refreshes the value's recency and shares it, not a copy.
    pub fn get_or_compute(&self, key: &[u8], compute: impl FnOnce() -> V) -> (V, Got) {
        let shard = self.shard(key);
        loop {
            let mut guard = shard.lock().expect("memo shard poisoned");
            guard.tick += 1;
            let tick = guard.tick;
            let call = match guard.map.get_mut(key) {
                Some(Slot::Ready { value, last_used }) => {
                    *last_used = tick;
                    return (value.clone(), Got::Hit);
                }
                Some(Slot::Pending(call)) => Arc::clone(call),
                None => {
                    guard.make_room(self.capacity_per_shard);
                    let call = Arc::new((Mutex::new(State::Running), Condvar::new()));
                    guard
                        .map
                        .insert(key.into(), Slot::Pending(Arc::clone(&call)));
                    drop(guard);
                    let mut lead = Lead {
                        shard,
                        key,
                        call,
                        value: None,
                    };
                    let value = compute();
                    lead.value = Some(value.clone());
                    return (value, Got::Led);
                }
            };
            drop(guard);
            let (state, ready) = &*call;
            let mut state = state.lock().expect("memo call poisoned");
            while matches!(*state, State::Running) {
                state = ready.wait(state).expect("memo call poisoned");
            }
            if let State::Done(value) = &*state {
                return (value.clone(), Got::Followed);
            }
        }
    }

    /// Whether a value is stored under `key`. A pending call is not.
    pub fn contains(&self, key: &[u8]) -> bool {
        let shard = self.shard(key).lock().expect("memo shard poisoned");
        matches!(shard.map.get(key), Some(Slot::Ready { .. }))
    }

    /// Drops every slot whose key matches `dead`, pending ones included,
    /// in one pass over the shards.
    pub fn remove_if(&self, dead: impl Fn(&[u8]) -> bool) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock().expect("memo shard poisoned");
            shard.map.retain(|key, _| !dead(key));
        }
    }

    /// Slots across all shards: stored values and pending calls.
    pub fn len(&self) -> usize {
        let len = |shard: &Mutex<Shard<V>>| shard.lock().expect("memo shard poisoned").map.len();
        self.shards.iter().map(len).sum()
    }

    /// True when no slot is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V> Shard<V> {
    /// Evicts the least recently used stored values until one more slot
    /// fits. Pending slots are never evicted.
    fn make_room(&mut self, capacity: usize) {
        while self.map.len() >= capacity {
            let ready = self.map.iter().filter_map(|(key, slot)| match slot {
                Slot::Ready { last_used, .. } => Some((*last_used, key)),
                Slot::Pending(_) => None,
            });
            let Some(oldest) = ready.min().map(|(_, key)| key.clone()) else {
                return;
            };
            self.map.remove(&oldest);
        }
    }
}

/// A leader's hold on its pending slot. Dropping it, after the
/// computation or while unwinding out of it, stores the value in the
/// slot if the slot is still this call's, or frees the slot if there is
/// no value, and then wakes the followers.
struct Lead<'a, V: Clone> {
    shard: &'a Mutex<Shard<V>>,
    key: &'a [u8],
    call: Arc<Call<V>>,
    value: Option<V>,
}

impl<V: Clone> Drop for Lead<'_, V> {
    fn drop(&mut self) {
        // A panic elsewhere must not leave this key blocked, so poisoned
        // locks are taken as they stand.
        let mut shard = self.shard.lock().unwrap_or_else(PoisonError::into_inner);
        shard.tick += 1;
        let last_used = shard.tick;
        let slot = shard.map.get_mut(self.key);
        if matches!(&slot, Some(Slot::Pending(call)) if Arc::ptr_eq(call, &self.call)) {
            match (self.value.clone(), slot) {
                (Some(value), Some(slot)) => *slot = Slot::Ready { value, last_used },
                _ => drop(shard.map.remove(self.key)),
            }
        }
        drop(shard);
        let (state, ready) = &*self.call;
        let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = self.value.take().map_or(State::Abandoned, State::Done);
        drop(state);
        ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Barrier};

    /// A body memo with the server's eight shards.
    fn memo(capacity: usize) -> Memo<Arc<str>> {
        Memo::new(8, capacity)
    }

    /// Stores `value` under `key` (the key must be new).
    fn insert(m: &Memo<Arc<str>>, key: &[u8], value: &str) {
        let (_, got) = m.get_or_compute(key, || value.into());
        assert_eq!(got, Got::Led, "{key:?} was new");
    }

    /// The value stored under `key` (the key must be stored).
    fn hit(m: &Memo<Arc<str>>, key: &[u8]) -> Arc<str> {
        let (value, got) = m.get_or_compute(key, || unreachable!("{key:?} is stored"));
        assert_eq!(got, Got::Hit);
        value
    }

    #[test]
    fn a_hit_shares_the_stored_value() {
        let m = memo(16);
        assert!(!m.contains(b"k"));
        let body: Arc<str> = "v".into();
        let (led, got) = m.get_or_compute(b"k", || Arc::clone(&body));
        assert_eq!(got, Got::Led);
        assert!(Arc::ptr_eq(&led, &body));
        assert!(m.contains(b"k"));
        assert!(
            Arc::ptr_eq(&hit(&m, b"k"), &body),
            "a hit shares the stored body"
        );
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_if_drops_only_matching_keys() {
        let m = memo(64);
        for i in 0..20 {
            insert(&m, format!("key-{i}").as_bytes(), "v");
        }
        m.remove_if(|k| k.ends_with(b"7"));
        assert_eq!(m.len(), 18);
        assert!(!m.contains(b"key-7") && !m.contains(b"key-17"));
        assert!(m.contains(b"key-8"));
    }

    #[test]
    fn eviction_prefers_the_least_recently_used() {
        // Capacity 8 → one slot per shard: the second key on a shard
        // must evict the first unless it was just touched.
        let m = memo(8);
        let shard_of = |k: &[u8]| shard_hash(k) % 8;
        let base = b"key-0".to_vec();
        let sibling = (1..1000)
            .map(|i| format!("key-{i}").into_bytes())
            .find(|k| shard_of(k) == shard_of(&base))
            .expect("some key collides in 1000 tries");
        insert(&m, &base, "a");
        insert(&m, &sibling, "b");
        assert!(!m.contains(&base), "evicted by the sibling");
        assert_eq!(&*hit(&m, &sibling), "b");
        // With two slots on one shard, a hit keeps a key over an older
        // one.
        let m = Memo::<Arc<str>>::new(1, 2);
        insert(&m, b"a", "a");
        insert(&m, b"b", "b");
        assert_eq!(&*hit(&m, b"a"), "a");
        insert(&m, b"c", "c");
        assert!(m.contains(b"a") && !m.contains(b"b") && m.contains(b"c"));
    }

    #[test]
    fn a_pending_slot_is_never_evicted() {
        // One slot, held by a pending call: another key's lead finds
        // nothing to evict and adds its slot beside it. (The nested call
        // cannot wait on `outer`, so reading its own memo is safe here.)
        let m = Memo::<Arc<str>>::new(1, 1);
        let (value, got) = m.get_or_compute(b"outer", || {
            insert(&m, b"inner", "i");
            assert!(m.contains(b"inner"));
            "o".into()
        });
        assert_eq!((&*value, got), ("o", Got::Led));
        assert!(m.contains(b"outer") && m.contains(b"inner"));
        // The next lead evicts the older value, and then the newer.
        insert(&m, b"third", "t");
        assert_eq!(m.len(), 1);
        assert!(m.contains(b"third"));
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
        const SHARDS: usize = 8;
        let mut rng = tn_rng::Rng::seed_from_u64(19);
        let mut counts = [0usize; SHARDS];
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
            counts[(shard_hash(&key) as usize) % SHARDS] += 1;
        }
        let floor = 2048 / SHARDS / 2;
        assert!(counts.iter().all(|&n| n >= floor), "{counts:?}");
    }

    #[test]
    fn empty_and_len() {
        let m = memo(4);
        assert!(m.is_empty());
        insert(&m, b"x", "y");
        assert!(!m.is_empty());
    }

    #[test]
    fn a_key_is_released_when_its_value_is_stored() {
        let m = memo(8);
        assert_eq!(m.get_or_compute(b"k", || "v".into()).1, Got::Led);
        // The next caller hits the stored value instead of leading again.
        let (value, got) = m.get_or_compute(b"k", || "v2".into());
        assert_eq!((&*value, got), ("v", Got::Hit));
    }

    #[test]
    fn concurrent_callers_share_one_computation() {
        const CALLERS: usize = 8;
        let m = Arc::new(memo(8));
        let computations = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(CALLERS));
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let m = Arc::clone(&m);
                let computations = Arc::clone(&computations);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    m.get_or_compute(b"k", || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Hold the call open long enough for the other
                        // callers to pile in.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        "shared".into()
                    })
                })
            })
            .collect();
        let results: Vec<(Arc<str>, Got)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // One caller led; the rest followed it or, arriving after it
        // stored its value, hit. Either way they share its allocation.
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        let leaders: Vec<&Arc<str>> = (results.iter())
            .filter(|(_, got)| *got == Got::Led)
            .map(|(value, _)| value)
            .collect();
        assert_eq!(leaders.len(), 1);
        for (value, _) in &results {
            assert_eq!(&**value, "shared");
            assert!(Arc::ptr_eq(value, leaders[0]), "shared with the leader");
        }
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let m = memo(8);
        assert_eq!(m.get_or_compute(b"a", || "1".into()).1, Got::Led);
        let (value, got) = m.get_or_compute(b"b", || "2".into());
        assert_eq!((&*value, got), ("2", Got::Led));
    }

    /// Followers waiting on the call in flight for `key`: the holders of
    /// its `Arc` beyond the slot and the leader.
    fn followers(m: &Memo<Arc<str>>, key: &[u8]) -> usize {
        let shard = m.shard(key).lock().unwrap();
        match shard.map.get(key) {
            Some(Slot::Pending(call)) => Arc::strong_count(call) - 2,
            _ => 0,
        }
    }

    #[test]
    fn a_panicking_leader_wakes_its_followers_and_frees_its_key() {
        let m = Arc::new(memo(8));
        let (computing, leader_started) = mpsc::channel();
        let leader = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                m.get_or_compute(b"k", || {
                    computing.send(()).unwrap();
                    // Fail only once the follower holds the call.
                    while followers(&m, b"k") == 0 {
                        std::thread::yield_now();
                    }
                    panic!("the leader's computation fails");
                })
            })
        };
        leader_started.recv().unwrap();
        assert!(!m.contains(b"k"), "a pending call is not a stored value");
        // Each caller answers on a channel, so a caller left blocked
        // fails the test after a bounded wait instead of hanging it.
        let call = |value: &'static str| {
            let m = Arc::clone(&m);
            let (sent, result) = mpsc::channel();
            let thread =
                std::thread::spawn(move || sent.send(m.get_or_compute(b"k", || value.into())));
            (thread, result)
        };
        let timeout = std::time::Duration::from_secs(10);
        let (follower, follower_result) = call("retried");
        assert!(leader.join().is_err(), "the leader unwound");
        let result = follower_result.recv_timeout(timeout);
        assert_eq!(result, Ok(("retried".into(), Got::Led)));
        follower.join().unwrap().unwrap();
        let (later, later_result) = call("later");
        let result = later_result.recv_timeout(timeout);
        assert_eq!(result, Ok(("retried".into(), Got::Hit)));
        later.join().unwrap().unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn a_purged_leader_hands_its_value_on_and_stores_nothing() {
        let m = memo(8);
        let (value, got) = m.get_or_compute(b"dead", || {
            m.remove_if(|k| k == b"dead");
            "v".into()
        });
        assert_eq!((&*value, got), ("v", Got::Led));
        assert!(!m.contains(b"dead"));
        assert!(m.is_empty());
    }

    /// `threads` threads walk the same `keys` keys, each through a
    /// compute that counts its calls: every key must be computed exactly
    /// once, however the threads interleave.
    fn every_key_is_computed_once(threads: usize, keys: u64) {
        let m = Arc::new(Memo::<Arc<str>>::new(8, 2 * keys as usize));
        let computations = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(threads));
        let walkers: Vec<_> = (0..threads)
            .map(|_| {
                let (m, computations) = (Arc::clone(&m), Arc::clone(&computations));
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for k in 0..keys {
                        let key = k.to_le_bytes();
                        let (value, _) = m.get_or_compute(&key, || {
                            computations.fetch_add(1, Ordering::Relaxed);
                            k.to_string().into()
                        });
                        assert_eq!(*value, *k.to_string());
                    }
                })
            })
            .collect();
        for walker in walkers {
            walker.join().unwrap();
        }
        assert_eq!(computations.load(Ordering::Relaxed), keys);
        assert_eq!(m.len(), keys as usize);
    }

    #[test]
    fn every_key_is_computed_once_over_4_threads_and_20k_keys() {
        every_key_is_computed_once(4, 20_000);
    }

    #[test]
    #[ignore = "long stress: CI runs it in release with --ignored"]
    fn every_key_is_computed_once_over_8_threads_and_200k_keys() {
        every_key_is_computed_once(8, 200_000);
    }
}
