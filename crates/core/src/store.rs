//! The unified, weight-accounted artifact store behind [`DesyncEngine`](crate::DesyncEngine).
//!
//! Until this store existed the engine kept one unbounded `HashMap` per
//! artifact class (four construction stages plus the sync-reference runs)
//! behind a single mutex — fine for benches, disqualifying for a
//! long-running service. [`ArtifactStore`] replaces all of them with one
//! subsystem:
//!
//! * **One keyed store.** Every cached value lives behind a uniform key
//!   type (the engine's [`ArtifactKey`](crate::engine) pairs the interned
//!   netlist/library identity with a stage prefix or simulation key). A
//!   persisted/shared tier can later sit behind the same keys because the
//!   netlist half is a stable structural hash.
//! * **Weight accounting.** Values implement [`Weigh`]; the store tracks
//!   resident weight per kind and in total, so capacity is expressed in
//!   artifact-size units (graph nodes, table entries, trace values) rather
//!   than entry counts.
//! * **LRU eviction.** With a configured capacity, inserting past the
//!   budget evicts least-recently-used entries until the store fits again.
//!   Without one the store is unbounded and behaves exactly like the old
//!   per-stage maps (bit-identical hit patterns).
//! * **Sharded locking.** Keys hash onto `shards` independent mutexes, so
//!   concurrent flows over different designs do not serialize on one
//!   whole-cache lock. The capacity budget is split evenly across shards
//!   (the standard sharded-LRU approximation; the shard count is clamped so
//!   the per-shard slices never sum past the capacity, making the global
//!   bound hard). Splitting does mean a hot shard can evict while another
//!   has headroom — configure one shard when exact LRU order matters more
//!   than lock concurrency.
//! * **In-flight coalescing.** [`ArtifactStore::get_or_try_compute`] keys
//!   a registry of computations in progress: when several threads miss the
//!   same key at once (a parallel verification sweep touching one design's
//!   shared stages, say), exactly one computes and publishes while the
//!   rest block on the in-flight cell and receive the shared value —
//!   every artifact is computed *exactly once*, not merely "computed
//!   redundantly but harmlessly" as with bare `get`/`insert`.
//! * **Counters.** Hits, misses, evictions, coalesced waits and resident
//!   weight are tracked per kind and surfaced through
//!   [`EngineReport`](crate::EngineReport).
//! * **Poison recovery.** Computations always run outside every lock, and
//!   each critical section finishes its structural mutation (map insert or
//!   remove plus the matching weight/entry bookkeeping) before anything
//!   that can unwind executes, so a panic that poisons a shard or registry
//!   mutex (a panicking value `Clone`, say) can at worst lose a counter
//!   increment or an LRU refresh — never the map/weight invariants. Every
//!   acquisition therefore recovers with
//!   `unwrap_or_else(PoisonError::into_inner)` instead of cascading the
//!   panic: one panicked request must not brick every later store access
//!   in a long-running service.
//!
//! The store is deliberately generic over key and value so tests (and a
//! future persisted tier) can instantiate it with toy types; the engine
//! instantiates it with its artifact enum.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// The approximate in-memory size of a cached artifact, in abstract units
/// (graph nodes, table entries, trace values — anything proportional to
/// retained bytes).
///
/// Weights feed the [`ArtifactStore`]'s capacity accounting: eviction keeps
/// the summed weight of resident artifacts at or under the configured
/// capacity. A weight of zero is clamped to one so every entry costs
/// something.
pub trait Weigh {
    /// The artifact's weight in abstract size units.
    fn weight(&self) -> usize;
}

/// A key type usable by the [`ArtifactStore`]: hashable, cheap to copy, and
/// classifying itself into one of a fixed number of *kinds* (the engine
/// uses one kind per cached stage plus one for sync-reference runs) for the
/// per-kind counters.
pub trait StoreKey: Eq + Hash + Copy {
    /// The kind index of this key, `0 <= kind < kind_count`.
    fn kind(&self) -> usize;
}

/// Capacity and sharding of an [`ArtifactStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Total weight budget across all shards; `None` means unbounded (no
    /// eviction ever happens — the PR-2/PR-3 behaviour).
    pub capacity: Option<usize>,
    /// Number of independently locked shards (clamped to at least one).
    /// More shards mean less lock contention but a coarser approximation of
    /// the global LRU order; use one shard when exact capacity behaviour
    /// matters more than concurrency (small bounded caches, tests).
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            capacity: None,
            shards: 8,
        }
    }
}

impl StoreConfig {
    /// An unbounded store (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Returns a copy with a total weight capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Returns a copy with a different shard count (clamped to >= 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// One resident artifact plus its bookkeeping.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: usize,
    /// Last-access tick from the store-wide logical clock; the shard's LRU
    /// victim is the entry with the smallest tick.
    tick: u64,
}

/// Everything behind one shard lock.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Resident weight of this shard.
    resident: usize,
    /// Per-kind resident weight / entry counts / counters. Kept under the
    /// shard lock (not atomics) so a report is a consistent snapshot of
    /// each shard.
    resident_by_kind: Vec<usize>,
    entries_by_kind: Vec<usize>,
    hits_by_kind: Vec<usize>,
    misses_by_kind: Vec<usize>,
    evictions_by_kind: Vec<usize>,
}

impl<K, V> Shard<K, V> {
    fn new(kinds: usize) -> Self {
        Self {
            map: HashMap::new(),
            resident: 0,
            resident_by_kind: vec![0; kinds],
            entries_by_kind: vec![0; kinds],
            hits_by_kind: vec![0; kinds],
            misses_by_kind: vec![0; kinds],
            evictions_by_kind: vec![0; kinds],
        }
    }
}

/// Counters of one artifact kind, see [`ArtifactStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreKindStats {
    /// Resident entries of this kind.
    pub entries: usize,
    /// Lookups served from the store.
    pub hits: usize,
    /// Lookups that found nothing (the caller computes and publishes).
    pub misses: usize,
    /// Entries of this kind evicted by the capacity budget.
    pub evictions: usize,
    /// [`ArtifactStore::get_or_try_compute`] calls that, after missing,
    /// waited on another thread's in-flight computation of the same key
    /// instead of computing themselves.
    pub coalesced: usize,
    /// Summed weight of the resident entries of this kind.
    pub resident_weight: usize,
}

/// A consistent snapshot of an [`ArtifactStore`]'s population and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Per-kind counters, indexed by [`StoreKey::kind`].
    pub kinds: Vec<StoreKindStats>,
    /// The configured total weight capacity (`None` = unbounded).
    pub capacity: Option<usize>,
}

impl StoreStats {
    /// Resident weight summed over all kinds.
    pub fn resident_weight(&self) -> usize {
        self.kinds.iter().map(|k| k.resident_weight).sum()
    }

    /// Evictions summed over all kinds.
    pub fn total_evictions(&self) -> usize {
        self.kinds.iter().map(|k| k.evictions).sum()
    }

    /// Coalesced in-flight waits summed over all kinds.
    pub fn total_coalesced(&self) -> usize {
        self.kinds.iter().map(|k| k.coalesced).sum()
    }
}

/// One computation in progress, registered by
/// [`ArtifactStore::get_or_try_compute`]. Followers block on `ready` until
/// the leader resolves the state.
#[derive(Debug)]
struct Inflight<V> {
    state: Mutex<InflightState<V>>,
    ready: Condvar,
}

#[derive(Debug)]
enum InflightState<V> {
    /// The leader is still computing.
    Pending,
    /// The leader published this value.
    Done(V),
    /// The leader's computation returned an error or panicked; a follower
    /// should retry (and may become the next leader).
    Failed,
}

/// Marks an in-flight computation as failed (waking its followers) and
/// unregisters it if the leader unwinds or errors before publishing.
struct InflightGuard<'a, K: StoreKey, V> {
    registry: &'a Mutex<HashMap<K, Arc<Inflight<V>>>>,
    cell: &'a Arc<Inflight<V>>,
    key: K,
    armed: bool,
}

impl<K: StoreKey, V> Drop for InflightGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        *self
            .cell
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = InflightState::Failed;
        self.cell.ready.notify_all();
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
    }
}

/// How [`ArtifactStore::get_or_try_compute`] obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched {
    /// The value was resident in the store.
    Hit,
    /// Another thread was already computing the same key; this call waited
    /// and received the shared value.
    Coalesced,
    /// This call computed (and published) the value.
    Computed,
}

impl Fetched {
    /// Whether the caller was spared the computation (resident hit or
    /// coalesced onto another thread's computation).
    pub fn served(self) -> bool {
        !matches!(self, Fetched::Computed)
    }
}

/// A sharded, weight-accounted LRU cache for desynchronization artifacts.
///
/// See the [module documentation](self) for the design. The store is
/// `Sync`; `get` and `insert` take one shard lock each, and
/// [`ArtifactStore::get_or_try_compute`] additionally coordinates racing
/// computations of one key through an in-flight registry.
#[derive(Debug)]
pub struct ArtifactStore<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Store-wide logical clock ordering accesses for LRU. A plain counter
    /// (not wall time) so eviction order is deterministic under a single
    /// thread.
    clock: AtomicU64,
    /// Per-shard slice of the capacity budget.
    shard_budget: Option<usize>,
    config: StoreConfig,
    kinds: usize,
    /// Computations in progress, sharded by the same key hash as the
    /// value shards so cold misses on unrelated designs do not serialize
    /// on one registry lock. Entries live only while a leader computes;
    /// the maps are normally empty.
    inflight: Vec<Mutex<HashMap<K, Arc<Inflight<V>>>>>,
    /// Per-kind count of calls that coalesced onto an in-flight leader.
    coalesced: Vec<AtomicU64>,
}

impl<K: StoreKey, V: Weigh + Clone> ArtifactStore<K, V> {
    /// Creates a store whose keys classify into `kinds` kinds.
    pub fn new(kinds: usize, config: StoreConfig) -> Self {
        // Bounded stores clamp the shard count so the per-shard budgets
        // (integer division) sum to at most the capacity — the documented
        // global bound is hard, never an approximation.
        let shards = match config.capacity {
            Some(capacity) => config.shards.clamp(1, capacity.max(1)),
            None => config.shards.max(1),
        };
        let shard_budget = config.capacity.map(|c| c / shards);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(kinds))).collect(),
            clock: AtomicU64::new(0),
            shard_budget,
            config: StoreConfig {
                capacity: config.capacity,
                shards,
            },
            kinds,
            inflight: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            coalesced: (0..kinds).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Returns the value under `key`, computing it **exactly once** across
    /// racing callers: a resident value is a plain hit; otherwise the first
    /// caller (the *leader*) runs `compute` and publishes the result while
    /// concurrent callers of the same key block and receive the shared
    /// value. The [`Fetched`] tag says which of the three paths served this
    /// call.
    ///
    /// A leader whose computation fails (or panics) wakes its followers,
    /// which retry — one of them becomes the next leader, so an error never
    /// wedges the key. Errors propagate only to the caller whose own
    /// computation produced them.
    ///
    /// Counter semantics are *scheduling-independent*: a miss is counted
    /// exactly when this call runs `compute` (so "misses" equals actual
    /// computations no matter how many threads raced); every served call
    /// counts a hit, and a call served by waiting on an in-flight leader
    /// additionally increments the kind's `coalesced` counter. Under a
    /// single thread this reproduces [`ArtifactStore::get`]'s hit/miss
    /// accounting exactly.
    pub fn get_or_try_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, Fetched), E> {
        let mut compute = Some(compute);
        loop {
            if let Some(value) = self.lookup_serving(&key) {
                return Ok((value, Fetched::Hit));
            }
            // Register with the key's in-flight shard; first comer leads.
            let registry = self.inflight_of(&key);
            let (cell, leader) = {
                let mut registry = registry.lock().unwrap_or_else(PoisonError::into_inner);
                match registry.get(&key) {
                    Some(cell) => (Arc::clone(cell), false),
                    None => {
                        let cell = Arc::new(Inflight {
                            state: Mutex::new(InflightState::Pending),
                            ready: Condvar::new(),
                        });
                        registry.insert(key, Arc::clone(&cell));
                        (cell, true)
                    }
                }
            };
            if leader {
                let mut guard = InflightGuard {
                    registry,
                    cell: &cell,
                    key,
                    armed: true,
                };
                // Double-check the store: a previous leader may have
                // published (and unregistered) between this call's lookup
                // and its registration. Serving the resident value keeps
                // the exactly-once guarantee airtight.
                if let Some(value) = self.lookup_serving(&key) {
                    Self::resolve(&cell, &mut guard, registry, &key, value.clone());
                    return Ok((value, Fetched::Hit));
                }
                // This call computes: that is the (one) miss of this key's
                // computation, whatever raced it.
                self.count_miss(&key);
                // Compute outside every lock; the guard marks the cell
                // failed if this unwinds.
                let value = (compute.take().expect("leader runs compute once"))()?;
                self.insert(key, value.clone());
                Self::resolve(&cell, &mut guard, registry, &key, value.clone());
                return Ok((value, Fetched::Computed));
            }
            // Follower: wait for the leader to resolve the cell.
            let mut state = cell.state.lock().unwrap_or_else(PoisonError::into_inner);
            while matches!(*state, InflightState::Pending) {
                state = cell
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            match &*state {
                InflightState::Done(value) => {
                    let value = value.clone();
                    drop(state);
                    self.count_hit(&key);
                    self.coalesced[key.kind()].fetch_add(1, Ordering::Relaxed);
                    return Ok((value, Fetched::Coalesced));
                }
                // The leader failed; retry (possibly becoming the leader).
                InflightState::Failed => continue,
                InflightState::Pending => unreachable!("wait loop exits only when resolved"),
            }
        }
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.config.capacity
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of computations currently registered in the in-flight
    /// leader/follower registry, summed over all shards.
    ///
    /// Entries live only while a leader computes, so outside an active
    /// `get_or_try_compute` this is zero — the fault-injection suite asserts
    /// exactly that after every faulted batch to prove a panicked leader
    /// never wedges a key.
    pub fn inflight_len(&self) -> usize {
        self.inflight
            .iter()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Marks an in-flight cell `Done(value)`, wakes its followers and
    /// unregisters it; disarms `guard` so its failure path stays idle.
    fn resolve(
        cell: &Arc<Inflight<V>>,
        guard: &mut InflightGuard<'_, K, V>,
        registry: &Mutex<HashMap<K, Arc<Inflight<V>>>>,
        key: &K,
        value: V,
    ) {
        *cell.state.lock().unwrap_or_else(PoisonError::into_inner) = InflightState::Done(value);
        cell.ready.notify_all();
        guard.armed = false;
        registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(key);
    }

    /// A lookup that counts a hit (and refreshes the LRU position) when the
    /// key is resident, and counts *nothing* when it is not — the miss of a
    /// [`ArtifactStore::get_or_try_compute`] call is booked by whichever
    /// caller actually computes.
    fn lookup_serving(&self, key: &K) -> Option<V> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let kind = key.kind();
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.tick = tick;
                let value = entry.value.clone();
                shard.hits_by_kind[kind] += 1;
                Some(value)
            }
            None => None,
        }
    }

    /// Books a hit for `key`'s kind (a coalesced call served off an
    /// in-flight cell — the value never touched this caller's shard map).
    fn count_hit(&self, key: &K) {
        let mut shard = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.hits_by_kind[key.kind()] += 1;
    }

    /// Books the miss of the one caller that computes `key`'s value.
    fn count_miss(&self, key: &K) {
        let mut shard = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.misses_by_kind[key.kind()] += 1;
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        &self.shards[self.shard_index(key)]
    }

    /// The in-flight registry shard of `key` (same hash as the value
    /// shard, so unrelated keys register on independent locks).
    fn inflight_of(&self, key: &K) -> &Mutex<HashMap<K, Arc<Inflight<V>>>> {
        &self.inflight[self.shard_index(key)]
    }

    /// Looks `key` up, counting a hit or miss for its kind and refreshing
    /// its LRU position on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let kind = key.kind();
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.tick = tick;
                let value = entry.value.clone();
                shard.hits_by_kind[kind] += 1;
                Some(value)
            }
            None => {
                shard.misses_by_kind[kind] += 1;
                None
            }
        }
    }

    /// Publishes `value` under `key`, then evicts least-recently-used
    /// entries while the shard exceeds its weight budget.
    ///
    /// Replacing an existing key updates the weight accounting in place. A
    /// single artifact heavier than the shard budget is evicted straight
    /// away (it is, by definition, too big for the cache) — correctness is
    /// unaffected because publishers always hold their own `Arc`. The
    /// resident weight therefore never exceeds the configured capacity.
    pub fn insert(&self, key: K, value: V) {
        // Unit failpoint at the publication boundary (before any lock is
        // held, so an injected panic can never poison a shard from here).
        crate::failpoints::hit_unit("store::insert");
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let weight = value.weight().max(1);
        let kind = key.kind();
        let mut shard = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = shard.map.insert(
            key,
            Entry {
                value,
                weight,
                tick,
            },
        ) {
            shard.resident -= old.weight;
            shard.resident_by_kind[kind] -= old.weight;
        } else {
            shard.entries_by_kind[kind] += 1;
        }
        shard.resident += weight;
        shard.resident_by_kind[kind] += weight;
        if let Some(budget) = self.shard_budget {
            while shard.resident > budget && !shard.map.is_empty() {
                // The victim scan is O(resident entries); entries are
                // whole stage artifacts (at most a handful per design x
                // option prefix), so a linked LRU list would buy nothing
                // at this granularity.
                let victim = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.tick)
                    .map(|(k, _)| *k)
                    .expect("non-empty checked");
                let evicted = shard.map.remove(&victim).expect("victim resident");
                let victim_kind = victim.kind();
                shard.resident -= evicted.weight;
                shard.resident_by_kind[victim_kind] -= evicted.weight;
                shard.entries_by_kind[victim_kind] -= 1;
                shard.evictions_by_kind[victim_kind] += 1;
            }
        }
    }

    /// Drops every resident entry. Counters keep accumulating (a clear is
    /// not an eviction).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            shard.map.clear();
            shard.resident = 0;
            shard.resident_by_kind.iter_mut().for_each(|w| *w = 0);
            shard.entries_by_kind.iter_mut().for_each(|n| *n = 0);
        }
    }

    /// Resident weight summed over all shards.
    pub fn resident_weight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).resident)
            .sum()
    }

    /// A snapshot of the per-kind counters.
    pub fn stats(&self) -> StoreStats {
        let mut kinds = vec![StoreKindStats::default(); self.kinds];
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (i, slot) in kinds.iter_mut().enumerate() {
                slot.entries += shard.entries_by_kind[i];
                slot.hits += shard.hits_by_kind[i];
                slot.misses += shard.misses_by_kind[i];
                slot.evictions += shard.evictions_by_kind[i];
                slot.resident_weight += shard.resident_by_kind[i];
            }
        }
        for (slot, counter) in kinds.iter_mut().zip(&self.coalesced) {
            slot.coalesced = counter.load(Ordering::Relaxed) as usize;
        }
        StoreStats {
            kinds,
            capacity: self.config.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy key: `(kind, id)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Key(usize, u64);

    impl StoreKey for Key {
        fn kind(&self) -> usize {
            self.0
        }
    }

    /// A toy value carrying its own weight.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Blob(usize);

    impl Weigh for Blob {
        fn weight(&self) -> usize {
            self.0
        }
    }

    fn store(capacity: Option<usize>) -> ArtifactStore<Key, Blob> {
        let mut config = StoreConfig::default().with_shards(1);
        config.capacity = capacity;
        ArtifactStore::new(2, config)
    }

    #[test]
    fn unbounded_store_never_evicts_and_counts_hits() {
        let s = store(None);
        assert_eq!(s.get(&Key(0, 1)), None);
        s.insert(Key(0, 1), Blob(10));
        s.insert(Key(1, 2), Blob(20));
        assert_eq!(s.get(&Key(0, 1)), Some(Blob(10)));
        assert_eq!(s.get(&Key(1, 2)), Some(Blob(20)));
        assert_eq!(s.resident_weight(), 30);
        let stats = s.stats();
        assert_eq!(stats.capacity, None);
        assert_eq!(stats.kinds[0].hits, 1);
        assert_eq!(stats.kinds[0].misses, 1);
        assert_eq!(stats.kinds[0].entries, 1);
        assert_eq!(stats.kinds[0].resident_weight, 10);
        assert_eq!(stats.kinds[1].resident_weight, 20);
        assert_eq!(stats.total_evictions(), 0);
        assert_eq!(stats.resident_weight(), 30);
    }

    #[test]
    fn lru_eviction_respects_recency_and_weight() {
        let s = store(Some(30));
        s.insert(Key(0, 1), Blob(10));
        s.insert(Key(0, 2), Blob(10));
        s.insert(Key(0, 3), Blob(10));
        assert_eq!(s.resident_weight(), 30);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(s.get(&Key(0, 1)).is_some());
        s.insert(Key(1, 4), Blob(10));
        assert_eq!(s.resident_weight(), 30);
        assert_eq!(s.get(&Key(0, 2)), None, "LRU entry must be evicted");
        assert!(s.get(&Key(0, 1)).is_some());
        assert!(s.get(&Key(0, 3)).is_some());
        assert!(s.get(&Key(1, 4)).is_some());
        let stats = s.stats();
        assert_eq!(stats.kinds[0].evictions, 1);
        assert_eq!(stats.kinds[1].evictions, 0);
    }

    #[test]
    fn poisoned_shard_locks_recover_instead_of_cascading() {
        use std::sync::atomic::AtomicBool;

        /// A value whose `Clone` panics exactly once, poisoning whatever
        /// lock is held at the time.
        #[derive(Debug)]
        struct Volatile(Arc<AtomicBool>, usize);

        impl Clone for Volatile {
            fn clone(&self) -> Self {
                if self.0.swap(false, Ordering::SeqCst) {
                    panic!("clone bomb");
                }
                Volatile(Arc::clone(&self.0), self.1)
            }
        }

        impl Weigh for Volatile {
            fn weight(&self) -> usize {
                1
            }
        }

        let armed = Arc::new(AtomicBool::new(false));
        let s: ArtifactStore<Key, Volatile> =
            ArtifactStore::new(2, StoreConfig::default().with_shards(1));
        s.insert(Key(0, 1), Volatile(Arc::clone(&armed), 7));
        // Arm the bomb and poison the (single) shard lock from a scratch
        // thread: `get` clones the resident value while holding the lock.
        armed.store(true, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _ = s.get(&Key(0, 1));
            });
            assert!(poisoner.join().is_err(), "the clone bomb must have fired");
        });
        // Every later access recovers the poisoned lock and keeps serving.
        assert_eq!(s.get(&Key(0, 1)).map(|v| v.1), Some(7));
        s.insert(Key(1, 2), Volatile(Arc::clone(&armed), 9));
        assert_eq!(s.get(&Key(1, 2)).map(|v| v.1), Some(9));
        assert_eq!(s.resident_weight(), 2);
        let (value, fetched) = s
            .get_or_try_compute::<()>(Key(0, 3), || Ok(Volatile(Arc::clone(&armed), 11)))
            .unwrap();
        assert_eq!(value.1, 11);
        assert_eq!(fetched, Fetched::Computed);
        assert_eq!(s.inflight_len(), 0);
        let stats = s.stats();
        assert_eq!(stats.kinds[0].entries, 2);
        assert_eq!(stats.kinds[1].entries, 1);
    }

    #[test]
    fn eviction_is_by_weight_not_entry_count() {
        let s = store(Some(25));
        s.insert(Key(0, 1), Blob(10));
        s.insert(Key(0, 2), Blob(10));
        // A heavy insert evicts as many light entries as needed.
        s.insert(Key(0, 3), Blob(20));
        assert!(s.resident_weight() <= 25, "{}", s.resident_weight());
        assert!(s.get(&Key(0, 3)).is_some(), "newest entry survives");
        assert!(s.stats().kinds[0].evictions >= 1);
    }

    #[test]
    fn oversized_artifact_is_not_retained() {
        let s = store(Some(10));
        s.insert(Key(0, 1), Blob(100));
        // Too big for the cache: evicted straight away, so the capacity
        // bound is hard. The publisher keeps its own Arc, so nothing is
        // lost except reuse.
        assert_eq!(s.get(&Key(0, 1)), None);
        assert_eq!(s.resident_weight(), 0);
        assert_eq!(s.stats().kinds[0].evictions, 1);
        // Smaller values cache normally afterwards.
        s.insert(Key(0, 2), Blob(5));
        assert_eq!(s.get(&Key(0, 2)), Some(Blob(5)));
        assert_eq!(s.resident_weight(), 5);
    }

    #[test]
    fn tiny_capacities_clamp_the_shard_count() {
        // 8 requested shards but a capacity of 4: unclamped, each shard
        // would hold its own minimum slice and the global bound would leak.
        let config = StoreConfig::default().with_capacity(4).with_shards(8);
        let s: ArtifactStore<Key, Blob> = ArtifactStore::new(1, config);
        assert!(s.shards() <= 4);
        for id in 0..32 {
            s.insert(Key(0, id), Blob(1));
        }
        assert!(s.resident_weight() <= 4, "{}", s.resident_weight());
    }

    #[test]
    fn replacing_a_key_updates_weight_in_place() {
        let s = store(None);
        s.insert(Key(0, 1), Blob(10));
        s.insert(Key(0, 1), Blob(30));
        assert_eq!(s.resident_weight(), 30);
        let stats = s.stats();
        assert_eq!(stats.kinds[0].entries, 1);
        assert_eq!(stats.kinds[0].evictions, 0);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let s = store(None);
        s.insert(Key(0, 1), Blob(10));
        assert!(s.get(&Key(0, 1)).is_some());
        s.clear();
        assert_eq!(s.resident_weight(), 0);
        assert_eq!(s.get(&Key(0, 1)), None);
        let stats = s.stats();
        assert_eq!(stats.kinds[0].entries, 0);
        assert_eq!(stats.kinds[0].hits, 1);
        assert_eq!(stats.kinds[0].misses, 1);
    }

    #[test]
    fn zero_weight_values_cost_at_least_one_unit() {
        let s = store(None);
        s.insert(Key(0, 1), Blob(0));
        assert_eq!(s.resident_weight(), 1);
    }

    #[test]
    fn sharded_store_still_bounds_total_weight() {
        let config = StoreConfig::default().with_capacity(40).with_shards(4);
        let s: ArtifactStore<Key, Blob> = ArtifactStore::new(1, config);
        assert_eq!(s.shards(), 4);
        for id in 0..64 {
            s.insert(Key(0, id), Blob(5));
        }
        // Each shard holds its slice of the budget, so the global bound
        // holds too.
        assert!(s.resident_weight() <= 40, "{}", s.resident_weight());
        assert!(s.stats().total_evictions() > 0);
    }

    #[test]
    fn store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArtifactStore<Key, Blob>>();
    }

    #[test]
    fn get_or_try_compute_hits_computes_and_propagates_errors() {
        let s = store(None);
        let (value, how) = s
            .get_or_try_compute(Key(0, 1), || Ok::<_, ()>(Blob(7)))
            .unwrap();
        assert_eq!(value, Blob(7));
        assert_eq!(how, Fetched::Computed);
        assert!(!how.served());
        // Second call: resident hit, the closure must not run.
        let (value, how) = s
            .get_or_try_compute(Key(0, 1), || -> Result<Blob, ()> {
                panic!("must be served from the store")
            })
            .unwrap();
        assert_eq!(value, Blob(7));
        assert_eq!(how, Fetched::Hit);
        assert!(how.served());
        // Errors propagate and do not wedge the key.
        let err = s.get_or_try_compute(Key(0, 2), || Err::<Blob, _>("boom"));
        assert_eq!(err, Err("boom"));
        let (value, how) = s
            .get_or_try_compute(Key(0, 2), || Ok::<_, ()>(Blob(9)))
            .unwrap();
        assert_eq!((value, how), (Blob(9), Fetched::Computed));
        let stats = s.stats();
        assert_eq!(stats.kinds[0].hits, 1);
        assert_eq!(stats.total_coalesced(), 0);
    }

    #[test]
    fn racing_computations_of_one_key_coalesce_onto_one_leader() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        let s = store(None);
        let computations = AtomicUsize::new(0);
        let threads = 8;
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    let (value, _) = s
                        .get_or_try_compute(Key(0, 42), || {
                            computations.fetch_add(1, Ordering::SeqCst);
                            // Hold the cell open long enough that the other
                            // threads genuinely race it.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<_, ()>(Blob(5))
                        })
                        .unwrap();
                    assert_eq!(value, Blob(5));
                });
            }
        });
        assert_eq!(
            computations.load(Ordering::SeqCst),
            1,
            "exactly one leader computes; everyone else is served"
        );
        let stats = s.stats();
        // Scheduling-independent counters: one miss (the computation),
        // one hit per served thread; coalesced counts the subset that
        // waited on the in-flight cell.
        assert_eq!(stats.kinds[0].misses, 1, "{stats:?}");
        assert_eq!(stats.kinds[0].hits, threads - 1, "{stats:?}");
        assert!(stats.kinds[0].coalesced < threads, "{stats:?}");
        assert_eq!(stats.total_coalesced(), stats.kinds[0].coalesced);
    }

    #[test]
    fn a_panicking_leader_does_not_wedge_the_key() {
        let s = store(None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.get_or_try_compute(Key(0, 3), || -> Result<Blob, ()> { panic!("leader") });
        }));
        assert!(result.is_err());
        // The key is free again: the next caller becomes the leader.
        let (value, how) = s
            .get_or_try_compute(Key(0, 3), || Ok::<_, ()>(Blob(11)))
            .unwrap();
        assert_eq!((value, how), (Blob(11), Fetched::Computed));
    }
}
