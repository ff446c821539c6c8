//! The weight-accounted artifact store behind [`DesyncEngine`](crate::DesyncEngine).
//!
//! [`ArtifactStore`] is one keyed cache of every artifact an engine (or a
//! detached flow) shares, with exactly-once computation of each key:
//!
//! * **One keyed store.** Every cached value lives behind a uniform key
//!   type (the engine's [`ArtifactKey`](crate::engine) pairs the interned
//!   netlist/library identity with a stage prefix or simulation key), and
//!   every access goes through [`ArtifactStore::get_or_try_compute`].
//! * **Weight accounting.** Values implement [`Weigh`]; the store tracks
//!   resident weight per kind and in total, so capacity is expressed in
//!   artifact-size units (graph nodes, table entries, trace values) rather
//!   than entry counts.
//! * **LRU eviction.** With a configured capacity, inserting past the
//!   budget evicts least-recently-used entries, in exact LRU order across
//!   the whole store, until it fits again. Without one the store is
//!   unbounded and never evicts.
//! * **One lock.** The resident entries, the LRU clock, the per-kind
//!   counters and the in-flight registry sit behind one mutex, so a report
//!   is a consistent snapshot and a lookup, its miss and its in-flight
//!   registration are one critical section. A fetch holds the lock for one
//!   map operation (plus the eviction scan of an over-budget insert);
//!   computations and waits on another thread's computation happen outside
//!   it.
//! * **In-flight coalescing.** [`ArtifactStore::get_or_try_compute`] keys
//!   a registry of computations in progress: when several threads miss the
//!   same key at once (a parallel verification sweep touching one design's
//!   shared stages, say), exactly one computes and publishes while the
//!   rest block on the in-flight cell and receive the shared value, so
//!   every artifact is computed *exactly once*.
//! * **Counters.** Hits, misses, evictions, coalesced waits and resident
//!   weight are tracked per kind and surfaced through
//!   [`EngineReport`](crate::EngineReport).
//! * **Poison recovery.** Computations always run outside every lock, and
//!   each critical section finishes its structural mutation (map insert or
//!   remove plus the matching weight/entry bookkeeping) before anything
//!   that can unwind executes, so a panic that poisons the store or an
//!   in-flight cell mutex (a panicking value `Clone`, say) can at worst
//!   lose a counter increment or an LRU refresh — never the map/weight
//!   invariants. Every acquisition therefore recovers with
//!   `unwrap_or_else(PoisonError::into_inner)` instead of cascading the
//!   panic: one panicked request must not brick every later store access
//!   in a long-running service.
//!
//! The store is generic over key and value: the engine instantiates it
//! with its artifact enum, the unit tests with toy types.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
/// classifying itself into one of a fixed number of *kinds* (the engine's
/// are the [`ArtifactKind`](crate::ArtifactKind)s) for the per-kind
/// counters.
pub trait StoreKey: Eq + Hash + Copy {
    /// The kind index of this key, `0 <= kind < kind_count`.
    fn kind(&self) -> usize;
}

/// Capacity of an [`ArtifactStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreConfig {
    /// Total weight budget; `None` means unbounded (no eviction ever
    /// happens).
    pub capacity: Option<usize>,
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
}

/// One resident artifact plus its bookkeeping.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: usize,
    /// Last-access tick from the store's logical clock; the LRU victim is
    /// the entry with the smallest tick.
    tick: u64,
}

/// Everything behind the store lock.
#[derive(Debug)]
struct State<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Logical clock ordering accesses for LRU. A plain counter (not wall
    /// time) so eviction order is deterministic under a single thread.
    clock: u64,
    /// Resident weight summed over all kinds.
    resident: usize,
    /// Per-kind counters, indexed by [`StoreKey::kind`].
    kinds: Vec<StoreKindStats>,
    /// Computations in progress. Entries live only while a leader
    /// computes; the map is normally empty.
    inflight: HashMap<K, Arc<Inflight<V>>>,
}

impl<K: StoreKey, V: Clone> State<K, V> {
    /// Counts a hit (and refreshes the LRU position) when `key` is
    /// resident, and counts *nothing* when it is not — each caller books
    /// its own miss.
    fn serve(&mut self, key: &K) -> Option<V> {
        let entry = self.map.get_mut(key)?;
        self.clock += 1;
        entry.tick = self.clock;
        let value = entry.value.clone();
        self.kinds[key.kind()].hits += 1;
        Some(value)
    }

    /// Publishes `value` under the absent `key` (only its in-flight leader
    /// publishes a key, right after missing it), then evicts
    /// least-recently-used entries while the resident weight exceeds
    /// `capacity`. An artifact heavier than the whole capacity is evicted
    /// straight away, so the resident weight never exceeds the capacity;
    /// its publisher still holds the value.
    fn insert(&mut self, key: K, value: V, weight: usize, capacity: Option<usize>) {
        self.clock += 1;
        let kind = key.kind();
        let entry = Entry {
            value,
            weight,
            tick: self.clock,
        };
        let previous = self.map.insert(key, entry);
        debug_assert!(previous.is_none(), "published a resident key");
        self.kinds[kind].entries += 1;
        self.resident += weight;
        self.kinds[kind].resident_weight += weight;
        let Some(capacity) = capacity else { return };
        while self.resident > capacity {
            // The victim scan is O(resident entries); entries are whole
            // stage artifacts (at most a handful per design x option
            // prefix), so a linked LRU list would buy nothing at this
            // granularity.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("resident weight implies a resident entry");
            let evicted = self.map.remove(&victim).expect("victim resident");
            let stats = &mut self.kinds[victim.kind()];
            self.resident -= evicted.weight;
            stats.resident_weight -= evicted.weight;
            stats.entries -= 1;
            stats.evictions += 1;
        }
    }
}

/// Counters of one artifact kind, see [`ArtifactStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Per-kind counters, indexed by [`StoreKey::kind`].
    pub kinds: Vec<StoreKindStats>,
    /// The configured total weight capacity (`None` = unbounded).
    pub capacity: Option<usize>,
}

impl StoreStats {
    /// The traffic since `earlier`, an earlier snapshot of the same store:
    /// each kind's counters (hits, misses, evictions, coalesced waits) are
    /// differenced, and the levels (entries, resident weight, capacity) are
    /// this snapshot's.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        let kinds = self
            .kinds
            .iter()
            .zip(&earlier.kinds)
            .map(|(now, then)| StoreKindStats {
                hits: now.hits - then.hits,
                misses: now.misses - then.misses,
                evictions: now.evictions - then.evictions,
                coalesced: now.coalesced - then.coalesced,
                ..*now
            })
            .collect();
        StoreStats {
            kinds,
            capacity: self.capacity,
        }
    }

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
/// the leader resolves the state; the cell has its own lock, so they wait
/// without holding the store's.
#[derive(Debug)]
struct Inflight<V> {
    state: Mutex<InflightState<V>>,
    ready: Condvar,
}

impl<V> Inflight<V> {
    /// Resolves the cell and wakes its followers.
    fn resolve(&self, state: InflightState<V>) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = state;
        self.ready.notify_all();
    }
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
    store: &'a ArtifactStore<K, V>,
    cell: &'a Inflight<V>,
    key: K,
    armed: bool,
}

impl<K: StoreKey, V> Drop for InflightGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            self.cell.resolve(InflightState::Failed);
            self.store.lock().inflight.remove(&self.key);
        }
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

/// A weight-accounted LRU cache for desynchronization artifacts.
///
/// See the [module documentation](self) for the design. The store is
/// `Sync`: [`ArtifactStore::get_or_try_compute`] serves every access under
/// its one lock and coordinates racing computations of one key through an
/// in-flight registry.
#[derive(Debug)]
pub struct ArtifactStore<K, V> {
    state: Mutex<State<K, V>>,
    capacity: Option<usize>,
}

impl<K, V> ArtifactStore<K, V> {
    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: StoreKey, V: Weigh + Clone> ArtifactStore<K, V> {
    /// Creates a store whose keys classify into `kinds` kinds.
    pub fn new(kinds: usize, config: StoreConfig) -> Self {
        Self {
            state: Mutex::new(State {
                map: HashMap::new(),
                clock: 0,
                resident: 0,
                kinds: vec![StoreKindStats::default(); kinds],
                inflight: HashMap::new(),
            }),
            capacity: config.capacity,
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
    /// additionally increments the kind's `coalesced` counter. A resident
    /// hit refreshes the key's LRU position; a failed computation publishes
    /// nothing but keeps its miss.
    pub fn get_or_try_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, Fetched), E> {
        let mut compute = Some(compute);
        loop {
            // Look up, then join or register the in-flight cell, in one
            // critical section: nothing can publish in between, so the
            // first comer after a miss leads and books the miss.
            let (cell, leader) = {
                let mut state = self.lock();
                if let Some(value) = state.serve(&key) {
                    return Ok((value, Fetched::Hit));
                }
                match state.inflight.get(&key) {
                    Some(cell) => (Arc::clone(cell), false),
                    None => {
                        let cell = Arc::new(Inflight {
                            state: Mutex::new(InflightState::Pending),
                            ready: Condvar::new(),
                        });
                        state.inflight.insert(key, Arc::clone(&cell));
                        state.kinds[key.kind()].misses += 1;
                        (cell, true)
                    }
                }
            };
            if leader {
                let mut guard = InflightGuard {
                    store: self,
                    cell: &cell,
                    key,
                    armed: true,
                };
                // Compute outside every lock; the guard marks the cell
                // failed if this errors or unwinds.
                let value = (compute.take().expect("leader runs compute once"))()?;
                // Unit failpoint at the publication boundary (before the
                // lock, so an injected panic can never poison the store).
                crate::failpoints::hit_unit("store::insert");
                let weight = value.weight().max(1);
                let (published, shared) = (value.clone(), value.clone());
                {
                    let mut state = self.lock();
                    state.insert(key, published, weight, self.capacity);
                    state.inflight.remove(&key);
                }
                cell.resolve(InflightState::Done(shared));
                guard.armed = false;
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
                    let stats = &mut self.lock().kinds[key.kind()];
                    stats.hits += 1;
                    stats.coalesced += 1;
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
        self.capacity
    }

    /// Number of computations currently registered in the in-flight
    /// leader/follower registry.
    ///
    /// Entries live only while a leader computes, so outside an active
    /// `get_or_try_compute` this is zero — the fault-injection suite asserts
    /// exactly that after every faulted batch to prove a panicked leader
    /// never wedges a key.
    pub fn inflight_len(&self) -> usize {
        self.lock().inflight.len()
    }

    /// Drops every resident entry. Counters keep accumulating (a clear is
    /// not an eviction).
    pub fn clear(&self) {
        let mut state = self.lock();
        state.map.clear();
        state.resident = 0;
        for stats in &mut state.kinds {
            stats.entries = 0;
            stats.resident_weight = 0;
        }
    }

    /// Resident weight summed over all kinds.
    pub fn resident_weight(&self) -> usize {
        self.lock().resident
    }

    /// A snapshot of the per-kind counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            kinds: self.lock().kinds.clone(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

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
        ArtifactStore::new(2, StoreConfig { capacity })
    }

    /// Looks `key` up without publishing anything: on a miss the
    /// computation fails, so the miss is booked and nothing is inserted.
    fn get<V: Weigh + Clone>(s: &ArtifactStore<Key, V>, key: Key) -> Option<V> {
        s.get_or_try_compute(key, || Err(()))
            .ok()
            .map(|(value, _)| value)
    }

    /// Publishes `value` under the absent `key`, booking its miss.
    fn insert<V: Weigh + Clone>(s: &ArtifactStore<Key, V>, key: Key, value: V) {
        let (_, how) = s.get_or_try_compute(key, || Ok::<_, ()>(value)).unwrap();
        assert_eq!(how, Fetched::Computed, "{key:?} was resident");
    }

    #[test]
    fn unbounded_store_never_evicts_and_counts_hits() {
        let s = store(None);
        insert(&s, Key(0, 1), Blob(10));
        insert(&s, Key(1, 2), Blob(20));
        assert_eq!(get(&s, Key(0, 1)), Some(Blob(10)));
        assert_eq!(get(&s, Key(1, 2)), Some(Blob(20)));
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
        insert(&s, Key(0, 1), Blob(10));
        insert(&s, Key(0, 2), Blob(10));
        insert(&s, Key(0, 3), Blob(10));
        assert_eq!(s.resident_weight(), 30);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(get(&s, Key(0, 1)).is_some());
        insert(&s, Key(1, 4), Blob(10));
        assert_eq!(s.resident_weight(), 30);
        assert_eq!(get(&s, Key(0, 2)), None, "LRU entry must be evicted");
        assert!(get(&s, Key(0, 1)).is_some());
        assert!(get(&s, Key(0, 3)).is_some());
        assert!(get(&s, Key(1, 4)).is_some());
        let stats = s.stats();
        assert_eq!(stats.kinds[0].evictions, 1);
        assert_eq!(stats.kinds[1].evictions, 0);
    }

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
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
        let s: ArtifactStore<Key, Volatile> = ArtifactStore::new(2, StoreConfig::default());
        insert(&s, Key(0, 1), Volatile(Arc::clone(&armed), 7));
        // Arm the bomb and poison the store lock from a scratch thread: a
        // hit clones the resident value while holding the lock.
        armed.store(true, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _ = get(&s, Key(0, 1));
            });
            assert!(poisoner.join().is_err(), "the clone bomb must have fired");
        });
        // Every later access recovers the poisoned lock and keeps serving.
        assert_eq!(get(&s, Key(0, 1)).map(|v| v.1), Some(7));
        insert(&s, Key(1, 2), Volatile(Arc::clone(&armed), 9));
        assert_eq!(get(&s, Key(1, 2)).map(|v| v.1), Some(9));
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
        insert(&s, Key(0, 1), Blob(10));
        insert(&s, Key(0, 2), Blob(10));
        // A heavy insert evicts as many light entries as needed.
        insert(&s, Key(0, 3), Blob(20));
        assert!(s.resident_weight() <= 25, "{}", s.resident_weight());
        assert!(get(&s, Key(0, 3)).is_some(), "newest entry survives");
        assert!(s.stats().kinds[0].evictions >= 1);
    }

    #[test]
    fn oversized_artifact_is_not_retained() {
        let s = store(Some(10));
        insert(&s, Key(0, 1), Blob(100));
        // Too big for the cache: evicted straight away, so the capacity
        // bound is hard. The publisher keeps its own value, so nothing is
        // lost except reuse.
        assert_eq!(get(&s, Key(0, 1)), None);
        assert_eq!(s.resident_weight(), 0);
        assert_eq!(s.stats().kinds[0].evictions, 1);
        // Smaller values cache normally afterwards.
        insert(&s, Key(0, 2), Blob(5));
        assert_eq!(get(&s, Key(0, 2)), Some(Blob(5)));
        assert_eq!(s.resident_weight(), 5);
    }

    #[test]
    fn default_store_keeps_an_artifact_within_capacity() {
        let s: ArtifactStore<Key, Blob> =
            ArtifactStore::new(1, StoreConfig::default().with_capacity(1_000));
        insert(&s, Key(0, 1), Blob(500));
        assert_eq!(s.resident_weight(), 500);
        assert_eq!(s.stats().total_evictions(), 0);
        assert_eq!(get(&s, Key(0, 1)), Some(Blob(500)));
    }

    #[test]
    fn eviction_is_exact_lru_over_the_whole_capacity() {
        let s: ArtifactStore<Key, Blob> =
            ArtifactStore::new(1, StoreConfig::default().with_capacity(80));
        for id in 0..8 {
            insert(&s, Key(0, id), Blob(10));
        }
        assert_eq!(s.resident_weight(), 80);
        assert_eq!(s.stats().total_evictions(), 0);
        // Touch every key but 3, so 3 is the least recently used.
        for id in (0..8).filter(|&id| id != 3) {
            assert!(get(&s, Key(0, id)).is_some());
        }
        insert(&s, Key(0, 8), Blob(10));
        assert_eq!(s.stats().total_evictions(), 1);
        assert_eq!(get(&s, Key(0, 3)), None, "the untouched key is the victim");
        for id in (0..9).filter(|&id| id != 3) {
            assert!(get(&s, Key(0, id)).is_some(), "key {id} must stay");
        }
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let s = store(None);
        insert(&s, Key(0, 1), Blob(10));
        assert!(get(&s, Key(0, 1)).is_some());
        s.clear();
        assert_eq!(s.resident_weight(), 0);
        let stats = s.stats();
        assert_eq!(stats.kinds[0].entries, 0);
        assert_eq!(stats.kinds[0].hits, 1);
        assert_eq!(stats.kinds[0].misses, 1);
        assert_eq!(get(&s, Key(0, 1)), None);
    }

    #[test]
    fn zero_weight_values_cost_at_least_one_unit() {
        let s = store(None);
        insert(&s, Key(0, 1), Blob(0));
        assert_eq!(s.resident_weight(), 1);
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
