//! Deterministic fault injection for the desynchronization service.
//!
//! The robustness guarantees of [`ServiceQueue`](crate::ServiceQueue) —
//! per-request panic containment, follower retry after a failed store
//! leader, cancellation at stage edges — only matter on paths that are
//! unreachable in a healthy run. This module makes those paths reachable
//! *on demand and reproducibly*: named **failpoints** are compiled into the
//! pipeline at the boundaries where real faults strike, and a test installs
//! a `FaultPlan` saying which sites misbehave, how, and for which
//! requests.
//!
//! Everything here is deterministic by construction:
//!
//! * A plan entry matches on the failpoint **site** and on a request
//!   **tag** — the target netlist's `structural_hash`, a pure function of
//!   the request content. Matching never depends on hit ordinals, thread
//!   identity, or which racing caller became the store leader, so the same
//!   plan fires on the same logical work at 1 worker and at 8, in any
//!   submission order.
//! * Entries are **multi-shot**: every evaluation of a matching site fires.
//!   (One-shot entries would make the *surviving* evaluations depend on
//!   scheduling.) A `FireCount` is still recorded per entry so tests can
//!   assert a fault actually triggered.
//! * [`FaultAction::Delay`] perturbs *scheduling only* (cooperative
//!   `yield_now` loops) — no wall-clock sleeps, no entropy. A delayed run
//!   must produce bit-identical results; the suite asserts exactly that.
//! * `FaultPlan::seeded` derives a pseudo-random plan from a caller
//!   seed via a xorshift generator, so "random" fault campaigns are
//!   replayable from a single `u64`.
//!
//! # Failpoint catalog
//!
//! | site | boundary | actions |
//! |---|---|---|
//! | `stage::clustered` | Clustered-stage compute | panic, error, delay |
//! | `stage::latched` | Latched-stage compute | panic, error, delay |
//! | `stage::timed` | Timed-stage compute (before STA/sizing) | panic, error, delay |
//! | `stage::controlled` | Controlled-stage compute | panic, error, delay |
//! | `sim::commit` | After equivalence simulation, before the verified report is committed | panic, error, delay |
//! | `store::insert` | Artifact publication in [`ArtifactStore::get_or_try_compute`](crate::store::ArtifactStore::get_or_try_compute) | panic (error escalates to panic), delay |
//!
//! `store::insert` is a *unit* site — it sits on a path with no `Result`
//! channel, so an `Error` action escalates to a panic there (which the
//! containment machinery must still turn into a typed per-request outcome;
//! that is the point of injecting it).
//!
//! # Feature gating
//!
//! The real implementation compiles only under the `failpoints` cargo
//! feature; the default build gets `#[inline]` no-op stubs, so production
//! code pays nothing. The feature is additive and kept out of default
//! builds; CI runs the fault-injection suite with
//! `--features failpoints` as a dedicated step.

use crate::error::DesyncError;

/// What a matching failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a message naming the site — exercises `catch_unwind`
    /// containment and the store's failed-leader handoff.
    Panic,
    /// Return [`DesyncError::FaultInjected`] from the site (escalates to a
    /// panic at unit sites, which have no error channel).
    Error,
    /// Yield the thread a deterministic number of times — perturbs
    /// scheduling without changing any result.
    Delay,
}

/// Matches any request tag (see `FaultPlan::with_fault`).
pub const ANY_TAG: u64 = 0;

#[cfg(feature = "failpoints")]
mod imp {
    use super::{DesyncError, FaultAction, ANY_TAG};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, PoisonError, RwLock};

    /// One armed failpoint of a [`FaultPlan`].
    #[derive(Debug)]
    pub struct FaultEntry {
        /// The failpoint site this entry arms (e.g. `"stage::timed"`).
        pub site: &'static str,
        /// Request tag the entry targets: the netlist `structural_hash` of
        /// the request it should strike, or [`ANY_TAG`] for all requests.
        pub tag: u64,
        /// What happens when the site evaluates under a matching tag.
        pub action: FaultAction,
        fired: AtomicUsize,
    }

    impl FaultEntry {
        /// How many times this entry has fired since installation.
        pub fn fired(&self) -> usize {
            self.fired.load(Ordering::SeqCst)
        }
    }

    /// Snapshot of one entry's fire count, see [`FaultScope::fire_counts`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FireCount {
        /// The armed site.
        pub site: &'static str,
        /// The armed tag ([`ANY_TAG`] = all requests).
        pub tag: u64,
        /// The armed action.
        pub action: FaultAction,
        /// Times the entry fired while the scope was installed.
        pub fired: usize,
    }

    /// A deterministic schedule of injected faults.
    ///
    /// Install with [`FaultScope::install`]; evaluation is documented on
    /// the [module](super).
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        entries: Vec<FaultEntry>,
    }

    /// The failpoint sites that accept a full action set (used by seeded
    /// campaigns; the unit site `store::insert` is included — its `Error`
    /// draws escalate to panics by design).
    pub const SITES: [&str; 6] = [
        "stage::clustered",
        "stage::latched",
        "stage::timed",
        "stage::controlled",
        "sim::commit",
        "store::insert",
    ];

    impl FaultPlan {
        /// An empty plan (no faults fire).
        pub fn new() -> Self {
            Self::default()
        }

        /// Arms `site` with `action` for requests whose tag is `tag`
        /// ([`ANY_TAG`] matches every request). Entries are multi-shot:
        /// every matching evaluation fires.
        pub fn with_fault(mut self, site: &'static str, tag: u64, action: FaultAction) -> Self {
            self.entries.push(FaultEntry {
                site,
                tag,
                action,
                fired: AtomicUsize::new(0),
            });
            self
        }

        /// Derives a pseudo-random plan from `seed`: `count` entries drawn
        /// over the site catalog, the given request tags, and all three
        /// actions. The same seed always yields the same plan — a failed
        /// campaign is replayed from one `u64`.
        pub fn seeded(seed: u64, count: usize, tags: &[u64]) -> Self {
            let mut state = seed.wrapping_mul(2685821657736338717).max(1);
            let mut next = move || {
                // xorshift64: deterministic, no_std-grade, good enough for
                // drawing schedule entries.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut plan = Self::new();
            for _ in 0..count {
                let site = SITES[(next() % SITES.len() as u64) as usize];
                let tag = if tags.is_empty() {
                    ANY_TAG
                } else {
                    tags[(next() % tags.len() as u64) as usize]
                };
                let action = match next() % 3 {
                    0 => FaultAction::Panic,
                    1 => FaultAction::Error,
                    _ => FaultAction::Delay,
                };
                plan = plan.with_fault(site, tag, action);
            }
            plan
        }

        /// The armed entries, in installation order.
        pub fn entries(&self) -> &[FaultEntry] {
            &self.entries
        }
    }

    /// The installed plan. `RwLock` so the hot path (every failpoint
    /// evaluation in every worker) takes a read lock only.
    static INSTALLED: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

    /// Serializes fault campaigns: `cargo test` runs tests concurrently in
    /// one process, and the installed plan is process-global state.
    static CAMPAIGN: Mutex<()> = Mutex::new(());

    thread_local! {
        /// The tag of the request this thread is currently executing
        /// (0 = no request context; matches only [`ANY_TAG`] entries).
        static CURRENT_TAG: Cell<u64> = const { Cell::new(0) };
    }

    /// Installs `plan` for the duration of the returned scope guard.
    ///
    /// Scopes serialize process-wide (a second `install` blocks until the
    /// first scope drops), because the installed plan is global: without
    /// this, concurrently running `cargo test` campaigns would observe each
    /// other's faults.
    #[must_use = "the plan is uninstalled when the scope drops"]
    pub struct FaultScope {
        plan: Arc<FaultPlan>,
        _campaign: std::sync::MutexGuard<'static, ()>,
    }

    impl FaultScope {
        /// Installs `plan` globally until the returned guard drops.
        pub fn install(plan: FaultPlan) -> Self {
            let campaign = CAMPAIGN.lock().unwrap_or_else(PoisonError::into_inner);
            let plan = Arc::new(plan);
            *INSTALLED.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&plan));
            Self {
                plan,
                _campaign: campaign,
            }
        }

        /// The installed plan (for fire-count assertions).
        pub fn plan(&self) -> &FaultPlan {
            &self.plan
        }

        /// Fire-count snapshot of every armed entry, in installation order.
        pub fn fire_counts(&self) -> Vec<FireCount> {
            self.plan
                .entries
                .iter()
                .map(|e| FireCount {
                    site: e.site,
                    tag: e.tag,
                    action: e.action,
                    fired: e.fired(),
                })
                .collect()
        }

        /// Total fires across all entries.
        pub fn total_fired(&self) -> usize {
            self.plan.entries.iter().map(|e| e.fired()).sum()
        }
    }

    impl Drop for FaultScope {
        fn drop(&mut self) {
            *INSTALLED.write().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// Runs `f` with the thread's request tag set to `tag` (restoring the
    /// previous tag afterwards, even on unwind).
    pub fn with_tag<R>(tag: u64, f: impl FnOnce() -> R) -> R {
        struct Restore(u64);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT_TAG.with(|t| t.set(self.0));
            }
        }
        let _restore = CURRENT_TAG.with(|t| {
            let prev = t.get();
            t.set(tag);
            Restore(prev)
        });
        f()
    }

    /// The tag of the request this thread is currently executing (0 when
    /// outside request context).
    pub fn current_tag() -> u64 {
        CURRENT_TAG.with(|t| t.get())
    }

    fn matching_action(site: &str, tag: u64) -> Option<FaultAction> {
        let installed = INSTALLED.read().unwrap_or_else(PoisonError::into_inner);
        let plan = installed.as_ref()?;
        for entry in &plan.entries {
            if entry.site == site && (entry.tag == ANY_TAG || entry.tag == tag) {
                entry.fired.fetch_add(1, Ordering::SeqCst);
                return Some(entry.action);
            }
        }
        None
    }

    fn delay() {
        // Scheduling perturbation only: enough yields to let racing threads
        // reorder, zero effect on results.
        for _ in 0..64 {
            std::thread::yield_now();
        }
    }

    /// Evaluates the failpoint `site` under the current thread's tag.
    /// Result-channel sites call this and propagate the error.
    pub fn hit(site: &'static str) -> Result<(), DesyncError> {
        match matching_action(site, current_tag()) {
            Some(FaultAction::Panic) => panic!("injected panic at failpoint '{site}'"),
            Some(FaultAction::Error) => Err(DesyncError::FaultInjected { site }),
            Some(FaultAction::Delay) => {
                delay();
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Evaluates a *unit* failpoint (no error channel): `Error` escalates
    /// to a panic, like `Panic`.
    pub fn hit_unit(site: &'static str) {
        match matching_action(site, current_tag()) {
            Some(FaultAction::Panic) | Some(FaultAction::Error) => {
                panic!("injected panic at failpoint '{site}'")
            }
            Some(FaultAction::Delay) => delay(),
            None => {}
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{
    current_tag, hit, hit_unit, with_tag, FaultEntry, FaultPlan, FaultScope, FireCount, SITES,
};

#[cfg(not(feature = "failpoints"))]
mod noop {
    use super::DesyncError;

    /// No-op failpoint evaluation (the `failpoints` feature is off).
    #[inline(always)]
    pub fn hit(_site: &'static str) -> Result<(), DesyncError> {
        Ok(())
    }

    /// No-op unit failpoint evaluation.
    #[inline(always)]
    pub fn hit_unit(_site: &'static str) {}

    /// The ambient request tag is always 0 with the feature off.
    #[inline(always)]
    pub fn current_tag() -> u64 {
        0
    }

    /// Runs `f` directly (tags are not tracked with the feature off).
    #[inline(always)]
    pub fn with_tag<R>(_tag: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
}

#[cfg(not(feature = "failpoints"))]
pub use noop::{current_tag, hit, hit_unit, with_tag};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn uninstalled_failpoints_are_inert() {
        assert_eq!(hit("stage::timed"), Ok(()));
        hit_unit("store::insert");
    }

    #[test]
    fn entries_match_by_site_and_tag() {
        let scope = FaultScope::install(
            FaultPlan::new()
                .with_fault("stage::timed", 42, FaultAction::Error)
                .with_fault("sim::commit", ANY_TAG, FaultAction::Delay),
        );
        // Wrong site, wrong tag: inert.
        assert_eq!(hit("stage::clustered"), Ok(()));
        assert_eq!(with_tag(7, || hit("stage::timed")), Ok(()));
        // Matching site + tag: fires, multi-shot.
        for _ in 0..3 {
            assert_eq!(
                with_tag(42, || hit("stage::timed")),
                Err(DesyncError::FaultInjected {
                    site: "stage::timed"
                })
            );
        }
        // ANY_TAG matches with and without request context.
        assert_eq!(hit("sim::commit"), Ok(()));
        assert_eq!(with_tag(9, || hit("sim::commit")), Ok(()));
        let counts = scope.fire_counts();
        assert_eq!(counts[0].fired, 3);
        assert_eq!(counts[1].fired, 2);
        assert_eq!(scope.total_fired(), 5);
    }

    #[test]
    fn unit_sites_escalate_error_to_panic() {
        let _scope = FaultScope::install(FaultPlan::new().with_fault(
            "store::insert",
            ANY_TAG,
            FaultAction::Error,
        ));
        let err = std::panic::catch_unwind(|| hit_unit("store::insert")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("store::insert"), "{msg}");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(0xDECAF, 16, &[1, 2, 3]);
        let b = FaultPlan::seeded(0xDECAF, 16, &[1, 2, 3]);
        assert_eq!(a.entries().len(), 16);
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!((x.site, x.tag, x.action), (y.site, y.tag, y.action));
        }
        let c = FaultPlan::seeded(0xBEEF, 16, &[1, 2, 3]);
        let differs = a
            .entries()
            .iter()
            .zip(c.entries())
            .any(|(x, y)| (x.site, x.tag, x.action) != (y.site, y.tag, y.action));
        assert!(differs, "different seeds should draw different plans");
    }

    #[test]
    fn with_tag_restores_on_unwind() {
        let _ = std::panic::catch_unwind(|| with_tag(5, || panic!("boom")));
        assert_eq!(current_tag(), 0);
    }
}
