//! Compiled-circuit cache: memoizes the transpile + lowering front half of
//! deployment per `(block circuit, device calibration, transpile level)`.
//!
//! Repeated served inference — the QuantumNAT workload — re-deploys the
//! same §4.2 QNN blocks against the same device over and over; routing,
//! noise-adaptive layout and symbolic lowering dominate that setup cost.
//! A [`PlanCache`] keyed on content fingerprints lets every deployment
//! after the first skip the compiler entirely.
//!
//! ## Keying and invalidation
//!
//! * **Circuit**: [`Circuit::fingerprint`](qnat_sim::circuit::Circuit::fingerprint)
//!   of the block's *logical* template — register size, gate kinds, qubit
//!   targets and exact parameter bits. Trainable parameters are rebound
//!   per row through [`SymbolicLowered::bind`], so a cached plan is valid
//!   for any binding of the same template.
//! * **Device**: [`DeviceModel::fingerprint`](qnat_noise::device::DeviceModel::fingerprint)
//!   over the full calibration JSON. Any drift, rescale or recalibration
//!   changes the fingerprint, which is exactly the invalidation rule the
//!   noise-adaptive layout (transpile level 3) needs: a layout chosen for
//!   stale calibration can never be served against fresh calibration.
//! * **Level**: the transpile optimization level, since levels produce
//!   different routings.
//!
//! Cache hits return the *same* [`BlockPlan`] (shared `Arc`), so a hit can
//! never change results — replay determinism is preserved by construction.
//!
//! [`SymbolicLowered::bind`]: qnat_compiler::symbolic::SymbolicLowered::bind

use crate::infer::BlockPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: content fingerprints of everything the compiled plan
/// depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Fingerprint of the logical block circuit (structure + param bits).
    pub circuit: u64,
    /// Fingerprint of the device calibration state.
    pub device: u64,
    /// Transpile optimization level.
    pub opt_level: u8,
}

/// Hit/miss counters of a [`PlanCache`], taken atomically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// A thread-safe memo table from [`PlanKey`] to compiled [`BlockPlan`]s.
///
/// Intended to be shared (`Arc<PlanCache>`) across serving deployments and
/// fleet devices; compilation runs outside the lock so concurrent misses
/// never serialize behind each other.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: Mutex<HashMap<PlanKey, Arc<BlockPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Looks up `key`, compiling with `build` on a miss.
    ///
    /// `build` runs *outside* the lock; if two threads miss the same key
    /// concurrently both compile, and the first insert wins — harmless,
    /// because compilation is deterministic (equal keys ⇒ equal plans).
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error on a miss; nothing is cached then.
    pub fn get_or_insert_with<E>(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<BlockPlan, E>,
    ) -> Result<Arc<BlockPlan>, E> {
        if let Some(plan) = self.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build()?);
        let mut map = self.lock();
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&plan));
        Ok(Arc::clone(entry))
    }

    /// Snapshot of the hit/miss counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compile so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drops every cached plan (counters keep running).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PlanKey, Arc<BlockPlan>>> {
        // Plans are write-once values; a panic while holding the lock
        // cannot leave one half-updated, so a poisoned lock is still safe
        // to read through.
        match self.map.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Qnn, QnnConfig};
    use qnat_noise::presets;

    #[test]
    fn hit_returns_the_same_arc() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 1, 2), 3);
        let device = presets::santiago();
        let cache = PlanCache::new();
        let a = qnn.route_plan_cached(&device, 2, &cache).unwrap();
        let before = cache.stats();
        assert_eq!(before.hits, 0);
        assert_eq!(before.misses as usize, qnn.blocks().len());
        let b = qnn.route_plan_cached(&device, 2, &cache).unwrap();
        let after = cache.stats();
        assert_eq!(after.hits as usize, qnn.blocks().len());
        assert_eq!(after.misses, before.misses);
        // Identical plans — and bitwise identical outputs follow.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.obs, y.obs);
            assert_eq!(x.lowered.circuit, y.lowered.circuit);
        }
    }

    #[test]
    fn cached_plans_match_uncached_route_plan() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 2, 2), 7);
        let device = presets::yorktown();
        let cache = PlanCache::new();
        for level in [0u8, 2, 3] {
            let cached = qnn.route_plan_cached(&device, level, &cache).unwrap();
            let plain = qnn.route_plan(&device, level).unwrap();
            assert_eq!(cached.len(), plain.len());
            for (c, p) in cached.iter().zip(&plain) {
                assert_eq!(c.lowered.circuit, p.lowered.circuit);
                assert_eq!(c.obs, p.obs);
                assert_eq!(c.view.to_json(), p.view.to_json());
            }
        }
    }

    #[test]
    fn drifted_device_invalidates_plans() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 1, 2), 3);
        let device = presets::santiago();
        let cache = PlanCache::new();
        qnn.route_plan_cached(&device, 3, &cache).unwrap();
        let misses = cache.misses();
        // Same device again: all hits.
        qnn.route_plan_cached(&device, 3, &cache).unwrap();
        assert_eq!(cache.misses(), misses);
        // Drifted calibration: the level-3 noise-adaptive layout may move,
        // so every block must recompile.
        qnn.route_plan_cached(&device.drifted(2.0, 1.0), 3, &cache)
            .unwrap();
        assert_eq!(
            cache.misses() as usize,
            misses as usize + qnn.blocks().len()
        );
        // Different opt level is also a distinct key.
        qnn.route_plan_cached(&device, 1, &cache).unwrap();
        assert_eq!(
            cache.misses() as usize,
            misses as usize + 2 * qnn.blocks().len()
        );
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 1, 2), 3);
        let device = presets::santiago();
        let cache = PlanCache::new();
        qnn.route_plan_cached(&device, 2, &cache).unwrap();
        assert!(!cache.is_empty());
        let misses = cache.misses();
        cache.clear();
        assert!(cache.is_empty());
        qnn.route_plan_cached(&device, 2, &cache).unwrap();
        assert_eq!(cache.misses(), misses + qnn.blocks().len() as u64);
    }
}
