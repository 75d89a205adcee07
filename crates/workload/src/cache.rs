//! Shared trace cache: each workload trace is kept once per batch.
//!
//! A paper-style sweep varies the scheduler (and its suspension factor)
//! over a fixed `(system, jobs, load, seed, estimate-model)` trace, so a
//! 4-scheduler × 5-SF grid regenerates the identical job list twenty
//! times. [`TraceCache`] memoizes generation behind an [`Arc<[Job]>`]: the
//! first requester of a [`TraceKey`] pays the generation cost, later ones
//! clone a pointer. The cache is thread-safe (the sweep harness shares one
//! across its worker threads) and generation runs outside the lock, so a
//! cold grid never serializes on it. The price is that concurrent first
//! requests for one key may each generate it; the traces are identical,
//! the first insertion is kept, and each such request counts as a miss.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::estimate::EstimateModel;
use crate::job::Job;
use crate::traces::SystemPreset;

/// Everything that determines a generated trace's bytes. Floating-point
/// parameters are keyed by their IEEE bit patterns, so two configurations
/// share a cache entry exactly when they would generate identical traces.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceKey {
    /// Preset name (presets are static, so the name identifies the mix).
    pub system: &'static str,
    /// Trace length in jobs.
    pub n_jobs: usize,
    /// Generator seed.
    pub seed: u64,
    /// `f64::to_bits` of the load factor.
    pub load_bits: u64,
    /// Estimate model discriminant plus its parameters' bit patterns.
    pub estimates: (u8, u64, u64),
}

impl TraceKey {
    /// Key for a synthetic trace of `n_jobs` jobs on `system` at
    /// `load_factor`, with user estimates drawn from `estimates`.
    pub fn new(
        system: SystemPreset,
        n_jobs: usize,
        seed: u64,
        load_factor: f64,
        estimates: &EstimateModel,
    ) -> Self {
        let est = match *estimates {
            EstimateModel::Accurate => (0u8, 0u64, 0u64),
            EstimateModel::Mixture {
                well_fraction,
                max_factor,
            } => (1, well_fraction.to_bits(), max_factor.to_bits()),
            EstimateModel::RoundedMixture {
                well_fraction,
                max_factor,
            } => (2, well_fraction.to_bits(), max_factor.to_bits()),
        };
        TraceKey {
            system: system.name,
            n_jobs,
            seed,
            load_bits: load_factor.to_bits(),
            estimates: est,
        }
    }
}

/// A memoized map from [`TraceKey`] to immutable shared traces. Every
/// generated trace stays resident until the cache is dropped; callers
/// hold one cache per batch, which revisits a handful of traces.
#[derive(Default)]
pub struct TraceCache {
    map: Mutex<HashMap<TraceKey, Arc<[Job]>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The trace for `key`, generating it with `generate` on first
    /// request. Generation runs outside the lock; if two threads race on
    /// a cold key, both generate (deterministically identical) traces and
    /// the first insertion wins.
    pub fn get_or_generate(
        &self,
        key: TraceKey,
        generate: impl FnOnce() -> Vec<Job>,
    ) -> Arc<[Job]> {
        if let Some(hit) = self.map.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        let fresh: Arc<[Job]> = generate().into();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock().expect("cache lock");
        Arc::clone(map.entry(key).or_insert(fresh))
    }

    /// Distinct traces currently resident.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to generate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The trace for `key` as a caching [`JobSource`](crate::JobSource):
    /// the first request generates, later requests replay the shared
    /// `Arc<[Job]>` without a copy. This is how sweep workers feed cached
    /// traces through the same source seam open-system generators use.
    pub fn source(
        &self,
        key: TraceKey,
        generate: impl FnOnce() -> Vec<Job>,
    ) -> crate::source::TraceSource {
        crate::source::TraceSource::shared(self.get_or_generate(key, generate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;
    use crate::traces::SDSC;

    fn gen(seed: u64) -> Vec<Job> {
        SyntheticConfig::new(SDSC, seed).with_jobs(50).generate()
    }

    #[test]
    fn caches_by_key_and_counts() {
        let cache = TraceCache::new();
        let key = TraceKey::new(SDSC, 50, 7, 1.0, &EstimateModel::Accurate);
        let a = cache.get_or_generate(key, || gen(7));
        let b = cache.get_or_generate(key, || panic!("second request must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));

        let other = TraceKey::new(SDSC, 50, 8, 1.0, &EstimateModel::Accurate);
        let c = cache.get_or_generate(other, || gen(8));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn keys_separate_estimate_models_and_loads() {
        let mix = EstimateModel::Mixture {
            well_fraction: 0.5,
            max_factor: 10.0,
        };
        let base = TraceKey::new(SDSC, 50, 7, 1.0, &EstimateModel::Accurate);
        assert_ne!(base, TraceKey::new(SDSC, 50, 7, 1.0, &mix));
        assert_ne!(
            base,
            TraceKey::new(SDSC, 50, 7, 1.25, &EstimateModel::Accurate)
        );
        assert_eq!(
            base,
            TraceKey::new(SDSC, 50, 7, 1.0, &EstimateModel::Accurate)
        );
    }

    #[test]
    fn shared_trace_is_concurrently_reachable() {
        let cache = TraceCache::new();
        let key = TraceKey::new(SDSC, 50, 3, 1.0, &EstimateModel::Accurate);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let t = cache.get_or_generate(key, || gen(3));
                    assert_eq!(t.len(), 50);
                });
            }
        });
        assert_eq!(cache.len(), 1, "one entry regardless of racing requesters");
    }
}
