//! Sharded concurrent memo tables for the phase-3 distance oracle.
//!
//! The oracle's memo used to be a plain `HashMap` behind `&mut self`,
//! which serialises every worker on one lock and hashes with SipHash —
//! overkill for keys that are already well-mixed packed node ids. This
//! module provides the replacement: a fixed array of mutex-guarded
//! shards (lock contention drops by the shard count) with a
//! multiply-xor hasher in the Fx/wyhash family (a few cycles per key,
//! no DoS-resistance needed for internal node ids).
//!
//! Values are computed *under the shard lock*
//! ([`ShardedMap::get_or_insert_with`]), so concurrent requests for the
//! same key compute exactly once — this keeps the oracle's
//! `sp_computations` counter equal to the number of distinct keys, the
//! same total a sequential run reports.

use neat_runctl::Lock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard};

/// Multiply-xor hasher for already-compact integer keys.
///
/// `finish` folds the high bits back down so shard selection (which
/// uses the top bits) and bucket selection (low bits) both see mixed
/// input. Not DoS-resistant by design: keys are internal node ids.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// Odd multiplier from the Fx family (0x51_7c_c1_b7_27_22_0a_95).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        // One final avalanche round (xor-shift) so the top bits used
        // for shard selection depend on every input bit.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(SEED);
        h ^= h >> 29;
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash ^ v).wrapping_mul(SEED);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// Number of shards; a power of two so shard selection is a mask.
const SHARDS: usize = 32;

/// A concurrent `u64 → V` map sharded across [`SHARDS`] mutexes.
pub struct ShardedMap<V> {
    shards: Vec<Mutex<HashMap<u64, V, FxBuild>>>,
}

impl<V> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ShardedMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> MutexGuard<'_, HashMap<u64, V, FxBuild>> {
        let mixed = key.wrapping_mul(SEED);
        let idx = (mixed >> 58) as usize & (SHARDS - 1);
        // A poisoned shard means another worker panicked; that panic
        // propagates through the executor join, so riding through here
        // never hides a failure.
        self.shards[idx].enter()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.shards[i].enter().len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> ShardedMap<V> {
    /// The cached value for `key`, if present.
    pub fn get(&self, key: u64) -> Option<V> {
        self.shard(key).get(&key).cloned()
    }

    /// Returns the cached value for `key`, computing and inserting it
    /// under the shard lock when absent. `compute` runs at most once
    /// per key across all threads; the returned flag is `true` when
    /// this call performed the computation.
    pub fn get_or_insert_with(&self, key: u64, compute: impl FnOnce() -> V) -> (V, bool) {
        let mut shard = self.shard(key);
        if let Some(v) = shard.get(&key) {
            return (v.clone(), false);
        }
        let v = compute();
        shard.insert(key, v.clone());
        (v, true)
    }

    /// Fallible [`ShardedMap::get_or_insert_with`]: an `Err` from
    /// `compute` is returned without inserting anything, so an
    /// interrupted computation never caches a partial result.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let mut shard = self.shard(key);
        if let Some(v) = shard.get(&key) {
            return Ok((v.clone(), false));
        }
        let v = compute()?;
        shard.insert(key, v.clone());
        Ok((v, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_once_per_key() {
        let m: ShardedMap<u64> = ShardedMap::new();
        let (v, fresh) = m.get_or_insert_with(7, || 42);
        assert_eq!((v, fresh), (42, true));
        let (v, fresh) = m.get_or_insert_with(7, || unreachable!("must be cached"));
        assert_eq!((v, fresh), (42, false));
        assert_eq!(m.get(7), Some(42));
        assert_eq!(m.get(8), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn failed_compute_inserts_nothing() {
        let m: ShardedMap<u64> = ShardedMap::new();
        let r: Result<_, &str> = m.try_get_or_insert_with(1, || Err("interrupted"));
        assert!(r.is_err());
        assert!(m.is_empty());
        let r: Result<_, &str> = m.try_get_or_insert_with(1, || Ok(5));
        assert_eq!(r.ok(), Some((5, true)));
    }

    #[test]
    fn concurrent_compute_happens_once() {
        let m: ShardedMap<u64> = ShardedMap::new();
        let hits = std::sync::atomic::AtomicU64::new(0);
        crossbeam::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    for k in 0..100u64 {
                        let (_, fresh) = m.get_or_insert_with(k, || {
                            hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            k * 3
                        });
                        let _ = fresh;
                    }
                });
            }
        })
        .expect("no worker panics");
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 100);
        assert_eq!(m.len(), 100);
        for k in 0..100 {
            assert_eq!(m.get(k), Some(k * 3));
        }
    }

    #[test]
    fn hasher_spreads_sequential_keys() {
        // Sanity: packed sequential node ids should not all land in one
        // shard (the old failure mode of identity hashing + masking).
        let m: ShardedMap<u64> = ShardedMap::new();
        for k in 0..SHARDS as u64 * 4 {
            m.get_or_insert_with(k << 32 | (k + 1), || k);
        }
        let occupied = (0..SHARDS)
            .filter(|&i| !m.shards[i].enter().is_empty())
            .count();
        assert!(occupied > SHARDS / 4, "keys clumped into {occupied} shards");
    }
}
