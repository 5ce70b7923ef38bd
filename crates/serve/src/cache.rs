//! Cache of frozen [`SessionArtifacts`], keyed by what they depend on.
//!
//! The static stage (elaboration + def-use analysis + automaton build) is
//! by far the most expensive part of a request on small batches, and it
//! depends only on the design source and its elaboration parameters. The
//! server keys artifacts by the request's [`DesignRef`](crate::DesignRef),
//! which names exactly that (each design's source is fixed), compares keys
//! for equality, never by hash, and shares the artifacts across tenants
//! via `Arc`.
//!
//! The cache is bounded (a segmented LRU): once `capacity` distinct
//! designs are resident, the **least-recently-used** entry not hit since
//! its insertion is evicted, or the least-recently-used entry when every
//! one was hit. A lookup promotes its entry to most-recently-used and
//! protects it; at most half the cache is protected, so protecting one
//! more unprotects the least-recently-used protected entry and moves it
//! to most-recently-used, behind every other unprotected entry. A hot
//! design interleaved with one-off designs therefore stays resident
//! however many distinct keys pass through between two of its hits, and
//! one that loses its protection to a burst of hits on rarer designs is
//! evicted only after the unprotected entries older than it.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dft_core::{obs, SessionArtifacts};

struct Entry<K> {
    key: K,
    artifacts: Arc<SessionArtifacts>,
    /// Hit since it was inserted; evicted only when nothing else is.
    protected: bool,
}

/// A bounded, thread-safe artifact cache over keys of type `K`.
pub struct ArtifactCache<K> {
    entries: Mutex<VecDeque<Entry<K>>>,
    capacity: usize,
}

impl<K: PartialEq> ArtifactCache<K> {
    /// Creates a cache holding at most `capacity` designs (min 1).
    pub fn new(capacity: usize) -> ArtifactCache<K> {
        ArtifactCache {
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`, or builds the artifacts with `build` on a miss.
    ///
    /// Returns `(artifacts, warm)` where `warm` reports whether this was
    /// a cache hit — surfaced in responses so clients (and the latency
    /// experiment) can attribute cold-start cost. `build` runs outside
    /// the lock, so a slow elaboration never blocks concurrent lookups of
    /// other designs; two racing cold requests for the *same* design may
    /// both build, and the first insert wins.
    pub fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<Arc<SessionArtifacts>, E>,
    ) -> Result<(Arc<SessionArtifacts>, bool), E> {
        static HITS: obs::Counter = obs::Counter::new("serve.cache.hits");
        static MISSES: obs::Counter = obs::Counter::new("serve.cache.misses");
        static EVICTIONS: obs::Counter = obs::Counter::new("serve.cache.evictions");
        if let Some(found) = self.lookup(&key) {
            HITS.add(1);
            return Ok((found, true));
        }
        MISSES.add(1);
        let built = build()?;
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(raced) = entries.iter().find(|e| e.key == key) {
            // Another worker built the same design while we did; keep the
            // resident copy so all sessions share one automaton.
            return Ok((Arc::clone(&raced.artifacts), false));
        }
        while entries.len() >= self.capacity {
            let victim = entries.iter().position(|e| !e.protected).unwrap_or(0);
            entries.remove(victim);
            EVICTIONS.add(1);
        }
        entries.push_back(Entry {
            key,
            artifacts: Arc::clone(&built),
            protected: false,
        });
        Ok((built, false))
    }

    /// Finds `key`, promotes it to most-recently-used (back of the
    /// eviction queue) and protects it, so constant hitters survive churn
    /// from one-off designs. Protecting a half-protected cache first
    /// unprotects the least-recently-used protected entry and moves it to
    /// the back.
    fn lookup(&self, key: &K) -> Option<Arc<SessionArtifacts>> {
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let pos = entries.iter().position(|e| e.key == *key)?;
        let mut entry = entries.remove(pos).expect("position came from this deque");
        if !entry.protected && entries.iter().filter(|e| e.protected).count() >= self.capacity / 2 {
            if let Some(oldest) = entries.iter().position(|e| e.protected) {
                let mut demoted = entries
                    .remove(oldest)
                    .expect("position came from this deque");
                demoted.protected = false;
                entries.push_back(demoted);
            }
        }
        entry.protected = true;
        let found = Arc::clone(&entry.artifacts);
        entries.push_back(entry);
        Some(found)
    }

    /// Number of resident designs.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::probe_design;
    use dft_core::SessionConfig;

    fn build_probe() -> Result<Arc<SessionArtifacts>, String> {
        let design = probe_design().map_err(|e| e.to_string())?;
        Ok(SessionArtifacts::build_with(
            design,
            &SessionConfig::from_env(),
        ))
    }

    #[test]
    fn second_lookup_is_warm_and_shares_the_arc() {
        let cache = ArtifactCache::new(4);
        let (cold, warm) = cache.get_or_build(42, build_probe).unwrap();
        assert!(!warm);
        let (hit, warm) = cache
            .get_or_build(42, || -> Result<_, String> {
                panic!("warm path must not rebuild")
            })
            .unwrap();
        assert!(warm);
        assert!(Arc::ptr_eq(&cold, &hit));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_residency() {
        let cache = ArtifactCache::new(2);
        for key in 0..5u64 {
            cache.get_or_build(key, build_probe).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // Least-recently-used evicted: key 3 and 4 remain.
        let (_, warm) = cache.get_or_build(4, build_probe).unwrap();
        assert!(warm);
        let (_, warm) = cache.get_or_build(0, build_probe).unwrap();
        assert!(!warm, "key 0 was evicted");
    }

    #[test]
    fn hot_entry_survives_capacity_many_distinct_inserts() {
        // The LRU regression: a repeatedly-hit design must stay resident
        // while capacity-many (and more) one-off designs churn through.
        // Under the old FIFO policy the hot entry was evicted regardless
        // of its hits.
        let cache = ArtifactCache::new(2);
        let (hot, _) = cache.get_or_build(100, build_probe).unwrap();
        for key in 0..4u64 {
            cache.get_or_build(key, build_probe).unwrap();
            let (again, warm) = cache
                .get_or_build(100, || -> Result<_, String> {
                    panic!("hot entry must never rebuild")
                })
                .unwrap();
            assert!(warm, "hot entry evicted after one-off insert {key}");
            assert!(Arc::ptr_eq(&hot, &again));
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hot_entry_survives_a_burst_of_more_one_offs_than_the_capacity() {
        // Plain LRU evicted a hot design once capacity-many one-off
        // designs passed through between two of its hits.
        let cache = ArtifactCache::new(4);
        let (hot, _) = cache.get_or_build(100, build_probe).unwrap();
        cache.get_or_build(100, build_probe).unwrap();
        for key in 0..10u64 {
            cache.get_or_build(key, build_probe).unwrap();
        }
        let (again, warm) = cache
            .get_or_build(100, || -> Result<_, String> {
                panic!("hot entry must never rebuild")
            })
            .unwrap();
        assert!(warm && Arc::ptr_eq(&hot, &again));
        assert_eq!(cache.len(), 4);
        // One-offs still rotate through the unprotected slots.
        let (_, warm) = cache.get_or_build(9, build_probe).unwrap();
        assert!(warm, "the latest one-off is resident");
        let (_, warm) = cache.get_or_build(0, build_probe).unwrap();
        assert!(!warm, "the oldest one-off was evicted");
    }

    #[test]
    fn at_most_half_the_cache_is_protected() {
        let cache = ArtifactCache::new(4);
        for key in 0..3u64 {
            cache.get_or_build(key, build_probe).unwrap();
            cache.get_or_build(key, build_probe).unwrap();
        }
        // Protecting key 2 unprotected key 0, the oldest protected entry,
        // so the next insert evicts it rather than a recently hit design.
        cache.get_or_build(3, build_probe).unwrap();
        cache.get_or_build(4, build_probe).unwrap();
        let (_, warm) = cache.get_or_build(1, build_probe).unwrap();
        assert!(warm, "key 1 stayed protected");
        let (_, warm) = cache.get_or_build(0, build_probe).unwrap();
        assert!(!warm, "key 0 lost its protection and was evicted");
    }

    #[test]
    fn an_entry_that_loses_its_protection_outlives_older_one_offs() {
        // Hits on rarer designs can take a hot design's protection while
        // older one-offs sit ahead of it in the eviction queue; it must
        // not be the next victim.
        let cache = ArtifactCache::new(4);
        let hot = |cache: &ArtifactCache<u64>| cache.get_or_build(100, build_probe).unwrap().1;
        hot(&cache);
        assert!(hot(&cache));
        cache.get_or_build(1, build_probe).unwrap();
        for key in [2u64, 3] {
            cache.get_or_build(key, build_probe).unwrap();
            cache.get_or_build(key, build_probe).unwrap();
        }
        // Protecting key 3 unprotected the hot design; key 4 evicts the
        // older one-off, key 1.
        cache.get_or_build(4, build_probe).unwrap();
        assert!(hot(&cache), "the hot design was evicted before key 1");
        let (_, warm) = cache.get_or_build(1, build_probe).unwrap();
        assert!(!warm, "key 1 was the victim");
    }

    #[test]
    fn build_failures_are_not_cached() {
        let cache = ArtifactCache::new(2);
        let err = cache.get_or_build(7, || Err::<Arc<SessionArtifacts>, _>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.is_empty());
        // A later successful build for the same key still works.
        let (_, warm) = cache.get_or_build(7, build_probe).unwrap();
        assert!(!warm);
    }
}
