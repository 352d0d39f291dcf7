//! Content-addressed result caching for Engine front ends.
//!
//! A serving layer in front of the [`Engine`](crate::Engine) wants to skip
//! whole synthesis runs when an identical request was already served. Two
//! requests are *identical* exactly when their canonical JSON forms (minus
//! the caller-chosen `id`, which never influences the computation) are
//! byte-equal. This module provides:
//!
//! * [`source_hash`] — the Engine's 64-bit FNV-1a source hash, shared with
//!   the parse cache so both layers key programs the same way;
//! * [`RequestFingerprint`] — the content address of a request: the source
//!   hash, a canonical hash of everything else (options, mode, assertions,
//!   back-end, attempts), and the canonical text itself so lookups verify
//!   true equality instead of trusting 64-bit hashes;
//! * [`ResultCache`] — a capacity-capped LRU map from fingerprints to
//!   [`SynthesisReport`]s with hit/miss/eviction counters, built on the
//!   same bucketed LRU as the Engine's parse cache.
//!
//! The cache is deliberately single-threaded (`&mut self`); callers that
//! share it across workers wrap it in their own lock. Lookups are a hash
//! probe plus one string comparison — microseconds next to the runs they
//! save.

use std::collections::HashMap;
use std::hash::Hash;

use crate::report::SynthesisReport;
use crate::request::SynthesisRequest;

/// 64-bit FNV-1a: small, dependency-free and good enough to key caches
/// whose entries verify the full content anyway.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The Engine's FNV-1a hash of a program source (the parse-cache key).
pub fn source_hash(source: &str) -> u64 {
    fnv1a(source.as_bytes())
}

/// The content address of a [`SynthesisRequest`]: source hash + canonical
/// configuration hash + the canonical text the hashes stand for.
///
/// The canonical text is the request's deterministic JSON form with the
/// `id` field removed — two requests that differ only in `id` produce the
/// same report and must share a cache entry; two requests that differ in
/// *anything else* (source, mode, options, assertions, back-end, attempts)
/// must not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFingerprint {
    /// FNV-1a hash of the program source (the Engine's parse-cache key).
    pub source_hash: u64,
    /// FNV-1a hash of the canonical id-less request JSON.
    pub config_hash: u64,
    /// The canonical id-less request JSON the hashes were computed from;
    /// stored so cache lookups only hit on true equality.
    pub canonical: String,
}

impl RequestFingerprint {
    /// Computes the fingerprint of a request.
    pub fn of(request: &SynthesisRequest) -> Self {
        let mut json = request.to_json();
        if let crate::json::Json::Object(fields) = &mut json {
            fields.retain(|(key, _)| key != "id");
        }
        let canonical = json.to_string();
        RequestFingerprint {
            source_hash: source_hash(&request.source),
            config_hash: fnv1a(canonical.as_bytes()),
            canonical,
        }
    }

    /// The combined 128-bit-ish map key (both hashes).
    fn key(&self) -> (u64, u64) {
        (self.source_hash, self.config_hash)
    }
}

/// Counters describing the cache's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including hash matches whose canonical text
    /// differed — true collisions).
    pub misses: u64,
    /// Entries evicted to stay under the capacity cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A capacity-capped LRU map, shared by the Engine's parse cache and
/// [`ResultCache`]. Entries sit in buckets keyed by a hash `K`, and each
/// keeps the full key text it was stored under: a lookup only hits on a
/// byte-equal text, so hash collisions degrade to misses, never to wrong
/// values.
#[derive(Debug)]
pub(crate) struct BucketedLru<K, V> {
    /// `(key text, value, last-used stamp)` per entry.
    buckets: HashMap<K, Vec<(String, V, u64)>>,
    capacity: usize,
    clock: u64,
}

impl<K: Hash + Eq + Copy, V: Clone> BucketedLru<K, V> {
    /// A map holding at most `capacity` entries (zero is treated as one).
    pub(crate) fn new(capacity: usize) -> Self {
        BucketedLru {
            buckets: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// The value stored under `key` and `text`, refreshing its recency.
    pub(crate) fn get(&mut self, key: K, text: &str) -> Option<V> {
        self.clock += 1;
        let entry = self
            .buckets
            .get_mut(&key)?
            .iter_mut()
            .find(|entry| entry.0 == text)?;
        entry.2 = self.clock;
        Some(entry.1.clone())
    }

    /// Stores (or replaces) a copy of `value` under `key` and `text`,
    /// evicting least-recently-used entries to stay under the capacity.
    /// Returns the number of entries evicted.
    pub(crate) fn insert(&mut self, key: K, text: &str, value: &V) -> u64 {
        self.clock += 1;
        let bucket = self.buckets.entry(key).or_default();
        match bucket.iter_mut().find(|entry| entry.0 == text) {
            Some(entry) => (entry.1, entry.2) = (value.clone(), self.clock),
            None => bucket.push((text.to_string(), value.clone(), self.clock)),
        }
        let mut evicted = 0;
        while self.len() > self.capacity {
            self.evict_lru();
            evicted += 1;
        }
        evicted
    }

    /// Drops the entry with the oldest stamp (stamps are unique).
    fn evict_lru(&mut self) {
        let oldest = self
            .buckets
            .iter()
            .flat_map(|(&key, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(pos, e)| (e.2, key, pos))
            })
            .min_by_key(|&(stamp, _, _)| stamp);
        if let Some((_, key, pos)) = oldest {
            let bucket = self.buckets.get_mut(&key).expect("bucket exists");
            bucket.remove(pos);
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }
}

/// A capacity-capped LRU map from request fingerprints to reports.
///
/// Entries are keyed by `(source_hash, config_hash)` and verified by the
/// canonical request text (see [`BucketedLru`]), so hash collisions
/// degrade to misses, never to wrong results.
#[derive(Debug)]
pub struct ResultCache {
    entries: BucketedLru<(u64, u64), SynthesisReport>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (zero is treated as one).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: BucketedLru::new(capacity),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lifetime counters plus the current entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.len(),
        }
    }

    /// Looks a fingerprint up, counting a hit or miss and refreshing the
    /// entry's recency on a hit.
    pub fn get(&mut self, fingerprint: &RequestFingerprint) -> Option<SynthesisReport> {
        let report = self.entries.get(fingerprint.key(), &fingerprint.canonical);
        match report {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        report
    }

    /// Inserts (or refreshes) a result, evicting least-recently-used
    /// entries to stay under the capacity cap.
    pub fn insert(&mut self, fingerprint: &RequestFingerprint, report: SynthesisReport) {
        self.evictions += self
            .entries
            .insert(fingerprint.key(), &fingerprint.canonical, &report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ReportStatus;
    use crate::request::Mode;

    fn report(id: &str, size: usize) -> SynthesisReport {
        let mut report = SynthesisReport::skeleton(id, Mode::GenerateOnly, ReportStatus::Generated);
        report.system_size = size;
        report
    }

    #[test]
    fn id_does_not_enter_the_fingerprint() {
        let a = SynthesisRequest::generate_only("f(x) { return x }").with_id("a");
        let b = SynthesisRequest::generate_only("f(x) { return x }").with_id("b");
        assert_eq!(RequestFingerprint::of(&a), RequestFingerprint::of(&b));
    }

    #[test]
    fn options_mode_and_assertions_all_enter_the_fingerprint() {
        let base = SynthesisRequest::weak("f(x) { return x }");
        let fp = RequestFingerprint::of(&base);
        for other in [
            SynthesisRequest::weak("f(y) { return y }"),
            SynthesisRequest::check("f(x) { return x }"),
            base.clone().with_degree(3),
            base.clone().with_target("x + 1 > 0"),
            base.clone().with_backend("penalty"),
            base.clone().with_attempts(7),
        ] {
            assert_ne!(fp, RequestFingerprint::of(&other), "{other:?}");
        }
    }

    #[test]
    fn hits_misses_and_evictions_are_counted() {
        let mut cache = ResultCache::new(2);
        let requests: Vec<SynthesisRequest> = (0..3)
            .map(|k| SynthesisRequest::generate_only(format!("f(x) {{ return x + {k} }}")))
            .collect();
        let fps: Vec<RequestFingerprint> = requests.iter().map(RequestFingerprint::of).collect();
        assert!(cache.get(&fps[0]).is_none());
        cache.insert(&fps[0], report("r0", 10));
        cache.insert(&fps[1], report("r1", 11));
        assert_eq!(cache.get(&fps[0]).unwrap().system_size, 10);
        // Third insert evicts the least recently used (fps[1]).
        cache.insert(&fps[2], report("r2", 12));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&fps[1]).is_none());
        assert!(cache.get(&fps[0]).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn colliding_hashes_verify_the_canonical_text() {
        // Force two distinct requests into the same bucket by faking equal
        // hashes: only the canonical text may decide a hit.
        let a = RequestFingerprint {
            source_hash: 1,
            config_hash: 2,
            canonical: "request-a".to_string(),
        };
        let b = RequestFingerprint {
            source_hash: 1,
            config_hash: 2,
            canonical: "request-b".to_string(),
        };
        let mut cache = ResultCache::new(8);
        cache.insert(&a, report("a", 1));
        cache.insert(&b, report("b", 2));
        assert_eq!(cache.get(&a).unwrap().id, "a");
        assert_eq!(cache.get(&b).unwrap().id, "b");
        assert_eq!(cache.len(), 2);
    }
}
