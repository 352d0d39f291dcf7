//! Content-addressed result caching for Engine front ends.
//!
//! A serving layer in front of the [`Engine`](crate::Engine) wants to skip
//! whole synthesis runs when an identical request was already served. Two
//! requests are *identical* exactly when their canonical JSON forms (minus
//! the caller-chosen `id`, which never influences the computation) are
//! byte-equal. This module provides:
//!
//! * [`RequestFingerprint`] — the content address of a request: its
//!   canonical text;
//! * [`ResultCache`] — a capacity-capped LRU map from fingerprints to
//!   [`SynthesisReport`]s with hit/miss/eviction counters, built on the
//!   same text-keyed LRU as the Engine's parse cache.
//!
//! The cache is deliberately single-threaded (`&mut self`); callers that
//! share it across workers wrap it in their own lock. Lookups are one hash
//! of the key text plus one string comparison — microseconds next to the
//! runs they save.

use std::collections::HashMap;

use crate::report::SynthesisReport;
use crate::request::SynthesisRequest;

/// The content address of a [`SynthesisRequest`]: its canonical text.
///
/// The canonical text is the request's deterministic JSON form with the
/// `id` field removed — two requests that differ only in `id` produce the
/// same report and must share a cache entry; two requests that differ in
/// *anything else* (source, mode, options, assertions, back-end, attempts)
/// must not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFingerprint {
    /// The canonical id-less request JSON (the result-cache key).
    pub canonical: String,
}

impl RequestFingerprint {
    /// Computes the fingerprint of a request.
    pub fn of(request: &SynthesisRequest) -> Self {
        let mut json = request.to_json();
        if let crate::json::Json::Object(fields) = &mut json {
            fields.retain(|(key, _)| key != "id");
        }
        RequestFingerprint {
            canonical: json.to_string(),
        }
    }
}

/// Counters describing the cache's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay under the capacity cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A capacity-capped LRU map keyed by the full key text, shared by the
/// Engine's parse cache (keyed by program source) and [`ResultCache`]
/// (keyed by canonical request text).
#[derive(Debug)]
pub(crate) struct Lru<V> {
    /// `(value, last-used stamp)` per key text.
    entries: HashMap<String, (V, u64)>,
    capacity: usize,
    clock: u64,
}

impl<V: Clone> Lru<V> {
    /// A map holding at most `capacity` entries (zero is treated as one).
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The value stored under `key`, refreshing its recency.
    pub(crate) fn get(&mut self, key: &str) -> Option<V> {
        self.clock += 1;
        let entry = self.entries.get_mut(key)?;
        entry.1 = self.clock;
        Some(entry.0.clone())
    }

    /// Stores (or replaces) `value` under `key`, evicting least-recently-used
    /// entries to stay under the capacity. Returns the number of entries
    /// evicted.
    pub(crate) fn insert(&mut self, key: &str, value: V) -> u64 {
        self.clock += 1;
        self.entries.insert(key.to_string(), (value, self.clock));
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            // Stamps are unique, so the oldest entry is well defined.
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.1)
                .map(|(key, _)| key.clone())
                .expect("an over-capacity map is non-empty");
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// A capacity-capped LRU map from request fingerprints to reports, keyed
/// by the canonical request text.
#[derive(Debug)]
pub struct ResultCache {
    entries: Lru<SynthesisReport>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (zero is treated as one).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: Lru::new(capacity),
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
        let report = self.entries.get(&fingerprint.canonical);
        match report {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        report
    }

    /// Inserts (or refreshes) a result, evicting least-recently-used
    /// entries to stay under the capacity cap.
    pub fn insert(&mut self, fingerprint: &RequestFingerprint, report: SynthesisReport) {
        self.evictions += self.entries.insert(&fingerprint.canonical, report);
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
    fn an_lru_stays_at_its_capacity_and_keeps_recent_keys() {
        let mut lru = Lru::new(8);
        // Many distinct keys: the map must stay at its cap, not leak.
        for i in 0..100 {
            lru.insert(&format!("key {i}"), i);
            assert!(lru.len() <= 8, "the map grew past its cap");
        }
        assert_eq!(lru.len(), 8);
        // Recently inserted keys survive; the eldest were evicted.
        assert_eq!(lru.get("key 99"), Some(99));
        assert_eq!(lru.get("key 92"), Some(92));
        assert_eq!(lru.get("key 91"), None);
    }

    #[test]
    fn an_lru_evicts_the_least_recently_touched_key() {
        let mut lru = Lru::new(2);
        lru.insert("first", 1);
        lru.insert("second", 2);
        // Touch the first key again, then insert a third: the second (least
        // recently used) must be the one evicted.
        assert_eq!(lru.get("first"), Some(1));
        assert_eq!(lru.insert("third", 3), 1);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get("first"), Some(1), "the touched key was evicted");
        assert_eq!(lru.get("second"), None);
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
}
