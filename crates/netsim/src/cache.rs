//! Response caching.
//!
//! Browsers fetch shared third-party scripts (`gtag.js`, SDKs) once and
//! serve repeats from cache. [`CachingNetwork`] wraps any [`Network`]
//! with an LRU response cache — within a page visit the second include of
//! the same tracker costs nothing, which is also a large constant-factor
//! win for the crawl simulation (the `crawl_cache` ablation bench
//! quantifies it).

use std::collections::{BTreeMap, HashMap};

use weburl::Url;

use crate::clock::SimClock;
use crate::error::FetchError;
use crate::network::Network;
use crate::response::Response;

/// An LRU-bounded caching wrapper around a network.
pub struct CachingNetwork<N> {
    inner: N,
    capacity: usize,
    /// Keyed by URL, whose clones share its text.
    entries: HashMap<Url, CacheEntry>,
    /// Recency index: `last_used` tick → cache key. Ticks are unique per
    /// fetch, so this is a bijection with `entries`; the first entry is
    /// always the least-recently-used key, making eviction O(log n)
    /// instead of a full O(capacity) scan.
    by_recency: BTreeMap<u64, Url>,
    tick: u64,
    hits: u64,
    misses: u64,
}

struct CacheEntry {
    response: Response,
    last_used: u64,
}

impl<N: Network> CachingNetwork<N> {
    /// Wraps `inner` with a cache of at most `capacity` responses.
    /// Capacity 0 disables caching entirely (pure pass-through).
    pub fn new(inner: N, capacity: usize) -> CachingNetwork<N> {
        CachingNetwork {
            inner,
            capacity,
            entries: HashMap::new(),
            by_recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The wrapped network.
    pub fn into_inner(self) -> N {
        self.inner
    }

    fn evict_if_full(&mut self) {
        if self.capacity == 0 || self.entries.len() < self.capacity {
            return;
        }
        if let Some((_, oldest)) = self.by_recency.pop_first() {
            self.entries.remove(&oldest);
        }
        debug_assert_eq!(self.entries.len(), self.by_recency.len());
    }
}

impl<N: Network> Network for CachingNetwork<N> {
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError> {
        if self.capacity == 0 {
            return self.inner.fetch(url, clock);
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(url) {
            self.by_recency.remove(&entry.last_used);
            self.by_recency.insert(self.tick, url.clone());
            entry.last_used = self.tick;
            self.hits += 1;
            // Cache hits are near-instant.
            clock.advance(1);
            return Ok(entry.response.clone());
        }
        self.misses += 1;
        let response = self.inner.fetch(url, clock)?;
        self.evict_if_full();
        self.by_recency.insert(self.tick, url.clone());
        // The copy shares the body and the URL text, and borrows the
        // constant headers.
        self.entries.insert(
            url.clone(),
            CacheEntry {
                response: response.clone(),
                last_used: self.tick,
            },
        );
        Ok(response)
    }

    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError> {
        self.inner.post_fetch_failure(url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ContentProvider, ProviderResult, SimNetwork};
    use crate::response::SiteBehavior;

    struct Counter(std::cell::Cell<u32>);

    impl ContentProvider for Counter {
        fn resolve(&self, url: &Url) -> ProviderResult {
            self.0.set(self.0.get() + 1);
            ProviderResult::Content {
                response: Response::script(url.clone(), "var x = 1;"),
                behavior: SiteBehavior {
                    latency_ms: 500,
                    post_fetch_failure: None,
                },
            }
        }
    }

    #[test]
    fn repeat_fetches_hit_the_cache() {
        let mut net = CachingNetwork::new(SimNetwork::new(Counter(Default::default())), 8);
        let mut clock = SimClock::new();
        let url = Url::parse("https://cdn.example/lib.js").unwrap();
        net.fetch(&url, &mut clock).unwrap();
        let after_first = clock.now_ms();
        net.fetch(&url, &mut clock).unwrap();
        assert_eq!(net.hits(), 1);
        assert_eq!(net.misses(), 1);
        // The hit was ~free.
        assert!(clock.now_ms() - after_first <= 1);
    }

    #[test]
    fn lru_evicts_the_least_recent() {
        let mut net = CachingNetwork::new(SimNetwork::new(Counter(Default::default())), 2);
        let mut clock = SimClock::new();
        let a = Url::parse("https://cdn.example/a.js").unwrap();
        let b = Url::parse("https://cdn.example/b.js").unwrap();
        let c = Url::parse("https://cdn.example/c.js").unwrap();
        net.fetch(&a, &mut clock).unwrap();
        net.fetch(&b, &mut clock).unwrap();
        net.fetch(&a, &mut clock).unwrap(); // refresh a
        net.fetch(&c, &mut clock).unwrap(); // evicts b
        net.fetch(&a, &mut clock).unwrap(); // hit
        net.fetch(&b, &mut clock).unwrap(); // miss again
        assert_eq!(net.hits(), 2);
        assert_eq!(net.misses(), 4);
    }

    #[test]
    fn errors_are_not_cached() {
        struct Flaky;
        impl ContentProvider for Flaky {
            fn resolve(&self, _url: &Url) -> ProviderResult {
                ProviderResult::DnsFailure
            }
        }
        let mut net = CachingNetwork::new(SimNetwork::new(Flaky), 4);
        let mut clock = SimClock::new();
        let url = Url::parse("https://down.example/").unwrap();
        assert!(net.fetch(&url, &mut clock).is_err());
        assert!(net.fetch(&url, &mut clock).is_err());
        assert_eq!(net.misses(), 2);
        assert_eq!(net.hits(), 0);
    }
}
