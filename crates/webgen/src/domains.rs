//! The CrUX-like origin list.
//!
//! Generates a ranked list of synthetic origins with a realistic TLD mix.
//! Names are deterministic functions of the rank, and the mapping is
//! reversible: given a host, [`rank_of_host`] recovers the rank — that is
//! how the content provider dispatches fetches in O(1).

use weburl::Url;

use crate::hashing;

const TLDS: &[(&str, f64)] = &[
    ("com", 48.0),
    ("org", 6.0),
    ("net", 5.0),
    ("de", 5.0),
    ("co.uk", 3.5),
    ("ru", 3.5),
    ("fr", 3.0),
    ("jp", 2.5),
    ("br", 2.5),
    ("it", 2.0),
    ("pl", 2.0),
    ("nl", 2.0),
    ("es", 2.0),
    ("io", 1.5),
    ("in", 1.5),
    ("ca", 1.2),
    ("com.au", 1.2),
    ("ch", 1.0),
    ("se", 1.0),
    ("cz", 1.0),
    ("info", 0.8),
    ("co", 0.8),
    ("tv", 0.5),
    ("me", 0.5),
    ("xyz", 0.5),
];

/// The TLD weights, in `TLDS` order, for `pick_weighted`.
const TLD_WEIGHTS: [f64; TLDS.len()] = {
    let mut weights = [0.0; TLDS.len()];
    let mut i = 0;
    while i < TLDS.len() {
        weights[i] = TLDS[i].1;
        i += 1;
    }
    weights
};

const NAME_STEMS: &[&str] = &[
    "news", "shop", "blog", "tech", "media", "cloud", "data", "web", "live", "play", "home",
    "store", "world", "daily", "city", "sport", "game", "travel", "food", "health", "auto",
    "music", "film", "book", "job", "market", "bank", "school", "photo", "art",
];

/// The scheme mix: CrUX origins are overwhelmingly https.
fn scheme(seed: u64, rank: u64) -> &'static str {
    if hashing::chance(seed, rank, "scheme-http", 0.02) {
        "http"
    } else {
        "https"
    }
}

/// The host for `rank` (1-based).
pub fn host_for_rank(seed: u64, rank: u64) -> String {
    let tld = TLDS[hashing::pick_weighted(seed, rank, "tld", &TLD_WEIGHTS)].0;
    let stem = NAME_STEMS[hashing::pick(seed, rank, "stem", NAME_STEMS.len())];
    let www = if hashing::chance(seed, rank, "www", 0.3) {
        "www."
    } else {
        ""
    };
    format!("{www}{stem}-{rank}.{tld}")
}

/// The origin URL for `rank` (1-based), as it would appear in the CrUX
/// list.
pub fn origin_for_rank(seed: u64, rank: u64) -> Url {
    let host = host_for_rank(seed, rank);
    Url::parse(&format!("{}://{host}/", scheme(seed, rank))).expect("generated origin is valid")
}

/// Recovers the rank from a generated host (strips `www.`, parses the
/// `-<rank>.` component). Returns `None` for hosts outside the population
/// (widget/tracker domains).
pub fn rank_of_host(host: &str) -> Option<u64> {
    let host = host.strip_prefix("www.").unwrap_or(host);
    let dash = host.find('-')?;
    let rest = &host[dash + 1..];
    let dot = rest.find('.')?;
    rest[..dot].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_round_trips_to_rank() {
        for rank in [1u64, 2, 500, 99_999, 1_000_000] {
            let url = origin_for_rank(7, rank);
            assert_eq!(rank_of_host(url.host().unwrap()), Some(rank), "{url}");
        }
    }

    #[test]
    fn hosts_are_unique_across_ranks() {
        let mut seen = std::collections::HashSet::new();
        for rank in 1..=5_000u64 {
            assert!(seen.insert(host_for_rank(11, rank)));
        }
    }

    #[test]
    fn https_dominates() {
        let https = (1..=2_000u64)
            .filter(|&r| origin_for_rank(3, r).scheme() == "https")
            .count();
        assert!(https > 1_900);
    }

    #[test]
    fn foreign_hosts_have_no_rank() {
        assert_eq!(rank_of_host("youtube.com"), None);
        assert_eq!(rank_of_host("livechatinc.com"), None);
        assert_eq!(rank_of_host("cdn.ampproject.org"), None);
    }

    #[test]
    fn origins_are_valid_sites() {
        let url = origin_for_rank(5, 42);
        assert!(url.site().is_some());
    }
}
