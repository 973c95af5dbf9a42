//! The [`netsim::ContentProvider`] over the synthetic population.
//!
//! Dispatches URLs in O(1): tracker hosts serve shared scripts, widget
//! hosts serve frame documents, ranked hosts serve their landing pages
//! (with redirects, failure injection, headers and latency), everything
//! else fails DNS.

use netsim::{ProviderResult, Response, SiteBehavior};
use weburl::Url;

use crate::adversarial::{self, HostileClass};
use crate::domains;
use crate::site::{self, FailureClass};
use crate::trackers;
use crate::widgets;
use crate::PopulationConfig;

/// The synthetic web.
pub struct WebPopulation {
    config: PopulationConfig,
    /// Opt-in hostile-site mode (see [`crate::adversarial`]).
    adversarial: bool,
}

impl WebPopulation {
    /// Creates the population.
    pub fn new(config: PopulationConfig) -> WebPopulation {
        WebPopulation {
            config,
            adversarial: false,
        }
    }

    /// Enables (or disables) adversarial-site mode: a deterministic
    /// [`adversarial::ADVERSARIAL_SHARE`] of ranked origins serves
    /// hostile content targeting the browser's resource governor.
    pub fn with_adversarial(mut self, enabled: bool) -> WebPopulation {
        self.adversarial = enabled;
        self
    }

    /// Whether adversarial-site mode is on.
    pub fn adversarial_enabled(&self) -> bool {
        self.adversarial
    }

    /// The configuration.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// The CrUX-style origin for `rank` (1-based).
    pub fn origin(&self, rank: u64) -> Url {
        domains::origin_for_rank(self.config.seed, rank)
    }

    /// Iterates the full ranked origin list.
    pub fn crux_list(&self) -> impl Iterator<Item = Url> + '_ {
        (1..=self.config.size).map(|rank| self.origin(rank))
    }

    fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Extracts the embedding-site rank from a third-party URL's
    /// `s=<rank>` query parameter.
    fn rank_param(url: &Url) -> u64 {
        url.query()
            .and_then(|q| {
                q.split('&')
                    .find_map(|kv| kv.strip_prefix("s="))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0)
    }

    fn first_party(&self, url: &Url, rank: u64) -> ProviderResult {
        let seed = self.seed();
        if rank == 0 || rank > self.config.size {
            return ProviderResult::DnsFailure;
        }
        // Hostile ranks replace their calibrated site wholesale (no
        // failure injection / redirect twins: the attack IS the page).
        if self.adversarial {
            if let Some(class) = adversarial::hostile_class(seed, rank) {
                return self.hostile_first_party(url, rank, class);
            }
        }
        if site::failure_class(seed, rank) == FailureClass::Dns {
            return ProviderResult::DnsFailure;
        }
        let host = url.host().unwrap_or_default();
        // Redirecting sites: the canonical origin bounces to its twin.
        if site::redirects(seed, rank) {
            let canonical = domains::host_for_rank(seed, rank);
            if host == canonical {
                let twin = match canonical.strip_prefix("www.") {
                    Some(apex) => apex.to_string(),
                    None => format!("www.{canonical}"),
                };
                let target = format!("{}://{twin}{}", url.scheme(), url.path());
                return ProviderResult::Redirect(Url::parse(&target).expect("twin url"));
            }
        }
        let behavior = SiteBehavior {
            latency_ms: site::latency_ms(seed, rank),
            post_fetch_failure: site::post_fetch_failure(seed, rank),
        };
        let path = url.path();
        let response = if path.starts_with("/slow") {
            // Heavy-site child frames: slow, empty documents.
            return ProviderResult::Content {
                response: Response::html(url.clone(), "<p>widgets…</p>"),
                behavior: SiteBehavior {
                    latency_ms: 9_000,
                    post_fetch_failure: None,
                },
            };
        } else if path == "/" {
            let mut r = Response::html(url.clone(), site::page_html(seed, rank));
            if let Some(pp) = site::page_pp_header(seed, rank) {
                r = r.with_header("Permissions-Policy", pp);
            }
            if let Some(fp) = site::page_fp_header(seed, rank) {
                r = r.with_header("Feature-Policy", fp);
            }
            if let Some(csp) = site::page_csp_header(seed, rank) {
                r = r.with_header("Content-Security-Policy", csp);
            }
            r
        } else {
            // Same-origin inner pages (interaction-mode navigation).
            Response::html(url.clone(), site::secondary_page_html(seed, rank))
        };
        ProviderResult::Content { response, behavior }
    }

    /// Serves a hostile rank: its landing page, self-nesting pages, and
    /// the `/adv/*` attack scripts.
    fn hostile_first_party(&self, url: &Url, rank: u64, class: HostileClass) -> ProviderResult {
        let seed = self.seed();
        let behavior = SiteBehavior {
            latency_ms: 120,
            post_fetch_failure: None,
        };
        let path = url.path();
        if path == "/adv/loop.js" {
            // Self-redirect forever; netsim's redirect limit errors out.
            return ProviderResult::Redirect(url.clone());
        }
        if let Some(index) = path
            .strip_prefix("/adv/chain")
            .and_then(|rest| rest.strip_suffix(".js"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            return match adversarial::chain_next(index) {
                Some(next) => {
                    let target = format!(
                        "{}://{}/adv/chain{next}.js",
                        url.scheme(),
                        url.host().unwrap_or_default()
                    );
                    ProviderResult::Redirect(Url::parse(&target).expect("chain url"))
                }
                None => ProviderResult::Content {
                    response: Response::script(url.clone(), "var arrived = true;"),
                    behavior,
                },
            };
        }
        if path == "/adv/big.js" {
            return ProviderResult::Content {
                response: Response::script(url.clone(), adversarial::huge_script()),
                behavior,
            };
        }
        if path == "/nest" {
            let depth = url
                .query()
                .and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("d="))
                        .and_then(|v| v.parse().ok())
                })
                .unwrap_or(0);
            return ProviderResult::Content {
                response: Response::html(url.clone(), adversarial::nested_page(seed, rank, depth)),
                behavior,
            };
        }
        let mut response =
            Response::html(url.clone(), adversarial::landing_page(seed, rank, class));
        if class == HostileClass::OversizedHeader {
            response =
                response.with_header("Permissions-Policy", adversarial::oversized_policy_header());
        }
        ProviderResult::Content { response, behavior }
    }
}

impl netsim::ContentProvider for WebPopulation {
    fn resolve(&self, url: &Url) -> ProviderResult {
        let Some(host) = url.host() else {
            return ProviderResult::DnsFailure;
        };
        let seed = self.seed();
        // Shared tracker scripts.
        if let Some(tracker) = trackers::tracker_for(host, url.path()) {
            let rank = Self::rank_param(url);
            let source = trackers::tracker_source(tracker, seed, rank);
            return ProviderResult::Content {
                response: Response::script(url.clone(), source),
                behavior: SiteBehavior {
                    latency_ms: 40,
                    post_fetch_failure: None,
                },
            };
        }
        // The nested 3p render script inside ad frames.
        if host == "ad.doubleclick.net" && url.path().starts_with("/static/render.js") {
            let source = format!(
                "{}{}",
                crate::scripts::general_check_feature_policy("attribution-reporting"),
                crate::scripts::battery(false)
            );
            return ProviderResult::Content {
                response: Response::script(url.clone(), source),
                behavior: SiteBehavior {
                    latency_ms: 40,
                    post_fetch_failure: None,
                },
            };
        }
        // Widget frames.
        if let Some(widget) = widgets::widget_by_host(host) {
            let rank = Self::rank_param(url);
            let html = widgets::frame_html(widget, seed, rank);
            let mut response = Response::html(url.clone(), html);
            if let Some(header) = widget.frame_header {
                // A sliver of widget deployments ship semantically broken
                // variants (§4.3.3's 653 embedded misconfigured docs).
                if crate::hashing::chance(seed, rank, "widget-hdr-bad", 0.03) {
                    let broken = format!("{header}, camera=(none)");
                    response = response.with_header("Permissions-Policy", broken);
                } else {
                    response = response.with_header("Permissions-Policy", header);
                }
            }
            return ProviderResult::Content {
                response,
                behavior: SiteBehavior {
                    latency_ms: 150,
                    post_fetch_failure: None,
                },
            };
        }
        // Ranked first-party sites.
        if let Some(rank) = domains::rank_of_host(host) {
            return self.first_party(url, rank);
        }
        ProviderResult::DnsFailure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{ContentProvider, Network, SimClock, SimNetwork};

    fn population() -> WebPopulation {
        WebPopulation::new(PopulationConfig {
            seed: 7,
            size: 10_000,
        })
    }

    #[test]
    fn crux_list_has_requested_size() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 100 });
        assert_eq!(pop.crux_list().count(), 100);
    }

    #[test]
    fn landing_pages_fetch() {
        let pop = population();
        let origin = pop.origin(1);
        let mut net = SimNetwork::new(pop);
        let mut clock = SimClock::new();
        let r = net.fetch(&origin, &mut clock).unwrap();
        assert!(r.body_text().contains("<html>"));
    }

    #[test]
    fn out_of_range_rank_is_dns_failure() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 10 });
        let beyond = domains::origin_for_rank(7, 99);
        assert!(matches!(pop.resolve(&beyond), ProviderResult::DnsFailure));
    }

    #[test]
    fn widget_frames_resolve() {
        let pop = population();
        let url = Url::parse("https://secure.livechatinc.com/embed?s=42&i=0").unwrap();
        match pop.resolve(&url) {
            ProviderResult::Content { response, .. } => {
                assert!(response.body_text().contains("queue"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tracker_scripts_resolve() {
        let pop = population();
        let url = Url::parse("https://www.googletagmanager.com/gtag/js?s=42").unwrap();
        match pop.resolve(&url) {
            ProviderResult::Content { response, .. } => {
                assert!(response.body_text().contains("featurePolicy"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_hosts_fail_dns() {
        let pop = population();
        let url = Url::parse("https://nonexistent.invalid/").unwrap();
        assert!(matches!(pop.resolve(&url), ProviderResult::DnsFailure));
    }

    #[test]
    fn redirecting_sites_round_trip() {
        let pop = population();
        // Find a redirecting, otherwise healthy site.
        let rank = (1..=10_000u64)
            .find(|&r| site::redirects(7, r) && site::failure_class(7, r) == FailureClass::None)
            .unwrap();
        let origin = pop.origin(rank);
        let mut net = SimNetwork::new(pop);
        let mut clock = SimClock::new();
        let r = net.fetch(&origin, &mut clock).unwrap();
        assert_eq!(r.redirects, 1);
        assert_ne!(r.final_url.host(), origin.host());
    }

    #[test]
    fn deterministic_across_instances() {
        let a = population();
        let b = population();
        for rank in [1u64, 5, 500] {
            let url = a.origin(rank);
            let ra = format!("{:?}", a.resolve(&url));
            let rb = format!("{:?}", b.resolve(&url));
            assert_eq!(ra, rb);
        }
    }
}
