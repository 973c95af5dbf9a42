//! Deterministic network simulator.
//!
//! Stands in for the live web's DNS + HTTP layer. Content comes from a
//! [`ContentProvider`] (the `webgen` crate implements it for the synthetic
//! population); [`SimNetwork`] adds the network realities the crawl funnel
//! in §4 of the paper is made of:
//!
//! * DNS failures (`ERR_NAME_NOT_RESOLVED` — 27,733 unreachable sites),
//! * slow responses that blow the crawler's 60-second load timeout
//!   (28,700 sites),
//! * mid-collection "ephemeral content" errors (execution context
//!   destroyed — 60,183 sites),
//! * crawler-crashing responses (315 sites),
//! * redirects (followed up to a limit, each adding latency),
//! * per-resource latency, driven by a simulated [`SimClock`] — no real
//!   sleeping, fully deterministic.
//!
//! The design follows the event-driven, no-surprises style of embedded
//! network stacks: all state is explicit, all time is simulated, and the
//! same seed always produces the same crawl.

mod cache;
mod clock;
mod error;
mod fault;
mod network;
mod response;
mod tape;

pub use cache::CachingNetwork;
pub use clock::{capped_backoff_ms, SimClock, MAX_BACKOFF_MS, MAX_BACKOFF_SHIFT};
pub use error::FetchError;
pub use fault::{FaultSpec, FaultyNetwork};
pub use network::{ContentProvider, Network, ProviderResult, SimNetwork};
pub use response::{HeaderText, Response, SiteBehavior};
pub use tape::{
    Exchange, ExchangeOutcome, PostFetchProbe, RecordingNetwork, ReplayAudit, ReplayNetwork,
    TapeHandle, VisitTape,
};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use weburl::Url;

    struct OneSite;

    impl ContentProvider for OneSite {
        fn resolve(&self, url: &Url) -> ProviderResult {
            match url.host() {
                Some("ok.example") => ProviderResult::Content {
                    response: Response::html(url.clone(), "<p>hi</p>"),
                    behavior: SiteBehavior::default(),
                },
                Some("slow.example") => ProviderResult::Content {
                    response: Response::html(url.clone(), "<p>slow</p>"),
                    behavior: SiteBehavior {
                        latency_ms: 90_000,
                        ..SiteBehavior::default()
                    },
                },
                Some("redirect.example") => {
                    ProviderResult::Redirect(Url::parse("https://ok.example/").unwrap())
                }
                _ => ProviderResult::DnsFailure,
            }
        }
    }

    #[test]
    fn end_to_end_fetch() {
        let mut net = SimNetwork::new(OneSite);
        let mut clock = SimClock::new();
        let r = net
            .fetch(&Url::parse("https://ok.example/").unwrap(), &mut clock)
            .unwrap();
        assert_eq!(r.body, Bytes::from("<p>hi</p>"));
        assert!(clock.now_ms() > 0, "fetch advances simulated time");
    }

    #[test]
    fn redirects_are_followed() {
        let mut net = SimNetwork::new(OneSite);
        let mut clock = SimClock::new();
        let r = net
            .fetch(
                &Url::parse("https://redirect.example/x").unwrap(),
                &mut clock,
            )
            .unwrap();
        assert_eq!(r.final_url.host(), Some("ok.example"));
        assert_eq!(r.redirects, 1);
    }

    #[test]
    fn dns_failure_reported() {
        let mut net = SimNetwork::new(OneSite);
        let mut clock = SimClock::new();
        let err = net
            .fetch(&Url::parse("https://nope.example/").unwrap(), &mut clock)
            .unwrap_err();
        assert_eq!(err, FetchError::DnsFailure);
    }

    #[test]
    fn latency_accumulates_on_clock() {
        let mut net = SimNetwork::new(OneSite);
        let mut clock = SimClock::new();
        let before = clock.now_ms();
        net.fetch(&Url::parse("https://slow.example/").unwrap(), &mut clock)
            .unwrap();
        assert!(clock.now_ms() - before >= 90_000);
    }
}
