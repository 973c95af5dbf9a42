//! The network: content resolution + failure injection + redirects.

use weburl::Url;

use crate::clock::SimClock;
use crate::error::FetchError;
use crate::response::{Response, SiteBehavior};

/// What a [`ContentProvider`] returns for a URL.
#[derive(Debug, Clone)]
pub enum ProviderResult {
    /// Serve this response with the given behaviour.
    Content {
        /// The response.
        response: Response,
        /// Latency / injected failures.
        behavior: SiteBehavior,
    },
    /// Redirect to another URL.
    Redirect(Url),
    /// The host does not resolve.
    DnsFailure,
    /// The host resolves but the connection fails.
    ConnectionFailure,
}

/// Supplies content for URLs (implemented by `webgen` over the synthetic
/// population).
pub trait ContentProvider {
    /// Resolves one URL.
    ///
    /// Must be a pure function of `url`: the same URL always resolves to
    /// the same result. [`SimNetwork`] relies on this to answer
    /// [`Network::post_fetch_failure`] for the URL its last fetch served
    /// without resolving that URL again.
    fn resolve(&self, url: &Url) -> ProviderResult;
}

impl<T: ContentProvider + ?Sized> ContentProvider for &T {
    fn resolve(&self, url: &Url) -> ProviderResult {
        (**self).resolve(url)
    }
}

/// A network that can fetch URLs against a simulated clock.
pub trait Network {
    /// Fetches `url`, advancing `clock` by the simulated latency.
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError>;

    /// Post-fetch failure scheduled for this document, if any (ephemeral
    /// context destruction / crawler crash — consumed by the crawler
    /// during collection).
    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError>;
}

/// The standard simulated network over a content provider.
pub struct SimNetwork<P> {
    provider: P,
    max_redirects: u32,
    /// Fixed per-request overhead (DNS + TCP + TLS handshakes).
    connect_overhead_ms: u64,
    /// The final URL of the last fetch, if it served content, with the
    /// post-fetch failure its resolve scheduled.
    last_served: Option<(Url, Option<FetchError>)>,
}

impl<P: ContentProvider> SimNetwork<P> {
    /// Creates a network over `provider`.
    pub fn new(provider: P) -> SimNetwork<P> {
        SimNetwork {
            provider,
            max_redirects: 5,
            connect_overhead_ms: 35,
            last_served: None,
        }
    }

    /// Access to the provider (for generators exposing extra queries).
    pub fn provider(&self) -> &P {
        &self.provider
    }
}

impl<P: ContentProvider> Network for SimNetwork<P> {
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError> {
        self.last_served = None;
        // The URL a redirect led to; the requested one until then.
        let mut redirected: Option<Url> = None;
        let mut redirects = 0;
        loop {
            clock.advance(self.connect_overhead_ms);
            match self.provider.resolve(redirected.as_ref().unwrap_or(url)) {
                ProviderResult::Content {
                    mut response,
                    behavior,
                } => {
                    clock.advance(behavior.latency_ms);
                    let served = redirected.unwrap_or_else(|| url.clone());
                    self.last_served = Some((served.clone(), behavior.post_fetch_failure));
                    response.final_url = served;
                    response.redirects = redirects;
                    return Ok(response);
                }
                ProviderResult::Redirect(next) => {
                    redirects += 1;
                    if redirects > self.max_redirects {
                        return Err(FetchError::TooManyRedirects);
                    }
                    redirected = Some(next);
                }
                ProviderResult::DnsFailure => return Err(FetchError::DnsFailure),
                ProviderResult::ConnectionFailure => return Err(FetchError::ConnectionFailure),
            }
        }
    }

    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError> {
        // The browser probes the document it just fetched; resolving is a
        // pure function of the URL, so that resolve's answer still holds.
        if let Some((served, failure)) = &self.last_served {
            if served == url {
                return *failure;
            }
        }
        match self.provider.resolve(url) {
            ProviderResult::Content { behavior, .. } => behavior.post_fetch_failure,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::SiteBehavior;

    struct Loop;

    impl ContentProvider for Loop {
        fn resolve(&self, url: &Url) -> ProviderResult {
            // a -> b -> a -> ...
            let next = if url.host() == Some("a.example") {
                "https://b.example/"
            } else {
                "https://a.example/"
            };
            ProviderResult::Redirect(Url::parse(next).unwrap())
        }
    }

    #[test]
    fn redirect_loops_are_bounded() {
        let mut net = SimNetwork::new(Loop);
        let mut clock = SimClock::new();
        let err = net
            .fetch(&Url::parse("https://a.example/").unwrap(), &mut clock)
            .unwrap_err();
        assert_eq!(err, FetchError::TooManyRedirects);
    }

    struct Broken;

    impl ContentProvider for Broken {
        fn resolve(&self, _url: &Url) -> ProviderResult {
            ProviderResult::ConnectionFailure
        }
    }

    /// Serves `https://ok.example/` after a redirect from
    /// `https://hop.example/`, and counts every resolve.
    #[derive(Default)]
    struct Counting {
        resolves: std::cell::Cell<u32>,
    }

    impl ContentProvider for Counting {
        fn resolve(&self, url: &Url) -> ProviderResult {
            self.resolves.set(self.resolves.get() + 1);
            match url.host() {
                Some("hop.example") => {
                    ProviderResult::Redirect(Url::parse("https://ok.example/").unwrap())
                }
                _ => ProviderResult::Content {
                    response: Response::html(url.clone(), "<p>ok</p>"),
                    behavior: SiteBehavior {
                        post_fetch_failure: Some(FetchError::EphemeralContext),
                        ..SiteBehavior::default()
                    },
                },
            }
        }
    }

    #[test]
    fn post_fetch_probe_of_the_served_url_reuses_the_fetch() {
        let hop = Url::parse("https://hop.example/").unwrap();
        let ok = Url::parse("https://ok.example/").unwrap();
        let fresh = |url: &Url| match Counting::default().resolve(url) {
            ProviderResult::Content { behavior, .. } => behavior.post_fetch_failure,
            _ => None,
        };
        let mut net = SimNetwork::new(Counting::default());
        let resolves = |net: &SimNetwork<Counting>| net.provider().resolves.get();

        // Before any fetch, a probe resolves once.
        assert_eq!(net.post_fetch_failure(&ok), fresh(&ok));
        assert_eq!(resolves(&net), 1);

        let response = net.fetch(&hop, &mut SimClock::new()).unwrap();
        assert_eq!(response.final_url, ok);
        assert_eq!(resolves(&net), 3, "the redirect hop and the final URL");
        // The fetch's final URL is answered without resolving.
        assert_eq!(net.post_fetch_failure(&ok), fresh(&ok));
        assert_eq!(resolves(&net), 3);
        // Any other URL, the pre-redirect one included, resolves once.
        assert_eq!(net.post_fetch_failure(&hop), fresh(&hop));
        assert_eq!(resolves(&net), 4);
    }

    #[test]
    fn connection_failures_propagate() {
        let mut net = SimNetwork::new(Broken);
        let mut clock = SimClock::new();
        let err = net
            .fetch(&Url::parse("https://x.example/").unwrap(), &mut clock)
            .unwrap_err();
        assert_eq!(err, FetchError::ConnectionFailure);
    }
}
