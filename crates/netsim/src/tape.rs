//! Visit tapes: capture and replay at the [`Network`] boundary.
//!
//! A [`RecordingNetwork`] wraps any inner network and writes every
//! exchange — request URL, simulated-clock advance, and the outcome
//! (response bytes, fetch error, or an injected panic) — onto a shared
//! [`VisitTape`]. A [`ReplayNetwork`] plays a tape back through the same
//! [`Network`] trait: same bytes, same clock advances, same faults, with
//! no content provider behind it at all.
//!
//! The recorder sits *below* the response cache: cache hits never reach
//! it, so a tape holds exactly the misses, and replay rebuilds the cache
//! on top to reproduce hit/miss accounting. The tape handle is created
//! outside the crawler's panic isolation so exchanges recorded before an
//! injected crash survive the unwind.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use weburl::Url;

use crate::clock::SimClock;
use crate::error::FetchError;
use crate::network::Network;
use crate::response::Response;

/// What one recorded fetch produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// A served response (the [`Response`] fields, denormalized so a
    /// tape needs no live [`Url`] values).
    Content {
        /// Status code.
        status: u16,
        /// Response headers, in order.
        headers: Vec<(String, String)>,
        /// Body bytes.
        body: Bytes,
        /// URL after redirects.
        final_url: String,
        /// Redirects followed.
        redirects: u32,
    },
    /// The fetch failed.
    Error(FetchError),
    /// The fetch panicked (injected crawler crash); replay re-panics
    /// with the recorded message.
    Panic(String),
}

/// One recorded fetch: request URL, clock advance, outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exchange {
    /// The requested URL.
    pub url: String,
    /// Simulated milliseconds the fetch advanced the clock.
    pub advance_ms: u64,
    /// What came back.
    pub outcome: ExchangeOutcome,
}

/// One recorded post-fetch failure probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostFetchProbe {
    /// The probed URL.
    pub url: String,
    /// The scheduled failure, if any.
    pub failure: Option<FetchError>,
}

/// Every network interaction of one visit attempt, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VisitTape {
    /// Fetches, in call order (cache misses only when recorded under a
    /// [`crate::CachingNetwork`]).
    pub exchanges: Vec<Exchange>,
    /// Post-fetch failure probes, in call order.
    pub probes: Vec<PostFetchProbe>,
}

/// Shared handle onto a [`VisitTape`] under construction. Cloned into
/// the recording network; the creator keeps a clone so the tape is
/// recoverable even when the attempt unwinds.
#[derive(Clone, Default)]
pub struct TapeHandle(Rc<RefCell<VisitTape>>);

impl TapeHandle {
    /// A handle onto a fresh, empty tape.
    pub fn new() -> TapeHandle {
        TapeHandle::default()
    }

    /// Takes the recorded tape, leaving an empty one behind.
    pub fn take(&self) -> VisitTape {
        self.0.take()
    }
}

/// A [`Network`] wrapper that records every exchange onto a tape while
/// delegating to the wrapped network unchanged.
pub struct RecordingNetwork<N> {
    inner: N,
    tape: TapeHandle,
}

impl<N: Network> RecordingNetwork<N> {
    /// Wraps `inner`, recording onto the tape behind `tape`.
    pub fn new(inner: N, tape: TapeHandle) -> RecordingNetwork<N> {
        RecordingNetwork { inner, tape }
    }
}

/// Best-effort panic message extraction (`panic!` payloads are `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl<N: Network> Network for RecordingNetwork<N> {
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError> {
        let before = clock.now_ms();
        let inner = &mut self.inner;
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.fetch(url, clock)));
        let advance_ms = clock.now_ms() - before;
        let outcome = match &result {
            Ok(Ok(response)) => ExchangeOutcome::Content {
                status: response.status,
                headers: response
                    .headers
                    .iter()
                    .map(|(name, value)| (name.to_string(), value.to_string()))
                    .collect(),
                body: response.body.clone(),
                final_url: response.final_url.to_string(),
                redirects: response.redirects,
            },
            Ok(Err(err)) => ExchangeOutcome::Error(*err),
            Err(payload) => ExchangeOutcome::Panic(panic_message(payload.as_ref())),
        };
        self.tape.0.borrow_mut().exchanges.push(Exchange {
            url: url.to_string(),
            advance_ms,
            outcome,
        });
        match result {
            Ok(outcome) => outcome,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError> {
        let failure = self.inner.post_fetch_failure(url);
        self.tape.0.borrow_mut().probes.push(PostFetchProbe {
            url: url.to_string(),
            failure,
        });
        failure
    }
}

/// A [`Network`] that serves one visit attempt byte-for-byte from a
/// recorded tape: same responses, same clock advances, same errors and
/// injected panics — with no content provider at all.
///
/// Replay consumes the tape in call order. Any divergence (a fetch the
/// recording never made, or in a different order) panics loudly,
/// because a drifting replay would silently fabricate data — unless the
/// network is [`audited`](ReplayNetwork::audited), which reports it
/// instead.
pub struct ReplayNetwork {
    exchanges: VecDeque<Exchange>,
    probes: RefCell<VecDeque<PostFetchProbe>>,
    audit: Option<ReplayAudit>,
}

/// The caller's side of an [audited](ReplayNetwork::audited) replay.
/// Kept outside the attempt like a [`TapeHandle`], it learns the first
/// divergence and how much of the tape went unconsumed, even when the
/// attempt unwinds.
#[derive(Clone, Default)]
pub struct ReplayAudit(Rc<RefCell<Audit>>);

#[derive(Default)]
struct Audit {
    /// The first divergence, if any.
    divergence: Option<String>,
    /// Exchanges and probes left on the tape when the network dropped.
    unconsumed: usize,
}

impl ReplayAudit {
    /// An audit no replay has reported to yet.
    pub fn new() -> ReplayAudit {
        ReplayAudit::default()
    }

    /// `Ok` when the audited replay followed its tape to the end, else
    /// what diverged. Read it once the network is dropped.
    pub fn verdict(&self) -> Result<(), String> {
        let audit = self.0.borrow();
        match (&audit.divergence, audit.unconsumed) {
            (Some(divergence), _) => Err(divergence.clone()),
            (None, 0) => Ok(()),
            (None, left) => Err(format!("{left} tape entries left unconsumed")),
        }
    }
}

impl ReplayNetwork {
    /// A replay network over one recorded tape.
    pub fn new(tape: VisitTape) -> ReplayNetwork {
        ReplayNetwork {
            exchanges: tape.exchanges.into(),
            probes: RefCell::new(tape.probes.into()),
            audit: None,
        }
    }

    /// Reports divergence to `audit` instead of panicking: the first one
    /// is kept there, and every diverging fetch or probe fails with
    /// [`FetchError::CrawlerCrash`], so the attempt ends without a panic
    /// for the caller to tell apart from a recorded crash. Dropping the
    /// network reports what it left unconsumed.
    pub fn audited(mut self, audit: &ReplayAudit) -> ReplayNetwork {
        self.audit = Some(audit.clone());
        self
    }

    /// Exchanges not yet consumed (0 after a faithful replay).
    pub fn remaining(&self) -> usize {
        self.exchanges.len() + self.probes.borrow().len()
    }

    /// A divergence from the tape: reported to the audit, or a panic.
    fn diverge(&self, what: String) -> FetchError {
        let Some(audit) = &self.audit else {
            panic!("replay divergence: {what}");
        };
        audit.0.borrow_mut().divergence.get_or_insert(what);
        FetchError::CrawlerCrash
    }
}

impl Drop for ReplayNetwork {
    fn drop(&mut self) {
        if let Some(audit) = &self.audit {
            audit.0.borrow_mut().unconsumed = self.remaining();
        }
    }
}

impl Network for ReplayNetwork {
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError> {
        let requested = url.as_str();
        let Some(exchange) = self.exchanges.pop_front() else {
            let what = format!("fetch of {requested} past the end of the tape");
            return Err(self.diverge(what));
        };
        if exchange.url != requested {
            let what = format!(
                "fetch of {requested} where the tape recorded a fetch of {}",
                exchange.url
            );
            return Err(self.diverge(what));
        }
        clock.advance(exchange.advance_ms);
        match exchange.outcome {
            ExchangeOutcome::Content {
                status,
                headers,
                body,
                final_url,
                redirects,
            } => match Url::parse(&final_url) {
                Ok(final_url) => Ok(Response {
                    status,
                    headers: headers
                        .into_iter()
                        .map(|(name, value)| (name.into(), value.into()))
                        .collect(),
                    body,
                    final_url,
                    redirects,
                }),
                Err(e) => {
                    let what = format!("recorded final URL {final_url:?} unparseable: {e:?}");
                    Err(self.diverge(what))
                }
            },
            ExchangeOutcome::Error(err) => Err(err),
            // Reproduce the recorded crash (same `String` payload shape
            // as `panic!` with format arguments).
            ExchangeOutcome::Panic(message) => panic!("{}", message),
        }
    }

    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError> {
        let requested = url.as_str();
        let probe = self.probes.borrow_mut().pop_front();
        match probe {
            Some(probe) if probe.url == requested => probe.failure,
            Some(probe) => Some(self.diverge(format!(
                "probe of {requested} where the tape recorded a probe of {}",
                probe.url
            ))),
            None => Some(self.diverge(format!(
                "post-fetch probe of {requested} past the end of the tape"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ContentProvider, ProviderResult, SimNetwork};
    use crate::response::SiteBehavior;

    struct TwoSites;

    impl ContentProvider for TwoSites {
        fn resolve(&self, url: &Url) -> ProviderResult {
            match url.host() {
                Some("ok.example") => ProviderResult::Content {
                    response: Response::html(url.clone(), "<p>hi</p>"),
                    behavior: SiteBehavior::default(),
                },
                Some("hop.example") => {
                    ProviderResult::Redirect(Url::parse("https://ok.example/").unwrap())
                }
                Some("eph.example") => ProviderResult::Content {
                    response: Response::html(url.clone(), "<p>eph</p>"),
                    behavior: SiteBehavior {
                        post_fetch_failure: Some(FetchError::EphemeralContext),
                        ..SiteBehavior::default()
                    },
                },
                _ => ProviderResult::DnsFailure,
            }
        }
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn record_then_replay_reproduces_responses_and_clock() {
        let tape = TapeHandle::new();
        let mut live_clock = SimClock::new();
        let mut recorder = RecordingNetwork::new(SimNetwork::new(TwoSites), tape.clone());
        let ok = recorder
            .fetch(&url("https://hop.example/"), &mut live_clock)
            .unwrap();
        let err = recorder
            .fetch(&url("https://gone.example/"), &mut live_clock)
            .unwrap_err();
        assert_eq!(recorder.post_fetch_failure(&ok.final_url), None);
        assert_eq!(err, FetchError::DnsFailure);

        let mut replay = ReplayNetwork::new(tape.take());
        let mut replay_clock = SimClock::new();
        let replayed = replay
            .fetch(&url("https://hop.example/"), &mut replay_clock)
            .unwrap();
        assert_eq!(replayed, ok);
        assert_eq!(
            replay
                .fetch(&url("https://gone.example/"), &mut replay_clock)
                .unwrap_err(),
            FetchError::DnsFailure
        );
        assert_eq!(replay.post_fetch_failure(&replayed.final_url), None);
        assert_eq!(replay_clock.now_ms(), live_clock.now_ms());
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn post_fetch_failures_replay_in_order() {
        let tape = TapeHandle::new();
        let mut clock = SimClock::new();
        let mut recorder = RecordingNetwork::new(SimNetwork::new(TwoSites), tape.clone());
        let r = recorder
            .fetch(&url("https://eph.example/"), &mut clock)
            .unwrap();
        assert_eq!(
            recorder.post_fetch_failure(&r.final_url),
            Some(FetchError::EphemeralContext)
        );
        let mut replay = ReplayNetwork::new(tape.take());
        let r2 = replay
            .fetch(&url("https://eph.example/"), &mut clock)
            .unwrap();
        assert_eq!(
            replay.post_fetch_failure(&r2.final_url),
            Some(FetchError::EphemeralContext)
        );
    }

    #[test]
    fn recorded_panics_survive_and_replay() {
        struct Crash;
        impl Network for Crash {
            fn fetch(&mut self, url: &Url, _clock: &mut SimClock) -> Result<Response, FetchError> {
                panic!("injected fault: simulated crawler crash fetching {url}");
            }
            fn post_fetch_failure(&self, _url: &Url) -> Option<FetchError> {
                None
            }
        }
        let tape = TapeHandle::new();
        let mut clock = SimClock::new();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let live = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            RecordingNetwork::new(Crash, tape.clone()).fetch(&url("https://x.example/"), &mut clock)
        }));
        assert!(live.is_err());
        let recorded = tape.take();
        assert!(matches!(
            recorded.exchanges[0].outcome,
            ExchangeOutcome::Panic(_)
        ));
        let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ReplayNetwork::new(recorded.clone()).fetch(&url("https://x.example/"), &mut clock)
        }));
        std::panic::set_hook(prev);
        let payload = replayed.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("injected fault: simulated crawler crash fetching https://x.example/")
        );
    }

    #[test]
    fn replay_divergence_is_loud() {
        let tape = TapeHandle::new();
        let mut clock = SimClock::new();
        RecordingNetwork::new(SimNetwork::new(TwoSites), tape.clone())
            .fetch(&url("https://ok.example/"), &mut clock)
            .unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ReplayNetwork::new(tape.take()).fetch(&url("https://other.example/"), &mut clock)
        }));
        std::panic::set_hook(prev);
        assert!(result.is_err(), "URL mismatch must panic");
    }

    #[test]
    fn audited_replay_reports_divergence_instead_of_panicking() {
        let tape = TapeHandle::new();
        let mut clock = SimClock::new();
        let mut recorder = RecordingNetwork::new(SimNetwork::new(TwoSites), tape.clone());
        let (ok, gone) = (url("https://ok.example/"), url("https://gone.example/"));
        recorder.fetch(&ok, &mut clock).unwrap();
        recorder.fetch(&gone, &mut clock).unwrap_err();
        let recorded = tape.take();
        let replay = |audit: &ReplayAudit| ReplayNetwork::new(recorded.clone()).audited(audit);

        // A faithful replay passes the audit.
        let audit = ReplayAudit::new();
        let mut network = replay(&audit);
        network.fetch(&ok, &mut clock).unwrap();
        network.fetch(&gone, &mut clock).unwrap_err();
        drop(network);
        assert_eq!(audit.verdict(), Ok(()));

        // A fetch the tape did not record fails, and the audit names it.
        let audit = ReplayAudit::new();
        let mut network = replay(&audit);
        let other = url("https://other.example/");
        let err = network.fetch(&other, &mut clock).unwrap_err();
        assert_eq!(err, FetchError::CrawlerCrash);
        drop(network);
        let verdict = audit.verdict().unwrap_err();
        assert!(verdict.contains("https://other.example/"), "{verdict}");

        // A replay that ends early leaves the rest of its tape unused.
        let audit = ReplayAudit::new();
        drop(replay(&audit));
        let verdict = audit.verdict().unwrap_err();
        assert_eq!(verdict, "2 tape entries left unconsumed");
    }
}
