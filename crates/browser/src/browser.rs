//! The engine: navigation, frame tree construction, script execution.

use std::borrow::Cow;
use std::marker::PhantomData;

use jsland::{Engine, RunError, ScriptEngine, ScriptSource, StepPool};
use netsim::{FetchError, Network, Response, SimClock};
use policy::engine::{DocumentPolicy, FramingContext, LocalSchemeBehavior, PolicyEngine};
use policy::header::{parse_permissions_policy, DeclaredPolicy};
use policy::{feature_policy, parse_allow_attribute, Csp};
use weburl::{Origin, Url};

use crate::hooks::BrowserHooks;
use crate::records::{
    DegradationEvent, DegradationKind, FrameRecord, IframeAttrs, InvocationKind, PageVisit,
    PromptRecord, ScriptOutcome, ScriptRecord, VisitError, VisitOutcome, SCHEMA_VERSION,
};

/// Browser / crawl-visit configuration. Defaults match the paper's
/// instantiation (§3.2): 60 s load timeout, 20 s settle, 90 s page budget,
/// scrolling to lazy iframes, no interaction.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// Maximum time for the top-level load event.
    pub load_timeout_ms: u64,
    /// Idle time after load before final collection.
    pub settle_ms: u64,
    /// Overall page budget; exceeding it marks the visit
    /// [`VisitOutcome::PageTimeout`].
    pub page_budget_ms: u64,
    /// Maximum iframe nesting depth to load.
    pub max_frame_depth: u32,
    /// Hard cap on loaded frames per page.
    pub max_frames: usize,
    /// Whether the crawler scrolls to trigger lazy iframes (§3.2: yes).
    pub scroll_lazy_iframes: bool,
    /// Interaction mode (Appendix A.3): fire click handlers after load.
    pub interaction: bool,
    /// Local-scheme policy inheritance behaviour (the Table 11 switch).
    pub local_scheme_behavior: LocalSchemeBehavior,
    /// Per-visit resource caps (the governor).
    pub budget: VisitBudget,
}

impl Default for BrowserConfig {
    fn default() -> BrowserConfig {
        BrowserConfig {
            load_timeout_ms: 60_000,
            settle_ms: 20_000,
            page_budget_ms: 90_000,
            max_frame_depth: 3,
            max_frames: 48,
            scroll_lazy_iframes: true,
            interaction: false,
            local_scheme_behavior: LocalSchemeBehavior::FreshPolicy,
            budget: VisitBudget::default(),
        }
    }
}

/// The per-visit resource governor: caps that bound what one page can
/// consume, sized so no well-formed page in the measured population ever
/// trips them — every trip is recorded as a [`DegradationEvent`] and the
/// visit continues with what it has (graceful degradation), instead of
/// wedging the crawler or silently losing data.
#[derive(Debug, Clone, Copy)]
pub struct VisitBudget {
    /// Page-wide interpreter step pool shared by all scripts of the
    /// visit (in addition to the per-script step budget).
    pub page_script_steps: u64,
    /// Per-script source byte cap; larger scripts are truncated and not
    /// executed.
    pub max_script_bytes: usize,
    /// Per-document HTML byte cap; larger bodies are scanned truncated.
    pub max_document_bytes: usize,
    /// Per-visit subresource fetch cap (scripts and framed documents).
    pub max_fetches: usize,
    /// Maximum redirect hops accepted for an external script response.
    pub max_redirect_hops: u32,
    /// Byte cap per policy-relevant response header; oversized headers
    /// are treated as absent.
    pub max_header_bytes: usize,
}

impl Default for VisitBudget {
    fn default() -> VisitBudget {
        VisitBudget {
            page_script_steps: 1_000_000,
            max_script_bytes: 65_536,
            max_document_bytes: 1_048_576,
            max_fetches: 96,
            max_redirect_hops: 3,
            max_header_bytes: 8_192,
        }
    }
}

/// The simulated browser. Each document runs its scripts on a fresh
/// `E`; every production path uses the default, [`ScriptEngine`].
pub struct Browser<N, E = ScriptEngine> {
    network: N,
    engine: PolicyEngine,
    config: BrowserConfig,
    script_engine: PhantomData<fn() -> E>,
}

struct LoadCtx {
    deadline: u64,
    frames: Vec<FrameRecord>,
    outcome: VisitOutcome,
    /// Every cap trip / per-script failure, in occurrence order.
    degradations: Vec<DegradationEvent>,
    /// Network fetches performed so far (top-level load included).
    fetches: usize,
    /// The page-wide script step pool.
    pool: StepPool,
    /// Cap trips recorded once per visit, not once per attempt.
    frame_cap_noted: bool,
    fetch_cap_noted: bool,
}

impl LoadCtx {
    fn degrade(&mut self, frame_id: usize, kind: DegradationKind, detail: Option<String>) {
        self.degradations.push(DegradationEvent {
            frame_id,
            kind,
            detail,
        });
    }

    /// Checks the fetch cap and claims one fetch slot. On the first
    /// refusal the cap trip itself is recorded.
    fn claim_fetch(&mut self, frame_id: usize, max_fetches: usize) -> bool {
        if self.fetches >= max_fetches {
            if !self.fetch_cap_noted {
                self.fetch_cap_noted = true;
                self.degrade(
                    frame_id,
                    DegradationKind::FetchCapReached,
                    Some(format!("fetch cap {max_fetches} reached")),
                );
            }
            return false;
        }
        self.fetches += 1;
        true
    }

    /// Reads a policy-relevant header, treating oversized values as
    /// absent (recorded as a degradation).
    fn capped_header(
        &mut self,
        frame_id: usize,
        max_bytes: usize,
        response: &Response,
        name: &str,
    ) -> Option<String> {
        let value = response.header(name)?;
        if value.len() > max_bytes {
            self.degrade(
                frame_id,
                DegradationKind::HeaderBytesCapped,
                Some(format!("{name}: {} bytes", value.len())),
            );
            None
        } else {
            Some(value.to_string())
        }
    }
}

/// Maps a script run failure to its record marker and event kind.
fn classify_run_error(error: &RunError) -> (ScriptOutcome, DegradationKind) {
    match error {
        RunError::Lex(_) | RunError::Parse(_) => {
            (ScriptOutcome::ParseError, DegradationKind::ScriptParseError)
        }
        RunError::BudgetExceeded => (
            ScriptOutcome::BudgetExceeded,
            DegradationKind::ScriptBudgetExceeded,
        ),
        RunError::PoolExhausted => (
            ScriptOutcome::PoolExhausted,
            DegradationKind::ScriptPoolExhausted,
        ),
        RunError::Compile(_) => (
            ScriptOutcome::CompileError,
            DegradationKind::ScriptCompileError,
        ),
    }
}

/// The longest prefix of `text` of at most `max_bytes`, backing up to a
/// char boundary so hostile multi-byte input cannot cause a slicing
/// panic.
fn prefix_to_boundary(text: &str, max_bytes: usize) -> &str {
    let mut end = max_bytes.min(text.len());
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

impl<N: Network> Browser<N> {
    /// A browser over `network` with `config`.
    pub fn new(network: N, config: BrowserConfig) -> Browser<N> {
        Browser::with_engine(network, config)
    }
}

impl<N: Network, E: Engine> Browser<N, E> {
    /// A browser whose documents run scripts on `E`; tests use it to run
    /// the whole browser on `jsland`'s differential referee.
    pub fn with_engine(network: N, config: BrowserConfig) -> Browser<N, E> {
        Browser {
            engine: PolicyEngine::new(config.local_scheme_behavior),
            network,
            config,
            script_engine: PhantomData,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BrowserConfig {
        &self.config
    }

    /// Gives back the network (for provider queries after crawling).
    pub fn into_network(self) -> N {
        self.network
    }

    /// Visits a page: navigates, loads frames, runs scripts under
    /// instrumentation, and returns everything collected.
    pub fn visit(&mut self, url: &Url, clock: &mut SimClock) -> Result<PageVisit, VisitError> {
        let start = clock.now_ms();
        let load_deadline = clock.deadline(self.config.load_timeout_ms);
        let page_deadline = clock.deadline(self.config.page_budget_ms);

        let response = match self.network.fetch(url, clock) {
            Ok(r) => r,
            Err(FetchError::DnsFailure | FetchError::ConnectionFailure) => {
                return Err(VisitError::Unreachable)
            }
            Err(_) => return Err(VisitError::Unreachable),
        };
        if clock.expired(load_deadline) {
            return Err(VisitError::LoadTimeout);
        }

        let budget = self.config.budget;
        let mut ctx = LoadCtx {
            deadline: page_deadline,
            frames: Vec::new(),
            outcome: VisitOutcome::Success,
            degradations: Vec::new(),
            fetches: 1,
            pool: StepPool::limited(budget.page_script_steps),
            frame_cap_noted: false,
            fetch_cap_noted: false,
        };

        // Post-fetch failures surface during collection.
        match self.network.post_fetch_failure(&response.final_url) {
            Some(FetchError::EphemeralContext) => ctx.outcome = VisitOutcome::EphemeralContext,
            Some(FetchError::CrawlerCrash) => ctx.outcome = VisitOutcome::CrawlerCrash,
            _ => {}
        }

        let origin = response.final_url.origin();
        // The top-level document cannot be dropped for over-long redirect
        // chains (there would be no visit), but the anomaly is recorded.
        if response.redirects > budget.max_redirect_hops {
            ctx.degrade(
                0,
                DegradationKind::RedirectHopsExceeded,
                Some(format!("top-level: {} hops", response.redirects)),
            );
        }
        let pp_header =
            ctx.capped_header(0, budget.max_header_bytes, &response, "permissions-policy");
        let fp_header = ctx.capped_header(0, budget.max_header_bytes, &response, "feature-policy");
        let csp_header = ctx.capped_header(
            0,
            budget.max_header_bytes,
            &response,
            "content-security-policy",
        );
        let declared = effective_declared(pp_header.as_deref(), fp_header.as_deref());
        let origin_text = origin.ascii_serialization();
        let policy = self.engine.document_for_top_level(origin, declared);

        if ctx.outcome != VisitOutcome::CrawlerCrash
            && ctx.outcome != VisitOutcome::EphemeralContext
        {
            self.load_document(
                &mut ctx,
                clock,
                LoadDoc {
                    html: response.body_str(),
                    url: Some(response.final_url.clone()),
                    origin: origin_text,
                    policy,
                    pp_header,
                    fp_header,
                    csp_header,
                    parent: None,
                    depth: 0,
                    is_top_level: true,
                    is_local: false,
                    scripts_enabled: true,
                    iframe_attrs: None,
                },
            );
            // Settle window (§3.2: 20 s without interaction).
            clock.advance(self.config.settle_ms);
        }

        let prompts = derive_prompts(&ctx.frames);
        let schema_version = if ctx.degradations.is_empty() {
            0
        } else {
            SCHEMA_VERSION
        };
        Ok(PageVisit {
            requested_url: url.to_string(),
            frames: ctx.frames,
            prompts,
            outcome: ctx.outcome,
            elapsed_ms: clock.now_ms() - start,
            schema_version,
            degradations: ctx.degradations,
        })
    }

    fn load_document(&mut self, ctx: &mut LoadCtx, clock: &mut SimClock, doc: LoadDoc<'_>) {
        if ctx.frames.len() >= self.config.max_frames {
            ctx.outcome = VisitOutcome::PageTimeout;
            if !ctx.frame_cap_noted {
                ctx.frame_cap_noted = true;
                ctx.degrade(
                    ctx.frames.len(),
                    DegradationKind::FrameCapReached,
                    Some(format!("frame cap {} reached", self.config.max_frames)),
                );
            }
            return;
        }
        let budget = self.config.budget;
        let frame_id = ctx.frames.len();
        let mut html: &str = &doc.html;
        if html.len() > budget.max_document_bytes {
            ctx.degrade(
                frame_id,
                DegradationKind::DocumentBytesCapped,
                Some(format!(
                    "{} of {} bytes scanned",
                    budget.max_document_bytes,
                    html.len()
                )),
            );
            html = prefix_to_boundary(html, budget.max_document_bytes);
        }
        let scanned = html::scan(html);

        // Collect scripts: external ones are fetched, inline ones taken as
        // written; HTML event-handler attributes count as inline script
        // material for the static analysis. Failures no longer vanish:
        // each script carries its outcome, each cap trip an event. The
        // scripts to run are indices into the records, which own the
        // only copy of each source.
        let mut scripts: Vec<ScriptRecord> = Vec::new();
        let mut executable: Vec<usize> = Vec::new();
        for script in &scanned.scripts {
            if !script.is_javascript() {
                continue;
            }
            if let Some(src) = &script.src {
                let Ok(script_url) = Url::parse_with_base(src, doc.url.as_ref()) else {
                    continue;
                };
                let url_string = script_url.to_string();
                if !ctx.claim_fetch(frame_id, budget.max_fetches) {
                    ctx.degrade(
                        frame_id,
                        DegradationKind::ScriptFetchFailed,
                        Some(format!("{url_string}: fetch cap reached")),
                    );
                    scripts.push(ScriptRecord {
                        url: Some(url_string),
                        source: String::new(),
                        outcome: ScriptOutcome::FetchFailed,
                    });
                    continue;
                }
                match self.network.fetch(&script_url, clock) {
                    Ok(resp) if resp.redirects > budget.max_redirect_hops => {
                        ctx.degrade(
                            frame_id,
                            DegradationKind::RedirectHopsExceeded,
                            Some(format!("{url_string}: {} hops", resp.redirects)),
                        );
                        scripts.push(ScriptRecord {
                            url: Some(url_string),
                            source: String::new(),
                            outcome: ScriptOutcome::FetchFailed,
                        });
                    }
                    Ok(resp) => {
                        let source = resp.body_str();
                        if source.len() > budget.max_script_bytes {
                            ctx.degrade(
                                frame_id,
                                DegradationKind::ScriptBytesCapped,
                                Some(format!("{url_string}: {} bytes", source.len())),
                            );
                            scripts.push(ScriptRecord {
                                url: Some(url_string),
                                source: prefix_to_boundary(&source, budget.max_script_bytes)
                                    .to_string(),
                                outcome: ScriptOutcome::BytesCapped,
                            });
                        } else {
                            executable.push(scripts.len());
                            scripts.push(ScriptRecord::ok(Some(url_string), source.into_owned()));
                        }
                    }
                    Err(error) => {
                        ctx.degrade(
                            frame_id,
                            DegradationKind::ScriptFetchFailed,
                            Some(format!("{url_string}: {error}")),
                        );
                        scripts.push(ScriptRecord {
                            url: Some(url_string),
                            source: String::new(),
                            outcome: ScriptOutcome::FetchFailed,
                        });
                    }
                }
            } else if let Some(inline) = &script.inline {
                if inline.len() > budget.max_script_bytes {
                    ctx.degrade(
                        frame_id,
                        DegradationKind::ScriptBytesCapped,
                        Some(format!("inline: {} bytes", inline.len())),
                    );
                    scripts.push(ScriptRecord {
                        url: None,
                        source: prefix_to_boundary(inline, budget.max_script_bytes).to_string(),
                        outcome: ScriptOutcome::BytesCapped,
                    });
                } else {
                    executable.push(scripts.len());
                    scripts.push(ScriptRecord::ok(None, inline.clone()));
                }
            }
        }
        let handler_base = scripts.len();
        for handler in &scanned.handlers {
            scripts.push(ScriptRecord::ok(None, handler.code.clone()));
        }

        // Execute scripts under instrumentation (sandboxed frames without
        // allow-scripts still have their sources collected, but run
        // nothing). Each run draws on the page-wide step pool; failures
        // are per-script, like a real page, but recorded.
        let mut hooks = BrowserHooks::new(&doc.policy);
        let mut interp = E::default();
        if doc.scripts_enabled {
            for index in executable {
                let script = &scripts[index];
                let script_source = match &script.url {
                    Some(u) => ScriptSource::external(u.clone()),
                    None => ScriptSource::inline(),
                };
                if let Err(error) =
                    interp.run_pooled(&script.source, script_source, &mut hooks, &mut ctx.pool)
                {
                    let (outcome, kind) = classify_run_error(&error);
                    let detail = match &script.url {
                        Some(u) => format!("{u}: {error}"),
                        None => error.to_string(),
                    };
                    scripts[index].outcome = outcome;
                    ctx.degrade(frame_id, kind, Some(detail));
                }
                clock.advance(2);
            }
        }
        if !interp.drain_timers_pooled(&mut hooks, &mut ctx.pool) {
            ctx.degrade(
                frame_id,
                DegradationKind::ScriptPoolExhausted,
                Some("pending timers dropped".to_string()),
            );
        }

        // Interaction mode (Appendix A.3): the manual tester clicks,
        // hovers and submits — fire every registered listener event and
        // every inline handler attribute, whatever its event name.
        if self.config.interaction && doc.scripts_enabled {
            let events: std::collections::BTreeSet<String> =
                interp.handlers().iter().map(|h| h.event.clone()).collect();
            // Handlers draw on the page pool like scripts; once it is dry
            // the remaining events are dropped and recorded once.
            if !events
                .iter()
                .all(|event| interp.fire_event(event, &mut hooks, &mut ctx.pool))
            {
                ctx.degrade(
                    frame_id,
                    DegradationKind::ScriptPoolExhausted,
                    Some("pending handlers dropped".to_string()),
                );
            }
            for (offset, handler) in scanned.handlers.iter().enumerate() {
                if let Err(error) = interp.run_pooled(
                    &handler.code,
                    ScriptSource::inline(),
                    &mut hooks,
                    &mut ctx.pool,
                ) {
                    let (outcome, kind) = classify_run_error(&error);
                    scripts[handler_base + offset].outcome = outcome;
                    ctx.degrade(frame_id, kind, Some(error.to_string()));
                }
            }
            if !interp.drain_timers_pooled(&mut hooks, &mut ctx.pool) {
                ctx.degrade(
                    frame_id,
                    DegradationKind::ScriptPoolExhausted,
                    Some("pending timers dropped".to_string()),
                );
            }
        }

        let allowed_features = doc
            .policy
            .allowed_features()
            .into_iter()
            .map(registry::FeatureToken)
            .collect();

        let url = doc.url.as_ref().map(Url::to_string);
        // The site from the URL text just made: the same answer as
        // `Url::site`, without building a `Site`.
        let site = url
            .as_deref()
            .and_then(weburl::site_domain)
            .map(Cow::into_owned);
        ctx.frames.push(FrameRecord {
            frame_id,
            parent: doc.parent,
            depth: doc.depth,
            url,
            origin: doc.origin,
            site,
            is_top_level: doc.is_top_level,
            is_local_document: doc.is_local,
            iframe_attrs: doc.iframe_attrs,
            permissions_policy_header: doc.pp_header,
            feature_policy_header: doc.fp_header,
            csp_header: doc.csp_header.clone(),
            invocations: hooks.invocations,
            scripts,
            allowed_features,
        });

        // Load child frames, gated by the document's CSP frame policy.
        if doc.depth >= self.config.max_frame_depth {
            if !scanned.iframes.is_empty() {
                ctx.degrade(
                    frame_id,
                    DegradationKind::FrameDepthTruncated,
                    Some(format!(
                        "{} iframes dropped at depth {}",
                        scanned.iframes.len(),
                        doc.depth
                    )),
                );
            }
            return;
        }
        let csp = doc.csp_header.as_deref().map(Csp::parse);
        for iframe in scanned.iframes {
            if clock.expired(ctx.deadline) {
                ctx.outcome = VisitOutcome::PageTimeout;
                return;
            }
            if iframe.lazy() && !self.config.scroll_lazy_iframes {
                continue;
            }
            if iframe.lazy() {
                // Scrolling to the frame costs a little simulated time.
                clock.advance(250);
            }
            self.load_iframe(
                ctx,
                clock,
                &doc.policy,
                doc.url.as_ref(),
                csp.as_ref(),
                frame_id,
                doc.depth,
                iframe,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn load_iframe(
        &mut self,
        ctx: &mut LoadCtx,
        clock: &mut SimClock,
        parent_policy: &DocumentPolicy,
        parent_url: Option<&Url>,
        parent_csp: Option<&Csp>,
        parent_id: usize,
        parent_depth: u32,
        iframe: html::IframeElement,
    ) {
        // The scanned element's strings move into the record.
        let html::IframeElement {
            id,
            name,
            class,
            src,
            allow,
            sandbox,
            srcdoc,
            loading,
        } = iframe;
        let attrs = IframeAttrs {
            id,
            name,
            class,
            src,
            allow,
            sandbox,
            has_srcdoc: srcdoc.is_some(),
            loading,
        };
        let allow = attrs.allow.as_deref().map(parse_allow_attribute);
        let (scripts_enabled, same_origin) = sandbox_flags(attrs.sandbox.as_deref());
        let depth = parent_depth + 1;

        // srcdoc documents: same-origin local documents with inline HTML
        // (opaque-origin when sandboxed without allow-same-origin).
        if let Some(srcdoc) = srcdoc {
            let origin = if same_origin {
                parent_policy.origin().clone()
            } else {
                Origin::opaque()
            };
            let framing = FramingContext {
                allow: allow.as_ref(),
                src_origin: Some(origin.clone()),
            };
            let origin_text = origin.ascii_serialization();
            let policy = self.engine.document_for_frame(
                parent_policy,
                &framing,
                origin,
                DeclaredPolicy::default(),
                true,
            );
            self.load_document(
                ctx,
                clock,
                LoadDoc {
                    html: Cow::Owned(srcdoc),
                    url: None,
                    origin: origin_text,
                    policy,
                    pp_header: None,
                    fp_header: None,
                    csp_header: None,
                    parent: Some(parent_id),
                    depth,
                    is_top_level: false,
                    is_local: true,
                    scripts_enabled,
                    iframe_attrs: Some(attrs),
                },
            );
            return;
        }

        let Some(src) = attrs.src.as_deref().filter(|s| !s.is_empty()) else {
            // src-less iframe: an empty local document.
            self.push_empty_local_frame(ctx, parent_policy, parent_id, depth, attrs, allow);
            return;
        };
        let Ok(src_url) = Url::parse_with_base(src, parent_url) else {
            return;
        };
        // CSP frame gate: a frame-src/child-src/default-src directive can
        // refuse the load outright (the §6.2 injection-vector mitigation).
        if let (Some(csp), Some(doc_url)) = (parent_csp, parent_url) {
            if !csp.allows_frame(&src_url, doc_url) {
                return;
            }
        }

        match src_url.scheme() {
            "about" | "javascript" => {
                self.push_empty_local_frame(ctx, parent_policy, parent_id, depth, attrs, allow);
            }
            "data" | "blob" => {
                // Opaque-origin local document; payload HTML for data: URLs.
                let origin = Origin::opaque();
                let framing = FramingContext {
                    allow: allow.as_ref(),
                    src_origin: Some(origin.clone()),
                };
                let origin_text = origin.ascii_serialization();
                let policy = self.engine.document_for_frame(
                    parent_policy,
                    &framing,
                    origin,
                    DeclaredPolicy::default(),
                    true,
                );
                let html_payload = if src_url.scheme() == "data" {
                    src_url.path().split_once(',').map_or("", |(_, body)| body)
                } else {
                    ""
                };
                self.load_document(
                    ctx,
                    clock,
                    LoadDoc {
                        html: Cow::Borrowed(html_payload),
                        url: Some(src_url.clone()),
                        origin: origin_text,
                        policy,
                        pp_header: None,
                        fp_header: None,
                        csp_header: None,
                        parent: Some(parent_id),
                        depth,
                        is_top_level: false,
                        is_local: true,
                        scripts_enabled,
                        iframe_attrs: Some(attrs),
                    },
                );
            }
            _ => {
                // Network document (fetches count against the visit cap).
                if !ctx.claim_fetch(parent_id, self.config.budget.max_fetches) {
                    return;
                }
                let Ok(response) = self.network.fetch(&src_url, clock) else {
                    return;
                };
                // Sandboxing without allow-same-origin forces an opaque
                // origin for everything, including policy matching.
                let origin = if same_origin {
                    response.final_url.origin()
                } else {
                    Origin::opaque()
                };
                let framing = FramingContext {
                    allow: allow.as_ref(),
                    // 'src' refers to the *declared* src URL, which is how
                    // wildcard delegations survive redirects (§5.2).
                    src_origin: Some(src_url.origin()),
                };
                // The id this frame will get if it loads (header-cap
                // events are attributed to it).
                let child_id = ctx.frames.len();
                let max_header = self.config.budget.max_header_bytes;
                let pp_header =
                    ctx.capped_header(child_id, max_header, &response, "permissions-policy");
                let fp_header =
                    ctx.capped_header(child_id, max_header, &response, "feature-policy");
                let csp_header =
                    ctx.capped_header(child_id, max_header, &response, "content-security-policy");
                let declared = effective_declared(pp_header.as_deref(), fp_header.as_deref());
                let origin_text = origin.ascii_serialization();
                let policy = self.engine.document_for_frame(
                    parent_policy,
                    &framing,
                    origin,
                    declared,
                    false,
                );
                self.load_document(
                    ctx,
                    clock,
                    LoadDoc {
                        html: response.body_str(),
                        url: Some(response.final_url.clone()),
                        origin: origin_text,
                        policy,
                        pp_header,
                        fp_header,
                        csp_header,
                        parent: Some(parent_id),
                        depth,
                        is_top_level: false,
                        is_local: false,
                        scripts_enabled,
                        iframe_attrs: Some(attrs),
                    },
                );
            }
        }
    }

    fn push_empty_local_frame(
        &mut self,
        ctx: &mut LoadCtx,
        parent_policy: &DocumentPolicy,
        parent_id: usize,
        depth: u32,
        attrs: IframeAttrs,
        allow: Option<policy::AllowAttribute>,
    ) {
        if ctx.frames.len() >= self.config.max_frames {
            // An empty local frame is cheap, but the cap is the cap —
            // note the trip without ending the visit.
            if !ctx.frame_cap_noted {
                ctx.frame_cap_noted = true;
                ctx.degrade(
                    ctx.frames.len(),
                    DegradationKind::FrameCapReached,
                    Some(format!("frame cap {} reached", self.config.max_frames)),
                );
            }
            return;
        }
        let origin = parent_policy.origin().clone();
        let framing = FramingContext {
            allow: allow.as_ref(),
            src_origin: Some(origin.clone()),
        };
        let policy = self.engine.document_for_frame(
            parent_policy,
            &framing,
            origin.clone(),
            DeclaredPolicy::default(),
            true,
        );
        let frame_id = ctx.frames.len();
        ctx.frames.push(FrameRecord {
            frame_id,
            parent: Some(parent_id),
            depth,
            url: attrs.src.clone(),
            origin: origin.ascii_serialization(),
            site: None,
            is_top_level: false,
            is_local_document: true,
            iframe_attrs: Some(attrs),
            permissions_policy_header: None,
            feature_policy_header: None,
            csp_header: None,
            invocations: vec![],
            scripts: vec![],
            allowed_features: policy
                .allowed_features()
                .into_iter()
                .map(registry::FeatureToken)
                .collect(),
        });
    }
}

struct LoadDoc<'a> {
    /// The document text, borrowed from its response where possible.
    html: Cow<'a, str>,
    url: Option<Url>,
    /// The document origin's serialization, as the frame record holds
    /// it (the policy owns the `Origin`).
    origin: String,
    policy: DocumentPolicy,
    pp_header: Option<String>,
    fp_header: Option<String>,
    csp_header: Option<String>,
    parent: Option<usize>,
    depth: u32,
    is_top_level: bool,
    is_local: bool,
    /// False for frames sandboxed without `allow-scripts`.
    scripts_enabled: bool,
    iframe_attrs: Option<IframeAttrs>,
}

/// Sandbox semantics (the slice the measurement needs): whether scripts
/// may run, and whether the document keeps its real origin.
fn sandbox_flags(sandbox: Option<&str>) -> (bool, bool) {
    match sandbox {
        None => (true, true),
        Some(value) => {
            let has = |token: &str| {
                value
                    .split_ascii_whitespace()
                    .any(|t| t.eq_ignore_ascii_case(token))
            };
            (has("allow-scripts"), has("allow-same-origin"))
        }
    }
}

/// Derives the prompts a visit would have shown: the first
/// policy-allowed invocation of each powerful permission per frame. The
/// prompt is attributed to the top-level origin (§2.2.2) except for
/// `storage-access`, the one permission whose prompt names the embedded
/// document.
fn derive_prompts(frames: &[FrameRecord]) -> Vec<PromptRecord> {
    let Some(top_origin) = frames
        .iter()
        .find(|f| f.is_top_level)
        .map(|f| f.origin.clone())
    else {
        return Vec::new();
    };
    let mut prompts = Vec::new();
    for frame in frames {
        let mut seen: Vec<registry::Permission> = Vec::new();
        for inv in &frame.invocations {
            if inv.kind != InvocationKind::Invocation || inv.policy_blocked {
                continue;
            }
            for p in &inv.permissions {
                if !p.info().powerful || seen.contains(p) {
                    continue;
                }
                seen.push(*p);
                let attributed_origin = if *p == registry::Permission::StorageAccess {
                    frame.origin.clone()
                } else {
                    top_origin.clone()
                };
                prompts.push(PromptRecord {
                    permission: *p,
                    frame_id: frame.frame_id,
                    from_embedded: !frame.is_top_level,
                    attributed_origin,
                });
            }
        }
    }
    prompts
}

/// Chromium's header precedence (§2.2.6): a syntactically valid
/// `Permissions-Policy` header wins; an invalid one is dropped entirely;
/// `Feature-Policy` applies only when no `Permissions-Policy` header is
/// present.
fn effective_declared(pp: Option<&str>, fp: Option<&str>) -> DeclaredPolicy {
    if let Some(pp) = pp {
        return parse_permissions_policy(pp).unwrap_or_default();
    }
    if let Some(fp) = fp {
        return feature_policy::parse_feature_policy(fp);
    }
    DeclaredPolicy::default()
}
