//! Data collected while visiting a page — the crawl database schema.

use serde::{Deserialize, Serialize};

use registry::{Permission, PermissionSet};

/// How a permission-related API invocation relates to the permission
/// system (mirrors `registry::apis::ApiKind`, plus resolution results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InvocationKind {
    /// Uses a capability (e.g. `getUserMedia`).
    Invocation,
    /// Queries the status of one specific permission.
    StatusQuery,
    /// General Permissions / (Feature|Permissions) Policy API use,
    /// including full-allowlist retrieval.
    General,
}

/// One recorded API invocation (the Figure 1 instrumentation output).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvocationRecord {
    /// Canonical API path.
    pub api_path: String,
    /// Invocation kind.
    pub kind: InvocationKind,
    /// Permissions exercised (empty for general APIs; the queried
    /// permission for status queries).
    pub permissions: Vec<Permission>,
    /// URL of the calling script from the stack trace; `None` for inline
    /// scripts (classified first-party, §4.1.1).
    pub script_url: Option<String>,
    /// Whether the call came through `new`.
    pub constructed: bool,
    /// Whether the deprecated Feature Policy API surface was used.
    pub via_feature_policy_api: bool,
    /// Whether Permissions Policy blocked the feature in this context
    /// (the instrumentation still logs the attempt).
    pub policy_blocked: bool,
}

/// How obtaining / executing a script went (per-script degradation
/// marker; `Ok` is the quiet default and is omitted from the JSONL).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScriptOutcome {
    /// Fetched (if external), parsed and executed to completion.
    #[default]
    Ok,
    /// The lexer or parser rejected the source; nothing executed.
    ParseError,
    /// The per-script step budget (or the recursion guard) tripped;
    /// execution was cut short.
    BudgetExceeded,
    /// The page-wide shared step pool was already (or became) exhausted.
    PoolExhausted,
    /// The external fetch failed (DNS, connection, redirect loop, or the
    /// per-visit fetch cap); `source` is empty.
    FetchFailed,
    /// The response exceeded the per-script byte cap; `source` holds the
    /// truncated prefix and the script was not executed.
    BytesCapped,
    /// The source parsed but the bytecode compiler rejected it (e.g. the
    /// nesting-depth guard); nothing executed. Only the VM engine emits
    /// this — it is never silently downgraded to an interpreter run.
    CompileError,
}

/// A script collected from a frame (for static analysis).
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct ScriptRecord {
    /// External URL; `None` for inline scripts and handler attributes.
    pub url: Option<String>,
    /// Source text.
    pub source: String,
    /// Degradation marker (defaults to [`ScriptOutcome::Ok`] so databases
    /// written before schema v2 still load).
    #[serde(default)]
    pub outcome: ScriptOutcome,
}

// Hand-written so clean scripts serialize exactly as they did before the
// `outcome` field existed (schema v1 bytes): the field is emitted only
// when it carries information.
impl Serialize for ScriptRecord {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("url".to_string(), self.url.to_value()),
            ("source".to_string(), self.source.to_value()),
        ];
        if self.outcome != ScriptOutcome::Ok {
            fields.push(("outcome".to_string(), self.outcome.to_value()));
        }
        serde::Value::Obj(fields)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"url\":");
        self.url.write_json(out);
        out.push_str(",\"source\":");
        self.source.write_json(out);
        if self.outcome != ScriptOutcome::Ok {
            out.push_str(",\"outcome\":");
            self.outcome.write_json(out);
        }
        out.push('}');
    }
}

impl ScriptRecord {
    /// A script that ran (or was collected) cleanly.
    pub fn ok(url: Option<String>, source: String) -> ScriptRecord {
        ScriptRecord {
            url,
            source,
            outcome: ScriptOutcome::Ok,
        }
    }
}

/// The iframe attributes collected for an embedded frame (§3.1.2).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IframeAttrs {
    /// `id`.
    pub id: Option<String>,
    /// `name`.
    pub name: Option<String>,
    /// `class`.
    pub class: Option<String>,
    /// `src` as written.
    pub src: Option<String>,
    /// `allow` as written.
    pub allow: Option<String>,
    /// `sandbox`.
    pub sandbox: Option<String>,
    /// Whether `srcdoc` was present.
    pub has_srcdoc: bool,
    /// `loading`.
    pub loading: Option<String>,
}

/// One document (frame) visited during a page load.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Frame index within the visit (0 = the final top-level document).
    pub frame_id: usize,
    /// Parent frame index (`None` for top-level documents).
    pub parent: Option<usize>,
    /// Nesting depth (0 for top-level).
    pub depth: u32,
    /// Final document URL (`None` for srcdoc documents).
    pub url: Option<String>,
    /// Serialized origin (`"null"` for opaque origins).
    pub origin: String,
    /// Site (registrable domain), when the origin is a tuple origin.
    pub site: Option<String>,
    /// Whether this is a top-level document (initial load or redirect).
    pub is_top_level: bool,
    /// Whether this is a local document (srcdoc / local scheme /
    /// `javascript:` — no network request, no headers).
    pub is_local_document: bool,
    /// Attributes of the embedding `<iframe>` element.
    pub iframe_attrs: Option<IframeAttrs>,
    /// Raw `Permissions-Policy` response header.
    pub permissions_policy_header: Option<String>,
    /// Raw `Feature-Policy` response header.
    pub feature_policy_header: Option<String>,
    /// Raw `Content-Security-Policy` response header (frame-relevant for
    /// the §6.2 vulnerability analysis).
    #[serde(default)]
    pub csp_header: Option<String>,
    /// Recorded API invocations, first occurrence per (api, script) pair.
    pub invocations: Vec<InvocationRecord>,
    /// Scripts loaded by this frame (for the static analysis).
    pub scripts: Vec<ScriptRecord>,
    /// Policy-controlled features enabled for this document's own origin,
    /// as the policy engine computed them. Serialized as the members'
    /// spec tokens in registry order.
    pub allowed_features: PermissionSet,
}

impl FrameRecord {
    /// Whether any permission-related invocation was recorded.
    pub fn any_invocation(&self) -> bool {
        !self.invocations.is_empty()
    }
}

/// A permission prompt the browser would have shown (§2.2.2: prompts for
/// delegated powerful features name the *top-level* site, not the
/// embedded document requesting them — `storage-access` being the only
/// exception).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromptRecord {
    /// The powerful permission that would prompt.
    pub permission: Permission,
    /// Frame index of the requesting document.
    pub frame_id: usize,
    /// Whether the request came from an embedded document (prompting "on
    /// behalf of" the top-level site — the §5 hijack surface).
    pub from_embedded: bool,
    /// The origin shown in the prompt text.
    pub attributed_origin: String,
}

/// Why a visit ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VisitOutcome {
    /// Everything collected.
    Success,
    /// "Error collecting ephemeral content information" — content was
    /// served but the execution context was destroyed mid-collection.
    EphemeralContext,
    /// The page exceeded the overall 90-second budget; data is partial
    /// and the paper excludes such sites.
    PageTimeout,
    /// The crawler itself crashed on this page (Playwright edge cases).
    CrawlerCrash,
}

/// What kind of resource-governor cap or per-script failure degraded a
/// visit (the visit-budget / degradation taxonomy; see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DegradationKind {
    /// A script's source failed to lex or parse.
    ScriptParseError,
    /// A script exhausted its per-run step budget (or hit the recursion
    /// guard) and was cut short.
    ScriptBudgetExceeded,
    /// The page-wide shared step pool ran dry; remaining scripts (or
    /// timers) did not run.
    ScriptPoolExhausted,
    /// An external script fetch failed (DNS, connection, redirect loop…).
    ScriptFetchFailed,
    /// An external script exceeded the per-script byte cap and was
    /// truncated without executing.
    ScriptBytesCapped,
    /// A document body exceeded the per-document byte cap; only the
    /// capped prefix was scanned.
    DocumentBytesCapped,
    /// The per-visit subresource fetch cap was reached; further external
    /// scripts were not requested.
    FetchCapReached,
    /// A response arrived through more redirect hops than the budget
    /// allows and was discarded.
    RedirectHopsExceeded,
    /// The frame cap was reached; further frames were not loaded.
    FrameCapReached,
    /// A document at the depth limit declared iframes that were dropped.
    FrameDepthTruncated,
    /// A policy-relevant response header exceeded the header byte cap
    /// and was treated as absent.
    HeaderBytesCapped,
    /// A script parsed but the bytecode compiler rejected it; it did not
    /// execute (and was *not* silently retried on the interpreter).
    ScriptCompileError,
}

impl DegradationKind {
    /// Stable label used in telemetry and the completeness census.
    pub fn label(&self) -> &'static str {
        match self {
            DegradationKind::ScriptParseError => "script-parse-error",
            DegradationKind::ScriptBudgetExceeded => "script-budget-exceeded",
            DegradationKind::ScriptPoolExhausted => "script-pool-exhausted",
            DegradationKind::ScriptFetchFailed => "script-fetch-failed",
            DegradationKind::ScriptBytesCapped => "script-bytes-capped",
            DegradationKind::DocumentBytesCapped => "document-bytes-capped",
            DegradationKind::FetchCapReached => "fetch-cap-reached",
            DegradationKind::RedirectHopsExceeded => "redirect-hops-exceeded",
            DegradationKind::FrameCapReached => "frame-cap-reached",
            DegradationKind::FrameDepthTruncated => "frame-depth-truncated",
            DegradationKind::HeaderBytesCapped => "header-bytes-capped",
            DegradationKind::ScriptCompileError => "script-compile-error",
        }
    }

    /// Whether this kind means data was *dropped* (structure the crawler
    /// never captured), as opposed to scripts misbehaving in captured
    /// structure.
    pub fn is_truncating(&self) -> bool {
        matches!(
            self,
            DegradationKind::DocumentBytesCapped
                | DegradationKind::FetchCapReached
                | DegradationKind::FrameCapReached
                | DegradationKind::FrameDepthTruncated
        )
    }
}

/// One structured, deterministic record of a cap trip or per-script
/// failure during a visit. Replaces the silent `let _ =` / dropped-fetch
/// behaviour: degraded visits carry the full story instead of looking
/// complete.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationEvent {
    /// Frame index the event is attributed to. For frame-cap trips this
    /// is the index the dropped frame *would* have received.
    pub frame_id: usize,
    /// What happened.
    pub kind: DegradationKind,
    /// Deterministic detail (script URL, parse message, drop count…).
    pub detail: Option<String>,
}

/// Data-completeness classification of a visit (the analysis census).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Completeness {
    /// No degradation events: everything the page offered was captured.
    Complete,
    /// Scripts failed or were cut short, but no structure was dropped.
    Degraded,
    /// At least one truncating cap trip: structure exists that the
    /// record does not contain.
    Truncated,
}

/// Version written on records that use the degradation extension.
/// Records without degradations keep the original (v1) byte layout, so
/// pre-existing databases and byte-level diffs are unaffected.
pub const SCHEMA_VERSION: u32 = 2;

/// A completed page visit.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct PageVisit {
    /// The URL the crawler was asked to visit.
    pub requested_url: String,
    /// All documents, top-level first.
    pub frames: Vec<FrameRecord>,
    /// Permission prompts the visit would have triggered.
    #[serde(default)]
    pub prompts: Vec<PromptRecord>,
    /// Outcome classification.
    pub outcome: VisitOutcome,
    /// Simulated milliseconds the visit took.
    pub elapsed_ms: u64,
    /// Schema version: 0 on legacy / clean records (treated as v1),
    /// [`SCHEMA_VERSION`] on records carrying degradations.
    #[serde(default)]
    pub schema_version: u32,
    /// Every cap trip and per-script failure, in occurrence order.
    #[serde(default)]
    pub degradations: Vec<DegradationEvent>,
}

// Hand-written so visits without degradations serialize byte-identically
// to the pre-v2 schema (field order and set unchanged); the two new
// fields appear only on degraded records.
impl Serialize for PageVisit {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("requested_url".to_string(), self.requested_url.to_value()),
            ("frames".to_string(), self.frames.to_value()),
            ("prompts".to_string(), self.prompts.to_value()),
            ("outcome".to_string(), self.outcome.to_value()),
            ("elapsed_ms".to_string(), self.elapsed_ms.to_value()),
        ];
        if !self.degradations.is_empty() {
            fields.push(("schema_version".to_string(), self.schema_version.to_value()));
            fields.push(("degradations".to_string(), self.degradations.to_value()));
        }
        serde::Value::Obj(fields)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"requested_url\":");
        self.requested_url.write_json(out);
        out.push_str(",\"frames\":");
        self.frames.write_json(out);
        out.push_str(",\"prompts\":");
        self.prompts.write_json(out);
        out.push_str(",\"outcome\":");
        self.outcome.write_json(out);
        out.push_str(",\"elapsed_ms\":");
        self.elapsed_ms.write_json(out);
        if !self.degradations.is_empty() {
            out.push_str(",\"schema_version\":");
            self.schema_version.write_json(out);
            out.push_str(",\"degradations\":");
            self.degradations.write_json(out);
        }
        out.push('}');
    }
}

impl PageVisit {
    /// The top-level frame record.
    pub fn top_frame(&self) -> Option<&FrameRecord> {
        self.frames.iter().find(|f| f.is_top_level)
    }

    /// All embedded (non-top-level) frames.
    pub fn embedded_frames(&self) -> impl Iterator<Item = &FrameRecord> {
        self.frames.iter().filter(|f| !f.is_top_level)
    }

    /// How complete the captured data is (the §4 "minor error" axis).
    pub fn completeness(&self) -> Completeness {
        if self.degradations.is_empty() {
            Completeness::Complete
        } else if self.degradations.iter().any(|d| d.kind.is_truncating()) {
            Completeness::Truncated
        } else {
            Completeness::Degraded
        }
    }
}

/// Errors that prevent a visit from producing any data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VisitError {
    /// DNS / connection failure ("major errors").
    Unreachable,
    /// The load event did not fire within the 60-second limit.
    LoadTimeout,
}

impl std::fmt::Display for VisitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VisitError::Unreachable => write!(f, "site unreachable"),
            VisitError::LoadTimeout => write!(f, "load event timeout"),
        }
    }
}

impl std::error::Error for VisitError {}
