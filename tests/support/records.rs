//! Shared proptest generators for arbitrary [`SiteRecord`]s.
//!
//! Both serde-equivalence and columnar round-trip suites need records
//! that stress every encoder path: strings with escapes, control
//! characters and multibyte text, nested frames, absent optionals,
//! extreme numbers, every enum variant. Included from each test binary
//! via `#[path = "support/records.rs"] mod records;`.

use browser::{
    DegradationEvent, DegradationKind, FrameRecord, IframeAttrs, InvocationKind, InvocationRecord,
    PageVisit, PromptRecord, ScriptOutcome, ScriptRecord, VisitOutcome,
};
use crawler::{SiteOutcome, SiteRecord};
use proptest::prelude::*;
use registry::{all_permissions, Permission, PermissionSet};

/// Strings that stress the encoder/decoder: plain ASCII, the full
/// printable range (quotes, backslashes), JSON escapes, multibyte text,
/// and raw control characters.
pub fn wild_string() -> BoxedStrategy<String> {
    prop_oneof![
        "[a-z0-9.-]{0,16}",
        "[ -~]{0,24}",
        Just(String::new()),
        Just("line\nbreak\ttab\rret \"quoted\" back\\slash".to_string()),
        Just("h\u{e9}llo w\u{f6}rld \u{2014} \u{4f60}\u{597d} \u{1f3a5}".to_string()),
        Just("\u{0}\u{1}\u{8}\u{c}\u{1f}control".to_string()),
        Just("ends with backslash \\".to_string()),
    ]
    .boxed()
}

pub fn arb_permission() -> impl Strategy<Value = Permission> {
    (0usize..all_permissions().len()).prop_map(|i| all_permissions()[i])
}

pub fn arb_invocation() -> impl Strategy<Value = InvocationRecord> {
    (
        wild_string(),
        prop::collection::vec(arb_permission(), 0..3),
        prop::option::of(wild_string()),
        (0u8..8, 0u8..3),
    )
        .prop_map(
            |(api_path, permissions, script_url, (flags, kind))| InvocationRecord {
                api_path,
                kind: match kind {
                    0 => InvocationKind::Invocation,
                    1 => InvocationKind::StatusQuery,
                    _ => InvocationKind::General,
                },
                permissions,
                script_url,
                constructed: flags & 1 != 0,
                via_feature_policy_api: flags & 2 != 0,
                policy_blocked: flags & 4 != 0,
            },
        )
}

pub fn arb_script() -> impl Strategy<Value = ScriptRecord> {
    (prop::option::of(wild_string()), wild_string(), 0u8..7).prop_map(|(url, source, o)| {
        ScriptRecord {
            url,
            source,
            outcome: match o {
                0 => ScriptOutcome::Ok,
                1 => ScriptOutcome::ParseError,
                2 => ScriptOutcome::BudgetExceeded,
                3 => ScriptOutcome::PoolExhausted,
                4 => ScriptOutcome::FetchFailed,
                5 => ScriptOutcome::BytesCapped,
                _ => ScriptOutcome::CompileError,
            },
        }
    })
}

pub fn arb_iframe_attrs() -> impl Strategy<Value = IframeAttrs> {
    (
        prop::option::of(wild_string()),
        prop::option::of(wild_string()),
        prop::option::of(wild_string()),
        (prop::option::of(wild_string()), prop::bool::ANY),
    )
        .prop_map(|(id, src, allow, (sandbox, has_srcdoc))| IframeAttrs {
            id,
            name: None,
            class: None,
            src,
            allow,
            sandbox,
            has_srcdoc,
            loading: None,
        })
}

pub fn arb_frame() -> impl Strategy<Value = FrameRecord> {
    (
        (0usize..8, prop::option::of(0usize..4), 0u32..4),
        (
            prop::option::of(wild_string()),
            wild_string(),
            prop::option::of(wild_string()),
        ),
        (
            prop::bool::ANY,
            prop::bool::ANY,
            prop::option::of(arb_iframe_attrs()),
        ),
        (
            prop::option::of(wild_string()),
            prop::collection::vec(arb_invocation(), 0..3),
            prop::collection::vec(arb_script(), 0..3),
            prop::collection::vec(arb_permission(), 0..5)
                .prop_map(|members| members.into_iter().collect::<PermissionSet>()),
        ),
    )
        .prop_map(
            |(
                (frame_id, parent, depth),
                (url, origin, site),
                (is_top_level, is_local_document, iframe_attrs),
                (permissions_policy_header, invocations, scripts, allowed_features),
            )| FrameRecord {
                frame_id,
                parent,
                depth,
                url,
                origin,
                site,
                is_top_level,
                is_local_document,
                iframe_attrs,
                permissions_policy_header,
                feature_policy_header: None,
                csp_header: None,
                invocations,
                scripts,
                allowed_features,
            },
        )
}

pub fn arb_visit() -> impl Strategy<Value = PageVisit> {
    (
        wild_string(),
        prop::collection::vec(arb_frame(), 1..4),
        (0u64..u64::MAX, 0u8..4),
        prop::collection::vec(
            ((0usize..4, 0u8..12), prop::option::of(wild_string())),
            0..3,
        ),
    )
        .prop_map(
            |(requested_url, frames, (elapsed_ms, outcome), degradations)| {
                let degradations: Vec<DegradationEvent> = degradations
                    .into_iter()
                    .map(|((frame_id, kind), detail)| DegradationEvent {
                        frame_id,
                        kind: match kind {
                            0 => DegradationKind::ScriptParseError,
                            1 => DegradationKind::ScriptBudgetExceeded,
                            2 => DegradationKind::ScriptPoolExhausted,
                            3 => DegradationKind::ScriptFetchFailed,
                            4 => DegradationKind::ScriptBytesCapped,
                            5 => DegradationKind::DocumentBytesCapped,
                            6 => DegradationKind::FetchCapReached,
                            7 => DegradationKind::RedirectHopsExceeded,
                            8 => DegradationKind::FrameCapReached,
                            9 => DegradationKind::FrameDepthTruncated,
                            10 => DegradationKind::HeaderBytesCapped,
                            _ => DegradationKind::ScriptCompileError,
                        },
                        detail,
                    })
                    .collect();
                let prompts: Vec<PromptRecord> = Vec::new();
                PageVisit {
                    requested_url,
                    frames,
                    prompts,
                    outcome: match outcome {
                        0 => VisitOutcome::Success,
                        1 => VisitOutcome::EphemeralContext,
                        2 => VisitOutcome::PageTimeout,
                        _ => VisitOutcome::CrawlerCrash,
                    },
                    elapsed_ms,
                    schema_version: if degradations.is_empty() {
                        0
                    } else {
                        browser::SCHEMA_VERSION
                    },
                    degradations,
                }
            },
        )
}

pub fn arb_record() -> impl Strategy<Value = SiteRecord> {
    (
        (1u64..1_000_000, wild_string(), 0u8..6),
        prop::option::of(arb_visit()),
        (0u64..u64::MAX, 0u32..5),
    )
        .prop_map(
            |((rank, origin, outcome), visit, (elapsed_ms, attempts))| SiteRecord {
                rank,
                origin,
                outcome: match outcome {
                    0 => SiteOutcome::Success,
                    1 => SiteOutcome::Unreachable,
                    2 => SiteOutcome::LoadTimeout,
                    3 => SiteOutcome::Ephemeral,
                    4 => SiteOutcome::CrawlerError,
                    _ => SiteOutcome::Excluded,
                },
                visit,
                elapsed_ms,
                attempts,
            },
        )
}
