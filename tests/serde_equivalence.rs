//! Streaming serde vs Value-tree equivalence.
//!
//! The streaming fast path (`serde_json::to_string` / `from_str`) must
//! agree byte-for-byte with the Value-tree reference path
//! (`to_string_via_value` / `from_str_via_value`) on *arbitrary*
//! records, not just what today's crawler happens to emit: strings with
//! escapes, control characters and multibyte text, nested frames,
//! absent optionals, extreme numbers. Property tests generate such
//! records; the error-parity tests below pin down that corrupt input
//! fails identically on both paths, including the 1-based line numbers
//! in [`crawler::RecordStream`] diagnostics.

use crawler::{RecordStream, SiteOutcome, SiteRecord, StreamMode};
use proptest::prelude::*;

#[path = "support/records.rs"]
mod records;
use records::arb_record;

proptest! {
    /// Streaming encode produces the same bytes as the Value-tree
    /// encoder on arbitrary records.
    #[test]
    fn encoders_agree_byte_for_byte(record in arb_record()) {
        let streaming = serde_json::to_string(&record).expect("streaming encode");
        let via_value = serde_json::to_string_via_value(&record).expect("value-tree encode");
        prop_assert_eq!(streaming, via_value);
    }

    /// Both decoders recover the original record from the encoded form,
    /// and re-encoding reproduces the bytes exactly.
    #[test]
    fn decode_round_trips(record in arb_record()) {
        let json = serde_json::to_string(&record).expect("encode");
        let streamed: SiteRecord = serde_json::from_str(&json).expect("streaming decode");
        let via_value: SiteRecord =
            serde_json::from_str_via_value(&json).expect("value-tree decode");
        prop_assert_eq!(&streamed, &record);
        prop_assert_eq!(&via_value, &record);
        prop_assert_eq!(serde_json::to_string(&streamed).expect("re-encode"), json);
    }
}

/// One valid JSONL line for the error tests.
fn valid_line() -> String {
    serde_json::to_string(&SiteRecord {
        rank: 1,
        origin: "https://example.com".to_string(),
        outcome: SiteOutcome::Unreachable,
        visit: None,
        elapsed_ms: 5,
        attempts: 1,
    })
    .expect("encode fixture record")
}

/// Corrupt inputs must fail on *both* paths with the same message, so
/// switching decode paths can never change a diagnostic.
#[test]
fn corrupt_input_errors_match_across_paths() {
    let cases = [
        "",
        "{",
        "null",
        "[]",
        "42",
        "\"just a string\"",
        "{\"rank\":1,\"origin\":\"x\",\"outcome\":\"NoSuchOutcome\",\"visit\":null,\"elapsed_ms\":0}",
        "{\"rank\":1,\"origin\":\"x\",\"outcome\":\"Unreachable\",\"visit\":null,\"elapsed_ms\":0,}",
        "{\"rank\":1,\"origin\":\"x\",\"outcome\":\"Unreachable\",\"visit\":null,\"elapsed_ms\":0} trailing",
        "{\"rank\":1,\"origin\":\"bad escape \\q\",\"outcome\":\"Unreachable\",\"visit\":null,\"elapsed_ms\":0}",
        "{\"rank\":1e999,\"origin\":\"x\",\"outcome\":\"Unreachable\",\"visit\":null,\"elapsed_ms\":0}",
    ];
    for input in cases {
        let streaming = serde_json::from_str::<SiteRecord>(input)
            .err()
            .unwrap_or_else(|| panic!("streaming path accepted corrupt input: {input:?}"));
        let via_value = serde_json::from_str_via_value::<SiteRecord>(input)
            .err()
            .unwrap_or_else(|| panic!("value-tree path accepted corrupt input: {input:?}"));
        assert_eq!(
            streaming.to_string(),
            via_value.to_string(),
            "error messages diverge on {input:?}"
        );
    }
}

/// Unknown feature tokens are rejected with the same message either way.
#[test]
fn unknown_feature_token_errors_match() {
    let json = valid_line().replace(
        "\"outcome\":\"Unreachable\",\"visit\":null",
        "\"outcome\":\"Success\",\"visit\":{\"requested_url\":\"u\",\"frames\":[{\
         \"frame_id\":0,\"parent\":null,\"depth\":0,\"url\":null,\"origin\":\"o\",\"site\":null,\
         \"is_top_level\":true,\"is_local_document\":false,\"iframe_attrs\":null,\
         \"permissions_policy_header\":null,\"feature_policy_header\":null,\"csp_header\":null,\
         \"invocations\":[],\"scripts\":[],\"allowed_features\":[\"not-a-feature\"]}],\
         \"outcome\":\"Success\",\"elapsed_ms\":1}",
    );
    let streaming = serde_json::from_str::<SiteRecord>(&json).expect_err("streaming rejects");
    let via_value =
        serde_json::from_str_via_value::<SiteRecord>(&json).expect_err("value-tree rejects");
    assert_eq!(streaming.to_string(), via_value.to_string());
    assert!(
        streaming.to_string().contains("not-a-feature"),
        "diagnostic names the offending token: {streaming}"
    );
}

/// Strict streams fail on the first corrupt line and name its 1-based
/// number; lenient streams skip and retain the same numbering.
#[test]
fn record_stream_line_numbers_survive_streaming_decode() {
    let dir = std::env::temp_dir().join(format!("po-serde-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("corrupt.jsonl");
    let good = valid_line();
    std::fs::write(
        &path,
        format!("{good}\nnot json\n{good}\n{{\"torn\":\n{good}\n"),
    )
    .expect("write fixture");

    let mut strict = RecordStream::open(&path, StreamMode::Strict).expect("open strict");
    assert!(strict.next().expect("line 1 present").is_ok());
    let err = strict
        .next()
        .expect("line 2 yields an entry")
        .expect_err("line 2 is corrupt");
    assert!(
        err.to_string().starts_with("line 2:"),
        "strict error names 1-based line 2: {err}"
    );

    let mut stream = RecordStream::open(&path, StreamMode::Lenient).expect("open lenient");
    let mut records = 0;
    for item in stream.by_ref() {
        item.expect("lenient never errors");
        records += 1;
    }
    assert_eq!(records, 3, "three good lines survive");
    let skip = stream.into_skip_report();
    assert_eq!(skip.skipped, 2);
    assert_eq!(
        skip.lines,
        vec![2, 4],
        "skip report keeps 1-based line numbers"
    );
    std::fs::remove_dir_all(&dir).ok();
}
