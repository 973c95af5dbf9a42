//! Property-based tests for the HTML tokenizer and scanner.

use proptest::prelude::*;

fn attr_value() -> impl Strategy<Value = String> {
    // No quotes/angle brackets — those are covered by targeted tests.
    "[a-zA-Z0-9 ;*:/.\\-]{0,40}"
}

proptest! {
    /// The tokenizer never panics on arbitrary input.
    #[test]
    fn tokenizer_total(input in "[ -~]{0,300}") {
        html::tokenize(&input).for_each(drop);
    }

    /// The scanner never panics on arbitrary input.
    #[test]
    fn scanner_total(input in "[ -~\\n]{0,300}") {
        let _ = html::scan(&input);
    }

    /// An iframe written with arbitrary attribute values round-trips its
    /// attributes through the scanner.
    #[test]
    fn iframe_attributes_roundtrip(
        src in "https://[a-z]{3,10}\\.example/[a-z]{0,8}",
        allow in attr_value(),
        id in "[a-zA-Z][a-zA-Z0-9_-]{0,10}",
    ) {
        let doc = html::scan(&format!(
            r#"<iframe id="{id}" src="{src}" allow="{allow}"></iframe>"#
        ));
        prop_assert_eq!(doc.iframes.len(), 1);
        let f = &doc.iframes[0];
        prop_assert_eq!(f.id.as_deref(), Some(id.as_str()));
        prop_assert_eq!(f.src.as_deref(), Some(src.as_str()));
        prop_assert_eq!(f.allow.as_deref(), Some(allow.as_str()));
    }

    /// Inline script bodies are preserved verbatim (no re-tokenization),
    /// whatever markup-looking text they contain — as long as they don't
    /// contain their own terminator.
    #[test]
    fn script_bodies_preserved(body in "[ -~]{1,120}") {
        prop_assume!(!body.to_ascii_lowercase().contains("</script"));
        prop_assume!(!body.trim().is_empty());
        let doc = html::scan(&format!("<script>{body}</script>"));
        prop_assert_eq!(doc.scripts.len(), 1);
        prop_assert_eq!(doc.scripts[0].inline.as_deref(), Some(body.as_str()));
    }

    /// Content inside comments is never scanned as elements.
    #[test]
    fn comments_hide_content(inner in "[a-z <>=\"/]{0,80}") {
        prop_assume!(!inner.contains("-->"));
        let doc = html::scan(&format!("<!--{inner}-->"));
        prop_assert!(doc.iframes.is_empty());
        prop_assert!(doc.scripts.is_empty());
    }

    /// Scanning is deterministic.
    #[test]
    fn scan_deterministic(input in "[ -~]{0,200}") {
        prop_assert_eq!(html::scan(&input), html::scan(&input));
    }
}

/// Hostile-input fuzzing: arbitrary bytes (lossily decoded, so control
/// characters, high bytes and replacement characters all appear) must
/// never panic the tokenizer or scanner.
fn arb_bytes_as_text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u16..256, 0..max).prop_map(|raw| {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

proptest! {
    /// The tokenizer is total over arbitrary byte soup.
    #[test]
    fn tokenizer_survives_byte_soup(input in arb_bytes_as_text(600)) {
        html::tokenize(&input).for_each(drop);
    }

    /// The scanner is total over arbitrary byte soup, and deterministic.
    #[test]
    fn scanner_survives_byte_soup(input in arb_bytes_as_text(600)) {
        prop_assert_eq!(html::scan(&input), html::scan(&input));
    }

    /// Byte soup sprinkled with markup fragments (the worst case: almost
    /// well-formed tags, torn mid-attribute) never panics the scanner.
    #[test]
    fn scanner_survives_torn_markup(
        prefix in arb_bytes_as_text(80),
        fragment in prop_oneof![
            Just("<iframe src=\""),
            Just("<script>var x = '"),
            Just("</scr"),
            Just("<!-- <iframe"),
            Just("<iframe allow="),
            Just("<script src='"),
        ],
        suffix in arb_bytes_as_text(80),
    ) {
        let input = format!("{prefix}{fragment}{suffix}");
        let _ = html::scan(&input);
        html::tokenize(&input).for_each(drop);
    }
}
