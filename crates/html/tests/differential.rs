//! Differential: the production tokenizer and scanner against the frozen
//! owned-token referee in `tests/referee/`.
//!
//! Two input sets, both seeded and replayable:
//!
//! * random strings stitched from HTML-like pieces: mixed-case tags and
//!   end tags, comments, doctypes and processing instructions, both quote
//!   styles, unterminated quotes and tags, entities, `on*` attributes,
//!   torn raw-text end tags, and non-ASCII text;
//! * every seed-7 landing page and widget frame for ranks 1..=2,000.
//!
//! Each input must give the same token stream and an equal `Document`.

mod referee;

use referee::{Attribute, Token};

#[rustfmt::skip]
const PIECES: &[&str] = &[
    // Start tags, mixed case, and raw-text elements.
    "<iframe", "<IFRAME", "<IfRaMe", "<script", "<SCRIPT", "<sCrIpT", "<style", "<STYLE",
    "<title", "<TiTlE", "<textarea", "<a", "<A", "<div", "<button", "<p", "<x:y", "<h1",
    // End tags, whole and torn.
    "</iframe>", "</IFRAME>", "</script>", "</SCRIPT>", "</Script >", "</script", "</SCRIPT",
    "</scr", "</scripts>", "</style>", "</title>", "</TITLE>", "</textarea>", "</a>", "</ >",
    "</>", "</",
    // Comments, doctypes, processing instructions, self-closing.
    "<!--", "-->", "<!-- x -->", "<!", "<!DOCTYPE html>", "<?", "<?xml?>", "/>", "/", ">",
    "<", "<1", "< ",
    // Attributes, including event handlers.
    " src=", " SRC=", " allow=", " Allow=", " id=", " name=", " class=", " sandbox=",
    " srcdoc=", " loading=", " type=", " async", " defer", " href=", " HREF=", " onclick=",
    " OnLoad=", " on=", " onerror=", " data-x=", "=", " = ",
    // Values, quoted, unquoted and unterminated.
    "\"", "'", "\"x\"", "'y'", "\"\"", "lazy", "LAZY", "\"camera *; microphone\"",
    "\"https://a.example/\"", "'about:blank'", "javascript:void(0)", "\"module\"",
    "'application/json'", "\"alert(1)\"",
    // Entities, whole, doubled and torn.
    "&amp;", "&quot;", "&#39;", "&lt;", "&gt;", "&", "&amp;lt;", "&amp;quot;", "&am", "&#3",
    // Whitespace and text.
    " ", "\n", "\t", "x", "var x = 1;", "navigator.getBattery();", "a < b",
    // Non-ASCII text.
    "é", "日本", "\u{1F600}", "ß", "İ", "\u{212A}", "\u{FFFD}",
];

/// SplitMix64: a small, seeded, replayable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_input(rng: &mut Rng) -> String {
    let pieces = rng.below(32);
    (0..pieces)
        .map(|_| PIECES[rng.below(PIECES.len())])
        .collect()
}

/// The production token stream in the referee's owned form.
fn production_tokens(input: &str) -> Vec<Token> {
    html::tokenize(input)
        .map(|token| match token {
            html::Token::StartTag {
                name,
                attrs,
                self_closing,
            } => Token::StartTag {
                name: name.into_owned(),
                attrs: attrs
                    .into_iter()
                    .map(|a| Attribute {
                        name: a.name.into_owned(),
                        value: a.value.into_owned(),
                    })
                    .collect(),
                self_closing,
            },
            html::Token::EndTag { name } => Token::EndTag {
                name: name.into_owned(),
            },
            html::Token::Text(text) => Token::Text(text.to_string()),
            html::Token::Comment(text) => Token::Comment(text.to_string()),
        })
        .collect()
}

fn assert_agrees(input: &str, what: &dyn Fn() -> String) {
    assert_eq!(
        production_tokens(input),
        referee::tokenize(input),
        "tokens differ on {}: {input:?}",
        what()
    );
    assert_eq!(
        html::scan(input),
        referee::scan(input),
        "documents differ on {}: {input:?}",
        what()
    );
}

#[test]
fn random_markup_scans_like_the_referee() {
    const INPUTS: u64 = 60_000;
    let mut rng = Rng(0x5eed_7a65);
    for case in 0..INPUTS {
        let input = random_input(&mut rng);
        assert_agrees(&input, &|| format!("random case {case}"));
    }
}

#[test]
fn seed7_landing_pages_scan_like_the_referee() {
    for rank in 1..=2_000u64 {
        let page = webgen::site::page_html(7, rank);
        assert_agrees(&page, &|| format!("landing page of rank {rank}"));
    }
}

#[test]
fn seed7_widget_frames_scan_like_the_referee() {
    for rank in 1..=2_000u64 {
        for widget in webgen::widgets::CATALOG {
            let frame = webgen::widgets::frame_html(widget, 7, rank);
            assert_agrees(&frame, &|| format!("{} frame of rank {rank}", widget.key));
        }
    }
}
