//! HTML tokenizer.
//!
//! A pragmatic subset of the WHATWG tokenization algorithm: start/end
//! tags with attributes (unquoted, single- and double-quoted), comments,
//! doctype (skipped), character data, and raw-text handling for
//! `<script>`, `<style>`, `<textarea>` and `<title>`, whose content must
//! not be re-tokenized.
//!
//! Tokens borrow from the input, and [`tokenize`] produces them one step
//! at a time, so a caller folds a document in one pass without a token
//! list. The only copies are a tag or attribute name that contains an
//! uppercase letter (lowercased) and an attribute value that contains an
//! entity (decoded).

use std::borrow::Cow;

/// One attribute on a tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Lowercased attribute name.
    pub name: Cow<'a, str>,
    /// Attribute value with entities decoded (empty for value-less
    /// attributes).
    pub value: Cow<'a, str>,
}

/// One token, borrowing from the tokenized input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr=value ...>`; `self_closing` is true for `<br/>`.
    StartTag {
        /// Lowercased tag name.
        name: Cow<'a, str>,
        /// Attributes in document order; of a repeated name, the first.
        attrs: Vec<Attribute<'a>>,
        /// Whether the tag ends with `/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Lowercased tag name.
        name: Cow<'a, str>,
    },
    /// Text between tags. Raw-text element content (script bodies) is
    /// emitted as a single `Text` token.
    Text(&'a str),
    /// `<!-- ... -->`.
    Comment(&'a str),
}

impl Token<'_> {
    /// Attribute lookup for start tags.
    pub fn attr(&self, name: &str) -> Option<&str> {
        match self {
            Token::StartTag { attrs, .. } => attrs
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_ref()),
            _ => None,
        }
    }
}

/// Elements whose content is raw text (not re-tokenized), by lowercased
/// tag name.
fn raw_text_element(name: &str) -> Option<&'static str> {
    ["script", "style", "textarea", "title"]
        .into_iter()
        .find(|raw| *raw == name)
}

/// Tokenizes an HTML document: the returned iterator produces one token
/// per step.
pub fn tokenize(input: &str) -> Tokenizer<'_> {
    Tokenizer {
        input,
        pos: 0,
        raw: None,
    }
}

/// The token iterator [`tokenize`] returns.
#[derive(Debug)]
pub struct Tokenizer<'a> {
    input: &'a str,
    /// Byte offset of the first unread byte.
    pos: usize,
    /// Inside a raw-text element: its name, and where its content ends
    /// (the `<` of its end tag, or the end of the input).
    raw: Option<(&'static str, usize)>,
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let input = self.input;
        let len = input.len();
        if let Some((name, end)) = self.raw {
            if self.pos < end {
                let body = &input[self.pos..end];
                self.pos = end;
                return Some(Token::Text(body));
            }
            self.raw = None;
            if end < len {
                cov!(7);
                self.pos = (find_byte(input, end, b'>') + 1).min(len);
                return Some(Token::EndTag {
                    name: Cow::Borrowed(name),
                });
            }
        }
        while self.pos < len {
            let pos = self.pos;
            if !opens_markup(input.as_bytes(), pos) {
                // Character data, up to the next markup.
                let end = text_end(input, pos);
                self.pos = end;
                return Some(Token::Text(&input[pos..end]));
            }
            let rest = &input[pos..];
            if let Some(comment) = rest.strip_prefix("<!--") {
                cov!(0);
                let end = comment.find("-->").unwrap_or(comment.len());
                self.pos = (pos + 4 + end + 3).min(len);
                return Some(Token::Comment(&comment[..end]));
            }
            // Doctype / processing instruction: skip to '>'.
            if rest.starts_with("<!") || rest.starts_with("<?") {
                cov!(1);
                self.pos = (find_byte(input, pos, b'>') + 1).min(len);
                continue;
            }
            if rest.starts_with("</") {
                let end = find_byte(input, pos, b'>');
                self.pos = (end + 1).min(len);
                let name = input[pos + 2..end].trim();
                if name.is_empty() {
                    cov!(3);
                    continue;
                }
                cov!(2);
                return Some(Token::EndTag {
                    name: lowercase(name),
                });
            }
            // Start tag: `<` then a letter.
            cov!(4);
            let (token, next) = parse_start_tag(input, pos);
            self.pos = next;
            if let Token::StartTag {
                name,
                self_closing: false,
                ..
            } = &token
            {
                if let Some(raw) = raw_text_element(name) {
                    cov!(6);
                    self.raw = Some((raw, find_end_tag(input, next, raw)));
                }
            }
            return Some(token);
        }
        None
    }
}

/// Position of the first `byte` at or after `from`, or the input length.
fn find_byte(input: &str, from: usize, byte: u8) -> usize {
    input.as_bytes()[from..]
        .iter()
        .position(|&b| b == byte)
        .map_or(input.len(), |i| from + i)
}

/// Whether the byte at `at` is a `<` that opens markup: `<!`, `<?`, `</`,
/// or `<` and a letter. Any other `<` is literal text.
fn opens_markup(bytes: &[u8], at: usize) -> bool {
    bytes.get(at) == Some(&b'<')
        && bytes
            .get(at + 1)
            .is_some_and(|&b| matches!(b, b'!' | b'?' | b'/') || b.is_ascii_alphabetic())
}

/// End of the character data starting at `from`, which does not open
/// markup: the next `<` that does, or the input length.
fn text_end(input: &str, from: usize) -> usize {
    let bytes = input.as_bytes();
    let mut at = find_byte(input, from, b'<');
    while at < bytes.len() && !opens_markup(bytes, at) {
        cov!(5);
        at = find_byte(input, at + 1, b'<');
    }
    at
}

/// Position of the raw-text end tag `</name` (ASCII case-insensitive) at
/// or after `from`, or the input length.
fn find_end_tag(input: &str, from: usize, name: &str) -> usize {
    let bytes = input.as_bytes();
    let name = name.as_bytes();
    let mut at = from;
    loop {
        at = find_byte(input, at, b'<');
        let tag = &bytes[at..];
        if tag.len() <= name.len() + 1 {
            return bytes.len();
        }
        if tag[1] == b'/' && tag[2..2 + name.len()].eq_ignore_ascii_case(name) {
            return at;
        }
        at += 1;
    }
}

/// `name`, lowercased, copied only if it has an uppercase letter.
fn lowercase(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Parses a start tag beginning at `start` (which points at `<`).
/// Returns the token and the position after the closing `>`.
fn parse_start_tag(input: &str, start: usize) -> (Token<'_>, usize) {
    let bytes = input.as_bytes();
    let mut pos = start + 1;
    let name_start = pos;
    while pos < bytes.len()
        && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'-' || bytes[pos] == b':')
    {
        pos += 1;
    }
    let name = lowercase(&input[name_start..pos]);
    let mut attrs: Vec<Attribute<'_>> = Vec::new();
    let mut self_closing = false;

    loop {
        // Skip whitespace.
        while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        match bytes.get(pos) {
            None => break,
            Some(b'>') => {
                pos += 1;
                break;
            }
            Some(b'/') => {
                if bytes.get(pos + 1) == Some(&b'>') {
                    cov!(8);
                    self_closing = true;
                    pos += 2;
                    break;
                }
                cov!(9);
                pos += 1;
            }
            Some(_) => {
                // Attribute name.
                let attr_start = pos;
                while pos < bytes.len()
                    && !bytes[pos].is_ascii_whitespace()
                    && !matches!(bytes[pos], b'=' | b'>' | b'/')
                {
                    pos += 1;
                }
                let attr_name = lowercase(&input[attr_start..pos]);
                // Skip whitespace before '='.
                while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                    pos += 1;
                }
                let value = if bytes.get(pos) == Some(&b'=') {
                    pos += 1;
                    while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                        pos += 1;
                    }
                    match bytes.get(pos) {
                        Some(&q @ (b'"' | b'\'')) => {
                            cov!(10);
                            let val_start = pos + 1;
                            let val_end = find_byte(input, val_start, q);
                            pos = (val_end + 1).min(bytes.len());
                            &input[val_start..val_end]
                        }
                        _ => {
                            cov!(11);
                            let val_start = pos;
                            while pos < bytes.len()
                                && !bytes[pos].is_ascii_whitespace()
                                && bytes[pos] != b'>'
                            {
                                pos += 1;
                            }
                            &input[val_start..pos]
                        }
                    }
                } else {
                    ""
                };
                if !attr_name.is_empty() && !attrs.iter().any(|a| a.name == attr_name) {
                    cov!(12);
                    attrs.push(Attribute {
                        name: attr_name,
                        value: decode_entities(value),
                    });
                } else {
                    cov!(13);
                }
            }
        }
    }
    (
        Token::StartTag {
            name,
            attrs,
            self_closing,
        },
        pos,
    )
}

/// The entities that occur in attribute values, with what they decode to.
const ENTITIES: [(&str, char); 5] = [
    ("&amp;", '&'),
    ("&quot;", '"'),
    ("&#39;", '\''),
    ("&lt;", '<'),
    ("&gt;", '>'),
];

/// Decodes [`ENTITIES`] in one left-to-right pass, so the text an
/// escaped ampersand produces is never decoded again (`&amp;lt;` is
/// `&lt;`, not `<`). Copies `value` only if it holds an entity.
fn decode_entities(value: &str) -> Cow<'_, str> {
    if !value.contains('&') {
        return Cow::Borrowed(value);
    }
    cov!(14);
    let mut decoded = String::new();
    // `value[..copied]` is already decoded into `decoded`.
    let mut copied = 0;
    let mut from = 0;
    while let Some(amp) = value[from..].find('&').map(|i| from + i) {
        match ENTITIES
            .iter()
            .find(|(entity, _)| value[amp..].starts_with(entity))
        {
            Some((entity, ch)) => {
                decoded.push_str(&value[copied..amp]);
                decoded.push(*ch);
                copied = amp + entity.len();
                from = copied;
            }
            None => from = amp + 1,
        }
    }
    if copied == 0 {
        return Cow::Borrowed(value);
    }
    decoded.push_str(&value[copied..]);
    Cow::Owned(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(input: &str) -> Vec<Token<'_>> {
        tokenize(input).collect()
    }

    #[test]
    fn simple_tag() {
        let t = tokens("<div class=\"a\">x</div>");
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].attr("class"), Some("a"));
        assert_eq!(t[1], Token::Text("x"));
        assert_eq!(t[2], Token::EndTag { name: "div".into() });
    }

    #[test]
    fn attribute_quoting_styles() {
        let t = tokens("<iframe src=\"a\" name='b' loading=lazy allowfullscreen>");
        assert_eq!(t[0].attr("src"), Some("a"));
        assert_eq!(t[0].attr("name"), Some("b"));
        assert_eq!(t[0].attr("loading"), Some("lazy"));
        assert_eq!(t[0].attr("allowfullscreen"), Some(""));
    }

    #[test]
    fn script_content_is_raw_text() {
        let t = tokens("<script>if (a < b) { x(\"<div>\"); }</script>");
        assert_eq!(t.len(), 3);
        match &t[1] {
            Token::Text(s) => assert!(s.contains("a < b") && s.contains("<div>")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments() {
        let t = tokens("a<!-- hidden <iframe src=x> -->b");
        assert_eq!(t.len(), 3);
        assert!(matches!(&t[1], Token::Comment(c) if c.contains("iframe")));
    }

    #[test]
    fn tag_names_lowercased() {
        let t = tokens("<IFRAME SRC='x'></IFRAME>");
        assert!(matches!(&t[0], Token::StartTag { name, .. } if name == "iframe"));
        assert_eq!(t[0].attr("src"), Some("x"));
    }

    #[test]
    fn self_closing_tag() {
        let t = tokens("<br/><img src=x />");
        assert!(matches!(
            &t[0],
            Token::StartTag {
                self_closing: true,
                ..
            }
        ));
        assert!(matches!(
            &t[1],
            Token::StartTag {
                self_closing: true,
                ..
            }
        ));
    }

    #[test]
    fn doctype_skipped() {
        let t = tokens("<!DOCTYPE html><p>x</p>");
        assert!(matches!(&t[0], Token::StartTag { name, .. } if name == "p"));
    }

    #[test]
    fn unterminated_tag_does_not_panic() {
        let t = tokens("<iframe src=\"x");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn unterminated_script_does_not_panic() {
        let t = tokens("<script>var x = 1;");
        assert!(matches!(&t[1], Token::Text(s) if s.contains("var x")));
    }

    #[test]
    fn literal_less_than_is_text() {
        let t = tokens("1 < 2");
        assert_eq!(t, vec![Token::Text("1 < 2")]);
    }

    #[test]
    fn entities_in_attributes_decoded() {
        let cases = [
            ("<a href=\"?a=1&amp;b=2\">x</a>", "href", "?a=1&b=2"),
            // An escaped ampersand is decoded once, not twice.
            ("<a href=\"?q=&amp;lt;b&amp;gt;\">", "href", "?q=&lt;b&gt;"),
            (
                "<iframe allow=\"&amp;quot;camera&amp;quot;\">",
                "allow",
                "&quot;camera&quot;",
            ),
        ];
        for (input, name, value) in cases {
            let t = tokens(input);
            assert_eq!(t[0].attr(name), Some(value), "{input}");
        }
    }

    #[test]
    fn duplicate_attributes_keep_first() {
        let t = tokens("<iframe allow=\"camera\" allow=\"microphone\">");
        assert_eq!(t[0].attr("allow"), Some("camera"));
    }
}
