//! Test-only referee: the owned-token HTML tokenizer and scanner the
//! crate shipped before its borrowed single-pass rewrite, frozen with the
//! one-pass entity decoding applied.
//!
//! Every token here owns its strings, the raw-text end tag is found in a
//! lowercased copy of the rest of the document, and `scan` folds a
//! finished `Vec<Token>`. It makes no attempt at speed: it is the
//! straightforward reading of the rules, kept so `tests/differential.rs`
//! can require the production scanner to produce equal `Document`s.
//! Never change it to follow the production code; a behaviour change
//! belongs in both, with its own test.

use html::{Document, EventHandler, IframeElement, LinkElement, ScriptElement};

/// One attribute on a tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Lowercased attribute name.
    pub name: String,
    /// Attribute value (empty for value-less attributes).
    pub value: String,
}

/// One token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<name attr=value ...>`.
    StartTag {
        name: String,
        attrs: Vec<Attribute>,
        self_closing: bool,
    },
    /// `</name>`.
    EndTag { name: String },
    /// Text between tags, or a raw-text element's whole content.
    Text(String),
    /// `<!-- ... -->`.
    Comment(String),
}

fn is_raw_text_element(name: &str) -> bool {
    matches!(name, "script" | "style" | "textarea" | "title")
}

/// Tokenizes an HTML document into owned tokens.
pub fn tokenize(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0;
    let mut text_start = 0;

    macro_rules! flush_text {
        ($upto:expr) => {
            if text_start < $upto {
                let text = &input[text_start..$upto];
                if !text.is_empty() {
                    tokens.push(Token::Text(text.to_string()));
                }
            }
        };
    }

    while pos < bytes.len() {
        if bytes[pos] != b'<' {
            pos += 1;
            continue;
        }
        if input[pos..].starts_with("<!--") {
            flush_text!(pos);
            let end = input[pos + 4..]
                .find("-->")
                .map(|i| pos + 4 + i)
                .unwrap_or(bytes.len());
            tokens.push(Token::Comment(input[pos + 4..end].to_string()));
            pos = (end + 3).min(bytes.len());
            text_start = pos;
            continue;
        }
        if input[pos..].starts_with("<!") || input[pos..].starts_with("<?") {
            flush_text!(pos);
            let end = input[pos..]
                .find('>')
                .map(|i| pos + i)
                .unwrap_or(bytes.len());
            pos = (end + 1).min(bytes.len());
            text_start = pos;
            continue;
        }
        if input[pos..].starts_with("</") {
            flush_text!(pos);
            let end = input[pos..]
                .find('>')
                .map(|i| pos + i)
                .unwrap_or(bytes.len());
            let name = input[pos + 2..end].trim().to_ascii_lowercase();
            if !name.is_empty() {
                tokens.push(Token::EndTag { name });
            }
            pos = (end + 1).min(bytes.len());
            text_start = pos;
            continue;
        }
        match bytes.get(pos + 1) {
            Some(b) if b.is_ascii_alphabetic() => {}
            _ => {
                pos += 1;
                continue;
            }
        }
        flush_text!(pos);
        let (token, next) = parse_start_tag(input, pos);
        let raw_name = match &token {
            Token::StartTag {
                name,
                self_closing: false,
                ..
            } if is_raw_text_element(name) => Some(name.clone()),
            _ => None,
        };
        tokens.push(token);
        pos = next;
        text_start = pos;
        if let Some(name) = raw_name {
            let close = format!("</{name}");
            let lower = input[pos..].to_ascii_lowercase();
            let end = lower.find(&close).map(|i| pos + i).unwrap_or(bytes.len());
            if end > pos {
                tokens.push(Token::Text(input[pos..end].to_string()));
            }
            if end < bytes.len() {
                let tag_end = input[end..]
                    .find('>')
                    .map(|i| end + i)
                    .unwrap_or(bytes.len());
                tokens.push(Token::EndTag { name });
                pos = (tag_end + 1).min(bytes.len());
            } else {
                pos = bytes.len();
            }
            text_start = pos;
        }
    }
    flush_text!(bytes.len());
    tokens
}

fn parse_start_tag(input: &str, start: usize) -> (Token, usize) {
    let bytes = input.as_bytes();
    let mut pos = start + 1;
    let name_start = pos;
    while pos < bytes.len()
        && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'-' || bytes[pos] == b':')
    {
        pos += 1;
    }
    let name = input[name_start..pos].to_ascii_lowercase();
    let mut attrs: Vec<Attribute> = Vec::new();
    let mut self_closing = false;

    loop {
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
                    self_closing = true;
                    pos += 2;
                    break;
                }
                pos += 1;
            }
            Some(_) => {
                let attr_start = pos;
                while pos < bytes.len()
                    && !bytes[pos].is_ascii_whitespace()
                    && !matches!(bytes[pos], b'=' | b'>' | b'/')
                {
                    pos += 1;
                }
                let attr_name = input[attr_start..pos].to_ascii_lowercase();
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
                            pos += 1;
                            let val_start = pos;
                            while pos < bytes.len() && bytes[pos] != q {
                                pos += 1;
                            }
                            let value = input[val_start..pos].to_string();
                            pos = (pos + 1).min(bytes.len());
                            value
                        }
                        _ => {
                            let val_start = pos;
                            while pos < bytes.len()
                                && !bytes[pos].is_ascii_whitespace()
                                && bytes[pos] != b'>'
                            {
                                pos += 1;
                            }
                            input[val_start..pos].to_string()
                        }
                    }
                } else {
                    String::new()
                };
                if !attr_name.is_empty() && !attrs.iter().any(|a| a.name == attr_name) {
                    attrs.push(Attribute {
                        name: attr_name,
                        value: decode_entities(&value),
                    });
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

fn decode_entities(value: &str) -> String {
    const ENTITIES: [(&str, char); 5] = [
        ("&amp;", '&'),
        ("&quot;", '"'),
        ("&#39;", '\''),
        ("&lt;", '<'),
        ("&gt;", '>'),
    ];
    let mut out = String::with_capacity(value.len());
    let mut rest = value;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        match ENTITIES.iter().find(|(entity, _)| rest.starts_with(entity)) {
            Some((entity, decoded)) => {
                out.push(*decoded);
                rest = &rest[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// Scans an HTML document by folding its finished token list.
pub fn scan(input: &str) -> Document {
    let tokens = tokenize(input);
    let mut doc = Document::default();
    for (i, token) in tokens.iter().enumerate() {
        let Token::StartTag { name, attrs, .. } = token else {
            continue;
        };
        for attr in attrs {
            if let Some(event) = attr.name.strip_prefix("on") {
                if !event.is_empty() && !attr.value.is_empty() {
                    doc.handlers.push(EventHandler {
                        tag: name.clone(),
                        event: event.to_string(),
                        code: attr.value.clone(),
                    });
                }
            }
        }
        let get = |n: &str| attrs.iter().find(|a| a.name == n).map(|a| a.value.clone());
        match name.as_str() {
            "iframe" => doc.iframes.push(IframeElement {
                id: get("id"),
                name: get("name"),
                class: get("class"),
                src: get("src"),
                allow: get("allow"),
                sandbox: get("sandbox"),
                srcdoc: get("srcdoc"),
                loading: get("loading"),
            }),
            "script" => {
                let src = get("src");
                let inline = match tokens.get(i + 1) {
                    Some(Token::Text(body)) if src.is_none() && !body.trim().is_empty() => {
                        Some(body.clone())
                    }
                    _ => None,
                };
                doc.scripts.push(ScriptElement {
                    src,
                    inline,
                    script_type: get("type"),
                    async_attr: attrs.iter().any(|a| a.name == "async"),
                    defer: attrs.iter().any(|a| a.name == "defer"),
                });
            }
            "a" => {
                if let Some(href) = get("href").filter(|h| !h.is_empty()) {
                    doc.links.push(LinkElement { href });
                }
            }
            _ => {}
        }
    }
    doc
}
