//! Document scanner: folds the token stream into the structures the
//! crawler collects.

use serde::{Deserialize, Serialize};

use crate::tokenizer::{tokenize, Token};

/// An `<iframe>` element with the attribute set the paper collects
/// (§3.1.2: id, name, class, src, allow, sandbox, srcdoc, loading).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IframeElement {
    /// `id` attribute.
    pub id: Option<String>,
    /// `name` attribute.
    pub name: Option<String>,
    /// `class` attribute.
    pub class: Option<String>,
    /// `src` attribute (may be a local-scheme or `javascript:` URL).
    pub src: Option<String>,
    /// `allow` attribute — the permission delegation.
    pub allow: Option<String>,
    /// `sandbox` attribute.
    pub sandbox: Option<String>,
    /// `srcdoc` attribute (inline document).
    pub srcdoc: Option<String>,
    /// `loading` attribute (`lazy` triggers the crawler's scroll logic).
    pub loading: Option<String>,
}

impl IframeElement {
    /// Whether the iframe is lazy-loaded (`loading="lazy"`).
    pub fn lazy(&self) -> bool {
        self.loading
            .as_deref()
            .is_some_and(|v| v.eq_ignore_ascii_case("lazy"))
    }

    /// Whether the frame yields a local document (srcdoc, no src, or a
    /// headerless scheme) — the paper's "local documents" class (54.1% of
    /// embedded frames).
    pub fn is_local_document(&self) -> bool {
        if self.srcdoc.is_some() {
            return true;
        }
        match self.src.as_deref() {
            None | Some("") => true,
            Some(src) => match weburl_scheme(src) {
                Some(scheme) => {
                    matches!(scheme.as_str(), "about" | "blob" | "data" | "javascript")
                }
                None => false, // relative URL: network document
            },
        }
    }
}

/// Extracts the scheme of a URL string without full parsing.
fn weburl_scheme(url: &str) -> Option<String> {
    let colon = url.find(':')?;
    let scheme = &url[..colon];
    if scheme.is_empty()
        || !scheme.chars().next().unwrap().is_ascii_alphabetic()
        || !scheme
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
    {
        return None;
    }
    Some(scheme.to_ascii_lowercase())
}

/// A `<script>` element.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptElement {
    /// External script URL, if any.
    pub src: Option<String>,
    /// Inline source text, if any.
    pub inline: Option<String>,
    /// `type` attribute.
    pub script_type: Option<String>,
    /// `async` present.
    pub async_attr: bool,
    /// `defer` present.
    pub defer: bool,
}

impl ScriptElement {
    /// Whether the script is executable JavaScript (not a JSON/template
    /// block).
    pub fn is_javascript(&self) -> bool {
        match self.script_type.as_deref() {
            None | Some("") => true,
            Some(t) => {
                let t = t.trim().to_ascii_lowercase();
                t == "text/javascript" || t == "application/javascript" || t == "module"
            }
        }
    }
}

/// An inline event handler (e.g. `onclick="..."`) — interaction-gated code.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventHandler {
    /// Element tag name.
    pub tag: String,
    /// Event name without the `on` prefix (e.g. `click`).
    pub event: String,
    /// Handler source code.
    pub code: String,
}

/// An `<a href>` element (for interaction-mode same-origin navigation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkElement {
    /// `href` attribute.
    pub href: String,
}

/// Everything the crawler extracts from one HTML document.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Document {
    /// All iframes, in document order.
    pub iframes: Vec<IframeElement>,
    /// All scripts, in document order.
    pub scripts: Vec<ScriptElement>,
    /// All inline event handlers.
    pub handlers: Vec<EventHandler>,
    /// All anchors with an href.
    pub links: Vec<LinkElement>,
}

/// Scans an HTML document in one pass: tokens are folded as the
/// tokenizer produces them, and only the strings a [`Document`] keeps are
/// copied.
pub fn scan(input: &str) -> Document {
    let mut tokens = tokenize(input).peekable();
    let mut doc = Document::default();
    while let Some(token) = tokens.next() {
        let Token::StartTag { name, attrs, .. } = &token else {
            continue;
        };
        // Event handler attributes on any element.
        for attr in attrs {
            if let Some(event) = attr.name.strip_prefix("on") {
                if !event.is_empty() && !attr.value.is_empty() {
                    cov!(40);
                    doc.handlers.push(EventHandler {
                        tag: name.to_string(),
                        event: event.to_string(),
                        code: attr.value.to_string(),
                    });
                }
            }
        }
        let get = |n: &str| token.attr(n).map(str::to_string);
        match &**name {
            "iframe" => {
                cov!(41);
                doc.iframes.push(IframeElement {
                    id: get("id"),
                    name: get("name"),
                    class: get("class"),
                    src: get("src"),
                    allow: get("allow"),
                    sandbox: get("sandbox"),
                    srcdoc: get("srcdoc"),
                    loading: get("loading"),
                });
            }
            "script" => {
                cov!(42);
                let src = get("src");
                // Inline body: the next token is raw text if present.
                let inline = match tokens.peek() {
                    Some(Token::Text(body)) if src.is_none() && !body.trim().is_empty() => {
                        cov!(43);
                        Some(body.to_string())
                    }
                    _ => None,
                };
                doc.scripts.push(ScriptElement {
                    src,
                    inline,
                    script_type: get("type"),
                    async_attr: token.attr("async").is_some(),
                    defer: token.attr("defer").is_some(),
                });
            }
            "a" => {
                if let Some(href) = token.attr("href").filter(|href| !href.is_empty()) {
                    cov!(44);
                    doc.links.push(LinkElement {
                        href: href.to_string(),
                    });
                }
            }
            _ => {}
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_iframe_attributes() {
        let doc = scan(
            r#"<iframe id="w" name="chat" class="x y" src="https://widget.example/"
                allow="camera *; microphone" sandbox="allow-scripts"
                loading="lazy"></iframe>"#,
        );
        let f = &doc.iframes[0];
        assert_eq!(f.id.as_deref(), Some("w"));
        assert_eq!(f.name.as_deref(), Some("chat"));
        assert_eq!(f.class.as_deref(), Some("x y"));
        assert_eq!(f.src.as_deref(), Some("https://widget.example/"));
        assert_eq!(f.allow.as_deref(), Some("camera *; microphone"));
        assert_eq!(f.sandbox.as_deref(), Some("allow-scripts"));
        assert!(f.lazy());
        assert!(!f.is_local_document());
    }

    #[test]
    fn local_document_detection() {
        let cases = [
            ("<iframe srcdoc='<p>x</p>'>", true),
            ("<iframe>", true),
            ("<iframe src=''>", true),
            ("<iframe src='about:blank'>", true),
            ("<iframe src='data:text/html,x'>", true),
            ("<iframe src='javascript:void(0)'>", true),
            ("<iframe src='https://x.example/'>", false),
            ("<iframe src='/relative'>", false),
        ];
        for (input, expect) in cases {
            let doc = scan(input);
            assert_eq!(doc.iframes[0].is_local_document(), expect, "{input}");
        }
    }

    #[test]
    fn extracts_scripts() {
        let doc = scan(
            r#"<script src="/a.js" async></script>
               <script>navigator.getBattery();</script>
               <script type="application/json">{"x":1}</script>"#,
        );
        assert_eq!(doc.scripts.len(), 3);
        assert_eq!(doc.scripts[0].src.as_deref(), Some("/a.js"));
        assert!(doc.scripts[0].async_attr);
        assert!(doc.scripts[1]
            .inline
            .as_deref()
            .unwrap()
            .contains("getBattery"));
        assert!(doc.scripts[1].is_javascript());
        assert!(!doc.scripts[2].is_javascript());
    }

    #[test]
    fn extracts_event_handlers() {
        let doc =
            scan(r#"<button onclick="navigator.geolocation.getCurrentPosition(cb)">x</button>"#);
        assert_eq!(doc.handlers.len(), 1);
        assert_eq!(doc.handlers[0].event, "click");
        assert!(doc.handlers[0].code.contains("getCurrentPosition"));
    }

    #[test]
    fn extracts_links() {
        let doc = scan(r#"<a href="/about">about</a><a name="x">anchor</a>"#);
        assert_eq!(doc.links.len(), 1);
        assert_eq!(doc.links[0].href, "/about");
    }

    #[test]
    fn iframe_inside_comment_is_ignored() {
        let doc = scan("<!-- <iframe src='https://x.example/'> -->");
        assert!(doc.iframes.is_empty());
    }

    #[test]
    fn script_with_markup_in_body() {
        let doc = scan(r#"<script>document.write("<iframe src='x'>");</script>"#);
        // The iframe inside the script body must not be scanned as markup.
        assert!(doc.iframes.is_empty());
        assert_eq!(doc.scripts.len(), 1);
    }

    #[test]
    fn multiple_iframes_in_order() {
        let doc = scan(
            "<iframe src='https://a.example/'></iframe>\
             <iframe src='https://b.example/'></iframe>",
        );
        assert_eq!(doc.iframes.len(), 2);
        assert_eq!(doc.iframes[0].src.as_deref(), Some("https://a.example/"));
        assert_eq!(doc.iframes[1].src.as_deref(), Some("https://b.example/"));
    }
}
