//! Minimal HTML tokenizer and document scanner.
//!
//! The crawler does not need a full DOM — it needs exactly what the
//! paper's pipeline extracted from each document:
//!
//! * every `<iframe>` with its attributes (`id`, `name`, `class`, `src`,
//!   `allow`, `sandbox`, `srcdoc`, `loading` — §3.1.2),
//! * every `<script>` (external `src` or inline body),
//! * inline event handlers (`onclick="..."`) — the interaction-gated code
//!   the paper's no-interaction crawl misses (§6.1, Appendix A.3),
//! * anchors, for the interaction-mode crawler's same-origin navigation.
//!
//! [`tokenizer`] is a small state machine covering tags, attributes with
//! all three quoting styles, comments, and raw-text elements
//! (`<script>`/`<style>`). Its tokens borrow from the input and come one
//! step at a time; [`scan`] folds them into a [`Document`] in the same
//! pass, copying only the strings the document keeps.
//!
//! # Example
//!
//! ```
//! let doc = html::scan(r#"
//!     <iframe src="https://widget.example/chat" allow="camera; microphone *" loading="lazy">
//!     </iframe>
//!     <script src="/app.js"></script>
//!     <script>navigator.getBattery();</script>
//! "#);
//! assert_eq!(doc.iframes.len(), 1);
//! assert_eq!(doc.iframes[0].allow.as_deref(), Some("camera; microphone *"));
//! assert!(doc.iframes[0].lazy());
//! assert_eq!(doc.scripts.len(), 2);
//! ```

// Coverage instrumentation point for the fuzzer (crates/difftest).  Sites
// 0-39 belong to `tokenizer`, 40-59 to `scanner`.  Expands to nothing
// unless the `coverage` feature is enabled.
#[cfg(feature = "coverage")]
macro_rules! cov {
    ($site:expr) => {
        covmap::hit(covmap::HTML_BASE, $site)
    };
}
#[cfg(not(feature = "coverage"))]
macro_rules! cov {
    ($site:expr) => {};
}

pub mod scanner;
pub mod tokenizer;

pub use scanner::{scan, Document, EventHandler, IframeElement, LinkElement, ScriptElement};
pub use tokenizer::{tokenize, Attribute, Token, Tokenizer};
