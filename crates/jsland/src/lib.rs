//! `jsland` — a micro-JavaScript interpreter.
//!
//! The paper instruments a real browser (Figure 1): permission-related
//! host functions are overwritten to log call, arguments and stack trace
//! before delegating to the original. Reproducing that measurement needs a
//! script engine whose *dynamic* behaviour can genuinely diverge from what
//! *static* string matching sees. `jsland` interprets the JavaScript
//! subset real sites use around permission APIs:
//!
//! * `var`/`let`/`const`, assignments, expression statements, `if`/`else`,
//!   `return`, blocks,
//! * member access with dots **and** brackets, string concatenation
//!   (so `navigator["per" + "missions"].query(...)` works — obfuscation
//!   the static analyzer misses),
//! * calls, `new`, function expressions, arrow functions, closures,
//! * object/array literals (`{name: "camera"}` arguments),
//! * promise-style `.then(cb)` on host results (callbacks run
//!   synchronously, which is fine for measurement purposes),
//! * event-handler registration (`addEventListener`, `onclick = ...`)
//!   that defers code until the embedder fires events — interaction-gated
//!   behaviour a no-interaction crawl never sees.
//!
//! Host APIs are resolved by dotted path and dispatched to a
//! [`host::HostHooks`] implementation supplied by the embedder (the
//! `browser` crate records invocations there). Execution is bounded by a
//! step budget, so hostile or runaway scripts cannot wedge the crawler.
//!
//! [`ScriptEngine`], a bytecode VM, is the one engine the crawler runs.
//! [`reference::Interpreter`] is a tree-walking referee that only tests,
//! `difftest` and the benches run beside it.
//!
//! # Example
//!
//! ```
//! use jsland::{RecordingHooks, ScriptEngine, ScriptSource};
//!
//! let mut hooks = RecordingHooks::default();
//! let mut engine = ScriptEngine::default();
//! engine
//!     .run(
//!         r#"
//!         var q = navigator.permissions.query;     // alias
//!         q({name: "camera"}).then(function (st) {});
//!         navigator["media" + "Devices"].getUserMedia({video: true});
//!         "#,
//!         ScriptSource::inline(),
//!         &mut hooks,
//!     )
//!     .unwrap();
//! let paths: Vec<_> = hooks.calls.iter().map(|c| c.path.as_str()).collect();
//! assert!(paths.contains(&"navigator.permissions.query"));
//! assert!(paths.contains(&"navigator.mediaDevices.getUserMedia"));
//! ```

// Coverage instrumentation point for the fuzzer (crates/difftest).  Sites
// 0-29 belong to `lexer`, 30-69 to `parser`, 70-89 to `bytecode`, 90-99
// to `vm`.  Expands to nothing unless the `coverage` feature is enabled.
#[cfg(feature = "coverage")]
macro_rules! cov {
    ($site:expr) => {
        covmap::hit(covmap::JSLAND_BASE, $site)
    };
}
#[cfg(not(feature = "coverage"))]
macro_rules! cov {
    ($site:expr) => {};
}

mod ast;
mod bytecode;
mod engine;
pub mod host;
#[cfg(test)]
mod interp;
mod lexer;
mod parser;
pub mod reference;
mod semantics;
mod value;
mod vm;

pub use engine::{Engine, ExecEngine};
pub use host::{ApiCall, HostHooks, RecordingHooks, ScriptSource};
pub use semantics::{PendingHandler, RunError, StepPool};
pub use value::Value;
pub use vm::{reset_frontend_cache, ScriptEngine};

/// Parses a script and reports the first syntax error, if any. Used by the
/// crawler to tell "script failed to parse" apart from "script ran".
pub fn check_syntax(source: &str) -> Result<(), String> {
    let tokens = lexer::lex(source).map_err(|e| e.to_string())?;
    parser::parse(&tokens)
        .map(|_| ())
        .map_err(|e| e.to_string())
}
