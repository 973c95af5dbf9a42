//! The leaf semantics both engines share: run errors, the page-wide
//! step pool, pending event handlers, the call-depth guard, binary
//! operators, string builtins and host data properties. Keeping them in
//! one place means [`crate::ScriptEngine`] and the differential referee
//! ([`crate::reference`]) cannot drift on them.

use std::fmt;

use crate::value::Value;

/// Hard execution failure (scripts cannot catch these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Lexing failed.
    Lex(String),
    /// Parsing failed.
    Parse(String),
    /// Bytecode compilation failed ([`crate::ScriptEngine`] only; the
    /// referee has no compile stage). Reported, never retried another
    /// way, so the degradation taxonomy records it.
    Compile(String),
    /// The step budget was exhausted (runaway script).
    BudgetExceeded,
    /// The page-wide shared step pool ran dry (earlier scripts consumed
    /// it); this script was cut short or never started.
    PoolExhausted,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Lex(e) => write!(f, "lex error: {e}"),
            RunError::Parse(e) => write!(f, "parse error: {e}"),
            RunError::Compile(e) => write!(f, "compile error: {e}"),
            RunError::BudgetExceeded => write!(f, "script step budget exceeded"),
            RunError::PoolExhausted => write!(f, "page step pool exhausted"),
        }
    }
}

impl std::error::Error for RunError {}

/// A page-wide pool of interpreter steps shared by every script of a
/// visit. Each run draws a grant of `min(per-run budget, remaining)` and
/// charges back what it used, so one runaway script cannot monopolise
/// the page and a flood of scripts cannot run forever even if each stays
/// under its own budget.
#[derive(Debug, Clone)]
pub struct StepPool {
    remaining: u64,
    limited: bool,
}

impl StepPool {
    /// A pool holding `steps` steps in total.
    pub fn limited(steps: u64) -> StepPool {
        StepPool {
            remaining: steps,
            limited: true,
        }
    }

    /// A pool that never runs dry (the pre-pool behaviour).
    pub fn unlimited() -> StepPool {
        StepPool {
            remaining: u64::MAX,
            limited: false,
        }
    }

    /// Steps left in the pool (`u64::MAX` when unlimited).
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Whether a limited pool has run dry.
    pub fn is_exhausted(&self) -> bool {
        self.limited && self.remaining == 0
    }

    pub(crate) fn grant(&self, per_run: u64) -> u64 {
        if self.limited {
            per_run.min(self.remaining)
        } else {
            per_run
        }
    }

    pub(crate) fn charge(&mut self, used: u64) {
        if self.limited {
            self.remaining = self.remaining.saturating_sub(used);
        }
    }
}

/// Maximum script-function recursion depth (both engines): each JS frame
/// costs native stack (the tree-walker recurses through `eval_*`, the VM
/// through `run_proto`), so deep script recursion is cut off well before
/// the host stack can overflow and treated like budget exhaustion.
pub(crate) const MAX_CALL_DEPTH: usize = 64;

/// An event handler registered via `addEventListener` or an `on*` property
/// — interaction-gated code the crawler can fire later.
#[derive(Debug, Clone)]
pub struct PendingHandler {
    /// Event name (e.g. `click`).
    pub event: String,
    /// The handler function value.
    pub func: Value,
}

/// Binary operators (shared by the tree-walker and the VM so semantics
/// cannot drift).
pub(crate) fn binary_op(op: &str, l: &Value, r: &Value) -> Value {
    match op {
        "+" => match (l, r) {
            (Value::Num(a), Value::Num(b)) => Value::Num(a + b),
            _ => {
                let (l, r) = (l.display_str(), r.display_str());
                let mut joined = String::with_capacity(l.len() + r.len());
                joined.push_str(&l);
                joined.push_str(&r);
                Value::Str(joined.into())
            }
        },
        "-" | "*" | "/" => {
            let (a, b) = (to_number(l), to_number(r));
            Value::Num(match op {
                "-" => a - b,
                "*" => a * b,
                _ => a / b,
            })
        }
        "==" => Value::Bool(l.loose_eq(r)),
        "!=" => Value::Bool(!l.loose_eq(r)),
        "===" => Value::Bool(l.strict_eq(r)),
        "!==" => Value::Bool(!l.strict_eq(r)),
        "<" | ">" | "<=" | ">=" => {
            let (a, b) = (to_number(l), to_number(r));
            Value::Bool(match op {
                "<" => a < b,
                ">" => a > b,
                "<=" => a <= b,
                _ => a >= b,
            })
        }
        _ => Value::Undefined,
    }
}

fn to_number(v: &Value) -> f64 {
    match v {
        Value::Num(n) => *n,
        Value::Bool(true) => 1.0,
        Value::Bool(false) | Value::Null => 0.0,
        Value::Str(s) => s.trim().parse().unwrap_or(f64::NAN),
        _ => f64::NAN,
    }
}

/// String builtin methods.
pub(crate) fn string_method(s: &str, key: &str, args: &[Value]) -> Value {
    match key {
        "includes" => Value::Bool(
            args.first()
                .map(|a| s.contains(&a.to_display_string()))
                .unwrap_or(false),
        ),
        "indexOf" => Value::Num(
            args.first()
                .and_then(|a| s.find(&a.to_display_string()))
                .map(|i| i as f64)
                .unwrap_or(-1.0),
        ),
        "toLowerCase" => Value::Str(s.to_lowercase().into()),
        "toUpperCase" => Value::Str(s.to_uppercase().into()),
        "split" => {
            let sep = args
                .first()
                .map(Value::to_display_string)
                .unwrap_or_default();
            Value::string_array(if sep.is_empty() {
                vec![s.to_string()]
            } else {
                s.split(&sep).map(str::to_string).collect()
            })
        }
        "slice" | "substring" => {
            let start = args.first().map(to_number).unwrap_or(0.0).max(0.0) as usize;
            let end = args
                .get(1)
                .map(to_number)
                .unwrap_or(s.len() as f64)
                .min(s.len() as f64) as usize;
            Value::Str(s.get(start.min(end)..end).unwrap_or("").into())
        }
        "charAt" => {
            let i = args.first().map(to_number).unwrap_or(0.0) as usize;
            let mut utf8 = [0; 4];
            Value::Str(
                s.chars()
                    .nth(i)
                    .map_or("", |c| c.encode_utf8(&mut utf8))
                    .into(),
            )
        }
        _ => Value::Undefined,
    }
}

/// Read-only host data properties scripts probe.
pub(crate) fn data_property(path: &str) -> Option<Value> {
    match path {
        "navigator.userAgent" => Some(Value::Str(
            "Mozilla/5.0 (X11; Linux x86_64) Chromium/127.0.6533.17".into(),
        )),
        "navigator.language" => Some(Value::Str("en-US".into())),
        "navigator.platform" => Some(Value::Str("Linux x86_64".into())),
        // The crawler disables AutomationControlled, so webdriver is false
        // (§A.2 C6/C8).
        "navigator.webdriver" => Some(Value::Bool(false)),
        "Notification.permission" => Some(Value::Str("default".into())),
        "document.visibilityState" => Some(Value::Str("visible".into())),
        "location.href" => Some(Value::Str("about:srcdoc".into())),
        _ => None,
    }
}
