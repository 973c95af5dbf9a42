//! Runtime values.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::ast::Function;
use crate::host::ScriptSource;

/// Lexical environment: a scope chain.
#[derive(Debug, Clone)]
pub struct Env(pub Rc<RefCell<Scope>>);

/// One scope frame.
#[derive(Debug, Default)]
pub struct Scope {
    /// Variables declared in this scope.
    pub vars: HashMap<String, Value>,
    /// Enclosing scope.
    pub parent: Option<Env>,
}

impl Env {
    /// A fresh root scope.
    pub fn root() -> Env {
        Env(Rc::new(RefCell::new(Scope::default())))
    }

    /// A child scope of `self`.
    pub fn child(&self) -> Env {
        Env(Rc::new(RefCell::new(Scope {
            vars: HashMap::new(),
            parent: Some(self.clone()),
        })))
    }

    /// Declares (or overwrites) a variable in this scope.
    pub fn declare(&self, name: &str, value: Value) {
        self.0.borrow_mut().vars.insert(name.to_string(), value);
    }

    /// Reads a variable, walking the scope chain.
    pub fn get(&self, name: &str) -> Option<Value> {
        let scope = self.0.borrow();
        if let Some(v) = scope.vars.get(name) {
            return Some(v.clone());
        }
        scope.parent.as_ref().and_then(|p| p.get(name))
    }

    /// Assigns to an existing variable (walking the chain); declares at the
    /// root if undeclared (sloppy-mode global assignment).
    pub fn set(&self, name: &str, value: Value) {
        {
            let mut scope = self.0.borrow_mut();
            if scope.vars.contains_key(name) {
                scope.vars.insert(name.to_string(), value);
                return;
            }
        }
        let parent = self.0.borrow().parent.clone();
        match parent {
            Some(p) => p.set(name, value),
            None => self.declare(name, value),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `undefined`.
    Undefined,
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Number.
    Num(f64),
    /// String. Strings are immutable, so copies of one share its text.
    Str(Rc<str>),
    /// Mutable object.
    Object(Rc<RefCell<HashMap<String, Value>>>),
    /// Mutable array.
    Array(Rc<RefCell<Vec<Value>>>),
    /// Script function (closure).
    Func {
        /// The function body.
        func: Rc<Function>,
        /// Captured environment.
        env: Env,
        /// The script the function came from (for stack-trace attribution).
        source: ScriptSource,
    },
    /// A host object or function, identified by its dotted path. The
    /// path is reference-counted so aliases, inline-cache entries and
    /// member-chain results share one allocation (`Rc::ptr_eq` is the
    /// VM's fast identity check before falling back to content
    /// comparison).
    Host(Rc<str>),
    /// A resolved promise wrapping a value.
    Promise(Rc<Value>),
}

impl Value {
    /// Builds an object value from pairs.
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(Rc::new(RefCell::new(
            pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        )))
    }

    /// Builds an array of strings (e.g. `allowedFeatures()` results).
    pub fn string_array<S: Into<Rc<str>>>(items: impl IntoIterator<Item = S>) -> Value {
        Value::Array(Rc::new(RefCell::new(
            items.into_iter().map(|s| Value::Str(s.into())).collect(),
        )))
    }

    /// A resolved promise.
    pub fn promise(value: Value) -> Value {
        Value::Promise(Rc::new(value))
    }

    /// A host object/function value for a dotted path.
    pub fn host(path: impl Into<Rc<str>>) -> Value {
        Value::Host(path.into())
    }

    /// JS truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            _ => true,
        }
    }

    /// `typeof`.
    pub fn type_of(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null => "object",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Func { .. } => "function",
            Value::Host(_) => "object",
            _ => "object",
        }
    }

    /// Loose string rendering (for `+` concatenation).
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Undefined => "undefined".to_string(),
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    n.to_string()
                }
            }
            Value::Str(s) => s.to_string(),
            Value::Object(_) => "[object Object]".to_string(),
            Value::Array(items) => items
                .borrow()
                .iter()
                .map(Value::to_display_string)
                .collect::<Vec<_>>()
                .join(","),
            Value::Func { .. } => "function".to_string(),
            Value::Host(path) => format!("[object {path}]"),
            Value::Promise(_) => "[object Promise]".to_string(),
        }
    }

    /// [`Value::to_display_string`], borrowing a string's own text.
    pub(crate) fn display_str(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.to_display_string()),
        }
    }

    /// Reads `obj.key` when the value is an object; `None` otherwise.
    pub fn get_property(&self, key: &str) -> Option<Value> {
        match self {
            Value::Object(map) => map.borrow().get(key).cloned(),
            _ => None,
        }
    }

    /// Loose equality (`==`) — simplified: strict equality plus
    /// null/undefined coalescing.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined | Value::Null, Value::Undefined | Value::Null) => true,
            _ => self.strict_eq(other),
        }
    }

    /// Strict equality (`===`).
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) | (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => Rc::ptr_eq(a, b),
            (Value::Array(a), Value::Array(b)) => Rc::ptr_eq(a, b),
            (Value::Host(a), Value::Host(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Undefined.truthy());
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(!Value::Str("".into()).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(Value::object(vec![]).truthy());
    }

    #[test]
    fn env_scoping() {
        let root = Env::root();
        root.declare("a", Value::Num(1.0));
        let child = root.child();
        child.declare("b", Value::Num(2.0));
        assert!(matches!(child.get("a"), Some(Value::Num(n)) if n == 1.0));
        assert!(root.get("b").is_none());
        child.set("a", Value::Num(3.0));
        assert!(matches!(root.get("a"), Some(Value::Num(n)) if n == 3.0));
    }

    #[test]
    fn equality() {
        assert!(Value::Null.loose_eq(&Value::Undefined));
        assert!(!Value::Null.strict_eq(&Value::Undefined));
        assert!(Value::Str("a".into()).strict_eq(&Value::Str("a".into())));
        let o = Value::object(vec![]);
        assert!(o.strict_eq(&o.clone()));
        assert!(!o.strict_eq(&Value::object(vec![])));
    }

    #[test]
    fn display_strings() {
        assert_eq!(Value::Num(3.0).to_display_string(), "3");
        assert_eq!(Value::Num(2.5).to_display_string(), "2.5");
        assert_eq!(
            Value::string_array(vec!["a".to_string(), "b".to_string()]).to_display_string(),
            "a,b"
        );
    }
}
