//! The evaluator.

use std::fmt;
use std::rc::Rc;

use crate::ast::{Expr, PropertyKey, Stmt};
use crate::host::{self, ApiCall, HostHooks, ScriptSource};
use crate::lexer;
use crate::parser;
use crate::value::{Env, Value};

/// Hard execution failure (scripts cannot catch these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Lexing failed.
    Lex(String),
    /// Parsing failed.
    Parse(String),
    /// Bytecode compilation failed (VM engine only). Never silently
    /// falls back to the interpreter: the failure is reported so the
    /// degradation taxonomy records it.
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

/// Control-flow signal raised during evaluation.
enum Signal {
    /// `return` inside a function body.
    Return(Value),
    /// A thrown value (catchable by `try`).
    Thrown(Value),
    /// `break` inside a loop.
    Break,
    /// `continue` inside a loop.
    Continue,
    /// Step budget exhausted — aborts the whole run.
    Budget,
}

/// An event handler registered via `addEventListener` or an `on*` property
/// — interaction-gated code the crawler can fire later.
#[derive(Debug, Clone)]
pub struct PendingHandler {
    /// Event name (e.g. `click`).
    pub event: String,
    /// The handler function value.
    pub func: Value,
}

/// The interpreter: one instance per document, so scripts share globals
/// (aliases defined by one script are visible to later scripts, as in a
/// real page).
pub struct Interpreter {
    globals: Env,
    /// Handlers registered and not yet fired.
    pub handlers: Vec<PendingHandler>,
    timers: Vec<Value>,
    steps_left: u64,
    budget_per_run: u64,
    depth: usize,
    current_source: ScriptSource,
}

impl Drop for Interpreter {
    /// A script function keeps the scope it was declared in alive, so a
    /// global function and the global scope hold each other; clearing
    /// the globals breaks that cycle, or every document's globals would
    /// outlive the engine.
    fn drop(&mut self) {
        if let Ok(mut globals) = self.globals.0.try_borrow_mut() {
            globals.vars.clear();
        }
    }
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Creates an interpreter with the default per-run step budget.
    pub fn new() -> Interpreter {
        Interpreter::with_budget(200_000)
    }

    /// Creates an interpreter with a custom per-run step budget.
    pub fn with_budget(budget: u64) -> Interpreter {
        let globals = Env::root();
        globals.declare("undefined", Value::Undefined);
        Interpreter {
            globals,
            handlers: Vec::new(),
            timers: Vec::new(),
            steps_left: budget,
            budget_per_run: budget,
            depth: 0,
            current_source: ScriptSource::inline(),
        }
    }

    /// Runs a script. Errors are *hard* failures (syntax, budget); thrown
    /// values that escape to the top level are swallowed like a browser's
    /// uncaught-exception console message.
    pub fn run(
        &mut self,
        source: &str,
        script: ScriptSource,
        hooks: &mut dyn HostHooks,
    ) -> Result<(), RunError> {
        self.run_pooled(source, script, hooks, &mut StepPool::unlimited())
    }

    /// Runs a script against a shared page-wide [`StepPool`]. The run's
    /// effective budget is `min(per-run budget, pool remaining)`; used
    /// steps are charged back to the pool. An empty pool fails fast with
    /// [`RunError::PoolExhausted`] (after syntax checking, so parse
    /// errors are still reported precisely).
    pub fn run_pooled(
        &mut self,
        source: &str,
        script: ScriptSource,
        hooks: &mut dyn HostHooks,
        pool: &mut StepPool,
    ) -> Result<(), RunError> {
        let tokens = lexer::lex(source).map_err(|e| RunError::Lex(e.to_string()))?;
        let stmts = parser::parse(&tokens).map_err(|e| RunError::Parse(e.to_string()))?;
        if pool.is_exhausted() {
            return Err(RunError::PoolExhausted);
        }
        let grant = pool.grant(self.budget_per_run);
        self.steps_left = grant;
        self.current_source = script;
        let env = self.globals.clone();
        let result = self.eval_block(&stmts, &env, hooks);
        pool.charge(grant - self.steps_left);
        match result {
            Ok(())
            | Err(Signal::Thrown(_))
            | Err(Signal::Return(_))
            | Err(Signal::Break)
            | Err(Signal::Continue) => Ok(()),
            // A short grant means the pool, not the script's own budget,
            // is what ran out.
            Err(Signal::Budget) if grant < self.budget_per_run => Err(RunError::PoolExhausted),
            Err(Signal::Budget) => Err(RunError::BudgetExceeded),
        }
    }

    /// Runs queued `setTimeout` callbacks (the crawler's 20-second settle
    /// window lets short timers fire).
    pub fn drain_timers(&mut self, hooks: &mut dyn HostHooks) {
        self.drain_timers_pooled(hooks, &mut StepPool::unlimited());
    }

    /// [`Self::drain_timers`] drawing each timer's budget from a shared
    /// pool. Returns `false` if the pool ran dry and pending timers were
    /// dropped. Timers may queue more timers; the cascade is bounded.
    pub fn drain_timers_pooled(&mut self, hooks: &mut dyn HostHooks, pool: &mut StepPool) -> bool {
        for _round in 0..4 {
            let timers = std::mem::take(&mut self.timers);
            if timers.is_empty() {
                break;
            }
            for func in timers {
                if pool.is_exhausted() {
                    return false;
                }
                let grant = pool.grant(self.budget_per_run);
                self.steps_left = grant;
                let _ = self.call_function(&func, vec![], hooks);
                pool.charge(grant - self.steps_left);
            }
        }
        true
    }

    /// Fires all registered handlers for `event` (interaction mode).
    /// Returns how many handlers ran.
    pub fn fire_event(&mut self, event: &str, hooks: &mut dyn HostHooks) -> usize {
        let matching: Vec<Value> = self
            .handlers
            .iter()
            .filter(|h| h.event == event)
            .map(|h| h.func.clone())
            .collect();
        for func in &matching {
            self.steps_left = self.budget_per_run;
            let _ = self.call_function(func, vec![], hooks);
        }
        self.drain_timers(hooks);
        matching.len()
    }

    fn step(&mut self) -> Result<(), Signal> {
        if self.steps_left == 0 {
            return Err(Signal::Budget);
        }
        self.steps_left -= 1;
        Ok(())
    }

    fn eval_block(
        &mut self,
        stmts: &[Stmt],
        env: &Env,
        hooks: &mut dyn HostHooks,
    ) -> Result<(), Signal> {
        // Hoist function declarations.
        for stmt in stmts {
            if let Stmt::FuncDecl { name, func } = stmt {
                env.declare(
                    name,
                    Value::Func {
                        func: func.clone(),
                        env: env.clone(),
                        source: self.current_source.clone(),
                    },
                );
            }
        }
        for stmt in stmts {
            self.eval_stmt(stmt, env, hooks)?;
        }
        Ok(())
    }

    fn eval_stmt(
        &mut self,
        stmt: &Stmt,
        env: &Env,
        hooks: &mut dyn HostHooks,
    ) -> Result<(), Signal> {
        self.step()?;
        match stmt {
            Stmt::VarDecl { name, init } => {
                let value = match init {
                    Some(expr) => self.eval_expr(expr, env, hooks)?,
                    None => Value::Undefined,
                };
                env.declare(name, value);
                Ok(())
            }
            Stmt::Expr(expr) => {
                self.eval_expr(expr, env, hooks)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval_expr(cond, env, hooks)?;
                let branch = if c.truthy() { then } else { otherwise };
                let child = env.child();
                self.eval_block(branch, &child, hooks)
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(expr) => self.eval_expr(expr, env, hooks)?,
                    None => Value::Undefined,
                };
                Err(Signal::Return(v))
            }
            Stmt::FuncDecl { .. } => Ok(()), // hoisted in eval_block
            Stmt::While { cond, body } => {
                loop {
                    self.step()?;
                    if !self.eval_expr(cond, env, hooks)?.truthy() {
                        break;
                    }
                    let child = env.child();
                    match self.eval_block(body, &child, hooks) {
                        Ok(()) | Err(Signal::Continue) => {}
                        Err(Signal::Break) => break,
                        Err(other) => return Err(other),
                    }
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                let scope = env.child();
                if let Some(init) = init {
                    self.eval_stmt(init, &scope, hooks)?;
                }
                loop {
                    self.step()?;
                    if let Some(cond) = cond {
                        if !self.eval_expr(cond, &scope, hooks)?.truthy() {
                            break;
                        }
                    }
                    let child = scope.child();
                    match self.eval_block(body, &child, hooks) {
                        Ok(()) | Err(Signal::Continue) => {}
                        Err(Signal::Break) => break,
                        Err(other) => return Err(other),
                    }
                    if let Some(update) = update {
                        self.eval_expr(update, &scope, hooks)?;
                    }
                }
                Ok(())
            }
            Stmt::Break => Err(Signal::Break),
            Stmt::Continue => Err(Signal::Continue),
            Stmt::Try {
                body,
                param,
                handler,
            } => {
                let child = env.child();
                match self.eval_block(body, &child, hooks) {
                    Err(Signal::Thrown(v)) => {
                        let catch_env = env.child();
                        if let Some(p) = param {
                            catch_env.declare(p, v);
                        }
                        self.eval_block(handler, &catch_env, hooks)
                    }
                    other => other,
                }
            }
        }
    }

    fn eval_expr(
        &mut self,
        expr: &Expr,
        env: &Env,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Signal> {
        self.step()?;
        match expr {
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Ident(name) => Ok(self.lookup(name, env)),
            Expr::Member { object, property } => {
                let obj = self.eval_expr(object, env, hooks)?;
                let key = self.property_name(property, env, hooks)?;
                Ok(self.get_member(&obj, &key))
            }
            Expr::Call { callee, args } => self.eval_call(callee, args, env, hooks),
            Expr::New { callee, args } => {
                let callee_value = self.eval_expr(callee, env, hooks)?;
                let arg_values = self.eval_args(args, env, hooks)?;
                match callee_value {
                    Value::Host(path) => {
                        self.host_boundary_guard()?;
                        Ok(hooks.api_call(ApiCall {
                            path: host::normalize_path(&path),
                            args: arg_values,
                            constructed: true,
                            source: self.current_source.clone(),
                        }))
                    }
                    func @ Value::Func { .. } => {
                        // `new` on a script function: fresh object bound as
                        // `this`, method installs and constructor body run,
                        // the object is the result.
                        let this = Value::object(vec![]);
                        self.call_function_with_this(&func, arg_values, Some(this.clone()), hooks)?;
                        Ok(this)
                    }
                    _ => Ok(Value::object(vec![])),
                }
            }
            Expr::Assign { target, value } => {
                let v = self.eval_expr(value, env, hooks)?;
                match &**target {
                    Expr::Ident(name) => env.set(name, v.clone()),
                    Expr::Member { object, property } => {
                        let obj = self.eval_expr(object, env, hooks)?;
                        let key = self.property_name(property, env, hooks)?;
                        self.set_member(&obj, &key, v.clone());
                    }
                    _ => {}
                }
                Ok(v)
            }
            Expr::Binary { op, left, right } => {
                // Short-circuit operators first.
                match *op {
                    "&&" => {
                        let l = self.eval_expr(left, env, hooks)?;
                        return if l.truthy() {
                            self.eval_expr(right, env, hooks)
                        } else {
                            Ok(l)
                        };
                    }
                    "||" => {
                        let l = self.eval_expr(left, env, hooks)?;
                        return if l.truthy() {
                            Ok(l)
                        } else {
                            self.eval_expr(right, env, hooks)
                        };
                    }
                    _ => {}
                }
                let l = self.eval_expr(left, env, hooks)?;
                let r = self.eval_expr(right, env, hooks)?;
                Ok(binary_op(op, &l, &r))
            }
            Expr::Unary { op, operand } => {
                let v = self.eval_expr(operand, env, hooks)?;
                Ok(match *op {
                    "!" => Value::Bool(!v.truthy()),
                    "-" => match v {
                        Value::Num(n) => Value::Num(-n),
                        _ => Value::Num(f64::NAN),
                    },
                    "typeof" => Value::Str(v.type_of().to_string()),
                    // `await` on a settled promise unwraps it in place
                    // (the sim-clock has no microtask queue); any other
                    // value passes through, like `await 1`.
                    "await" => match v {
                        Value::Promise(inner) => (*inner).clone(),
                        other => other,
                    },
                    _ => Value::Undefined,
                })
            }
            Expr::Conditional {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval_expr(cond, env, hooks)?;
                if c.truthy() {
                    self.eval_expr(then, env, hooks)
                } else {
                    self.eval_expr(otherwise, env, hooks)
                }
            }
            Expr::Object(props) => {
                let map = std::collections::HashMap::new();
                let obj = Value::Object(Rc::new(std::cell::RefCell::new(map)));
                for (key, value_expr) in props {
                    let value = self.eval_expr(value_expr, env, hooks)?;
                    if let Value::Object(m) = &obj {
                        m.borrow_mut().insert(key.clone(), value);
                    }
                }
                Ok(obj)
            }
            Expr::Array(items) => {
                let mut values = Vec::with_capacity(items.len());
                for item in items {
                    values.push(self.eval_expr(item, env, hooks)?);
                }
                Ok(Value::Array(Rc::new(std::cell::RefCell::new(values))))
            }
            Expr::Func(func) => Ok(Value::Func {
                func: func.clone(),
                env: env.clone(),
                source: self.current_source.clone(),
            }),
        }
    }

    fn lookup(&self, name: &str, env: &Env) -> Value {
        if let Some(v) = env.get(name) {
            return v;
        }
        if host::is_host_root(name) {
            return Value::host(name);
        }
        Value::Undefined
    }

    /// A script that has already exhausted its budget must not reach the
    /// host boundary: without this check the dispatch (an API-call
    /// record, a queued timer) could land even though the very next step
    /// charge aborts the run, leaving a partially-applied side effect
    /// that depends on *where* the pool ran dry inside an expression.
    fn host_boundary_guard(&self) -> Result<(), Signal> {
        if self.steps_left == 0 {
            return Err(Signal::Budget);
        }
        Ok(())
    }

    fn property_name(
        &mut self,
        property: &PropertyKey,
        env: &Env,
        hooks: &mut dyn HostHooks,
    ) -> Result<String, Signal> {
        match property {
            PropertyKey::Fixed(name) => Ok(name.clone()),
            PropertyKey::Computed(expr) => {
                let v = self.eval_expr(expr, env, hooks)?;
                Ok(v.to_display_string())
            }
        }
    }

    fn get_member(&mut self, obj: &Value, key: &str) -> Value {
        match obj {
            Value::Object(map) => map.borrow().get(key).cloned().unwrap_or(Value::Undefined),
            Value::Array(items) => match key {
                "length" => Value::Num(items.borrow().len() as f64),
                _ => match key.parse::<usize>() {
                    Ok(i) => items.borrow().get(i).cloned().unwrap_or(Value::Undefined),
                    Err(_) => Value::host(format!("__array.{key}")),
                },
            },
            Value::Str(s) => match key {
                "length" => Value::Num(s.chars().count() as f64),
                _ => Value::host(format!("__string.{key}")),
            },
            Value::Host(path) => {
                // `window.x` is the global `x`.
                if &**path == "window" {
                    if host::is_host_root(key) {
                        return Value::host(key);
                    }
                    return self.globals.get(key).unwrap_or(Value::Undefined);
                }
                let full = format!("{path}.{key}");
                match data_property(&full) {
                    Some(v) => v,
                    None => Value::host(full),
                }
            }
            Value::Promise(_) => Value::host(format!("__promise.{key}")),
            Value::Func { .. } => Value::host(format!("__function.{key}")),
            _ => Value::Undefined,
        }
    }

    fn set_member(&mut self, obj: &Value, key: &str, value: Value) {
        match obj {
            Value::Object(map) => {
                map.borrow_mut().insert(key.to_string(), value);
            }
            Value::Host(_path) => {
                // `element.onclick = fn` registers an interaction handler.
                if let Some(event) = key.strip_prefix("on") {
                    if matches!(value, Value::Func { .. }) {
                        self.handlers.push(PendingHandler {
                            event: event.to_string(),
                            func: value,
                        });
                    }
                }
                // Other host property writes (e.g. overwriting an API) are
                // ignored: the instrumentation keeps the original.
            }
            _ => {}
        }
    }

    fn eval_args(
        &mut self,
        args: &[Expr],
        env: &Env,
        hooks: &mut dyn HostHooks,
    ) -> Result<Vec<Value>, Signal> {
        let mut values = Vec::with_capacity(args.len());
        for arg in args {
            values.push(self.eval_expr(arg, env, hooks)?);
        }
        Ok(values)
    }

    fn eval_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        env: &Env,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Signal> {
        // Method-style call: resolve the receiver first so builtins on
        // promises/arrays/strings work.
        if let Expr::Member { object, property } = callee {
            let receiver = self.eval_expr(object, env, hooks)?;
            let key = self.property_name(property, env, hooks)?;
            return self.call_method(receiver, &key, args, env, hooks);
        }
        let callee_value = self.eval_expr(callee, env, hooks)?;
        let arg_values = self.eval_args(args, env, hooks)?;
        self.call_value(callee_value, arg_values, hooks)
    }

    fn call_method(
        &mut self,
        receiver: Value,
        key: &str,
        args: &[Expr],
        env: &Env,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Signal> {
        match (&receiver, key) {
            // Promise combinators: callbacks run synchronously.
            (Value::Promise(inner), "then") => {
                let arg_values = self.eval_args(args, env, hooks)?;
                let mut result = (**inner).clone();
                if let Some(cb) = arg_values.first() {
                    result = self.call_function(cb, vec![(**inner).clone()], hooks)?;
                }
                // Flatten promise-of-promise like real `then` chaining.
                let result = match result {
                    Value::Promise(v) => (*v).clone(),
                    other => other,
                };
                return Ok(Value::promise(result));
            }
            (Value::Promise(inner), "catch") => {
                // No rejections in this model: pass the promise through.
                let _ = self.eval_args(args, env, hooks)?;
                return Ok(Value::Promise(inner.clone()));
            }
            (Value::Promise(inner), "finally") => {
                let arg_values = self.eval_args(args, env, hooks)?;
                if let Some(cb) = arg_values.first() {
                    self.call_function(cb, vec![], hooks)?;
                }
                return Ok(Value::Promise(inner.clone()));
            }
            // Array builtins.
            (Value::Array(items), _) => {
                let arg_values = self.eval_args(args, env, hooks)?;
                return self.array_method(items.clone(), key, arg_values, hooks);
            }
            // String builtins.
            (Value::Str(s), _) => {
                let arg_values = self.eval_args(args, env, hooks)?;
                return Ok(string_method(s, key, &arg_values));
            }
            // Function combinators.
            (Value::Func { .. }, "call") => {
                let arg_values = self.eval_args(args, env, hooks)?;
                let rest = arg_values.into_iter().skip(1).collect();
                return self.call_function(&receiver, rest, hooks);
            }
            (Value::Func { .. }, "apply") => {
                let arg_values = self.eval_args(args, env, hooks)?;
                let spread = match arg_values.get(1) {
                    Some(Value::Array(items)) => items.borrow().clone(),
                    _ => vec![],
                };
                return self.call_function(&receiver, spread, hooks);
            }
            (Value::Func { .. }, "bind") => {
                let _ = self.eval_args(args, env, hooks)?;
                return Ok(receiver);
            }
            // Host function combinators: `q.call(...)` / `q.apply(...)` on
            // a host API keep the original path (the instrumentation
            // example in Figure 1 uses exactly `origFunc.apply`).
            (Value::Host(path), "call") => {
                let arg_values = self.eval_args(args, env, hooks)?;
                let rest = arg_values.into_iter().skip(1).collect();
                return self.call_value(Value::Host(path.clone()), rest, hooks);
            }
            (Value::Host(path), "apply") => {
                let arg_values = self.eval_args(args, env, hooks)?;
                let spread = match arg_values.get(1) {
                    Some(Value::Array(items)) => items.borrow().clone(),
                    _ => vec![],
                };
                return self.call_value(Value::Host(path.clone()), spread, hooks);
            }
            (Value::Host(path), "addEventListener") => {
                let arg_values = self.eval_args(args, env, hooks)?;
                self.host_boundary_guard()?;
                if let (Some(Value::Str(event)), Some(func)) =
                    (arg_values.first(), arg_values.get(1))
                {
                    if matches!(func, Value::Func { .. }) {
                        self.handlers.push(PendingHandler {
                            event: event.clone(),
                            func: func.clone(),
                        });
                    }
                }
                let _ = path;
                return Ok(Value::Undefined);
            }
            // Object property that holds a function: a method call binds
            // the receiver as `this`.
            (Value::Object(map), _) => {
                let f = map.borrow().get(key).cloned();
                let arg_values = self.eval_args(args, env, hooks)?;
                return match f {
                    Some(func @ Value::Func { .. }) => self.call_function_with_this(
                        &func,
                        arg_values,
                        Some(receiver.clone()),
                        hooks,
                    ),
                    Some(func) => self.call_value(func, arg_values, hooks),
                    None => Ok(Value::Undefined),
                };
            }
            _ => {}
        }
        // Generic host method call.
        let member = self.get_member(&receiver, key);
        let arg_values = self.eval_args(args, env, hooks)?;
        self.call_value(member, arg_values, hooks)
    }

    fn array_method(
        &mut self,
        items: Rc<std::cell::RefCell<Vec<Value>>>,
        key: &str,
        args: Vec<Value>,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Signal> {
        match key {
            "push" => {
                for a in args {
                    items.borrow_mut().push(a);
                }
                Ok(Value::Num(items.borrow().len() as f64))
            }
            "includes" => {
                let needle = args.first().cloned().unwrap_or(Value::Undefined);
                Ok(Value::Bool(
                    items.borrow().iter().any(|v| v.strict_eq(&needle)),
                ))
            }
            "indexOf" => {
                let needle = args.first().cloned().unwrap_or(Value::Undefined);
                Ok(Value::Num(
                    items
                        .borrow()
                        .iter()
                        .position(|v| v.strict_eq(&needle))
                        .map(|i| i as f64)
                        .unwrap_or(-1.0),
                ))
            }
            "join" => {
                let sep = args
                    .first()
                    .map(Value::to_display_string)
                    .unwrap_or_else(|| ",".to_string());
                Ok(Value::Str(
                    items
                        .borrow()
                        .iter()
                        .map(Value::to_display_string)
                        .collect::<Vec<_>>()
                        .join(&sep),
                ))
            }
            "forEach" => {
                if let Some(cb) = args.first() {
                    let snapshot = items.borrow().clone();
                    for (i, item) in snapshot.into_iter().enumerate() {
                        self.call_function(cb, vec![item, Value::Num(i as f64)], hooks)?;
                    }
                }
                Ok(Value::Undefined)
            }
            "map" | "filter" => {
                let mut out = Vec::new();
                if let Some(cb) = args.first() {
                    let snapshot = items.borrow().clone();
                    for (i, item) in snapshot.into_iter().enumerate() {
                        let r = self.call_function(
                            cb,
                            vec![item.clone(), Value::Num(i as f64)],
                            hooks,
                        )?;
                        if key == "map" {
                            out.push(r);
                        } else if r.truthy() {
                            out.push(item);
                        }
                    }
                }
                Ok(Value::Array(Rc::new(std::cell::RefCell::new(out))))
            }
            _ => Ok(Value::Undefined),
        }
    }

    fn call_value(
        &mut self,
        callee: Value,
        args: Vec<Value>,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Signal> {
        match callee {
            Value::Func { .. } => self.call_function(&callee, args, hooks),
            Value::Host(path) => {
                self.host_boundary_guard()?;
                let path = host::normalize_path(&path);
                match path.as_str() {
                    "setTimeout" | "setInterval" => {
                        if let Some(func @ Value::Func { .. }) = args.first() {
                            self.timers.push(func.clone());
                        }
                        Ok(Value::Num(self.timers.len() as f64))
                    }
                    _ => Ok(hooks.api_call(ApiCall {
                        path,
                        args,
                        constructed: false,
                        source: self.current_source.clone(),
                    })),
                }
            }
            // Calling a non-function throws (catchable).
            other => Err(Signal::Thrown(Value::Str(format!(
                "TypeError: {} is not a function",
                other.to_display_string()
            )))),
        }
    }

    /// Invokes a script function value with arguments.
    #[inline(always)]
    fn call_function(
        &mut self,
        callee: &Value,
        args: Vec<Value>,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Signal> {
        self.call_function_with_this(callee, args, None, hooks)
    }

    /// [`Self::call_function`] with an explicit `this` binding (method
    /// calls on plain objects, `new` on script functions).
    fn call_function_with_this(
        &mut self,
        callee: &Value,
        args: Vec<Value>,
        this: Option<Value>,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Signal> {
        let Value::Func { func, env, source } = callee else {
            return self.call_value(callee.clone(), args, hooks);
        };
        // Native-stack guard: deep script recursion must not overflow the
        // host stack. Treat it like budget exhaustion (runaway script).
        if self.depth >= MAX_CALL_DEPTH {
            return Err(Signal::Budget);
        }
        self.depth += 1;
        let frame = env.child();
        if let Some(this) = this {
            frame.declare("this", this);
        }
        for (i, param) in func.params.iter().enumerate() {
            frame.declare(param, args.get(i).cloned().unwrap_or(Value::Undefined));
        }
        let prev_source = std::mem::replace(&mut self.current_source, source.clone());
        let result = self.run_body(&func.body, &frame, hooks);
        self.current_source = prev_source;
        self.depth -= 1;
        let value = match result {
            Ok(()) | Err(Signal::Break) | Err(Signal::Continue) => Value::Undefined,
            Err(Signal::Return(v)) => v,
            Err(other) => return Err(other),
        };
        // An async function's result is always a promise (already-settled
        // promises are not double-wrapped, matching `then` flattening).
        if func.is_async {
            return Ok(match value {
                p @ Value::Promise(_) => p,
                other => Value::promise(other),
            });
        }
        Ok(value)
    }

    fn run_body(
        &mut self,
        body: &[Stmt],
        env: &Env,
        hooks: &mut dyn HostHooks,
    ) -> Result<(), Signal> {
        self.eval_block(body, env, hooks)
    }
}

/// Binary operators (shared by the tree-walker and the VM so semantics
/// cannot drift).
pub(crate) fn binary_op(op: &str, l: &Value, r: &Value) -> Value {
    match op {
        "+" => match (l, r) {
            (Value::Num(a), Value::Num(b)) => Value::Num(a + b),
            _ => Value::Str(format!(
                "{}{}",
                l.to_display_string(),
                r.to_display_string()
            )),
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

pub(crate) fn to_number(v: &Value) -> f64 {
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
        "toLowerCase" => Value::Str(s.to_lowercase()),
        "toUpperCase" => Value::Str(s.to_uppercase()),
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
            Value::Str(s.get(start.min(end)..end).unwrap_or("").to_string())
        }
        "charAt" => {
            let i = args.first().map(to_number).unwrap_or(0.0) as usize;
            Value::Str(s.chars().nth(i).map(String::from).unwrap_or_default())
        }
        _ => Value::Undefined,
    }
}

/// Read-only host data properties scripts probe.
pub(crate) fn data_property(path: &str) -> Option<Value> {
    match path {
        "navigator.userAgent" => Some(Value::Str(
            "Mozilla/5.0 (X11; Linux x86_64) Chromium/127.0.6533.17".to_string(),
        )),
        "navigator.language" => Some(Value::Str("en-US".to_string())),
        "navigator.platform" => Some(Value::Str("Linux x86_64".to_string())),
        // The crawler disables AutomationControlled, so webdriver is false
        // (§A.2 C6/C8).
        "navigator.webdriver" => Some(Value::Bool(false)),
        "Notification.permission" => Some(Value::Str("default".to_string())),
        "document.visibilityState" => Some(Value::Str("visible".to_string())),
        "location.href" => Some(Value::Str("about:srcdoc".to_string())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::RecordingHooks;

    #[test]
    fn dropping_the_interpreter_frees_its_globals() {
        let mut interp = Interpreter::new();
        interp
            .run(
                "function f() { return f; } var o = { g: function () {} };",
                ScriptSource::inline(),
                &mut RecordingHooks::default(),
            )
            .unwrap();
        let globals = Rc::downgrade(&interp.globals.0);
        drop(interp);
        assert!(globals.upgrade().is_none(), "global scope leaked");
    }

    fn run(src: &str) -> RecordingHooks {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::new();
        interp.run(src, ScriptSource::inline(), &mut hooks).unwrap();
        interp.drain_timers(&mut hooks);
        hooks
    }

    fn paths(hooks: &RecordingHooks) -> Vec<&str> {
        hooks.calls.iter().map(|c| c.path.as_str()).collect()
    }

    #[test]
    fn direct_api_call() {
        let hooks = run("navigator.permissions.query({name: 'camera'});");
        assert_eq!(paths(&hooks), vec!["navigator.permissions.query"]);
        assert_eq!(hooks.calls[0].name_argument().as_deref(), Some("camera"));
    }

    #[test]
    fn aliased_call_keeps_path() {
        let hooks = run("var q = navigator.permissions.query; q({name: 'midi'});");
        assert_eq!(paths(&hooks), vec!["navigator.permissions.query"]);
    }

    #[test]
    fn bracket_and_concat_obfuscation() {
        let hooks = run("navigator['per' + 'missions']['query']({name: 'push'});");
        assert_eq!(paths(&hooks), vec!["navigator.permissions.query"]);
    }

    #[test]
    fn window_prefix_normalized() {
        let hooks = run("window.navigator.getBattery();");
        assert_eq!(paths(&hooks), vec!["navigator.getBattery"]);
    }

    #[test]
    fn promise_then_chain_runs_callback() {
        let hooks = run(
            "navigator.permissions.query({name: 'camera'}).then(function (st) {\
                navigator.getBattery();\
             });",
        );
        assert_eq!(
            paths(&hooks),
            vec!["navigator.permissions.query", "navigator.getBattery"]
        );
    }

    #[test]
    fn dead_code_not_executed() {
        let hooks = run("if (false) { navigator.getBattery(); }");
        assert!(hooks.calls.is_empty());
    }

    #[test]
    fn handlers_deferred_until_fired() {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::new();
        interp
            .run(
                "button.addEventListener('click', function () { \
                    navigator.mediaDevices.getUserMedia({video: true}); \
                 });\
                 element.onclick = function () { navigator.getBattery(); };",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap();
        assert!(hooks.calls.is_empty(), "nothing runs before interaction");
        let fired = interp.fire_event("click", &mut hooks);
        assert_eq!(fired, 2);
        let p = paths(&hooks);
        assert!(p.contains(&"navigator.mediaDevices.getUserMedia"));
        assert!(p.contains(&"navigator.getBattery"));
    }

    #[test]
    fn timers_fire_on_drain() {
        let hooks = run("setTimeout(function () { navigator.getBattery(); }, 100);");
        assert_eq!(paths(&hooks), vec!["navigator.getBattery"]);
    }

    #[test]
    fn new_expression_dispatches_construction() {
        let hooks = run("var a = new Accelerometer({frequency: 60});");
        assert_eq!(paths(&hooks), vec!["Accelerometer"]);
        assert!(hooks.calls[0].constructed);
    }

    #[test]
    fn function_declaration_and_call() {
        let hooks = run("function go() { navigator.getBattery(); } go();");
        assert_eq!(paths(&hooks), vec!["navigator.getBattery"]);
    }

    #[test]
    fn closure_captures_alias() {
        let hooks = run("var api = navigator.permissions;\
             function check(n) { return api.query({name: n}); }\
             check('geolocation');");
        assert_eq!(paths(&hooks), vec!["navigator.permissions.query"]);
        assert_eq!(
            hooks.calls[0].name_argument().as_deref(),
            Some("geolocation")
        );
    }

    #[test]
    fn try_catch_swallows_type_errors() {
        let hooks = run("try { var x = 1; x(); } catch (e) { navigator.getBattery(); }");
        assert_eq!(paths(&hooks), vec!["navigator.getBattery"]);
    }

    #[test]
    fn call_and_apply_on_host_functions() {
        let hooks = run("var q = navigator.permissions.query;\
             q.call(navigator.permissions, {name: 'camera'});\
             q.apply(navigator.permissions, [{name: 'midi'}]);");
        assert_eq!(
            paths(&hooks),
            vec!["navigator.permissions.query", "navigator.permissions.query"]
        );
        assert_eq!(hooks.calls[1].name_argument().as_deref(), Some("midi"));
    }

    #[test]
    fn budget_stops_infinite_recursion() {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::with_budget(5_000);
        let err = interp
            .run(
                "function loop() { loop(); } loop();",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap_err();
        assert_eq!(err, RunError::BudgetExceeded);
    }

    #[test]
    fn globals_shared_across_runs() {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::new();
        interp
            .run(
                "var q = navigator.permissions.query;",
                ScriptSource::external("https://cdn.example/a.js"),
                &mut hooks,
            )
            .unwrap();
        interp
            .run("q({name: 'camera'});", ScriptSource::inline(), &mut hooks)
            .unwrap();
        assert_eq!(paths(&hooks), vec!["navigator.permissions.query"]);
        // Attribution: the *calling* script is the inline one.
        assert_eq!(hooks.calls[0].source, ScriptSource::inline());
    }

    #[test]
    fn callback_attribution_follows_defining_script() {
        // A third-party script registers a handler; when fired, calls
        // attribute to the third-party script (its code is on the stack).
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::new();
        interp
            .run(
                "button.addEventListener('click', function () { navigator.getBattery(); });",
                ScriptSource::external("https://tracker.example/t.js"),
                &mut hooks,
            )
            .unwrap();
        interp.fire_event("click", &mut hooks);
        assert_eq!(
            hooks.calls[0].source,
            ScriptSource::external("https://tracker.example/t.js")
        );
    }

    #[test]
    fn array_and_string_builtins() {
        let hooks = run("var feats = document.featurePolicy.allowedFeatures();\
             if (feats.includes('camera')) { navigator.getBattery(); }\
             var s = 'camera,mic';\
             if (s.includes('camera')) { navigator.share({title: 'x'}); }");
        // allowedFeatures default is empty → no battery; string path taken.
        assert_eq!(
            paths(&hooks),
            vec!["document.featurePolicy.allowedFeatures", "navigator.share"]
        );
    }

    #[test]
    fn webdriver_is_false() {
        let hooks = run("if (navigator.webdriver) { navigator.getBattery(); }");
        assert!(hooks.calls.is_empty());
    }
}

#[cfg(test)]
mod loop_tests {
    use super::*;
    use crate::host::RecordingHooks;

    fn run(src: &str) -> RecordingHooks {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::new();
        interp.run(src, ScriptSource::inline(), &mut hooks).unwrap();
        hooks
    }

    #[test]
    fn while_loop_counts() {
        let hooks = run("var i = 0;\
             while (i < 3) { navigator.canShare(); i = i + 1; }");
        assert_eq!(hooks.calls.len(), 3);
    }

    #[test]
    fn for_loop_with_break_and_continue() {
        let hooks = run("for (var i = 0; i < 10; i = i + 1) {\
                if (i === 1) { continue; }\
                if (i === 4) { break; }\
                navigator.canShare();\
             }");
        // i = 0, 2, 3 → three calls.
        assert_eq!(hooks.calls.len(), 3);
    }

    #[test]
    fn infinite_while_hits_budget() {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::with_budget(5_000);
        let err = interp
            .run(
                "while (true) { var x = 1; }",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap_err();
        assert_eq!(err, RunError::BudgetExceeded);
    }

    #[test]
    fn loop_over_allowed_features() {
        let hooks = run("var feats = document.featurePolicy.allowedFeatures();\
             for (var i = 0; i < feats.length; i = i + 1) {\
                var f = feats[i];\
             }\
             navigator.canShare();");
        assert!(hooks.calls.iter().any(|c| c.path == "navigator.canShare"));
    }

    #[test]
    fn break_inside_function_does_not_escape() {
        let hooks = run("function f() { break; }\
             f();\
             navigator.canShare();");
        assert_eq!(hooks.calls.len(), 1);
    }
}

#[cfg(test)]
mod compound_tests {
    use super::*;
    use crate::host::RecordingHooks;

    fn run(src: &str) -> RecordingHooks {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::new();
        interp.run(src, ScriptSource::inline(), &mut hooks).unwrap();
        hooks
    }

    #[test]
    fn compound_assignment_operators() {
        let hooks = run("var x = 10; x += 5; x -= 3; x *= 2; x /= 4;\
             if (x === 6) { navigator.canShare(); }");
        assert_eq!(hooks.calls.len(), 1);
    }

    #[test]
    fn postfix_and_prefix_increment() {
        let hooks = run("var n = 0;\
             for (var i = 0; i < 4; i++) { n += 1; }\
             ++n; n--;\
             if (n === 4) { navigator.canShare(); }");
        assert_eq!(hooks.calls.len(), 1);
    }

    #[test]
    fn string_plus_equals_concatenates() {
        let hooks = run("var s = 'cam'; s += 'era';\
             navigator.permissions.query({name: s});");
        assert_eq!(hooks.calls[0].name_argument().as_deref(), Some("camera"));
    }

    #[test]
    fn member_compound_assignment() {
        let hooks = run("var o = {count: 1}; o.count += 2;\
             if (o.count === 3) { navigator.canShare(); }");
        assert_eq!(hooks.calls.len(), 1);
    }

    #[test]
    fn pool_charges_only_used_steps() {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::new();
        let mut pool = StepPool::limited(10_000);
        interp
            .run_pooled("var x = 1;", ScriptSource::inline(), &mut hooks, &mut pool)
            .unwrap();
        let used = 10_000 - pool.remaining();
        assert!(used > 0 && used < 100, "used {used}");
    }

    #[test]
    fn runaway_script_with_full_grant_is_budget_exceeded() {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::with_budget(5_000);
        let mut pool = StepPool::limited(100_000);
        let err = interp
            .run_pooled(
                "while (true) { var x = 1; }",
                ScriptSource::inline(),
                &mut hooks,
                &mut pool,
            )
            .unwrap_err();
        assert_eq!(err, RunError::BudgetExceeded);
        assert_eq!(pool.remaining(), 95_000);
    }

    #[test]
    fn dry_pool_reports_pool_exhaustion() {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::with_budget(5_000);
        let mut pool = StepPool::limited(7_000);
        let runaway = "while (true) { var x = 1; }";
        // First run drains its full 5k grant; second gets a short 2k
        // grant and must blame the pool; third never starts.
        assert_eq!(
            interp
                .run_pooled(runaway, ScriptSource::inline(), &mut hooks, &mut pool)
                .unwrap_err(),
            RunError::BudgetExceeded
        );
        assert_eq!(
            interp
                .run_pooled(runaway, ScriptSource::inline(), &mut hooks, &mut pool)
                .unwrap_err(),
            RunError::PoolExhausted
        );
        assert!(pool.is_exhausted());
        assert_eq!(
            interp
                .run_pooled("var y = 2;", ScriptSource::inline(), &mut hooks, &mut pool)
                .unwrap_err(),
            RunError::PoolExhausted
        );
    }

    #[test]
    fn syntax_errors_win_over_pool_exhaustion() {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::new();
        let mut pool = StepPool::limited(0);
        let err = interp
            .run_pooled("function (", ScriptSource::inline(), &mut hooks, &mut pool)
            .unwrap_err();
        assert!(matches!(err, RunError::Parse(_) | RunError::Lex(_)));
    }

    #[test]
    fn pooled_timers_stop_when_pool_runs_dry() {
        let mut hooks = RecordingHooks::default();
        let mut interp = Interpreter::with_budget(5_000);
        let mut pool = StepPool::limited(20_000);
        interp
            .run_pooled(
                "setTimeout(function () { while (true) { var a = 1; } }, 0);\
                 setTimeout(function () { while (true) { var b = 1; } }, 0);\
                 setTimeout(function () { navigator.canShare(); }, 0);",
                ScriptSource::inline(),
                &mut hooks,
                &mut pool,
            )
            .unwrap();
        let budget_left = pool.remaining();
        // Two runaway timers burn 5k each; the third still runs.
        assert!(interp.drain_timers_pooled(&mut hooks, &mut pool));
        assert!(pool.remaining() < budget_left);
        assert_eq!(hooks.calls.len(), 1);

        // With a pool too small for even one timer grant, pending timers
        // are dropped and reported.
        let mut interp = Interpreter::with_budget(5_000);
        let mut dry = StepPool::limited(0);
        interp
            .run(
                "setTimeout(function () { navigator.canShare(); }, 0);",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap();
        assert!(!interp.drain_timers_pooled(&mut hooks, &mut dry));
    }
}
