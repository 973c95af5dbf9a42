//! The tree-walking reference interpreter: the differential referee.
//!
//! [`crate::ScriptEngine`] is the engine every crawl runs. This module
//! evaluates the same subset straight off the AST, with the simplest
//! code that states the semantics, and is never selected by a
//! production path: tests, `difftest` and the `jsland` bench run it
//! beside the VM and require identical observables — host-call traces,
//! handler registrations, timer cascades and exact step-pool charges.
//! Both implement [`Engine`], so a test can run the whole browser on
//! the referee.

use std::rc::Rc;

use crate::ast::{Expr, PropertyKey, Stmt};
use crate::engine::Engine;
use crate::host::{self, ApiCall, HostHooks, ScriptSource};
use crate::lexer;
use crate::parser;
use crate::semantics::{
    binary_op, data_property, string_method, PendingHandler, RunError, StepPool, MAX_CALL_DEPTH,
};
use crate::value::{Env, Value};

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

/// The interpreter: one instance per document, so scripts share globals
/// (aliases defined by one script are visible to later scripts, as in a
/// real page).
pub struct Interpreter {
    globals: Env,
    handlers: Vec<PendingHandler>,
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
        Self::with_budget(200_000)
    }
}

impl Engine for Interpreter {
    fn run_pooled(
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

    fn drain_timers_pooled(&mut self, hooks: &mut dyn HostHooks, pool: &mut StepPool) -> bool {
        for _round in 0..4 {
            let timers = std::mem::take(&mut self.timers);
            if timers.is_empty() {
                break;
            }
            for func in timers {
                if !self.call_pooled(&func, hooks, pool) {
                    return false;
                }
            }
        }
        true
    }

    fn fire_event(&mut self, event: &str, hooks: &mut dyn HostHooks, pool: &mut StepPool) -> bool {
        let matching: Vec<Value> = self
            .handlers
            .iter()
            .filter(|h| h.event == event)
            .map(|h| h.func.clone())
            .collect();
        for func in &matching {
            if !self.call_pooled(func, hooks, pool) {
                return false;
            }
        }
        self.drain_timers_pooled(hooks, pool)
    }

    fn handlers(&self) -> &[PendingHandler] {
        &self.handlers
    }
}

impl Interpreter {
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

    /// Runs a script with an unlimited pool.
    pub fn run(
        &mut self,
        source: &str,
        script: ScriptSource,
        hooks: &mut dyn HostHooks,
    ) -> Result<(), RunError> {
        self.run_pooled(source, script, hooks, &mut StepPool::unlimited())
    }

    /// Runs queued timers with an unlimited pool.
    pub fn drain_timers(&mut self, hooks: &mut dyn HostHooks) {
        self.drain_timers_pooled(hooks, &mut StepPool::unlimited());
    }

    /// Calls a timer or handler on a grant drawn from `pool`, charging
    /// back what it used; `false` (and no call) once the pool is dry.
    fn call_pooled(
        &mut self,
        func: &Value,
        hooks: &mut dyn HostHooks,
        pool: &mut StepPool,
    ) -> bool {
        if pool.is_exhausted() {
            return false;
        }
        let grant = pool.grant(self.budget_per_run);
        self.steps_left = grant;
        let _ = self.call_function(func, vec![], hooks);
        pool.charge(grant - self.steps_left);
        true
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
            Expr::Str(s) => Ok(Value::Str(s.as_str().into())),
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
                    "typeof" => Value::Str(v.type_of().into()),
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
                            event: event.to_string(),
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
                        .join(&sep)
                        .into(),
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
            other => Err(Signal::Thrown(Value::Str(
                format!("TypeError: {} is not a function", other.to_display_string()).into(),
            ))),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::RecordingHooks;

    #[test]
    fn dropping_the_interpreter_frees_its_globals() {
        let mut interp = Interpreter::default();
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
}
