//! The bytecode VM, [`ScriptEngine`]: the engine every crawl runs.
//!
//! The compiler ([`crate::bytecode`]) lowers each script to a flat op
//! list with explicit `Tick` charges, so step accounting — including
//! where exactly a run aborts when a [`StepPool`] runs dry mid-script —
//! is part of the observable behaviour. The differential referee
//! ([`crate::reference::Interpreter`]) states the same semantics as a
//! tree-walker; the lockstep tests below, `difftest`'s script and
//! browser differentials, and the proptests hold the two to identical
//! host-call sequences, handler registrations, timer cascades and
//! step charges. Leaf semantics both share live in [`crate::semantics`].
//!
//! On top of the flat dispatch loop the VM adds monomorphic inline
//! caches on fixed-name member reads and method lookups. Crawled pages
//! are dominated by host-object chains (`navigator.permissions.query`,
//! `document.featurePolicy.allowedFeatures`) whose member values are
//! pure functions of the receiver path, so a per-site cache keyed by
//! the receiver's path — `Rc::ptr_eq` first, content equality as the
//! slow path — turns repeated chain walks into two pointer compares.
//! `window.*` receivers are never cached (their lookups read mutable
//! globals).

use std::collections::HashMap;
use std::rc::Rc;

use crate::bytecode::{self, CompileError, FuncProto, IcSlot, Op};
use crate::engine::{Engine, ExecEngine};
use crate::host::{self, ApiCall, HostHooks, ScriptSource};
use crate::lexer;
use crate::parser;
use crate::semantics::{self, PendingHandler, RunError, StepPool, MAX_CALL_DEPTH};
use crate::value::{Env, Value};

/// Non-local exits from the dispatch loop. Only `Thrown` is catchable
/// by `try`; `Budget` aborts the whole run.
enum Flow {
    Thrown(Value),
    Budget,
}

/// A method-call plan resolved before argument evaluation (plain-object
/// properties and generic host members are read *before* the arguments
/// are evaluated, which is observable when an argument expression
/// mutates the receiver).
struct MethodPlan {
    key: Rc<str>,
    kind: PlanKind,
}

enum PlanKind {
    /// Dispatch on (receiver, key) at call time: promise combinators,
    /// array/string builtins, `call`/`apply`/`bind`, host
    /// `addEventListener` — arms that evaluate arguments first.
    Builtin,
    /// Plain-object method: the property was pre-read (may be `None`).
    ObjectCallee(Option<Value>),
    /// Generic receiver: the member was pre-read via `get_member`;
    /// `resolved` caches the normalized host path when the member is a
    /// host function.
    Generic {
        member: Value,
        resolved: Option<Rc<str>>,
    },
}

/// An armed `try` region (frame-local; unwinding restores the recorded
/// depths before entering the handler).
struct TryCtx {
    handler: usize,
    env_len: usize,
    stack_len: usize,
    plan_len: usize,
}

/// The script engine: one instance per document, so scripts share
/// globals (aliases defined by one script are visible to later scripts,
/// as in a real page).
pub struct ScriptEngine {
    globals: Env,
    handlers: Vec<PendingHandler>,
    timers: Vec<Value>,
    steps_left: u64,
    budget_per_run: u64,
    depth: usize,
    current_source: ScriptSource,
    /// Compiled bodies keyed by the `Rc<Function>` address; the `Rc` is
    /// kept alive in the value so the address cannot be recycled.
    protos: HashMap<usize, (Rc<crate::ast::Function>, Rc<FuncProto>)>,
    ic_hits: u64,
    ic_misses: u64,
}

impl Drop for ScriptEngine {
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

impl Default for ScriptEngine {
    fn default() -> Self {
        Self::with_budget(200_000)
    }
}

impl Engine for ScriptEngine {
    fn run_pooled(
        &mut self,
        source: &str,
        script: ScriptSource,
        hooks: &mut dyn HostHooks,
        pool: &mut StepPool,
    ) -> Result<(), RunError> {
        ScriptEngine::run_pooled(self, source, script, hooks, pool)
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

impl ScriptEngine {
    /// An engine with the default per-run step budget. The argument is
    /// ignored: there is one engine, and the tag only names it on disk.
    pub fn new(_engine: ExecEngine) -> ScriptEngine {
        ScriptEngine::default()
    }

    /// An engine with a custom per-run step budget.
    pub fn with_budget(budget: u64) -> ScriptEngine {
        let globals = Env::root();
        globals.declare("undefined", Value::Undefined);
        ScriptEngine {
            globals,
            handlers: Vec::new(),
            timers: Vec::new(),
            steps_left: budget,
            budget_per_run: budget,
            depth: 0,
            current_source: ScriptSource::inline(),
            protos: HashMap::new(),
            ic_hits: 0,
            ic_misses: 0,
        }
    }

    /// Inline-cache `(hits, misses)` since construction.
    pub fn ic_stats(&self) -> (u64, u64) {
        (self.ic_hits, self.ic_misses)
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

    /// Runs a script against a shared page-wide pool — see
    /// [`Engine::run_pooled`]. Bytecode compilation failures surface as
    /// [`RunError::Compile`] *before* any execution (nested functions
    /// compile eagerly), so they win over pool exhaustion like syntax
    /// errors do.
    pub fn run_pooled(
        &mut self,
        source: &str,
        script: ScriptSource,
        hooks: &mut dyn HostHooks,
        pool: &mut StepPool,
    ) -> Result<(), RunError> {
        let program = frontend(source)?;
        if pool.is_exhausted() {
            return Err(RunError::PoolExhausted);
        }
        for (func, proto) in &program.funcs {
            self.protos
                .insert(Rc::as_ptr(func) as usize, (func.clone(), proto.clone()));
        }
        let grant = pool.grant(self.budget_per_run);
        self.steps_left = grant;
        self.current_source = script;
        let env = self.globals.clone();
        let result = self.run_proto(&program.main, &env, hooks);
        pool.charge(grant - self.steps_left);
        match result {
            Ok(_) | Err(Flow::Thrown(_)) => Ok(()),
            // A short grant means the pool, not the script's own budget,
            // is what ran out.
            Err(Flow::Budget) if grant < self.budget_per_run => Err(RunError::PoolExhausted),
            Err(Flow::Budget) => Err(RunError::BudgetExceeded),
        }
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
        let _ = self.call_function(func, vec![], None, hooks);
        pool.charge(grant - self.steps_left);
        true
    }

    /// Looks up (or, defensively, compiles) the proto for a function
    /// value. Every function reachable at runtime was compiled eagerly
    /// by [`Self::run_pooled`], so the compile path is a safety net for
    /// API misuse, not a silent-fallback channel: its failures abort the
    /// run like budget exhaustion instead of switching semantics.
    fn proto_for(&mut self, func: &Rc<crate::ast::Function>) -> Result<Rc<FuncProto>, Flow> {
        let key = Rc::as_ptr(func) as usize;
        if let Some((_, proto)) = self.protos.get(&key) {
            return Ok(proto.clone());
        }
        let compiled = bytecode::compile_function(func).map_err(|_: CompileError| Flow::Budget)?;
        let mut result = None;
        for (f, p) in compiled {
            if Rc::ptr_eq(&f, func) {
                result = Some(p.clone());
            }
            self.protos.insert(Rc::as_ptr(&f) as usize, (f, p));
        }
        result.ok_or(Flow::Budget)
    }

    fn host_boundary_guard(&self) -> Result<(), Flow> {
        if self.steps_left == 0 {
            return Err(Flow::Budget);
        }
        Ok(())
    }

    /// The dispatch loop: executes one compiled frame. Falling off the
    /// end yields `undefined` (a body with no `return`).
    fn run_proto(
        &mut self,
        proto: &FuncProto,
        env: &Env,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Flow> {
        let mut stack: Vec<Value> = Vec::with_capacity(8);
        let mut slots: Vec<Value> = vec![Value::Undefined; proto.n_slots as usize];
        let mut envs: Vec<Env> = vec![env.clone()];
        let mut plans: Vec<MethodPlan> = Vec::new();
        let mut tries: Vec<TryCtx> = Vec::new();
        let mut ip = 0usize;
        loop {
            let Some(op) = proto.ops.get(ip) else {
                return Ok(Value::Undefined);
            };
            ip += 1;
            let outcome: Result<(), Flow> = match op {
                Op::Tick(n) => {
                    let n = u64::from(*n);
                    if self.steps_left >= n {
                        self.steps_left -= n;
                        Ok(())
                    } else {
                        // Partial charge: the tree-walker would burn the
                        // remainder step by step and abort at zero.
                        self.steps_left = 0;
                        Err(Flow::Budget)
                    }
                }
                Op::Const(i) => {
                    stack.push(
                        proto
                            .consts
                            .get(*i as usize)
                            .cloned()
                            .unwrap_or(Value::Undefined),
                    );
                    Ok(())
                }
                Op::Undef => {
                    stack.push(Value::Undefined);
                    Ok(())
                }
                Op::LoadIdent(i) => {
                    let name = name_at(proto, *i);
                    let v = current(&envs).get(name).unwrap_or(Value::Undefined);
                    stack.push(v);
                    Ok(())
                }
                Op::LoadHostIdent { name, host } => {
                    let name = name_at(proto, *name);
                    let v = match current(&envs).get(name) {
                        Some(v) => v,
                        None => proto
                            .consts
                            .get(*host as usize)
                            .cloned()
                            .unwrap_or(Value::Undefined),
                    };
                    stack.push(v);
                    Ok(())
                }
                Op::DeclareVar(i) => {
                    let v = stack.pop().unwrap_or(Value::Undefined);
                    current(&envs).declare(name_at(proto, *i), v);
                    Ok(())
                }
                Op::DeclareSlot(i) => {
                    let v = stack.pop().unwrap_or(Value::Undefined);
                    if let Some(slot) = slots.get_mut(*i as usize) {
                        *slot = v;
                    }
                    Ok(())
                }
                Op::LoadSlot(i) => {
                    stack.push(slots.get(*i as usize).cloned().unwrap_or(Value::Undefined));
                    Ok(())
                }
                Op::StoreSlot(i) => {
                    let v = stack.last().cloned().unwrap_or(Value::Undefined);
                    if let Some(slot) = slots.get_mut(*i as usize) {
                        *slot = v;
                    }
                    Ok(())
                }
                Op::BinSlots { a, b, op } => {
                    let l = slots.get(*a as usize).cloned().unwrap_or(Value::Undefined);
                    let r = slots.get(*b as usize).cloned().unwrap_or(Value::Undefined);
                    stack.push(apply_bin(*op, l, r));
                    Ok(())
                }
                Op::BinSlotConst { a, c, op } => {
                    let l = slots.get(*a as usize).cloned().unwrap_or(Value::Undefined);
                    let r = proto
                        .consts
                        .get(*c as usize)
                        .cloned()
                        .unwrap_or(Value::Undefined);
                    stack.push(apply_bin(*op, l, r));
                    Ok(())
                }
                Op::StoreIdent(i) => {
                    let v = stack.last().cloned().unwrap_or(Value::Undefined);
                    current(&envs).set(name_at(proto, *i), v);
                    Ok(())
                }
                Op::GetFixed { name, ic } => {
                    let obj = stack.pop().unwrap_or(Value::Undefined);
                    let key = name_rc(proto, *name);
                    let v = self.get_member_cached(proto, *ic, &obj, &key);
                    stack.push(v);
                    Ok(())
                }
                Op::GetComputed => {
                    let key = stack.pop().unwrap_or(Value::Undefined).to_display_string();
                    let obj = stack.pop().unwrap_or(Value::Undefined);
                    let v = self.get_member(&obj, &key);
                    stack.push(v);
                    Ok(())
                }
                Op::SetFixed(i) => {
                    let obj = stack.pop().unwrap_or(Value::Undefined);
                    let v = stack.last().cloned().unwrap_or(Value::Undefined);
                    self.set_member(&obj, name_at(proto, *i), v);
                    Ok(())
                }
                Op::SetComputed => {
                    let key = stack.pop().unwrap_or(Value::Undefined).to_display_string();
                    let obj = stack.pop().unwrap_or(Value::Undefined);
                    let v = stack.last().cloned().unwrap_or(Value::Undefined);
                    self.set_member(&obj, &key, v);
                    Ok(())
                }
                Op::MethodFixed { name, ic } => {
                    let key = name_rc(proto, *name);
                    let receiver = stack.last().cloned().unwrap_or(Value::Undefined);
                    let kind = self.resolve_plan(proto, Some(*ic), &receiver, &key);
                    plans.push(MethodPlan { key, kind });
                    Ok(())
                }
                Op::MethodComputed => {
                    let key: Rc<str> =
                        Rc::from(stack.pop().unwrap_or(Value::Undefined).to_display_string());
                    let receiver = stack.last().cloned().unwrap_or(Value::Undefined);
                    let kind = self.resolve_plan(proto, None, &receiver, &key);
                    plans.push(MethodPlan { key, kind });
                    Ok(())
                }
                Op::CallMethod(argc) => {
                    let args = split_args(&mut stack, *argc);
                    let receiver = stack.pop().unwrap_or(Value::Undefined);
                    let plan = plans.pop().unwrap_or(MethodPlan {
                        key: Rc::from(""),
                        kind: PlanKind::Builtin,
                    });
                    self.dispatch_method(receiver, plan, args, hooks)
                        .map(|v| stack.push(v))
                }
                Op::CallValue(argc) => {
                    let args = split_args(&mut stack, *argc);
                    let callee = stack.pop().unwrap_or(Value::Undefined);
                    self.call_value(callee, args, hooks).map(|v| stack.push(v))
                }
                Op::New(argc) => {
                    let args = split_args(&mut stack, *argc);
                    let callee = stack.pop().unwrap_or(Value::Undefined);
                    self.construct(callee, args, hooks).map(|v| stack.push(v))
                }
                Op::Bin(op) => {
                    let r = stack.pop().unwrap_or(Value::Undefined);
                    let l = stack.pop().unwrap_or(Value::Undefined);
                    stack.push(apply_bin(*op, l, r));
                    Ok(())
                }
                Op::Un(op) => {
                    let v = stack.pop().unwrap_or(Value::Undefined);
                    stack.push(match *op {
                        "!" => Value::Bool(!v.truthy()),
                        "-" => match v {
                            Value::Num(n) => Value::Num(-n),
                            _ => Value::Num(f64::NAN),
                        },
                        "typeof" => Value::Str(v.type_of().into()),
                        "await" => match v {
                            Value::Promise(inner) => (*inner).clone(),
                            other => other,
                        },
                        _ => Value::Undefined,
                    });
                    Ok(())
                }
                Op::Jump(t) => {
                    ip = *t as usize;
                    Ok(())
                }
                Op::JumpIfFalse(t) => {
                    if !stack.pop().unwrap_or(Value::Undefined).truthy() {
                        ip = *t as usize;
                    }
                    Ok(())
                }
                Op::BinSlotConstJump { a, c, op, t } => {
                    let l = slots.get(*a as usize).cloned().unwrap_or(Value::Undefined);
                    let r = proto
                        .consts
                        .get(*c as usize)
                        .cloned()
                        .unwrap_or(Value::Undefined);
                    if !apply_bin(*op, l, r).truthy() {
                        ip = *t as usize;
                    }
                    Ok(())
                }
                Op::AndJump(t) => {
                    if stack.last().is_some_and(Value::truthy) {
                        stack.pop();
                    } else {
                        ip = *t as usize;
                    }
                    Ok(())
                }
                Op::OrJump(t) => {
                    if stack.last().is_some_and(Value::truthy) {
                        ip = *t as usize;
                    } else {
                        stack.pop();
                    }
                    Ok(())
                }
                Op::NewObject => {
                    stack.push(Value::object(vec![]));
                    Ok(())
                }
                Op::SetProp(i) => {
                    let v = stack.pop().unwrap_or(Value::Undefined);
                    if let Some(Value::Object(map)) = stack.last() {
                        map.borrow_mut().insert(name_at(proto, *i).to_string(), v);
                    }
                    Ok(())
                }
                Op::MakeArray(n) => {
                    let items = split_args(&mut stack, *n);
                    stack.push(Value::Array(Rc::new(std::cell::RefCell::new(items))));
                    Ok(())
                }
                Op::Closure(i) => {
                    match proto.funcs.get(*i as usize) {
                        Some(func) => stack.push(Value::Func {
                            func: func.clone(),
                            env: current(&envs).clone(),
                            source: self.current_source.clone(),
                        }),
                        None => stack.push(Value::Undefined),
                    }
                    Ok(())
                }
                Op::HoistFunc { name, func } => {
                    if let Some(f) = proto.funcs.get(*func as usize) {
                        let value = Value::Func {
                            func: f.clone(),
                            env: current(&envs).clone(),
                            source: self.current_source.clone(),
                        };
                        current(&envs).declare(name_at(proto, *name), value);
                    }
                    Ok(())
                }
                Op::PushScope => {
                    let child = current(&envs).child();
                    envs.push(child);
                    Ok(())
                }
                Op::PopScope(n) => {
                    let keep = envs.len().saturating_sub(*n as usize).max(1);
                    envs.truncate(keep);
                    Ok(())
                }
                Op::TryPush { handler } => {
                    tries.push(TryCtx {
                        handler: *handler as usize,
                        env_len: envs.len(),
                        stack_len: stack.len(),
                        plan_len: plans.len(),
                    });
                    Ok(())
                }
                Op::TryPop(n) => {
                    let keep = tries.len().saturating_sub(*n as usize);
                    tries.truncate(keep);
                    Ok(())
                }
                Op::Pop => {
                    stack.pop();
                    Ok(())
                }
                Op::Return => {
                    return Ok(stack.pop().unwrap_or(Value::Undefined));
                }
            };
            if let Err(flow) = outcome {
                match flow {
                    Flow::Thrown(value) => match tries.pop() {
                        Some(t) => {
                            cov!(95);
                            envs.truncate(t.env_len.max(1));
                            stack.truncate(t.stack_len);
                            plans.truncate(t.plan_len);
                            stack.push(value);
                            ip = t.handler;
                        }
                        None => return Err(Flow::Thrown(value)),
                    },
                    Flow::Budget => return Err(Flow::Budget),
                }
            }
        }
    }

    /// `GetFixed` with a monomorphic inline cache for non-`window` host
    /// receivers (their member values are pure functions of the path).
    fn get_member_cached(
        &mut self,
        proto: &FuncProto,
        ic: u32,
        obj: &Value,
        key: &Rc<str>,
    ) -> Value {
        if let Value::Host(path) = obj {
            if &**path != "window" {
                let mut ics = proto.ics.borrow_mut();
                if let Some(slot) = ics.get_mut(ic as usize) {
                    if let IcSlot::Member {
                        path: cached,
                        result,
                    } = slot
                    {
                        if Rc::ptr_eq(cached, path) || cached == path {
                            cov!(91);
                            self.ic_hits += 1;
                            return result.clone();
                        }
                    }
                    self.ic_misses += 1;
                    let result = host_member(path, key);
                    *slot = IcSlot::Member {
                        path: path.clone(),
                        result: result.clone(),
                    };
                    return result;
                }
            }
        }
        self.get_member(obj, key)
    }

    /// Resolves a method-call plan (before argument evaluation), using
    /// the site's inline cache for generic host receivers.
    fn resolve_plan(
        &mut self,
        proto: &FuncProto,
        ic: Option<u32>,
        receiver: &Value,
        key: &Rc<str>,
    ) -> PlanKind {
        match (receiver, &**key) {
            (Value::Promise(_), "then" | "catch" | "finally")
            | (Value::Array(_), _)
            | (Value::Str(_), _)
            | (Value::Func { .. }, "call" | "apply" | "bind")
            | (Value::Host(_), "call" | "apply" | "addEventListener") => PlanKind::Builtin,
            (Value::Object(map), _) => PlanKind::ObjectCallee(map.borrow().get(&**key).cloned()),
            (Value::Host(path), _) if &**path != "window" => {
                if let Some(ic) = ic {
                    {
                        let ics = proto.ics.borrow();
                        if let Some(IcSlot::Method {
                            path: cached,
                            member,
                            resolved,
                        }) = ics.get(ic as usize)
                        {
                            if Rc::ptr_eq(cached, path) || cached == path {
                                self.ic_hits += 1;
                                return PlanKind::Generic {
                                    member: member.clone(),
                                    resolved: resolved.clone(),
                                };
                            }
                        }
                    }
                    self.ic_misses += 1;
                }
                cov!(92);
                let member = host_member(path, key);
                let resolved: Option<Rc<str>> = match &member {
                    Value::Host(p) => Some(Rc::from(host::normalize_path(p).as_str())),
                    _ => None,
                };
                if let Some(ic) = ic {
                    if let Some(slot) = proto.ics.borrow_mut().get_mut(ic as usize) {
                        *slot = IcSlot::Method {
                            path: path.clone(),
                            member: member.clone(),
                            resolved: resolved.clone(),
                        };
                    }
                }
                PlanKind::Generic { member, resolved }
            }
            _ => PlanKind::Generic {
                member: self.get_member(receiver, key),
                resolved: None,
            },
        }
    }

    /// Executes a resolved method call — mirrors the tree-walker's
    /// `call_method` arm for arm.
    fn dispatch_method(
        &mut self,
        receiver: Value,
        plan: MethodPlan,
        args: Vec<Value>,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Flow> {
        match plan.kind {
            PlanKind::Builtin => match (&receiver, &*plan.key) {
                (Value::Promise(inner), "then") => {
                    cov!(90);
                    let mut result = (**inner).clone();
                    if let Some(cb) = args.first() {
                        result = self.call_function(cb, vec![(**inner).clone()], None, hooks)?;
                    }
                    let result = match result {
                        Value::Promise(v) => (*v).clone(),
                        other => other,
                    };
                    Ok(Value::promise(result))
                }
                (Value::Promise(inner), "catch") => Ok(Value::Promise(inner.clone())),
                (Value::Promise(inner), "finally") => {
                    if let Some(cb) = args.first() {
                        self.call_function(cb, vec![], None, hooks)?;
                    }
                    Ok(Value::Promise(inner.clone()))
                }
                (Value::Array(items), _) => {
                    self.array_method(items.clone(), &plan.key, args, hooks)
                }
                (Value::Str(s), _) => Ok(semantics::string_method(s, &plan.key, &args)),
                (Value::Func { .. }, "call") => {
                    let rest = args.into_iter().skip(1).collect();
                    self.call_function(&receiver, rest, None, hooks)
                }
                (Value::Func { .. }, "apply") => {
                    let spread = match args.get(1) {
                        Some(Value::Array(items)) => items.borrow().clone(),
                        _ => vec![],
                    };
                    self.call_function(&receiver, spread, None, hooks)
                }
                (Value::Func { .. }, "bind") => Ok(receiver.clone()),
                (Value::Host(path), "call") => {
                    let rest = args.into_iter().skip(1).collect();
                    self.call_value(Value::Host(path.clone()), rest, hooks)
                }
                (Value::Host(path), "apply") => {
                    let spread = match args.get(1) {
                        Some(Value::Array(items)) => items.borrow().clone(),
                        _ => vec![],
                    };
                    self.call_value(Value::Host(path.clone()), spread, hooks)
                }
                (Value::Host(_), "addEventListener") => {
                    self.host_boundary_guard()?;
                    if let (Some(Value::Str(event)), Some(func)) = (args.first(), args.get(1)) {
                        if matches!(func, Value::Func { .. }) {
                            self.handlers.push(PendingHandler {
                                event: event.to_string(),
                                func: func.clone(),
                            });
                        }
                    }
                    Ok(Value::Undefined)
                }
                // Unreachable in well-formed bytecode (the plan was
                // resolved from this same receiver value); stay total.
                _ => {
                    let member = self.get_member(&receiver, &plan.key);
                    self.call_value(member, args, hooks)
                }
            },
            PlanKind::ObjectCallee(callee) => match callee {
                Some(func @ Value::Func { .. }) => {
                    self.call_function(&func, args, Some(receiver.clone()), hooks)
                }
                Some(other) => self.call_value(other, args, hooks),
                None => Ok(Value::Undefined),
            },
            PlanKind::Generic { member, resolved } => match member {
                func @ Value::Func { .. } => self.call_function(&func, args, None, hooks),
                Value::Host(path) => {
                    self.host_boundary_guard()?;
                    let path = match resolved {
                        Some(p) => p.to_string(),
                        None => host::normalize_path(&path),
                    };
                    self.host_call(path, args, false, hooks)
                }
                other => Err(type_error(&other)),
            },
        }
    }

    /// Calls an arbitrary value — mirrors the tree-walker's
    /// `call_value`.
    fn call_value(
        &mut self,
        callee: Value,
        args: Vec<Value>,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Flow> {
        match callee {
            Value::Func { .. } => self.call_function(&callee, args, None, hooks),
            Value::Host(path) => {
                self.host_boundary_guard()?;
                let path = host::normalize_path(&path);
                self.host_call(path, args, false, hooks)
            }
            other => Err(type_error(&other)),
        }
    }

    /// Dispatches a normalized host path: timer registration or an API
    /// call through the hooks.
    fn host_call(
        &mut self,
        path: String,
        args: Vec<Value>,
        constructed: bool,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Flow> {
        cov!(93);
        if !constructed && matches!(path.as_str(), "setTimeout" | "setInterval") {
            if let Some(func @ Value::Func { .. }) = args.first() {
                self.timers.push(func.clone());
            }
            return Ok(Value::Num(self.timers.len() as f64));
        }
        Ok(hooks.api_call(ApiCall {
            path,
            args,
            constructed,
            source: self.current_source.clone(),
        }))
    }

    /// `new callee(args)` — mirrors the tree-walker's `New` arm.
    fn construct(
        &mut self,
        callee: Value,
        args: Vec<Value>,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Flow> {
        match callee {
            Value::Host(path) => {
                cov!(94);
                self.host_boundary_guard()?;
                self.host_call(host::normalize_path(&path), args, true, hooks)
            }
            func @ Value::Func { .. } => {
                let this = Value::object(vec![]);
                self.call_function(&func, args, Some(this.clone()), hooks)?;
                Ok(this)
            }
            _ => Ok(Value::object(vec![])),
        }
    }

    /// Invokes a script function value — mirrors the tree-walker's
    /// `call_function_with_this` (depth guard, `this` before params,
    /// async promise wrapping).
    fn call_function(
        &mut self,
        callee: &Value,
        args: Vec<Value>,
        this: Option<Value>,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Flow> {
        let Value::Func { func, env, source } = callee else {
            return self.call_value(callee.clone(), args, hooks);
        };
        if self.depth >= MAX_CALL_DEPTH {
            return Err(Flow::Budget);
        }
        let proto = self.proto_for(func)?;
        self.depth += 1;
        let frame = env.child();
        if let Some(this) = this {
            frame.declare("this", this);
        }
        for (i, param) in proto.params.iter().enumerate() {
            frame.declare(param, args.get(i).cloned().unwrap_or(Value::Undefined));
        }
        let prev_source = std::mem::replace(&mut self.current_source, source.clone());
        let result = self.run_proto(&proto, &frame, hooks);
        self.current_source = prev_source;
        self.depth -= 1;
        let value = result?;
        if proto.is_async {
            return Ok(match value {
                p @ Value::Promise(_) => p,
                other => Value::promise(other),
            });
        }
        Ok(value)
    }

    /// Array builtins — mirrors the tree-walker's `array_method`
    /// (callbacks run through the VM's own call path).
    fn array_method(
        &mut self,
        items: Rc<std::cell::RefCell<Vec<Value>>>,
        key: &str,
        args: Vec<Value>,
        hooks: &mut dyn HostHooks,
    ) -> Result<Value, Flow> {
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
                        self.call_function(cb, vec![item, Value::Num(i as f64)], None, hooks)?;
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
                            None,
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

    /// Member access — mirrors the tree-walker's `get_member` (the
    /// uncached path; host receivers with fixed keys go through
    /// [`Self::get_member_cached`]).
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
                host_member(path, key)
            }
            Value::Promise(_) => Value::host(format!("__promise.{key}")),
            Value::Func { .. } => Value::host(format!("__function.{key}")),
            _ => Value::Undefined,
        }
    }

    /// Member write — mirrors the tree-walker's `set_member` (`on*`
    /// host properties register handlers).
    fn set_member(&mut self, obj: &Value, key: &str, value: Value) {
        match obj {
            Value::Object(map) => {
                map.borrow_mut().insert(key.to_string(), value);
            }
            Value::Host(_path) => {
                if let Some(event) = key.strip_prefix("on") {
                    if matches!(value, Value::Func { .. }) {
                        self.handlers.push(PendingHandler {
                            event: event.to_string(),
                            func: value,
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// How many distinct sources the per-thread front-end cache holds before
/// it resets. A 20k-site crawl serves a few hundred distinct generated
/// snippets, so in steady state everything hits.
const FRONTEND_CACHE_CAP: usize = 512;

/// Source text → compiled program (or the error the front end produced).
type FrontendMemo = HashMap<Rc<str>, Result<Rc<bytecode::CompiledProgram>, RunError>>;

thread_local! {
    /// Per-thread lex+parse+compile memo. Crawl workers see the same
    /// script sources thousands of times (sites share snippet builders),
    /// so each distinct source is front-ended once per thread. Keyed by
    /// the exact source text and caching errors too, so behaviour —
    /// including which `RunError` surfaces — is byte-identical to an
    /// uncached run. Safe to share across documents: compiled programs
    /// are immutable except the inline caches, whose entries are pure
    /// in their key.
    static FRONTEND_CACHE: std::cell::RefCell<FrontendMemo> =
        std::cell::RefCell::new(HashMap::new());
}

/// Evaluates a pre-resolved binary operator. Number-number pairs take a
/// direct `f64` path whose results match [`semantics::binary_op`] by
/// inspection: `+` adds (no concat branch applies), `-`/`*`/`/` and the
/// ordered compares go through `to_number`, which is the identity on
/// numbers, and all four equality spellings reduce to `f64` equality
/// for two numbers. Every other type pairing — and any unknown
/// operator — delegates to the shared table, so the engines cannot
/// drift.
fn apply_bin(op: bytecode::BinOp, l: Value, r: Value) -> Value {
    use bytecode::BinOp;
    if let (Value::Num(a), Value::Num(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        return match op {
            BinOp::Add => Value::Num(a + b),
            BinOp::Sub => Value::Num(a - b),
            BinOp::Mul => Value::Num(a * b),
            BinOp::Div => Value::Num(a / b),
            BinOp::LooseEq | BinOp::StrictEq => Value::Bool(a == b),
            BinOp::LooseNe | BinOp::StrictNe => Value::Bool(a != b),
            BinOp::Lt => Value::Bool(a < b),
            BinOp::Gt => Value::Bool(a > b),
            BinOp::Le => Value::Bool(a <= b),
            BinOp::Ge => Value::Bool(a >= b),
            BinOp::Other => Value::Undefined,
        };
    }
    match op.as_str() {
        Some(s) => semantics::binary_op(s, &l, &r),
        None => Value::Undefined,
    }
}

/// Empties this thread's front-end cache. Results are unaffected either
/// way (hits return exactly what a fresh front end would); the hook
/// exists for coverage-guided fuzz sessions, where compile-stage
/// coverage only fires on a miss — resetting at session start makes
/// same-seed sessions start from the same (cold) cache state.
pub fn reset_frontend_cache() {
    FRONTEND_CACHE.with(|cache| cache.borrow_mut().clear());
}

/// Cached front end: source text → compiled program (or its error).
fn frontend(source: &str) -> Result<Rc<bytecode::CompiledProgram>, RunError> {
    FRONTEND_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(hit) = cache.get(source) {
            return hit.clone();
        }
        let result = lexer::lex(source)
            .map_err(|e| RunError::Lex(e.to_string()))
            .and_then(|tokens| parser::parse(&tokens).map_err(|e| RunError::Parse(e.to_string())))
            .and_then(|stmts| {
                bytecode::compile_program(&stmts)
                    .map(Rc::new)
                    .map_err(|e| RunError::Compile(e.to_string()))
            });
        if cache.len() >= FRONTEND_CACHE_CAP {
            cache.clear();
        }
        cache.insert(Rc::from(source), result.clone());
        result
    })
}

/// Member lookup on a non-`window` host receiver: a data property or a
/// deeper host path. Pure in `(path, key)` — the fact the inline caches
/// rely on.
fn host_member(path: &Rc<str>, key: &str) -> Value {
    let full = format!("{path}.{key}");
    match semantics::data_property(&full) {
        Some(v) => v,
        None => Value::host(full),
    }
}

fn type_error(value: &Value) -> Flow {
    Flow::Thrown(Value::Str(
        format!("TypeError: {} is not a function", value.to_display_string()).into(),
    ))
}

fn current(envs: &[Env]) -> &Env {
    envs.last().expect("scope stack never empties")
}

fn name_at(proto: &FuncProto, i: u32) -> &str {
    proto.names.get(i as usize).map(|n| &**n).unwrap_or("")
}

fn name_rc(proto: &FuncProto, i: u32) -> Rc<str> {
    proto
        .names
        .get(i as usize)
        .cloned()
        .unwrap_or_else(|| Rc::from(""))
}

fn split_args(stack: &mut Vec<Value>, argc: u32) -> Vec<Value> {
    let at = stack.len().saturating_sub(argc as usize);
    stack.split_off(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::RecordingHooks;
    use crate::reference::Interpreter;

    #[test]
    fn dropping_the_vm_frees_its_globals() {
        let mut vm = ScriptEngine::default();
        vm.run(
            "function f() { return f; } var o = { g: function () {} };",
            ScriptSource::inline(),
            &mut RecordingHooks::default(),
        )
        .unwrap();
        let globals = Rc::downgrade(&vm.globals.0);
        drop(vm);
        assert!(globals.upgrade().is_none(), "global scope leaked");
    }

    /// Runs `src` on both engines (fresh instances, default budget) and
    /// asserts identical observables: run result, recorded API calls
    /// (path, argument, constructed flag, source) and handler counts —
    /// including after draining timers.
    fn assert_same(src: &str) -> RecordingHooks {
        let mut ih = RecordingHooks::default();
        let mut interp = Interpreter::default();
        let ir = interp.run(src, ScriptSource::inline(), &mut ih);
        interp.drain_timers(&mut ih);

        let mut vh = RecordingHooks::default();
        let mut vm = ScriptEngine::default();
        let vr = vm.run(src, ScriptSource::inline(), &mut vh);
        vm.drain_timers(&mut vh);

        assert_eq!(ir, vr, "run result diverged for {src:?}");
        assert_eq!(sig(&ih), sig(&vh), "api calls diverged for {src:?}");
        assert_eq!(
            interp.handlers().len(),
            vm.handlers().len(),
            "handler count diverged for {src:?}"
        );
        vh
    }

    fn paths(hooks: &RecordingHooks) -> Vec<&str> {
        hooks.calls.iter().map(|c| c.path.as_str()).collect()
    }

    /// Comparable projection of recorded calls (`ApiCall` holds live
    /// `Value`s, which have no structural equality).
    fn sig(hooks: &RecordingHooks) -> Vec<(String, Option<String>, bool, ScriptSource)> {
        hooks
            .calls
            .iter()
            .map(|c| {
                (
                    c.path.clone(),
                    c.name_argument(),
                    c.constructed,
                    c.source.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn behavior_matches_interpreter() {
        for src in [
            "navigator.permissions.query({name: 'camera'});",
            "var q = navigator.permissions.query; q({name: 'midi'});",
            "navigator['per' + 'missions']['query']({name: 'push'});",
            "window.navigator.getBattery();",
            "navigator.permissions.query({name: 'camera'}).then(function (st) {\
                navigator.getBattery();\
             });",
            "if (false) { navigator.getBattery(); }",
            "setTimeout(function () { navigator.getBattery(); }, 100);",
            "var a = new Accelerometer({frequency: 60});",
            "function go() { navigator.getBattery(); } go();",
            "var api = navigator.permissions;\
             function check(n) { return api.query({name: n}); }\
             check('geolocation');",
            "try { var x = 1; x(); } catch (e) { navigator.getBattery(); }",
            "var q = navigator.permissions.query;\
             q.call(navigator.permissions, {name: 'camera'});\
             q.apply(navigator.permissions, [{name: 'midi'}]);",
            "var feats = document.featurePolicy.allowedFeatures();\
             if (feats.includes('camera')) { navigator.getBattery(); }\
             var s = 'camera,mic';\
             if (s.includes('camera')) { navigator.share({title: 'x'}); }",
            "if (navigator.webdriver) { navigator.getBattery(); }",
            "var i = 0; while (i < 3) { navigator.canShare(); i = i + 1; }",
            "for (var i = 0; i < 10; i = i + 1) {\
                if (i === 1) { continue; }\
                if (i === 4) { break; }\
                navigator.canShare();\
             }",
            "function f() { break; } f(); navigator.canShare();",
            "var x = 10; x += 5; x -= 3; x *= 2; x /= 4;\
             if (x === 6) { navigator.canShare(); }",
            "var n = 0; for (var i = 0; i < 4; i++) { n += 1; } ++n; n--;\
             if (n === 4) { navigator.canShare(); }",
            "var o = {count: 1}; o.count += 2;\
             if (o.count === 3) { navigator.canShare(); }",
            "var xs = [1, 2, 3];\
             xs.push(4);\
             xs.forEach(function (v) { if (v === 4) { navigator.canShare(); } });\
             var ys = xs.map(function (v) { return v * 2; });\
             if (ys.indexOf(8) === 3) { navigator.getBattery(); }",
            "('cam' + 'era').split(',').forEach(function (s) {\
                navigator.permissions.query({name: s});\
             });",
            "var p = navigator.permissions.query({name: 'camera'});\
             p.catch(function (e) { navigator.getBattery(); })\
              .finally(function () { navigator.canShare(); });",
            "1();",
            "null.x;",
            "var u; u.y = 1; navigator.canShare();",
            "typeof navigator === 'object' && navigator.canShare();",
            "false || navigator.canShare();",
            "(1 < 2 ? navigator : document).canShare();",
            "element.onclick = function () { navigator.getBattery(); };",
        ] {
            assert_same(src);
        }
    }

    #[test]
    fn closures_classes_and_async_match_interpreter() {
        for src in [
            // Closure capturing a mutable upvalue.
            "function counter() {\
                var n = 0;\
                return function () { n += 1; return n; };\
             }\
             var c = counter();\
             c(); c();\
             if (c() === 3) { navigator.canShare(); }",
            // Simple class with constructor and methods.
            "class Probe {\
                constructor(name) { this.name = name; }\
                fire() { navigator.permissions.query({name: this.name}); }\
             }\
             var p = new Probe('camera');\
             p.fire();",
            // Async function: result is a promise, await unwraps.
            "async function check() {\
                var st = await navigator.permissions.query({name: 'camera'});\
                return st;\
             }\
             check().then(function (st) { navigator.getBattery(); });",
            // Async arrow + async method in a class.
            "var go = async (n) => { return n + 1; };\
             go(1).then(function (v) { if (v === 2) { navigator.canShare(); } });",
            "class Api {\
                async probe() { return await navigator.getBattery(); }\
             }\
             new Api().probe().then(function (b) { navigator.canShare(); });",
        ] {
            assert_same(src);
        }
    }

    #[test]
    fn method_preread_hazard_matches_interpreter() {
        // The tree-walker reads `o.m` *before* evaluating arguments, so
        // an argument that overwrites the method still calls the old
        // one. The VM's method plans must preserve that.
        let hooks = assert_same(
            "var o = {};\
             o.m = function () { navigator.canShare(); };\
             o.m(o.m = null);",
        );
        assert_eq!(hooks.calls.len(), 1);
    }

    #[test]
    fn pool_accounting_is_identical() {
        // The shared pool's remaining count after each run is part of
        // the observable state (it decides whether *later* scripts run),
        // so both engines must charge identically — including the abort
        // point of runaway scripts.
        for (src, budget, pool_size) in [
            ("var x = 1;", 200_000u64, 10_000u64),
            ("while (true) { var x = 1; }", 5_000, 100_000),
            ("while (true) { var x = 1; }", 5_000, 3_000),
            (
                "for (var i = 0; i < 100; i++) { var y = i * 2; }",
                200_000,
                10_000,
            ),
            (
                "function f(n) { if (n === 0) { return 0; } return f(n - 1); } f(30);",
                5_000,
                50_000,
            ),
            (
                "navigator.permissions.query({name: 'camera'}).then(function (s) {});",
                200_000,
                10_000,
            ),
        ] {
            let mut ih = RecordingHooks::default();
            let mut interp = Interpreter::with_budget(budget);
            let mut ipool = StepPool::limited(pool_size);
            let ir = interp.run_pooled(src, ScriptSource::inline(), &mut ih, &mut ipool);

            let mut vh = RecordingHooks::default();
            let mut vm = ScriptEngine::with_budget(budget);
            let mut vpool = StepPool::limited(pool_size);
            let vr = vm.run_pooled(src, ScriptSource::inline(), &mut vh, &mut vpool);

            assert_eq!(ir, vr, "result diverged for {src:?}");
            assert_eq!(
                ipool.remaining(),
                vpool.remaining(),
                "pool charge diverged for {src:?}"
            );
            assert_eq!(sig(&ih), sig(&vh), "calls diverged for {src:?}");
        }
    }

    #[test]
    fn runaway_script_charges_exactly_its_grant() {
        let mut hooks = RecordingHooks::default();
        let mut vm = ScriptEngine::with_budget(5_000);
        let mut pool = StepPool::limited(100_000);
        let err = vm
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
        let mut vm = ScriptEngine::with_budget(5_000);
        let mut pool = StepPool::limited(7_000);
        let runaway = "while (true) { var x = 1; }";
        assert_eq!(
            vm.run_pooled(runaway, ScriptSource::inline(), &mut hooks, &mut pool)
                .unwrap_err(),
            RunError::BudgetExceeded
        );
        assert_eq!(
            vm.run_pooled(runaway, ScriptSource::inline(), &mut hooks, &mut pool)
                .unwrap_err(),
            RunError::PoolExhausted
        );
        assert!(pool.is_exhausted());
        assert_eq!(
            vm.run_pooled("var y = 2;", ScriptSource::inline(), &mut hooks, &mut pool)
                .unwrap_err(),
            RunError::PoolExhausted
        );
    }

    #[test]
    fn budget_stops_infinite_recursion() {
        let mut hooks = RecordingHooks::default();
        let mut vm = ScriptEngine::with_budget(5_000);
        let err = vm
            .run(
                "function loop() { loop(); } loop();",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap_err();
        assert_eq!(err, RunError::BudgetExceeded);
    }

    #[test]
    fn exhausted_budget_cannot_reach_host_boundary() {
        // Satellite regression: a script whose pool grant runs out
        // mid-expression must not land the host call that the very next
        // step charge would have aborted — on either engine. Charges
        // before dispatch: statement + call expression + receiver ident
        // = 3 steps; the guard then requires a 4th remaining step.
        for budget in [3u64, 4] {
            let mut ih = RecordingHooks::default();
            let mut interp = Interpreter::with_budget(budget);
            let ir = interp.run("navigator.getBattery();", ScriptSource::inline(), &mut ih);

            let mut vh = RecordingHooks::default();
            let mut vm = ScriptEngine::with_budget(budget);
            let vr = vm.run("navigator.getBattery();", ScriptSource::inline(), &mut vh);

            assert_eq!(ir, vr);
            assert_eq!(ih.calls.len(), vh.calls.len());
            if budget == 3 {
                assert_eq!(ir, Err(RunError::BudgetExceeded));
                assert!(
                    ih.calls.is_empty(),
                    "interp landed a call with a dry budget"
                );
                assert!(vh.calls.is_empty(), "vm landed a call with a dry budget");
            } else {
                assert_eq!(ir, Ok(()));
                assert_eq!(ih.calls.len(), 1);
            }
        }
    }

    #[test]
    fn timers_and_events_match_interpreter() {
        let src = "button.addEventListener('click', function () {\
            navigator.mediaDevices.getUserMedia({video: true});\
         });\
         element.onclick = function () { navigator.getBattery(); };";
        let mut ih = RecordingHooks::default();
        let mut interp = Interpreter::default();
        interp.run(src, ScriptSource::inline(), &mut ih).unwrap();
        let mut ipool = StepPool::limited(10_000);
        let ifired = interp.fire_event("click", &mut ih, &mut ipool);

        let mut vh = RecordingHooks::default();
        let mut vm = ScriptEngine::default();
        vm.run(src, ScriptSource::inline(), &mut vh).unwrap();
        let mut vpool = StepPool::limited(10_000);
        let vfired = vm.fire_event("click", &mut vh, &mut vpool);

        assert_eq!(ifired, vfired);
        assert_eq!(sig(&ih), sig(&vh));
        assert_eq!(ipool.remaining(), vpool.remaining());
    }

    #[test]
    fn fired_handlers_draw_from_the_pool() {
        // Four runaway click handlers, then a probing one, on a 5k
        // per-run budget and a 12k pool: two full grants, one short
        // grant, and nothing after the pool runs dry — on both engines.
        let src = "for (var i = 0; i < 4; i++) {\
                button.addEventListener('click', function () { while (true) { var x = 1; } });\
             }\
             button.addEventListener('click', function () { navigator.getBattery(); });";
        let mut ih = RecordingHooks::default();
        let mut interp = Interpreter::with_budget(5_000);
        interp.run(src, ScriptSource::inline(), &mut ih).unwrap();
        let mut ipool = StepPool::limited(12_000);
        assert!(!interp.fire_event("click", &mut ih, &mut ipool));

        let mut vh = RecordingHooks::default();
        let mut vm = ScriptEngine::with_budget(5_000);
        vm.run(src, ScriptSource::inline(), &mut vh).unwrap();
        let mut vpool = StepPool::limited(12_000);
        assert!(!vm.fire_event("click", &mut vh, &mut vpool));

        assert!(ipool.is_exhausted() && vpool.is_exhausted());
        assert!(ih.calls.is_empty() && vh.calls.is_empty());
    }

    #[test]
    fn pooled_timers_stop_when_pool_runs_dry() {
        let mut hooks = RecordingHooks::default();
        let mut vm = ScriptEngine::with_budget(5_000);
        let mut pool = StepPool::limited(20_000);
        vm.run_pooled(
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
        assert!(vm.drain_timers_pooled(&mut hooks, &mut pool));
        assert!(pool.remaining() < budget_left);
        assert_eq!(hooks.calls.len(), 1);

        let mut vm = ScriptEngine::with_budget(5_000);
        let mut dry = StepPool::limited(0);
        vm.run(
            "setTimeout(function () { navigator.canShare(); }, 0);",
            ScriptSource::inline(),
            &mut hooks,
        )
        .unwrap();
        assert!(!vm.drain_timers_pooled(&mut hooks, &mut dry));
    }

    #[test]
    fn globals_and_protos_persist_across_scripts() {
        let mut hooks = RecordingHooks::default();
        let mut vm = ScriptEngine::default();
        vm.run(
            "function probe(n) { navigator.permissions.query({name: n}); }",
            ScriptSource::external("https://cdn.example/a.js"),
            &mut hooks,
        )
        .unwrap();
        vm.run("probe('camera');", ScriptSource::inline(), &mut hooks)
            .unwrap();
        assert_eq!(paths(&hooks), vec!["navigator.permissions.query"]);
        // Attribution follows the *defining* script for the body.
        assert_eq!(
            hooks.calls[0].source,
            ScriptSource::external("https://cdn.example/a.js")
        );
    }

    #[test]
    fn inline_caches_hit_on_repeated_host_chains() {
        let mut hooks = RecordingHooks::default();
        let mut vm = ScriptEngine::default();
        vm.run(
            "for (var i = 0; i < 50; i++) {\
                navigator.permissions.query({name: 'camera'});\
             }",
            ScriptSource::inline(),
            &mut hooks,
        )
        .unwrap();
        assert_eq!(hooks.calls.len(), 50);
        let (hits, misses) = vm.ic_stats();
        assert!(hits >= 90, "expected warm caches, got {hits} hits");
        assert!(
            misses <= 4,
            "expected monomorphic sites, got {misses} misses"
        );
    }

    #[test]
    fn window_member_reads_are_never_cached() {
        // `window.q` resolves through mutable globals; a stale cache
        // would pin the first value.
        let hooks = assert_same(
            "var q = 1;\
             window.q;\
             q = navigator.canShare;\
             window.q();",
        );
        assert_eq!(paths(&hooks), vec!["navigator.canShare"]);
    }

    #[test]
    fn deep_nesting_is_a_compile_error_not_a_crash() {
        // Satellite regression: compile failures surface as
        // `RunError::Compile` — loudly, never a silent interpreter
        // fallback. (Parseable inputs this deep cannot come from the
        // fuzzer, whose inputs are capped well below the nesting bound.)
        // The compiler recurses close to its cap before erroring, so run
        // on a roomy stack — debug frames are fat.
        std::thread::Builder::new()
            .stack_size(16 * 1024 * 1024)
            .spawn(|| {
                let mut src = String::from("var x = ");
                for _ in 0..1_500 {
                    src.push_str("1+");
                }
                src.push_str("1;");
                let mut hooks = RecordingHooks::default();
                let mut vm = ScriptEngine::default();
                let err = vm
                    .run(&src, ScriptSource::inline(), &mut hooks)
                    .unwrap_err();
                assert!(matches!(err, RunError::Compile(_)), "got {err:?}");

                // Static failures win over pool exhaustion, like syntax
                // errors.
                let mut pool = StepPool::limited(0);
                let err = vm
                    .run_pooled(&src, ScriptSource::inline(), &mut hooks, &mut pool)
                    .unwrap_err();
                assert!(matches!(err, RunError::Compile(_)), "got {err:?}");
            })
            .expect("spawn")
            .join()
            .expect("deep-nesting compile check");
    }
}
