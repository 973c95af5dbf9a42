//! AST → bytecode compiler for [`crate::ScriptEngine`].
//!
//! The compiler flattens the tree into one instruction array per
//! function, with two properties the differential gates depend on:
//!
//! 1. **Charge fidelity.** The tree-walking referee
//!    ([`crate::reference`]) charges one step on entry to
//!    every statement and expression (plus one per loop iteration). The
//!    *order* of those charges is observable: a script that exhausts its
//!    [`crate::StepPool`] grant mid-expression aborts at a precise point,
//!    which determines which host calls were dispatched and which
//!    environment writes later scripts can see. The compiler therefore
//!    emits explicit [`Op::Tick`] charges at exactly the tree-walker's
//!    charge points, merging only *adjacent* charges that no jump target
//!    separates — so a merged `Tick(n)` either fully fits in the budget
//!    or aborts with the same observable prefix as `n` single steps.
//! 2. **Eager compilation.** Nested function literals are compiled up
//!    front via a worklist, so compilation failures always surface at
//!    [`crate::ScriptEngine::run_pooled`]'s compile stage (recorded as
//!    [`crate::RunError::Compile`]) and never mid-execution.
//!
//! The only compile failures in the accepted subset are structural
//! resource caps ([`MAX_COMPILE_DEPTH`], index width): every parseable
//! program below those caps compiles.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::ast::{Expr, Function, PropertyKey, Stmt};
use crate::host;
use crate::value::Value;

/// Maximum AST nesting the compiler will recurse into. The parser builds
/// left-deep operator chains iteratively, so parseable inputs can nest
/// far deeper than any sane script; past this cap the compiler reports a
/// deterministic [`CompileError`] instead of risking the native stack.
/// Fuzz-sized inputs (≤ 1 KiB) cannot come close to it.
pub(crate) const MAX_COMPILE_DEPTH: usize = 1_000;

/// Bytecode compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Reason.
    pub reason: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for CompileError {}

/// One VM instruction. Operands index into the owning
/// [`FuncProto`]'s `consts` / `names` / `funcs` tables.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// Charge `n` interpreter steps against the run budget; aborts the
    /// run (uncatchable) when fewer remain — identical pool accounting
    /// to `n` sequential single-step charges.
    Tick(u32),
    /// Push `consts[i]`.
    Const(u32),
    /// Push `undefined` (no charge — mirrors implicit defaults).
    Undef,
    /// Push the value of `names[i]` from the scope chain (undefined when
    /// unbound).
    LoadIdent(u32),
    /// Push `names[name]` from the scope chain, falling back to the
    /// interned host-root value `consts[host]` — so every load of an
    /// unshadowed host root yields the *same* `Rc`, which downstream
    /// inline caches hit by pointer identity.
    LoadHostIdent {
        /// Identifier index.
        name: u32,
        /// Const index of the interned `Value::Host`.
        host: u32,
    },
    /// Pop a value and declare `names[i]` in the current scope.
    DeclareVar(u32),
    /// Assign the top of stack (kept) to `names[i]` via the scope chain.
    StoreIdent(u32),
    /// Pop a value into frame slot `i`. Slots hold function locals whose
    /// name no nested function references, resolved at compile time — the
    /// scope-chain hash lookups (and, for slot-only blocks, the per-entry
    /// scope allocation) disappear without changing any observable:
    /// nothing can see such a local except same-function code textually
    /// after its declaration, which is exactly what resolves to the slot.
    /// Also the fused form of `StoreSlot(i); Pop` (same net effect), so
    /// statement-position slot assignments cost one dispatch.
    DeclareSlot(u32),
    /// Push frame slot `i`.
    LoadSlot(u32),
    /// Assign the top of stack (kept) to frame slot `i`.
    StoreSlot(u32),
    /// Fused `LoadSlot(a); LoadSlot(b); Bin(op)` — a peephole
    /// superinstruction with the same observable effect in one dispatch.
    /// Only emitted when no jump target separates the three ops.
    BinSlots {
        /// Left operand's frame slot.
        a: u32,
        /// Right operand's frame slot.
        b: u32,
        /// Pre-resolved operator.
        op: BinOp,
    },
    /// Fused `LoadSlot(a); Const(c); Bin(op)`.
    BinSlotConst {
        /// Left operand's frame slot.
        a: u32,
        /// Right operand's const index.
        c: u32,
        /// Pre-resolved operator.
        op: BinOp,
    },
    /// Pop an object, push `object.names[name]`. `ic` caches the result
    /// for host receivers keyed by the receiver's path identity.
    GetFixed {
        /// Property name index.
        name: u32,
        /// Inline-cache slot.
        ic: u32,
    },
    /// Pop key then object, push `object[key]`.
    GetComputed,
    /// Stack `[v, obj]` → set `obj.names[i] = v`; pops `obj`, keeps `v`.
    SetFixed(u32),
    /// Stack `[v, obj, key]` → `obj[key] = v`; pops key and obj, keeps `v`.
    SetComputed,
    /// Resolve the method-call plan for `receiver.names[name]` with the
    /// receiver on top of the stack (kept): performs the tree-walker's
    /// pre-argument property read for plain-object and generic receivers
    /// and pushes the plan to the frame's side stack for
    /// [`Op::CallMethod`].
    MethodFixed {
        /// Method name index.
        name: u32,
        /// Inline-cache slot (host receivers).
        ic: u32,
    },
    /// As [`Op::MethodFixed`] with a computed key popped from the stack.
    MethodComputed,
    /// Pop `argc` arguments and the receiver, pop the side-stack plan,
    /// dispatch the method call, push the result.
    CallMethod(u32),
    /// Pop `argc` arguments and the callee, call it, push the result.
    CallValue(u32),
    /// Pop `argc` arguments and the callee, `new`-construct, push the
    /// result.
    New(u32),
    /// Pop two operands, apply the binary operator, push the result.
    /// Short-circuit `&&` / `||` compile to jumps instead. The operator
    /// is resolved at compile time so dispatch is a tag match (with a
    /// number-number fast path) instead of a string compare per op.
    Bin(BinOp),
    /// Pop one operand, apply the unary operator, push the result.
    Un(&'static str),
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalse(u32),
    /// Fused `BinSlotConst { a, c, op }; JumpIfFalse(t)` — evaluate
    /// `slots[a] op consts[c]` and branch on falsiness without touching
    /// the stack. The compare-and-branch at the top of every counted
    /// loop over a slotted induction variable.
    BinSlotConstJump {
        /// Left operand's frame slot.
        a: u32,
        /// Right operand's const index.
        c: u32,
        /// Pre-resolved operator.
        op: BinOp,
        /// Branch target when the result is falsy.
        t: u32,
    },
    /// `&&`: if the top of stack is falsy jump (keeping it), else pop.
    AndJump(u32),
    /// `||`: if the top of stack is truthy jump (keeping it), else pop.
    OrJump(u32),
    /// Push a fresh empty object.
    NewObject,
    /// Pop a value and insert it into the object below under
    /// `names[i]` (object stays).
    SetProp(u32),
    /// Pop `n` items into a fresh array (in evaluation order).
    MakeArray(u32),
    /// Push a closure over `funcs[i]` capturing the current scope.
    Closure(u32),
    /// Declare hoisted `names[name] = closure(funcs[func])` (no charge —
    /// hoisting precedes execution).
    HoistFunc {
        /// Binding name index.
        name: u32,
        /// Function index.
        func: u32,
    },
    /// Enter a child scope.
    PushScope,
    /// Leave `n` scopes.
    PopScope(u32),
    /// Arm a try region whose catch handler starts at `handler`.
    TryPush {
        /// Handler instruction index.
        handler: u32,
    },
    /// Disarm `n` try regions.
    TryPop(u32),
    /// Pop and discard the top of stack.
    Pop,
    /// Return the popped top of stack from the current frame.
    Return,
}

/// A binary operator, resolved from its source spelling at compile
/// time. Evaluation delegates to [`crate::interp::binary_op`] for
/// everything but the all-numbers case, whose result is identical by
/// inspection (both sides bottom out in `f64` arithmetic/comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BinOp {
    /// `+` (number add / string concat).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `==`.
    LooseEq,
    /// `!=`.
    LooseNe,
    /// `===`.
    StrictEq,
    /// `!==`.
    StrictNe,
    /// `<`.
    Lt,
    /// `>`.
    Gt,
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// Any operator outside the parser's closed set (none exist today).
    /// Evaluates to `undefined` for every operand pair — exactly the
    /// tree-walker's unknown-operator arm, whatever the spelling was.
    /// Carrying no string keeps `BinOp` (and so every [`Op`]) small.
    Other,
}

impl BinOp {
    pub(crate) fn from_str(op: &str) -> BinOp {
        match op {
            "+" => BinOp::Add,
            "-" => BinOp::Sub,
            "*" => BinOp::Mul,
            "/" => BinOp::Div,
            "==" => BinOp::LooseEq,
            "!=" => BinOp::LooseNe,
            "===" => BinOp::StrictEq,
            "!==" => BinOp::StrictNe,
            "<" => BinOp::Lt,
            ">" => BinOp::Gt,
            "<=" => BinOp::Le,
            ">=" => BinOp::Ge,
            _ => BinOp::Other,
        }
    }

    /// The source spelling, for delegation to the shared operator table
    /// (`semantics::binary_op`); `None` for [`BinOp::Other`].
    pub(crate) fn as_str(self) -> Option<&'static str> {
        Some(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::LooseEq => "==",
            BinOp::LooseNe => "!=",
            BinOp::StrictEq => "===",
            BinOp::StrictNe => "!==",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Other => return None,
        })
    }
}

/// A monomorphic inline-cache slot, keyed by host-path identity.
#[derive(Debug, Clone, Default)]
pub(crate) enum IcSlot {
    /// Never reached a host receiver yet.
    #[default]
    Empty,
    /// `GetFixed` result for a host receiver with this path.
    Member {
        /// Receiver path the entry was filled for.
        path: Rc<str>,
        /// Cached member value (a `Value::Host` or data property).
        result: Value,
    },
    /// `MethodFixed` generic-host plan: the pre-read member and, when it
    /// is itself a host function, its normalized dispatch path.
    Method {
        /// Receiver path the entry was filled for.
        path: Rc<str>,
        /// Cached pre-read member value.
        member: Value,
        /// Normalized call path when `member` is a host function.
        resolved: Option<Rc<str>>,
    },
}

/// A compiled function (or top-level script) body.
#[derive(Debug)]
pub(crate) struct FuncProto {
    /// Flat instruction array.
    pub ops: Vec<Op>,
    /// Constant pool (literals and interned host roots).
    pub consts: Vec<Value>,
    /// Interned identifier / property names.
    pub names: Vec<Rc<str>>,
    /// Nested function literals (ASTs; closures capture at runtime).
    pub funcs: Vec<Rc<Function>>,
    /// Parameter names (empty for the top-level script).
    pub params: Vec<Rc<str>>,
    /// Whether the source function was `async`.
    pub is_async: bool,
    /// Number of frame slots ([`Op::DeclareSlot`] locals).
    pub n_slots: u32,
    /// Inline-cache slots (runtime state, one per cached site).
    pub ics: RefCell<Vec<IcSlot>>,
}

/// `(AST, proto)` pairs for every function literal in a program.
pub(crate) type CompiledFuncs = Vec<(Rc<Function>, Rc<FuncProto>)>;

/// A fully compiled program: the top-level body plus every nested
/// function, compiled eagerly.
pub(crate) struct CompiledProgram {
    /// Top-level script body.
    pub main: Rc<FuncProto>,
    /// `(AST, proto)` for every function literal in the program.
    pub funcs: CompiledFuncs,
}

/// Compiles a parsed program and, via a worklist, every function literal
/// it contains — so compile errors surface before execution begins.
pub(crate) fn compile_program(stmts: &[Stmt]) -> Result<CompiledProgram, CompileError> {
    let mut worklist: Vec<Rc<Function>> = Vec::new();
    let main = Rc::new(compile_body(None, stmts, &mut worklist)?);
    let mut funcs = Vec::new();
    let mut next = 0;
    while next < worklist.len() {
        let func = worklist[next].clone();
        next += 1;
        let proto = Rc::new(compile_body(Some(&func), &func.body, &mut worklist)?);
        funcs.push((func, proto));
    }
    Ok(CompiledProgram { main, funcs })
}

/// Compiles a single function and, via the worklist, everything nested
/// inside it. The VM's defensive fallback for function values that
/// predate its proto cache; normal execution compiles everything through
/// [`compile_program`].
pub(crate) fn compile_function(func: &Rc<Function>) -> Result<CompiledFuncs, CompileError> {
    let mut worklist = vec![func.clone()];
    let mut funcs = Vec::new();
    let mut next = 0;
    while next < worklist.len() {
        let f = worklist[next].clone();
        next += 1;
        let proto = Rc::new(compile_body(Some(&f), &f.body, &mut worklist)?);
        funcs.push((f, proto));
    }
    Ok(funcs)
}

/// Compiles one function body (`None` = top-level script, which runs
/// directly in the global scope like the tree-walker's `eval_block`).
///
/// Function bodies (not the top level, whose vars must stay visible to
/// `window.*` reads and later scripts) get slot-resolved locals: any
/// declaration whose name no nested function mentions compiles to a
/// frame slot instead of an environment entry.
fn compile_body(
    func: Option<&Function>,
    stmts: &[Stmt],
    worklist: &mut Vec<Rc<Function>>,
) -> Result<FuncProto, CompileError> {
    let mut c = Compiler {
        ops: Vec::new(),
        consts: Vec::new(),
        names: Vec::new(),
        funcs: Vec::new(),
        name_ids: HashMap::new(),
        host_ids: HashMap::new(),
        ic_count: 0,
        depth: 0,
        scope_depth: 0,
        try_depth: 0,
        loops: Vec::new(),
        barrier: 0,
        captured: func.map(|f| captured_names(&f.body)).unwrap_or_default(),
        scopes: vec![HashMap::new()],
        n_slots: 0,
        slots_enabled: func.is_some(),
        worklist,
    };
    if let Some(f) = func {
        // Prologue: copy slottable parameters out of the frame
        // environment (where the caller bound them) into their slots —
        // one hash lookup per call instead of one per use. No charge;
        // the tree-walker's parameter binding is free too.
        for p in &f.params {
            if c.can_slot(p) {
                let name = c.name_index(p)?;
                let slot = c.alloc_slot(p)?;
                c.op(Op::LoadIdent(name));
                c.op(Op::DeclareSlot(slot));
            }
        }
    }
    c.hoist_and_stmts(stmts)?;
    Ok(FuncProto {
        ops: c.ops,
        consts: c.consts,
        names: c.names,
        funcs: c.funcs,
        params: func
            .map(|f| f.params.iter().map(|p| Rc::from(p.as_str())).collect())
            .unwrap_or_default(),
        is_async: func.map(|f| f.is_async).unwrap_or(false),
        n_slots: c.n_slots,
        ics: RefCell::new(vec![IcSlot::Empty; c.ic_count as usize]),
    })
}

/// Every name that functions nested inside `stmts` could reach through
/// the scope chain — conservatively, every identifier-ish name appearing
/// anywhere inside any nested function (at any depth). Locals with a
/// name in this set must live in the environment; everything else is
/// invisible outside its own frame and can live in a slot.
///
/// Iterative on purpose: this walks *through* function boundaries, so a
/// recursive walk could stack-overflow on function-nesting chains the
/// per-body compile recursion (which stops at function boundaries) would
/// accept.
fn captured_names(stmts: &[Stmt]) -> std::collections::HashSet<String> {
    enum Node<'a> {
        S(&'a Stmt, bool),
        E(&'a Expr, bool),
    }
    let mut out = std::collections::HashSet::new();
    let mut stack: Vec<Node<'_>> = stmts.iter().map(|s| Node::S(s, false)).collect();
    fn enter_func<'a>(
        f: &'a Rc<Function>,
        out: &mut std::collections::HashSet<String>,
    ) -> Vec<Node<'a>> {
        for p in &f.params {
            out.insert(p.clone());
        }
        f.body.iter().map(|s| Node::S(s, true)).collect()
    }
    while let Some(node) = stack.pop() {
        match node {
            Node::S(stmt, inner) => match stmt {
                Stmt::VarDecl { name, init } => {
                    if inner {
                        out.insert(name.clone());
                    }
                    if let Some(e) = init {
                        stack.push(Node::E(e, inner));
                    }
                }
                Stmt::Expr(e) => stack.push(Node::E(e, inner)),
                Stmt::If {
                    cond,
                    then,
                    otherwise,
                } => {
                    stack.push(Node::E(cond, inner));
                    stack.extend(then.iter().chain(otherwise).map(|s| Node::S(s, inner)));
                }
                Stmt::Return(v) => {
                    if let Some(e) = v {
                        stack.push(Node::E(e, inner));
                    }
                }
                Stmt::FuncDecl { name, func } => {
                    if inner {
                        out.insert(name.clone());
                    }
                    stack.extend(enter_func(func, &mut out));
                }
                Stmt::Try {
                    body,
                    param,
                    handler,
                } => {
                    if inner {
                        if let Some(p) = param {
                            out.insert(p.clone());
                        }
                    }
                    stack.extend(body.iter().chain(handler).map(|s| Node::S(s, inner)));
                }
                Stmt::While { cond, body } => {
                    stack.push(Node::E(cond, inner));
                    stack.extend(body.iter().map(|s| Node::S(s, inner)));
                }
                Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                } => {
                    if let Some(s) = init {
                        stack.push(Node::S(s, inner));
                    }
                    for e in cond.iter().chain(update) {
                        stack.push(Node::E(e, inner));
                    }
                    stack.extend(body.iter().map(|s| Node::S(s, inner)));
                }
                Stmt::Break | Stmt::Continue => {}
            },
            Node::E(expr, inner) => match expr {
                Expr::Ident(name) => {
                    if inner {
                        out.insert(name.clone());
                    }
                }
                Expr::Member { object, property } => {
                    stack.push(Node::E(object, inner));
                    if let PropertyKey::Computed(k) = property {
                        stack.push(Node::E(k, inner));
                    }
                }
                Expr::Call { callee, args } | Expr::New { callee, args } => {
                    stack.push(Node::E(callee, inner));
                    stack.extend(args.iter().map(|e| Node::E(e, inner)));
                }
                Expr::Assign { target, value } => {
                    stack.push(Node::E(target, inner));
                    stack.push(Node::E(value, inner));
                }
                Expr::Binary { left, right, .. } => {
                    stack.push(Node::E(left, inner));
                    stack.push(Node::E(right, inner));
                }
                Expr::Unary { operand, .. } => stack.push(Node::E(operand, inner)),
                Expr::Conditional {
                    cond,
                    then,
                    otherwise,
                } => {
                    stack.push(Node::E(cond, inner));
                    stack.push(Node::E(then, inner));
                    stack.push(Node::E(otherwise, inner));
                }
                Expr::Object(props) => {
                    stack.extend(props.iter().map(|(_, e)| Node::E(e, inner)));
                }
                Expr::Array(items) => stack.extend(items.iter().map(|e| Node::E(e, inner))),
                Expr::Func(f) => stack.extend(enter_func(f, &mut out)),
                Expr::Str(_) | Expr::Num(_) | Expr::Bool(_) | Expr::Null => {}
            },
        }
    }
    out
}

struct LoopCtx {
    /// Backward `continue` target (`while`); `for` continues jump forward
    /// to the update and use fixups instead.
    continue_back: Option<usize>,
    continue_fixups: Vec<usize>,
    break_fixups: Vec<usize>,
    scope_depth: u32,
    try_depth: u32,
}

/// Compile-time resolution of a declared name within the current
/// function.
#[derive(Clone, Copy)]
enum Binding {
    /// Frame slot: loads/stores compile to slot ops.
    Slot(u32),
    /// Environment entry (captured name, hoisted function, or top
    /// level): loads/stores stay dynamic. Masks outer slots.
    Env,
}

struct Compiler<'w> {
    ops: Vec<Op>,
    consts: Vec<Value>,
    names: Vec<Rc<str>>,
    funcs: Vec<Rc<Function>>,
    name_ids: HashMap<String, u32>,
    host_ids: HashMap<String, u32>,
    ic_count: u32,
    depth: usize,
    scope_depth: u32,
    try_depth: u32,
    loops: Vec<LoopCtx>,
    /// Instruction index of the most recent jump target: `Tick` merging
    /// must not reach across it, or a backward jump would re-charge (or
    /// skip) steps relative to the tree-walker.
    barrier: usize,
    /// Names any nested function mentions — never slotted.
    captured: std::collections::HashSet<String>,
    /// Compile-time block scopes: declarations seen so far, innermost
    /// last. Mirrors the runtime chain textually, which is what makes
    /// slot resolution observation-equivalent: a reference resolves to a
    /// slot only when the tree-walker's chain walk would find that same
    /// declaration.
    scopes: Vec<HashMap<String, Binding>>,
    n_slots: u32,
    /// False for the top-level script (its vars live in globals, where
    /// `window.*` and later scripts can see them).
    slots_enabled: bool,
    worklist: &'w mut Vec<Rc<Function>>,
}

impl Compiler<'_> {
    fn enter(&mut self) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_COMPILE_DEPTH {
            return Err(CompileError {
                reason: format!("program nests deeper than {MAX_COMPILE_DEPTH} levels"),
            });
        }
        Ok(())
    }

    fn index(len: usize, what: &str) -> Result<u32, CompileError> {
        u32::try_from(len).map_err(|_| CompileError {
            reason: format!("too many {what}"),
        })
    }

    fn op(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Charges `n` steps, merging into an immediately preceding `Tick`
    /// unless a jump target separates them.
    fn tick(&mut self, n: u32) {
        if self.ops.len() > self.barrier {
            if let Some(Op::Tick(m)) = self.ops.last_mut() {
                *m += n;
                return;
            }
        }
        self.ops.push(Op::Tick(n));
    }

    /// Emits a binary operator, fusing it with the slot/const loads that
    /// produced its operands into one superinstruction. Fusion is fenced
    /// by the same jump-target barrier as `Tick` merging, so no resolved
    /// jump can land between (or after) the ops being collapsed; the
    /// fused forms are pure stack pushes, so behaviour is unchanged.
    fn emit_bin(&mut self, op: BinOp) {
        let n = self.ops.len();
        if n >= self.barrier.saturating_add(2) {
            match (&self.ops[n - 2], &self.ops[n - 1]) {
                (&Op::LoadSlot(a), &Op::LoadSlot(b)) => {
                    self.ops.truncate(n - 2);
                    self.ops.push(Op::BinSlots { a, b, op });
                    return;
                }
                (&Op::LoadSlot(a), &Op::Const(c)) => {
                    self.ops.truncate(n - 2);
                    self.ops.push(Op::BinSlotConst { a, c, op });
                    return;
                }
                _ => {}
            }
        }
        self.op(Op::Bin(op));
    }

    /// Emits a pop-and-branch-if-falsy with a placeholder target, fusing
    /// an immediately preceding `BinSlotConst` into one compare-and-branch
    /// instruction; returns the index for [`Self::patch_here`].
    fn emit_jump_if_false(&mut self) -> usize {
        if self.ops.len() > self.barrier {
            if let Some(&Op::BinSlotConst { a, c, op }) = self.ops.last() {
                let at = self.ops.len() - 1;
                self.ops[at] = Op::BinSlotConstJump {
                    a,
                    c,
                    op,
                    t: u32::MAX,
                };
                return at;
            }
        }
        self.emit(Op::JumpIfFalse(u32::MAX))
    }

    /// Emits a statement-position discard, folding `StoreSlot(i); Pop`
    /// into `DeclareSlot(i)` — identical net effect (the stack top moves
    /// into the slot), one dispatch. Fenced like all fusion.
    fn emit_pop(&mut self) {
        if self.ops.len() > self.barrier {
            if let Some(&Op::StoreSlot(i)) = self.ops.last() {
                *self.ops.last_mut().expect("just checked") = Op::DeclareSlot(i);
                return;
            }
        }
        self.op(Op::Pop);
    }

    /// Binds a label here: returns the target index and fences `Tick`
    /// merging.
    fn mark(&mut self) -> usize {
        self.barrier = self.ops.len();
        self.ops.len()
    }

    /// Emits a jump-family op with a placeholder target; returns its
    /// index for [`Self::patch_here`].
    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Points the placeholder at `at` to the *next* instruction.
    fn patch_here(&mut self, at: usize) {
        let target = Self::index(self.ops.len(), "instructions").unwrap_or(u32::MAX);
        match &mut self.ops[at] {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::BinSlotConstJump { t, .. }
            | Op::AndJump(t)
            | Op::OrJump(t)
            | Op::TryPush { handler: t } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
        self.barrier = self.ops.len();
    }

    fn name_index(&mut self, name: &str) -> Result<u32, CompileError> {
        if let Some(&i) = self.name_ids.get(name) {
            return Ok(i);
        }
        let i = Self::index(self.names.len(), "names")?;
        self.names.push(Rc::from(name));
        self.name_ids.insert(name.to_string(), i);
        Ok(i)
    }

    fn const_index(&mut self, v: Value) -> Result<u32, CompileError> {
        let i = Self::index(self.consts.len(), "constants")?;
        self.consts.push(v);
        Ok(i)
    }

    /// Interns the `Value::Host` for a host root so every load site
    /// shares one allocation.
    fn host_const_index(&mut self, name: &str) -> Result<u32, CompileError> {
        if let Some(&i) = self.host_ids.get(name) {
            return Ok(i);
        }
        let i = self.const_index(Value::host(name))?;
        self.host_ids.insert(name.to_string(), i);
        Ok(i)
    }

    fn func_index(&mut self, func: &Rc<Function>) -> Result<u32, CompileError> {
        let i = Self::index(self.funcs.len(), "functions")?;
        self.funcs.push(func.clone());
        self.worklist.push(func.clone());
        Ok(i)
    }

    fn can_slot(&self, name: &str) -> bool {
        self.slots_enabled && !self.captured.contains(name)
    }

    fn alloc_slot(&mut self, name: &str) -> Result<u32, CompileError> {
        let slot = self.n_slots;
        self.n_slots = self.n_slots.checked_add(1).ok_or_else(|| CompileError {
            reason: "too many locals".to_string(),
        })?;
        self.scopes
            .last_mut()
            .expect("scope stack never empties")
            .insert(name.to_string(), Binding::Slot(slot));
        Ok(slot)
    }

    /// Resolves a reference against declarations seen so far; `Some` only
    /// for slot bindings (an env binding masks outer slots and stays
    /// dynamic).
    fn resolve_slot(&self, name: &str) -> Option<u32> {
        for scope in self.scopes.iter().rev() {
            match scope.get(name) {
                Some(Binding::Slot(slot)) => return Some(*slot),
                Some(Binding::Env) => return None,
                None => {}
            }
        }
        None
    }

    /// Does a block need a runtime environment scope? Yes when anything
    /// in it declares an environment entry: hoisted functions, captured
    /// vars, or any var when slots are off (top level).
    fn block_needs_env(&self, stmts: &[Stmt]) -> bool {
        !self.slots_enabled
            || stmts.iter().any(|s| match s {
                Stmt::FuncDecl { .. } => true,
                Stmt::VarDecl { name, .. } => self.captured.contains(name),
                _ => false,
            })
    }

    fn ic_slot(&mut self) -> Result<u32, CompileError> {
        let i = self.ic_count;
        self.ic_count = self.ic_count.checked_add(1).ok_or_else(|| CompileError {
            reason: "too many cache sites".to_string(),
        })?;
        Ok(i)
    }

    /// Hoists function declarations (no step charge), then compiles the
    /// statements — the tree-walker's `eval_block` contract.
    fn hoist_and_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for stmt in stmts {
            if let Stmt::FuncDecl { name, func } = stmt {
                let id = self.name_index(name)?;
                let func = self.func_index(func)?;
                self.op(Op::HoistFunc { name: id, func });
                // Hoisting binds the name at block entry — references
                // anywhere in the block must stay dynamic (and mask any
                // outer slot of the same name).
                self.scopes
                    .last_mut()
                    .expect("scope stack never empties")
                    .insert(name.clone(), Binding::Env);
            }
        }
        for stmt in stmts {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    /// A block in its own child scope (`if` branches, loop bodies). The
    /// runtime scope push is skipped when nothing in the block declares
    /// an environment entry — slot-only blocks leave no runtime trace,
    /// so an intervening empty scope would be inert anyway.
    fn block_scoped(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        let needs_env = self.block_needs_env(stmts);
        self.scopes.push(HashMap::new());
        if needs_env {
            self.op(Op::PushScope);
            self.scope_depth += 1;
        }
        self.hoist_and_stmts(stmts)?;
        if needs_env {
            self.op(Op::PopScope(1));
            self.scope_depth -= 1;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        self.enter()?;
        self.tick(1);
        match stmt {
            Stmt::VarDecl { name, init } => {
                cov!(70);
                match init {
                    Some(expr) => self.expr(expr)?,
                    None => self.op(Op::Undef),
                }
                if self.can_slot(name) {
                    let slot = self.alloc_slot(name)?;
                    self.op(Op::DeclareSlot(slot));
                } else {
                    let id = self.name_index(name)?;
                    self.op(Op::DeclareVar(id));
                    self.scopes
                        .last_mut()
                        .expect("scope stack never empties")
                        .insert(name.clone(), Binding::Env);
                }
            }
            Stmt::Expr(expr) => {
                self.expr(expr)?;
                self.emit_pop();
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                cov!(71);
                self.expr(cond)?;
                let exit_then = self.emit_jump_if_false();
                self.block_scoped(then)?;
                if otherwise.is_empty() {
                    self.patch_here(exit_then);
                } else {
                    let done = self.emit(Op::Jump(u32::MAX));
                    self.patch_here(exit_then);
                    self.block_scoped(otherwise)?;
                    self.patch_here(done);
                }
            }
            Stmt::Return(value) => {
                match value {
                    Some(expr) => self.expr(expr)?,
                    None => self.op(Op::Undef),
                }
                self.op(Op::Return);
            }
            Stmt::FuncDecl { .. } => {} // hoisted; the statement still charges its step
            Stmt::While { cond, body } => {
                cov!(72);
                let top = self.mark();
                self.tick(1); // per-iteration charge
                self.expr(cond)?;
                let exit = self.emit_jump_if_false();
                self.loops.push(LoopCtx {
                    continue_back: Some(top),
                    continue_fixups: Vec::new(),
                    break_fixups: Vec::new(),
                    scope_depth: self.scope_depth,
                    try_depth: self.try_depth,
                });
                self.block_scoped(body)?;
                let top = Self::index(top, "instructions")?;
                self.op(Op::Jump(top));
                let ctx = self.loops.pop().expect("loop context");
                self.patch_here(exit);
                for fixup in ctx.break_fixups {
                    self.patch_here(fixup);
                }
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                cov!(73);
                // The header scope exists for the init declaration; when
                // that lives in a slot the runtime scope would stay empty.
                let needs_env = !self.slots_enabled
                    || matches!(
                        init.as_deref(),
                        Some(Stmt::VarDecl { name, .. }) if self.captured.contains(name)
                    );
                self.scopes.push(HashMap::new());
                if needs_env {
                    self.op(Op::PushScope);
                    self.scope_depth += 1;
                }
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let top = self.mark();
                self.tick(1); // per-iteration charge
                let exit = match cond {
                    Some(cond) => {
                        self.expr(cond)?;
                        Some(self.emit_jump_if_false())
                    }
                    None => None,
                };
                self.loops.push(LoopCtx {
                    continue_back: None,
                    continue_fixups: Vec::new(),
                    break_fixups: Vec::new(),
                    scope_depth: self.scope_depth,
                    try_depth: self.try_depth,
                });
                self.block_scoped(body)?;
                let ctx = self.loops.pop().expect("loop context");
                self.mark(); // `continue` lands just before the update
                for fixup in ctx.continue_fixups {
                    self.patch_here(fixup);
                }
                if let Some(update) = update {
                    self.expr(update)?;
                    self.emit_pop();
                }
                let top = Self::index(top, "instructions")?;
                self.op(Op::Jump(top));
                if let Some(exit) = exit {
                    self.patch_here(exit);
                }
                for fixup in ctx.break_fixups {
                    self.patch_here(fixup);
                }
                if needs_env {
                    self.op(Op::PopScope(1));
                    self.scope_depth -= 1;
                }
                self.scopes.pop();
            }
            Stmt::Break | Stmt::Continue => {
                let is_break = matches!(stmt, Stmt::Break);
                match self.loops.last() {
                    Some(ctx) => {
                        let try_pops = self.try_depth - ctx.try_depth;
                        let scope_pops = self.scope_depth - ctx.scope_depth;
                        let continue_back = ctx.continue_back;
                        if try_pops > 0 {
                            self.op(Op::TryPop(try_pops));
                        }
                        if scope_pops > 0 {
                            self.op(Op::PopScope(scope_pops));
                        }
                        if is_break {
                            let fixup = self.emit(Op::Jump(u32::MAX));
                            self.loops
                                .last_mut()
                                .expect("loop context")
                                .break_fixups
                                .push(fixup);
                        } else {
                            match continue_back {
                                Some(top) => {
                                    let top = Self::index(top, "instructions")?;
                                    self.op(Op::Jump(top));
                                }
                                None => {
                                    let fixup = self.emit(Op::Jump(u32::MAX));
                                    self.loops
                                        .last_mut()
                                        .expect("loop context")
                                        .continue_fixups
                                        .push(fixup);
                                }
                            }
                        }
                    }
                    // Outside any loop the tree-walker's signal escapes
                    // the frame (call → undefined result, top level →
                    // normal end of script).
                    None => {
                        self.op(Op::Undef);
                        self.op(Op::Return);
                    }
                }
            }
            Stmt::Try {
                body,
                param,
                handler,
            } => {
                cov!(74);
                let armed = self.emit(Op::TryPush { handler: u32::MAX });
                self.try_depth += 1;
                self.block_scoped(body)?;
                self.try_depth -= 1;
                self.op(Op::TryPop(1));
                let done = self.emit(Op::Jump(u32::MAX));
                // Handler entry: the unwinder disarmed the region and
                // pushed the thrown value.
                self.patch_here(armed);
                let needs_env = self.block_needs_env(handler)
                    || param.as_ref().is_some_and(|p| !self.can_slot(p));
                self.scopes.push(HashMap::new());
                if needs_env {
                    self.op(Op::PushScope);
                    self.scope_depth += 1;
                }
                match param {
                    Some(p) if needs_env => {
                        let name = self.name_index(p)?;
                        self.op(Op::DeclareVar(name));
                        self.scopes
                            .last_mut()
                            .expect("scope stack never empties")
                            .insert(p.clone(), Binding::Env);
                    }
                    Some(p) => {
                        let slot = self.alloc_slot(p)?;
                        self.op(Op::DeclareSlot(slot));
                    }
                    None => self.op(Op::Pop),
                }
                self.hoist_and_stmts(handler)?;
                if needs_env {
                    self.op(Op::PopScope(1));
                    self.scope_depth -= 1;
                }
                self.scopes.pop();
                self.patch_here(done);
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn expr(&mut self, expr: &Expr) -> Result<(), CompileError> {
        self.enter()?;
        self.tick(1);
        match expr {
            Expr::Str(s) => {
                let c = self.const_index(Value::Str(s.as_str().into()))?;
                self.op(Op::Const(c));
            }
            Expr::Num(n) => {
                let c = self.const_index(Value::Num(*n))?;
                self.op(Op::Const(c));
            }
            Expr::Bool(b) => {
                let c = self.const_index(Value::Bool(*b))?;
                self.op(Op::Const(c));
            }
            Expr::Null => {
                let c = self.const_index(Value::Null)?;
                self.op(Op::Const(c));
            }
            Expr::Ident(name) => {
                cov!(75);
                if let Some(slot) = self.resolve_slot(name) {
                    self.op(Op::LoadSlot(slot));
                } else {
                    let id = self.name_index(name)?;
                    if host::is_host_root(name) {
                        let host = self.host_const_index(name)?;
                        self.op(Op::LoadHostIdent { name: id, host });
                    } else {
                        self.op(Op::LoadIdent(id));
                    }
                }
            }
            Expr::Member { object, property } => {
                cov!(76);
                self.expr(object)?;
                match property {
                    PropertyKey::Fixed(name) => {
                        let name = self.name_index(name)?;
                        let ic = self.ic_slot()?;
                        self.op(Op::GetFixed { name, ic });
                    }
                    PropertyKey::Computed(key) => {
                        self.expr(key)?;
                        self.op(Op::GetComputed);
                    }
                }
            }
            Expr::Call { callee, args } => {
                cov!(77);
                let argc = Self::index(args.len(), "arguments")?;
                if let Expr::Member { object, property } = &**callee {
                    // Method call: receiver, key, *then* the plan (the
                    // tree-walker reads object properties before
                    // evaluating arguments), then arguments.
                    self.expr(object)?;
                    match property {
                        PropertyKey::Fixed(name) => {
                            let name = self.name_index(name)?;
                            let ic = self.ic_slot()?;
                            self.op(Op::MethodFixed { name, ic });
                        }
                        PropertyKey::Computed(key) => {
                            self.expr(key)?;
                            self.op(Op::MethodComputed);
                        }
                    }
                    for arg in args {
                        self.expr(arg)?;
                    }
                    self.op(Op::CallMethod(argc));
                } else {
                    self.expr(callee)?;
                    for arg in args {
                        self.expr(arg)?;
                    }
                    self.op(Op::CallValue(argc));
                }
            }
            Expr::New { callee, args } => {
                self.expr(callee)?;
                for arg in args {
                    self.expr(arg)?;
                }
                let argc = Self::index(args.len(), "arguments")?;
                self.op(Op::New(argc));
            }
            Expr::Assign { target, value } => {
                cov!(78);
                self.expr(value)?;
                match &**target {
                    Expr::Ident(name) => {
                        if let Some(slot) = self.resolve_slot(name) {
                            self.op(Op::StoreSlot(slot));
                        } else {
                            let name = self.name_index(name)?;
                            self.op(Op::StoreIdent(name));
                        }
                    }
                    Expr::Member { object, property } => {
                        self.expr(object)?;
                        match property {
                            PropertyKey::Fixed(name) => {
                                let name = self.name_index(name)?;
                                self.op(Op::SetFixed(name));
                            }
                            PropertyKey::Computed(key) => {
                                self.expr(key)?;
                                self.op(Op::SetComputed);
                            }
                        }
                    }
                    // The parser only produces ident/member targets; the
                    // tree-walker ignores anything else and yields the
                    // value.
                    _ => {}
                }
            }
            Expr::Binary { op, left, right } => match *op {
                "&&" => {
                    self.expr(left)?;
                    let done = self.emit(Op::AndJump(u32::MAX));
                    self.expr(right)?;
                    self.patch_here(done);
                }
                "||" => {
                    self.expr(left)?;
                    let done = self.emit(Op::OrJump(u32::MAX));
                    self.expr(right)?;
                    self.patch_here(done);
                }
                _ => {
                    self.expr(left)?;
                    self.expr(right)?;
                    self.emit_bin(BinOp::from_str(op));
                }
            },
            Expr::Unary { op, operand } => {
                self.expr(operand)?;
                self.op(Op::Un(op));
            }
            Expr::Conditional {
                cond,
                then,
                otherwise,
            } => {
                self.expr(cond)?;
                let alt = self.emit_jump_if_false();
                self.expr(then)?;
                let done = self.emit(Op::Jump(u32::MAX));
                self.patch_here(alt);
                self.expr(otherwise)?;
                self.patch_here(done);
            }
            Expr::Object(props) => {
                self.op(Op::NewObject);
                for (key, value) in props {
                    self.expr(value)?;
                    let key = self.name_index(key)?;
                    self.op(Op::SetProp(key));
                }
            }
            Expr::Array(items) => {
                for item in items {
                    self.expr(item)?;
                }
                let len = Self::index(items.len(), "array items")?;
                self.op(Op::MakeArray(len));
            }
            Expr::Func(func) => {
                cov!(79);
                let func = self.func_index(func)?;
                self.op(Op::Closure(func));
            }
        }
        self.depth -= 1;
        Ok(())
    }
}
