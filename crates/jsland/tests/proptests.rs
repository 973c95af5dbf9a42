//! Property-based tests for the script engine, and its lockstep with the
//! tree-walking referee.

use jsland::reference::Interpreter;
use jsland::{Engine, RecordingHooks, ScriptEngine, ScriptSource, StepPool};
use proptest::prelude::*;

/// Arbitrary bytes lossily decoded to text — the hostile-input shape the
/// lexer and parser must be total over.
fn arb_bytes_as_text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u16..256, 0..max).prop_map(|raw| {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

proptest! {
    /// The lexer+parser pipeline is total: arbitrary input either parses
    /// or errors, never panics.
    #[test]
    fn check_syntax_total(input in "[ -~\\n]{0,200}") {
        let _ = jsland::check_syntax(&input);
    }

    /// Running any syntactically valid generated expression statement
    /// terminates within the budget.
    #[test]
    fn simple_programs_terminate(
        raw_name in "[a-z]{1,8}",
        number in -1000.0..1000.0f64,
        text in "[a-z ]{0,20}",
    ) {
        // Keywords are not valid identifiers (the parser rightly rejects
        // `var for = …`); prefix to keep the name an identifier.
        let name = format!("v{raw_name}");
        let program = format!(
            "var {name} = {number};\n\
             var s = '{text}' + {name};\n\
             if ({name} > 0) {{ {name} = {name} - 1; }} else {{ {name} = 0 - {name}; }}\n"
        );
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        prop_assert!(engine.run(&program, ScriptSource::inline(), &mut hooks).is_ok());
        prop_assert!(hooks.calls.is_empty());
    }

    /// Obfuscation invariance: splitting an API path into concatenated
    /// bracket pieces produces the same recorded call as the direct form.
    #[test]
    fn concat_obfuscation_invariant(split in 1usize..11) {
        let full = "permissions";
        let split = split.min(full.len() - 1);
        let (a, b) = full.split_at(split);
        let direct = "navigator.permissions.query({name: 'camera'});";
        let obfuscated = format!("navigator['{a}' + '{b}']['query']({{name: 'camera'}});");

        let run = |src: &str| {
            let mut hooks = RecordingHooks::default();
            let mut engine = ScriptEngine::default();
            engine.run(src, ScriptSource::inline(), &mut hooks).unwrap();
            hooks.calls.iter().map(|c| c.path.clone()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(direct), run(&obfuscated));
    }

    /// Arithmetic and string semantics: `+` concatenates when either side
    /// is a string, adds when both are numbers.
    #[test]
    fn plus_semantics(a in -100i32..100, b in -100i32..100, s in "[a-z]{0,6}") {
        let program = format!(
            "var n = {a} + {b};\n\
             var t = '{s}' + {a};\n\
             if (n === {sum}) {{ navigator.getBattery(); }}\n\
             if (t === '{s}{a}') {{ navigator.canShare(); }}\n",
            sum = a + b,
        );
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        engine.run(&program, ScriptSource::inline(), &mut hooks).unwrap();
        let paths: Vec<&str> = hooks.calls.iter().map(|c| c.path.as_str()).collect();
        prop_assert!(paths.contains(&"navigator.getBattery"), "{paths:?}");
        prop_assert!(paths.contains(&"navigator.canShare"), "{paths:?}");
    }

    /// Dead-code wrapping silences any snippet dynamically.
    #[test]
    fn dead_code_is_silent(name in "(getBattery|share|canShare|getGamepads)") {
        let program = format!("if (false) {{ navigator.{name}(); }}");
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        engine.run(&program, ScriptSource::inline(), &mut hooks).unwrap();
        prop_assert!(hooks.calls.is_empty());
    }

    /// Handler registration defers exactly until the matching event fires.
    #[test]
    fn handlers_fire_on_matching_event_only(event in "(click|scroll|focus)") {
        let program = format!(
            "button.addEventListener('{event}', function () {{ navigator.getBattery(); }});"
        );
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        engine.run(&program, ScriptSource::inline(), &mut hooks).unwrap();
        engine.fire_event("other", &mut hooks, &mut StepPool::unlimited());
        prop_assert!(hooks.calls.is_empty());
        engine.fire_event(&event, &mut hooks, &mut StepPool::unlimited());
        prop_assert_eq!(hooks.calls.len(), 1);
    }
}

proptest! {
    /// The lexer+parser pipeline is total over arbitrary byte soup, not
    /// just printable ASCII.
    #[test]
    fn check_syntax_survives_byte_soup(input in arb_bytes_as_text(400)) {
        let _ = jsland::check_syntax(&input);
    }

    /// Running arbitrary byte soup through a page's script lifecycle —
    /// run, drain timers, fire every registered event — on a bounded
    /// pool always terminates: it parses and runs, errors out, or trips
    /// the budget or the pool; never panics, never wedges.
    #[test]
    fn bounded_interpreter_always_terminates(input in arb_bytes_as_text(300)) {
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::with_budget(2_000);
        let mut pool = StepPool::limited(10_000);
        let _ = engine.run_pooled(&input, ScriptSource::inline(), &mut hooks, &mut pool);
        engine.drain_timers_pooled(&mut hooks, &mut pool);
        let events: Vec<String> = engine.handlers().iter().map(|h| h.event.clone()).collect();
        for event in events {
            engine.fire_event(&event, &mut hooks, &mut pool);
        }
    }

    /// Byte soup seeded with statement fragments (almost-valid programs,
    /// torn mid-token) never panics the bounded engine.
    #[test]
    fn torn_programs_never_panic(
        prefix in prop_oneof![
            Just("var x = "),
            Just("if ("),
            Just("function f() { "),
            Just("navigator.permissions.query({name: '"),
            Just("while (true) { "),
            Just("setTimeout(function () { "),
        ],
        soup in arb_bytes_as_text(120),
    ) {
        let program = format!("{prefix}{soup}");
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::with_budget(2_000);
        let _ = engine.run(&program, ScriptSource::inline(), &mut hooks);
    }

    /// `run_pooled` never overdraws the shared pool: whatever the script
    /// does, the pool's remaining steps only go down by at most what was
    /// there, and repeated runs against a dry pool stay dry.
    #[test]
    fn pooled_runs_never_overdraw(
        input in arb_bytes_as_text(200),
        pool_steps in 0u64..5_000,
    ) {
        let mut pool = StepPool::limited(pool_steps);
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::with_budget(2_000);
        let before = pool.remaining();
        let _ = engine.run_pooled(&input, ScriptSource::inline(), &mut hooks, &mut pool);
        prop_assert!(pool.remaining() <= before);
        // A second run can only shrink it further.
        let mid = pool.remaining();
        let _ = engine.run_pooled(&input, ScriptSource::inline(), &mut hooks, &mut pool);
        prop_assert!(pool.remaining() <= mid);
    }
}

/// One engine's observable execution of `input` under a bounded pool:
/// the run result's display form, the host-call trace, and the pool's
/// exact remaining steps.
fn observe(
    run: impl FnOnce(&str, &mut RecordingHooks, &mut StepPool) -> Result<(), jsland::RunError>,
    input: &str,
    pool_steps: u64,
) -> (Result<(), String>, Vec<(String, bool)>, u64) {
    let mut hooks = RecordingHooks::default();
    let mut pool = StepPool::limited(pool_steps);
    let result = run(input, &mut hooks, &mut pool).map_err(|e| e.to_string());
    let calls = hooks
        .calls
        .iter()
        .map(|c| (c.path.clone(), c.constructed))
        .collect();
    (result, calls, pool.remaining())
}

proptest! {
    /// Compiler + VM dispatch are total over arbitrary byte soup and the
    /// VM's whole observable behaviour — result, host calls, step-pool
    /// accounting — matches the tree-walking interpreter exactly.
    /// Inputs stay short enough that the compiler's nesting-depth guard
    /// is unreachable (densest nesting is one level per byte), so a
    /// VM-only `Compile` error cannot produce a spurious mismatch.
    #[test]
    fn vm_is_lockstep_with_interpreter_on_byte_soup(
        input in arb_bytes_as_text(300),
        pool_steps in 0u64..5_000,
    ) {
        let interp = observe(
            |src, hooks, pool| {
                Interpreter::with_budget(2_000).run_pooled(src, ScriptSource::inline(), hooks, pool)
            },
            &input,
            pool_steps,
        );
        let vm = observe(
            |src, hooks, pool| {
                ScriptEngine::with_budget(2_000).run_pooled(src, ScriptSource::inline(), hooks, pool)
            },
            &input,
            pool_steps,
        );
        prop_assert_eq!(interp, vm);
    }

    /// Torn programs seeded with the widened-subset constructs (classes,
    /// async, closures) never panic compiler or VM, and both engines
    /// still agree.
    #[test]
    fn vm_survives_torn_widened_subset_programs(
        prefix in prop_oneof![
            Just("class C { constructor(x) { "),
            Just("async function m() { var st = await "),
            Just("var add = (function (a) { return function (b) { "),
            Just("new C("),
            Just("try { break; } catch (e) { "),
        ],
        soup in arb_bytes_as_text(120),
    ) {
        let program = format!("{prefix}{soup}");
        let interp = observe(
            |src, hooks, pool| {
                Interpreter::with_budget(2_000).run_pooled(src, ScriptSource::inline(), hooks, pool)
            },
            &program,
            3_000,
        );
        let vm = observe(
            |src, hooks, pool| {
                ScriptEngine::with_budget(2_000).run_pooled(src, ScriptSource::inline(), hooks, pool)
            },
            &program,
            3_000,
        );
        prop_assert_eq!(interp, vm);
    }

    /// The VM under a bounded budget always terminates, timers included.
    #[test]
    fn bounded_vm_always_terminates(input in arb_bytes_as_text(300)) {
        let mut hooks = RecordingHooks::default();
        let mut vm = ScriptEngine::with_budget(2_000);
        let _ = vm.run(&input, ScriptSource::inline(), &mut hooks);
        vm.drain_timers(&mut hooks);
    }
}

/// Parser regressions for the widened subset: these exact spellings must
/// keep parsing (and the unsupported ones keep failing) as the grammar
/// grows.
#[test]
fn widened_subset_parses() {
    for src in [
        "var add = function (a) { return function (b) { return a + b; }; };",
        "class C { constructor(x) { this.x = x; } get() { return this.x; } }",
        "class D { }",
        "class E { async load() { return await navigator.getBattery(); } }",
        "async function m() { var st = await navigator.permissions.query({name: \"camera\"}); }",
        "var f = async function () { return 1; };",
        "for (var i = 0; i < 3; i = i + 1) { if (i > 1) { break; } continue; }",
    ] {
        assert!(jsland::check_syntax(src).is_ok(), "should parse: {src}");
    }
    for src in [
        "class C extends B { }",
        "class C { constructor() { } constructor() { } }",
        "var x = ;",
    ] {
        assert!(jsland::check_syntax(src).is_err(), "should reject: {src}");
    }
}
