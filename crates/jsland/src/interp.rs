//! Semantic tests of the interpreted subset: what a script does, checked
//! on the engine every crawl runs. Budget and pool limits are checked on
//! both engines: the referee must stop where the engine does. (The
//! differential referee's own tests live in [`crate::reference`]; the
//! lockstep tests that hold the two engines together live in
//! [`crate::vm`].)

use crate::host::{RecordingHooks, ScriptSource};
use crate::reference::Interpreter;
use crate::semantics::{RunError, StepPool};
use crate::{Engine, ScriptEngine};

mod tests {
    use super::*;

    fn run(src: &str) -> RecordingHooks {
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        engine.run(src, ScriptSource::inline(), &mut hooks).unwrap();
        engine.drain_timers(&mut hooks);
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
        let mut engine = ScriptEngine::default();
        engine
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
        assert_eq!(engine.handlers().len(), 2);
        assert!(engine.fire_event("click", &mut hooks, &mut StepPool::unlimited()));
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
        fn check<E: Engine>(new: fn(u64) -> E) {
            let mut hooks = RecordingHooks::default();
            let mut engine = new(5_000);
            let err = engine
                .run_pooled(
                    "function loop() { loop(); } loop();",
                    ScriptSource::inline(),
                    &mut hooks,
                    &mut StepPool::unlimited(),
                )
                .unwrap_err();
            assert_eq!(err, RunError::BudgetExceeded);
        }
        check(ScriptEngine::with_budget);
        check(Interpreter::with_budget);
    }

    #[test]
    fn globals_shared_across_runs() {
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        engine
            .run(
                "var q = navigator.permissions.query;",
                ScriptSource::external("https://cdn.example/a.js"),
                &mut hooks,
            )
            .unwrap();
        engine
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
        let mut engine = ScriptEngine::default();
        engine
            .run(
                "button.addEventListener('click', function () { navigator.getBattery(); });",
                ScriptSource::external("https://tracker.example/t.js"),
                &mut hooks,
            )
            .unwrap();
        engine.fire_event("click", &mut hooks, &mut StepPool::unlimited());
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

mod loop_tests {
    use super::*;

    fn run(src: &str) -> RecordingHooks {
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        engine.run(src, ScriptSource::inline(), &mut hooks).unwrap();
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
        let mut engine = ScriptEngine::with_budget(5_000);
        let err = engine
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

mod compound_tests {
    use super::*;

    fn run(src: &str) -> RecordingHooks {
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        engine.run(src, ScriptSource::inline(), &mut hooks).unwrap();
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
        let mut engine = ScriptEngine::default();
        let mut pool = StepPool::limited(10_000);
        engine
            .run_pooled("var x = 1;", ScriptSource::inline(), &mut hooks, &mut pool)
            .unwrap();
        let used = 10_000 - pool.remaining();
        assert!(used > 0 && used < 100, "used {used}");
    }

    #[test]
    fn runaway_script_with_full_grant_is_budget_exceeded() {
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::with_budget(5_000);
        let mut pool = StepPool::limited(100_000);
        let err = engine
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
        fn check<E: Engine>(new: fn(u64) -> E) {
            let mut hooks = RecordingHooks::default();
            let mut engine = new(5_000);
            let mut pool = StepPool::limited(7_000);
            let runaway = "while (true) { var x = 1; }";
            // First run drains its full 5k grant; second gets a short 2k
            // grant and must blame the pool; third never starts.
            assert_eq!(
                engine
                    .run_pooled(runaway, ScriptSource::inline(), &mut hooks, &mut pool)
                    .unwrap_err(),
                RunError::BudgetExceeded
            );
            assert_eq!(
                engine
                    .run_pooled(runaway, ScriptSource::inline(), &mut hooks, &mut pool)
                    .unwrap_err(),
                RunError::PoolExhausted
            );
            assert!(pool.is_exhausted());
            assert_eq!(
                engine
                    .run_pooled("var y = 2;", ScriptSource::inline(), &mut hooks, &mut pool)
                    .unwrap_err(),
                RunError::PoolExhausted
            );
        }
        check(ScriptEngine::with_budget);
        check(Interpreter::with_budget);
    }

    #[test]
    fn syntax_errors_win_over_pool_exhaustion() {
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        let mut pool = StepPool::limited(0);
        let err = engine
            .run_pooled("function (", ScriptSource::inline(), &mut hooks, &mut pool)
            .unwrap_err();
        assert!(matches!(err, RunError::Parse(_) | RunError::Lex(_)));
    }

    #[test]
    fn pooled_timers_stop_when_pool_runs_dry() {
        fn check<E: Engine>(new: fn(u64) -> E) {
            let mut hooks = RecordingHooks::default();
            let mut engine = new(5_000);
            let mut pool = StepPool::limited(20_000);
            engine
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
            assert!(engine.drain_timers_pooled(&mut hooks, &mut pool));
            assert!(pool.remaining() < budget_left);
            assert_eq!(hooks.calls.len(), 1);

            // With a pool too small for even one timer grant, pending
            // timers are dropped and reported.
            let mut engine = new(5_000);
            let mut dry = StepPool::limited(0);
            engine
                .run_pooled(
                    "setTimeout(function () { navigator.canShare(); }, 0);",
                    ScriptSource::inline(),
                    &mut hooks,
                    &mut StepPool::unlimited(),
                )
                .unwrap();
            assert!(!engine.drain_timers_pooled(&mut hooks, &mut dry));
        }
        check(ScriptEngine::with_budget);
        check(Interpreter::with_budget);
    }
}
