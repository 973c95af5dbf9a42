//! The engine interface and the on-disk engine tag.

use serde::{Deserialize, Serialize};

use crate::host::{HostHooks, ScriptSource};
use crate::semantics::{PendingHandler, RunError, StepPool};

/// The script-engine tag stored in bundle metadata. Every store is
/// written `Vm`; `Interp` still parses, so stores recorded on the
/// tree-walker load (the two engines produce byte-identical records).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecEngine {
    /// The tree-walker, [`crate::reference::Interpreter`]: read, never
    /// written.
    Interp,
    /// [`crate::ScriptEngine`], the bytecode VM every crawl runs.
    #[default]
    Vm,
}

/// What a document asks of its script engine. [`crate::ScriptEngine`]
/// is the implementation that ships; [`crate::reference::Interpreter`]
/// implements it so a test can run the whole browser on the referee.
pub trait Engine: Default {
    /// Runs a script against a shared page-wide [`StepPool`]. The run's
    /// effective budget is `min(per-run budget, pool remaining)`; used
    /// steps are charged back to the pool. Errors are hard failures
    /// (syntax, compile, budget, pool); thrown values that escape to the
    /// top level are swallowed like a browser's uncaught-exception
    /// console message. Static failures are reported before an empty
    /// pool is: an empty pool fails fast with [`RunError::PoolExhausted`]
    /// only once the script parsed.
    fn run_pooled(
        &mut self,
        source: &str,
        script: ScriptSource,
        hooks: &mut dyn HostHooks,
        pool: &mut StepPool,
    ) -> Result<(), RunError>;

    /// Runs queued `setTimeout` callbacks (the crawler's 20-second settle
    /// window lets short timers fire), each on a grant from `pool`.
    /// Timers may queue more timers; the cascade is bounded. Returns
    /// `false` if the pool ran dry and pending timers were dropped.
    fn drain_timers_pooled(&mut self, hooks: &mut dyn HostHooks, pool: &mut StepPool) -> bool;

    /// Fires every registered handler for `event` (interaction mode),
    /// then drains the timers they queued. Handlers and timers draw
    /// their grants from `pool` like scripts do. Returns `false` if the
    /// pool ran dry and pending handlers or timers were dropped.
    fn fire_event(&mut self, event: &str, hooks: &mut dyn HostHooks, pool: &mut StepPool) -> bool;

    /// Handlers registered and not yet fired.
    fn handlers(&self) -> &[PendingHandler];
}
