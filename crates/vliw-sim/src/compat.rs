//! Source-compatibility shim for `l0bench`, whose sources cannot change
//! alongside the simulator. It names three items of the former timing-
//! engine selector: [`EngineKind::Event`],
//! [`MemoryModelKind::build_with_engine`] and the five-argument
//! [`simulate_with`]. The simulator has a single engine, so each item
//! forwards to its engine-free counterpart. New code should use
//! [`MemoryModelKind::build`], [`simulate`](crate::simulate) and
//! [`simulate_replay`](crate::simulate_replay); the shim goes away
//! together with its last `l0bench` caller.

use crate::model::MemoryModelKind;
use crate::result::SimResult;
use vliw_machine::MachineConfig;
use vliw_mem::MemoryModel;
use vliw_sched::Schedule;

/// `l0bench` shim: the one timing engine the simulator has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The simulator's only engine.
    #[default]
    Event,
}

impl MemoryModelKind {
    /// `l0bench` shim for [`MemoryModelKind::build`]; the engine
    /// argument is ignored.
    ///
    /// # Panics
    ///
    /// Panics for [`MemoryModelKind::UnifiedL0`] when `cfg` has no L0
    /// configuration.
    pub fn build_with_engine(
        &self,
        cfg: &MachineConfig,
        _engine: EngineKind,
    ) -> Box<dyn MemoryModel> {
        self.build(cfg)
    }
}

/// `l0bench` shim: [`simulate`](crate::simulate) when `ffwd` is set,
/// [`simulate_replay`](crate::simulate_replay) otherwise; the engine
/// argument is ignored.
pub fn simulate_with(
    schedule: &Schedule,
    cfg: &MachineConfig,
    model: &mut dyn MemoryModel,
    _engine: EngineKind,
    ffwd: bool,
) -> SimResult {
    crate::runner::run(schedule, cfg, model, ffwd)
}
