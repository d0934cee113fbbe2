//! Source-compatibility shim for `l0bench`, whose sources cannot change
//! alongside the simulator. It names four items: [`simulate_arch`] and
//! the five-argument [`simulate_with`], which re-state a schedule's
//! target, plus [`EngineKind::Event`] and
//! [`MemoryModelKind::build_with_engine`] from the former timing-engine
//! selector. Each forwards to its counterpart; the two simulate shims
//! first assert that the target they are given is the schedule's own.
//! New code calls [`simulate`](crate::simulate) and
//! [`simulate_replay`](crate::simulate_replay); the shim goes away
//! together with its last `l0bench` caller.

use crate::model::MemoryModelKind;
use crate::result::SimResult;
use vliw_machine::MachineConfig;
use vliw_mem::MemoryModel;
use vliw_sched::{Arch, Schedule};

/// `l0bench` shim: the one timing engine the simulator has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The simulator's only engine.
    #[default]
    Event,
}

impl MemoryModelKind {
    /// `l0bench` shim: builds a fresh model of this kind on `cfg`; the
    /// engine argument is ignored.
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

/// Panics unless `cfg` is the machine `schedule` was compiled for.
fn assert_own_machine(schedule: &Schedule, cfg: &MachineConfig) {
    assert!(
        cfg == schedule.machine(),
        "schedule for '{}' was compiled for the machine\n{}\nbut was given the machine\n{}",
        schedule.loop_.name,
        schedule.machine(),
        cfg
    );
}

/// `l0bench` shim for [`simulate`](crate::simulate).
///
/// # Panics
///
/// Panics, naming both, when `cfg` or `arch` is not the schedule's own
/// target.
pub fn simulate_arch(schedule: &Schedule, cfg: &MachineConfig, arch: Arch) -> SimResult {
    assert!(
        arch == schedule.arch(),
        "schedule for '{}' was compiled for {} but was given {arch}",
        schedule.loop_.name,
        schedule.arch()
    );
    assert_own_machine(schedule, cfg);
    crate::simulate(schedule)
}

/// `l0bench` shim: [`simulate`](crate::simulate) when `ffwd` is set,
/// [`simulate_replay`](crate::simulate_replay) otherwise, against the
/// caller's `model`; the engine argument is ignored.
///
/// # Panics
///
/// Panics, naming both machines, when `cfg` is not the schedule's own
/// machine.
pub fn simulate_with(
    schedule: &Schedule,
    cfg: &MachineConfig,
    model: &mut dyn MemoryModel,
    _engine: EngineKind,
    ffwd: bool,
) -> SimResult {
    assert_own_machine(schedule, cfg);
    crate::runner::run(schedule, model, ffwd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::LoopBuilder;
    use vliw_sched::CompileRequest;

    fn l0_schedule() -> (Schedule, MachineConfig) {
        let cfg = MachineConfig::micro2003();
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        let s = CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap();
        (s, cfg)
    }

    #[test]
    fn shims_forward_on_the_schedules_own_target() {
        let (s, cfg) = l0_schedule();
        assert_eq!(simulate_arch(&s, &cfg, Arch::L0), crate::simulate(&s));
        let mut model = MemoryModelKind::UnifiedL0.build_with_engine(&cfg, EngineKind::Event);
        let replayed = simulate_with(&s, &cfg, model.as_mut(), EngineKind::Event, false);
        assert_eq!(replayed, crate::simulate_replay(&s));
    }

    #[test]
    #[should_panic(expected = "L0 Buffers              none")]
    fn simulate_arch_names_both_machines_on_a_mismatch() {
        let (s, cfg) = l0_schedule();
        simulate_arch(&s, &cfg.without_l0(), Arch::L0);
    }

    #[test]
    #[should_panic(expected = "was compiled for L0 buffers but was given baseline")]
    fn simulate_arch_rejects_another_arch() {
        let (s, cfg) = l0_schedule();
        simulate_arch(&s, &cfg, Arch::Baseline);
    }

    #[test]
    #[should_panic(expected = "but was given the machine")]
    fn simulate_with_rejects_another_machine() {
        let (s, cfg) = l0_schedule();
        let mut model = MemoryModelKind::UnifiedL0.build_with_engine(&cfg, EngineKind::Event);
        let other = cfg.with_l0_entries(vliw_machine::L0Capacity::Bounded(2));
        simulate_with(&s, &other, model.as_mut(), EngineKind::Event, true);
    }
}
