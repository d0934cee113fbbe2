//! The compile driver behind [`CompileRequest`]: one straight-line
//! sequence of named steps ("passes").
//!
//! Every step runs through one helper that times it, records a
//! [`PassStat`] and attaches the step's name to any [`ScheduleError`]
//! that escapes ([`ScheduleError::InPass`]), so a failure that bubbles
//! all the way through the compile service still says *which stage*
//! gave up.
//!
//! The steps sit at the driver altitude of §4.3:
//!
//! | pass | stage |
//! |---|---|
//! | `check-profile`     | reject profiles from a different machine shape |
//! | `normalize-trips`   | symbolic templates only: pin the canonical trip count |
//! | `lower`             | specialization + per-arch dispatch (machine view, mode) |
//! | `schedule-flat`     | backend run on the un-unrolled body |
//! | `schedule-unrolled` | backend run on the unrolled-by-N candidate |
//! | `select-unroll`     | direct compiles only: step 1's flat-vs-unrolled tie-break |
//! | `finish-l0`         | hint assignment + explicit prefetches + flush; stamps the target |
//! | `verify`            | static legality re-check ([`Schedule::validate`]) |
//!
//! [`CompileRequest::compile_with_stats`] and
//! [`CompileRequest::compile_symbolic_with_stats`] share the front half
//! (check-profile → lower → schedule-flat → schedule-unrolled) and the
//! tail (finish-l0 → verify).
//!
//! Cluster assignment, modulo scheduling and candidate marking stay
//! *fused inside* the schedule passes: Figure 4 interleaves them per op
//! (place → mark related → consume entries → re-mark), so splitting them
//! into sequential passes would change every schedule. The driver is
//! bit-exact with the golden sweeps.

use crate::compile::{finish_l0, unroll_eligible, unrolled_wins, CompileRequest, Lowered};
use crate::engine::ScheduleError;
use crate::schedule::Schedule;
use crate::symbolic::SymbolicArtifact;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use vliw_ir::{normalize_trips, unroll, LoopNest};
use vliw_machine::MachineConfig;

/// How much static verification the compile driver's `verify` pass runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VerifyLevel {
    /// `debug_assert` the legality re-check (free in release builds) —
    /// the default.
    #[default]
    Debug,
    /// Hard-error on any legality violation, in release builds too (the
    /// CI `verify --full` gate compiles the whole suite at this level).
    Full,
}

impl VerifyLevel {
    /// Re-checks one finished schedule against `cfg` at this level.
    fn check(self, s: &Schedule, cfg: &MachineConfig) -> Result<(), ScheduleError> {
        match self {
            VerifyLevel::Debug => {
                debug_assert_eq!(s.validate(cfg), Ok(()), "loop '{}'", s.loop_.name);
                Ok(())
            }
            VerifyLevel::Full => s.validate(cfg).map_err(ScheduleError::BadConfig),
        }
    }
}

/// Wall-clock accounting for one named pass, merged across invocations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassStat {
    /// Pass name (see the module table).
    pub name: String,
    /// How many times the pass ran.
    pub calls: u64,
    /// Total wall-clock microseconds across all calls (telemetry —
    /// varies run to run).
    pub micros: u64,
}

/// Merges two pass-stat lists entry-wise by name (order of first
/// appearance is kept, so merged lists stay deterministic).
pub fn merge_pass_stats(into: &mut Vec<PassStat>, from: &[PassStat]) {
    for s in from {
        match into.iter_mut().find(|t| t.name == s.name) {
            Some(t) => {
                t.calls += s.calls;
                t.micros += s.micros;
            }
            None => into.push(s.clone()),
        }
    }
}

/// Runs one named step: times it, records its [`PassStat`] and wraps any
/// error with the step's name.
fn stage<T>(
    stats: &mut Vec<PassStat>,
    name: &str,
    step: impl FnOnce() -> Result<T, ScheduleError>,
) -> Result<T, ScheduleError> {
    let start = Instant::now();
    let out = step();
    stats.push(PassStat {
        name: name.to_string(),
        calls: 1,
        micros: start.elapsed().as_micros() as u64,
    });
    out.map_err(|e| e.in_pass(name))
}

/// The lowered request and its two step-1 candidates, before the L0 tail.
struct Candidates {
    lowered: Lowered,
    flat: Schedule,
    unrolled: Option<Schedule>,
}

impl CompileRequest {
    /// [`CompileRequest::compile`], also returning the per-pass
    /// wall-clock stats.
    ///
    /// # Errors
    ///
    /// See [`CompileRequest::compile`].
    pub fn compile_with_stats(
        &self,
        loop_: &LoopNest,
        cfg: &MachineConfig,
    ) -> Result<(Schedule, Vec<PassStat>), ScheduleError> {
        let mut stats = Vec::new();
        let Candidates {
            lowered,
            flat,
            unrolled,
        } = self.candidates(&mut stats, loop_, cfg, false)?;
        let n = lowered.cfg.clusters;
        let mut winner = stage(&mut stats, "select-unroll", || {
            Ok(match unrolled {
                Some(u)
                    if unrolled_wins(&flat, flat.loop_.trip_count, &u, u.loop_.trip_count, n) =>
                {
                    u
                }
                _ => flat,
            })
        })?;
        self.finish(&mut stats, &lowered, cfg, &mut [&mut winner])?;
        Ok((winner, stats))
    }

    /// [`CompileRequest::compile_symbolic`], also returning the per-pass
    /// wall-clock stats.
    ///
    /// The template has no `select-unroll` pass — the canonical trip
    /// count (2^20) exceeds any practical cluster count, so template
    /// eligibility collapses to the policy and cluster-count terms, and
    /// the real trip count re-gates the flat-vs-unrolled decision at
    /// instantiation. `finish-l0` and `verify` run on both candidates.
    ///
    /// # Errors
    ///
    /// See [`CompileRequest::compile_symbolic`].
    pub fn compile_symbolic_with_stats(
        &self,
        loop_: &LoopNest,
        cfg: &MachineConfig,
    ) -> Result<(SymbolicArtifact, Vec<PassStat>), ScheduleError> {
        let mut stats = Vec::new();
        let Candidates {
            lowered,
            mut flat,
            mut unrolled,
        } = self.candidates(&mut stats, loop_, cfg, true)?;
        let mut outputs: Vec<&mut Schedule> = std::iter::once(&mut flat)
            .chain(unrolled.as_mut())
            .collect();
        self.finish(&mut stats, &lowered, cfg, &mut outputs)?;
        Ok((SymbolicArtifact { flat, unrolled }, stats))
    }

    /// check-profile → (normalize-trips, when `normalize`) → lower →
    /// schedule-flat → schedule-unrolled.
    fn candidates(
        &self,
        stats: &mut Vec<PassStat>,
        input: &LoopNest,
        cfg: &MachineConfig,
        normalize: bool,
    ) -> Result<Candidates, ScheduleError> {
        stage(stats, "check-profile", || self.check_profile(cfg))?;
        let template;
        let input = if normalize {
            template = stage(stats, "normalize-trips", || Ok(normalize_trips(input).0))?;
            &template
        } else {
            input
        };
        let lowered = stage(stats, "lower", || self.lower(input, cfg))?;
        let schedule = |l: &LoopNest| {
            self.backend.schedule(
                l,
                &lowered.cfg,
                lowered.mode,
                self.assignment,
                self.profile.as_ref(),
            )
        };
        let flat = stage(stats, "schedule-flat", || schedule(&lowered.loop_))?;
        // A failed unrolled candidate is not a compile failure: the
        // driver falls back to the flat schedule.
        let n = lowered.cfg.clusters;
        let unrolled = stage(stats, "schedule-unrolled", || {
            Ok(
                if unroll_eligible(self.unroll, n, lowered.loop_.trip_count) {
                    schedule(&unroll(&lowered.loop_, n)).ok()
                } else {
                    None
                },
            )
        })?;
        Ok(Candidates {
            lowered,
            flat,
            unrolled,
        })
    }

    /// finish-l0 → verify, over every schedule the driver hands out.
    /// Each output is stamped with its target: this request's arch and
    /// the caller's full machine `cfg` (not the scheduling view), so a
    /// simulation of it runs exactly what was compiled for.
    fn finish(
        &self,
        stats: &mut Vec<PassStat>,
        lowered: &Lowered,
        cfg: &MachineConfig,
        outputs: &mut [&mut Schedule],
    ) -> Result<(), ScheduleError> {
        stage(stats, "finish-l0", || {
            for s in outputs.iter_mut() {
                if lowered.l0_tail {
                    finish_l0(s, &lowered.cfg);
                }
                s.set_target(self.arch, cfg);
            }
            Ok(())
        })?;
        stage(stats, "verify", || {
            outputs
                .iter()
                .try_for_each(|s| self.verify.check(s, &lowered.cfg))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Arch;
    use vliw_ir::LoopBuilder;

    #[test]
    fn stats_cover_every_direct_pass_once() {
        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(2)
            .build();
        let cfg = MachineConfig::micro2003();
        let req = CompileRequest::new(Arch::L0);
        let (_, stats) = req.compile_with_stats(&l, &cfg).unwrap();
        let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "check-profile",
                "lower",
                "schedule-flat",
                "schedule-unrolled",
                "select-unroll",
                "finish-l0",
                "verify"
            ]
        );
        assert!(stats.iter().all(|s| s.calls == 1));
    }

    #[test]
    fn stats_cover_every_symbolic_pass_once() {
        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(2)
            .build();
        let cfg = MachineConfig::micro2003();
        let req = CompileRequest::new(Arch::L0);
        let (_, stats) = req.compile_symbolic_with_stats(&l, &cfg).unwrap();
        let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "check-profile",
                "normalize-trips",
                "lower",
                "schedule-flat",
                "schedule-unrolled",
                "finish-l0",
                "verify"
            ]
        );
        assert!(stats.iter().all(|s| s.calls == 1));
    }

    #[test]
    fn merge_sums_calls_and_micros_by_name() {
        let mut acc = vec![PassStat {
            name: "lower".into(),
            calls: 1,
            micros: 5,
        }];
        merge_pass_stats(
            &mut acc,
            &[
                PassStat {
                    name: "lower".into(),
                    calls: 2,
                    micros: 7,
                },
                PassStat {
                    name: "verify".into(),
                    calls: 1,
                    micros: 1,
                },
            ],
        );
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].calls, 3);
        assert_eq!(acc[0].micros, 12);
        assert_eq!(acc[1].name, "verify");
    }

    #[test]
    fn failures_name_the_failing_pass() {
        let l = LoopBuilder::new("ew").trip_count(64).elementwise(2).build();
        let cfg = MachineConfig::micro2003().without_l0();
        let err = CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap_err();
        assert_eq!(err.pass_name(), Some("lower"));
        assert!(matches!(err.root(), ScheduleError::BadConfig(_)));
        assert!(err.to_string().contains("in pass 'lower'"));
    }

    #[test]
    fn full_level_is_bit_exact_with_debug_level() {
        let l = LoopBuilder::new("ew")
            .trip_count(256)
            .elementwise(2)
            .build();
        let cfg = MachineConfig::micro2003();
        let debug = CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap();
        let full = CompileRequest::new(Arch::L0)
            .verify(VerifyLevel::Full)
            .compile(&l, &cfg)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&debug).unwrap(),
            serde_json::to_string(&full).unwrap()
        );
    }
}
