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
//! | `schedule-unrolled` | backend run on the unrolled-by-N candidate; direct compiles stop its II search at the last II that could beat `schedule-flat` |
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

use crate::compile::{
    finish_l0, unroll_eligible, unrolled_ii_cap, unrolled_wins, CompileRequest, Lowered,
};
use crate::engine::{ScheduleError, MAX_II};
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
        let schedule = |l: &LoopNest, max_ii: u32| {
            self.backend.schedule(
                l,
                &lowered.cfg,
                lowered.mode,
                self.assignment,
                self.profile.as_ref(),
                max_ii,
            )
        };
        let flat = stage(stats, "schedule-flat", || schedule(&lowered.loop_, MAX_II))?;
        // A failed unrolled candidate is not a compile failure: the
        // driver falls back to the flat schedule. A direct compile stops
        // the unrolled search at the last II that could still beat the
        // flat schedule; a symbolic template cannot, since its real trip
        // count is not known yet.
        let n = lowered.cfg.clusters;
        let unrolled = stage(stats, "schedule-unrolled", || {
            Ok(
                if unroll_eligible(self.unroll, n, lowered.loop_.trip_count) {
                    let body = unroll(&lowered.loop_, n);
                    let max_ii = if normalize {
                        MAX_II
                    } else {
                        unrolled_ii_cap(&flat, body.trip_count, n)
                    };
                    schedule(&body, max_ii).ok()
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
    use vliw_ir::{LoopBuilder, MemAccess, OpKind, StridePattern};
    use vliw_machine::L0Capacity;

    /// The paper's machine at `n` clusters, co-scaled as the cluster
    /// sweep scales it: the 32-entry L0 budget split N ways, 8-byte L1
    /// subblocks, 2 KB of L1 per cluster.
    fn scaled(n: usize) -> MachineConfig {
        let mut cfg =
            MachineConfig::micro2003().with_l0_entries(L0Capacity::Bounded((32 / n).max(1)));
        cfg.clusters = n;
        cfg.l1.block_bytes = 8 * n;
        cfg.l1.size_bytes = 2048 * n;
        cfg
    }

    /// An ADPCM-style predictor: a true memory recurrence through the
    /// state array makes it recurrence-bound, so unrolling by N
    /// multiplies its MII by N.
    fn predictor(trip: u64) -> LoopNest {
        let mut b = LoopBuilder::new("pred").trip_count(trip);
        let state = b.array("state", (trip + 1) * 2);
        let coef = b.array("coef", 64);
        let input = b.array("in", trip * 2);
        let out = b.array("out", trip * 2);
        let (ld_prev, vprev) = b.load(MemAccess::unit(state, 2, -2));
        let (_, vcoef) = b.load(MemAccess {
            array: coef,
            offset_bytes: 0,
            elem_bytes: 2,
            stride: StridePattern::Affine { stride_bytes: 0 },
        });
        let (_, vin) = b.load(MemAccess::unit(input, 2, 0));
        let (_, vmul) = b.alu(OpKind::IntMul, &[vprev, vcoef]);
        let (_, vsum) = b.alu(OpKind::IntAlu, &[vmul, vin]);
        let st = b.store(MemAccess::unit(state, 2, 0), vsum);
        b.store(MemAccess::unit(out, 2, 0), vsum);
        b.dep_mem(st, ld_prev, 1, false);
        b.build()
    }

    /// A one-stage recurrence: each iteration loads the state the
    /// previous one stored, adds to it and stores it back. Its flat
    /// schedule fits in one stage, so no unrolled II at or above N times
    /// the flat II can beat it.
    fn carried_state(trip: u64) -> LoopNest {
        let mut b = LoopBuilder::new("carry").trip_count(trip);
        let state = b.array("state", (trip + 1) * 4);
        let (ld, v) = b.load(MemAccess::unit(state, 4, -4));
        let (_, w) = b.alu(OpKind::IntAlu, &[v]);
        let st = b.store(MemAccess::unit(state, 4, 0), w);
        b.dep_mem(st, ld, 1, false);
        b.build()
    }

    /// The direct compile with every II search left at [`MAX_II`]: the
    /// uncapped reference for the unrolled-search bound. Returns the
    /// finished winner, the unrolled candidate and the cap the driver
    /// would have used.
    fn compile_uncapped(
        req: &CompileRequest,
        l: &LoopNest,
        cfg: &MachineConfig,
    ) -> (Schedule, Option<Schedule>, u32) {
        let lowered = req.lower(l, cfg).unwrap();
        let schedule = |body: &LoopNest| {
            req.backend.schedule(
                body,
                &lowered.cfg,
                lowered.mode,
                req.assignment,
                req.profile.as_ref(),
                MAX_II,
            )
        };
        let flat = schedule(&lowered.loop_).unwrap();
        let n = lowered.cfg.clusters;
        let body = unroll(&lowered.loop_, n);
        let cap = unrolled_ii_cap(&flat, body.trip_count, n);
        let unrolled = unroll_eligible(req.unroll, n, lowered.loop_.trip_count)
            .then(|| schedule(&body).ok())
            .flatten();
        let mut winner = match &unrolled {
            Some(u) if unrolled_wins(&flat, flat.loop_.trip_count, u, u.loop_.trip_count, n) => {
                u.clone()
            }
            _ => flat,
        };
        req.finish(&mut Vec::new(), &lowered, cfg, &mut [&mut winner])
            .unwrap();
        (winner, unrolled, cap)
    }

    #[test]
    fn the_unrolled_ii_cap_never_changes_the_result() {
        let kernels = [
            LoopBuilder::new("ew")
                .trip_count(256)
                .elementwise(2)
                .build(),
            LoopBuilder::new("fir")
                .trip_count(128)
                .fir(4, 2)
                .int_overhead(3)
                .build(),
            LoopBuilder::new("slp")
                .trip_count(64)
                .store_load_pair(4)
                .build(),
            LoopBuilder::new("red").trip_count(96).reduction(4).build(),
            predictor(64),
        ];
        let mut pruned = 0;
        for n in [2, 4, 8, 16] {
            let cfg = scaled(n);
            for l in &kernels {
                for arch in Arch::ALL {
                    let req = CompileRequest::new(arch);
                    let capped = req.compile(l, &cfg).unwrap();
                    let (reference, unrolled, cap) = compile_uncapped(&req, l, &cfg);
                    let what = format!("'{}' on {} at {n} clusters", l.name, arch.label());
                    assert_eq!(
                        serde_json::to_string(&capped).unwrap(),
                        serde_json::to_string(&reference).unwrap(),
                        "{what}"
                    );
                    if let Some(u) = unrolled.filter(|u| u.ii() > cap) {
                        assert_eq!(
                            reference.loop_.unroll_factor,
                            1,
                            "{what}: II {} won",
                            u.ii()
                        );
                        pruned += 1;
                    }
                }
            }
        }
        assert!(pruned > 0, "no case exercised the cap");
    }

    #[test]
    fn a_recurrence_bound_unrolled_search_makes_no_attempt() {
        // Unrolled by 64, the recurrence's MII is 64 times the flat II;
        // the one-stage flat schedule is cheaper than any unrolled
        // candidate at that II or above.
        let l = carried_state(64);
        let cfg = scaled(64);
        let req = CompileRequest::new(Arch::L0);
        let lowered = req.lower(&l, &cfg).unwrap();
        let flat = req
            .backend
            .schedule(
                &lowered.loop_,
                &lowered.cfg,
                lowered.mode,
                req.assignment,
                None,
                MAX_II,
            )
            .unwrap();
        let body = unroll(&lowered.loop_, 64);
        let cap = unrolled_ii_cap(&flat, body.trip_count, 64);
        let opt = |op| crate::engine::optimistic_latency(&body, &lowered.cfg, lowered.mode, op);
        let mii = crate::mii::mii(
            &body,
            &vliw_ir::DataDepGraph::build(&body),
            &lowered.cfg,
            opt,
        );
        assert_eq!((flat.ii(), flat.stage_count()), (3, 1), "flat schedule");
        assert_eq!(mii, 64 * 3, "unrolled MII");
        assert!(
            cap < mii,
            "cap {cap} must fall below the unrolled MII {mii}"
        );
        // The capped search fails at once, naming its cap.
        let err = req
            .backend
            .schedule(&body, &lowered.cfg, lowered.mode, req.assignment, None, cap)
            .unwrap_err();
        assert!(
            matches!(err, ScheduleError::NoFeasibleIi { max_ii_tried, .. } if max_ii_tried == cap),
            "{err}"
        );
        let s = req.compile(&l, &cfg).unwrap();
        assert_eq!(s.loop_.unroll_factor, 1, "the flat schedule wins");
    }

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
