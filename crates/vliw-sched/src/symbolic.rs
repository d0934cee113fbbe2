//! Symbolic compilation: compile a loop once at a canonical trip count,
//! instantiate per request at near-zero cost.
//!
//! *Symbolic Loop Compilation* (Witterauf et al., PAPERS.md) observes
//! that most of a modulo schedule is independent of the loop bounds:
//! the kernel, cluster assignment, copies, hints and prefetches are all
//! per-iteration structure. In this code base the trip count reaches
//! exactly three places:
//!
//! 1. the unroll *eligibility* gate (`trip_count >= N`),
//! 2. the flat-vs-unrolled *cost comparison* (cycles per original
//!    iteration — trip count enters through `compute_cycles_per_visit`),
//! 3. the unrolled loop's own bounds (`trip/N`, same visits).
//!
//! [`CompileRequest::compile_symbolic`] therefore schedules the
//! normalized template ([`vliw_ir::normalize_trips`]) once — both the
//! flat version and, when the policy allows, the unrolled-by-N
//! candidate — and stores *both* finished schedules in a
//! [`SymbolicArtifact`]. [`CompileRequest::instantiate`] replays
//! decisions 1–2 for the real [`TripShape`] on the borrowed candidates,
//! through the exact same predicates the direct path uses
//! (`unroll_eligible`, `unrolled_wins` — one shared implementation, so
//! the floating-point comparison cannot drift), clones only the winner,
//! patches the real bounds into it, and re-checks schedule legality
//! ([`Schedule::validate`] plus the II ≥ MII invariant) before handing
//! the schedule out. That is one clone and one validation per call, so
//! the compile service calls it once per distinct (template, trip
//! shape) and serves every repeat of that pair the same shared,
//! already-checked schedule. The artifact's schedules carry their
//! target (arch and machine), so instantiation needs no machine argument
//! and checks against the artifact's own scheduling view. The result is
//! bit-exact with [`CompileRequest::compile`] on the un-normalized loop;
//! the `service_symbolic` integration suite pins that equality across
//! every suite loop × architecture.

use crate::compile::{unroll_eligible, unrolled_wins, CompileRequest};
use crate::engine::ScheduleError;
use crate::schedule::Schedule;
use serde::Serialize;
use vliw_ir::{LoopNest, TripShape};
use vliw_machine::MachineConfig;

/// A compiled template: everything about a (loop body, machine,
/// request) triple that does *not* depend on the trip count.
///
/// Both step-1 candidates are retained because the flat-vs-unrolled
/// winner is a function of the trip count, so it must be re-decided per
/// instantiation. For L0 targets both candidates carry the finished
/// tail (hints, prefetches, flush) — the tail is trip-independent, so
/// running it at template-compile time keeps instantiation cheap.
#[derive(Debug, Clone, Serialize)]
pub struct SymbolicArtifact {
    /// The loop scheduled flat, at the canonical trip count.
    pub flat: Schedule,
    /// The unrolled-by-N candidate, when the policy admits one and the
    /// backend could schedule it (`None` mirrors the direct path's
    /// fall-back-to-flat on unrolled scheduling failure).
    pub unrolled: Option<Schedule>,
}

impl CompileRequest {
    /// Compiles the trip-normalized template of `loop_`: the flat
    /// schedule plus (policy permitting) the unrolled-by-N candidate,
    /// finished for the L0 target.
    ///
    /// The input is normalized internally, so callers may pass either a
    /// raw loop or an already-normalized template; two loops differing
    /// only in bounds produce identical artifacts.
    ///
    /// # Errors
    ///
    /// Returns the backend's error when the flat template cannot be
    /// scheduled (an unrolled-candidate failure is not an error — the
    /// direct path falls back to flat there, and so does
    /// [`instantiate`](Self::instantiate) when `unrolled` is `None`).
    pub fn compile_symbolic(
        &self,
        loop_: &LoopNest,
        cfg: &MachineConfig,
    ) -> Result<SymbolicArtifact, ScheduleError> {
        self.compile_symbolic_with_stats(loop_, cfg).map(|(a, _)| a)
    }

    /// Instantiates a cached template for a concrete [`TripShape`]:
    /// replays the step-1 flat-vs-unrolled decision with the real trip
    /// count, clones the winning candidate, patches the bounds into it,
    /// and re-checks legality.
    ///
    /// Bit-exact with compiling the concrete loop directly, at the cost
    /// of one schedule clone and one validation instead of scheduling.
    /// The result depends only on this request, `artifact` and `shape`,
    /// so a caller serving many requests may keep it per shape and
    /// share it.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::BadConfig`] when the instantiated schedule
    /// fails the legality re-check (II < MII, or a structural
    /// [`Schedule::validate`] violation against the artifact's own
    /// scheduling view of its machine) — which would mean the cached
    /// artifact was altered after it was compiled.
    pub fn instantiate(
        &self,
        artifact: &SymbolicArtifact,
        shape: TripShape,
    ) -> Result<Schedule, ScheduleError> {
        let scfg = artifact.flat.scheduling_view();
        let n = scfg.clusters;
        // Mirror `vliw_ir::unroll`'s bound rewrite for the real trip
        // count; visits are per-entry, not per-iteration.
        let unrolled_trip = (shape.trip_count / n as u64).max(1);
        let winner = match &artifact.unrolled {
            Some(u)
                if unroll_eligible(self.unroll, n, shape.trip_count)
                    && unrolled_wins(&artifact.flat, shape.trip_count, u, unrolled_trip, n) =>
            {
                let mut u = u.clone();
                u.loop_.trip_count = unrolled_trip;
                u.loop_.visits = shape.visits;
                u
            }
            _ => {
                let mut flat = artifact.flat.clone();
                shape.apply(&mut flat.loop_);
                flat
            }
        };
        if winner.ii() < winner.mii {
            return Err(ScheduleError::BadConfig(format!(
                "instantiated schedule for '{}' has II {} below MII {}",
                winner.loop_.name,
                winner.ii(),
                winner.mii
            )));
        }
        winner.validate(&scfg).map_err(|e| {
            ScheduleError::BadConfig(format!(
                "instantiated schedule for '{}' failed legality re-check: {e}",
                winner.loop_.name
            ))
        })?;
        Ok(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnrollPolicy;
    use vliw_ir::LoopBuilder;

    fn cfg() -> MachineConfig {
        MachineConfig::micro2003()
    }

    /// Schedules lack `PartialEq`; JSON is the equality domain (and the
    /// one the artifact store caches in, so it is the equality that
    /// matters).
    fn json(s: &Schedule) -> String {
        serde_json::to_string(s).expect("schedule serializes")
    }

    #[test]
    fn instantiation_matches_direct_compilation() {
        for arch in crate::Arch::ALL {
            let req = CompileRequest::new(arch);
            for trip in [3u64, 4, 64, 1024, 65536] {
                let l = LoopBuilder::new("ew")
                    .trip_count(trip)
                    .elementwise(2)
                    .build();
                let direct = req.compile(&l, &cfg()).unwrap();
                let artifact = req.compile_symbolic(&l, &cfg()).unwrap();
                let inst = req.instantiate(&artifact, TripShape::of(&l)).unwrap();
                assert_eq!(json(&direct), json(&inst), "{} trip {trip}", arch.label());
            }
        }
    }

    #[test]
    fn one_artifact_serves_all_trip_counts() {
        let req = CompileRequest::new(crate::Arch::L0);
        let base = LoopBuilder::new("ew").trip_count(7).elementwise(2).build();
        let artifact = req.compile_symbolic(&base, &cfg()).unwrap();
        for trip in [1u64, 2, 3, 4, 100, 1 << 30] {
            let mut l = base.clone();
            l.trip_count = trip;
            l.visits = 5;
            let direct = req.compile(&l, &cfg()).unwrap();
            let inst = req.instantiate(&artifact, TripShape::of(&l)).unwrap();
            assert_eq!(json(&direct), json(&inst), "trip {trip}");
        }
    }

    #[test]
    fn small_trips_fall_back_to_flat() {
        // trip 2 < 4 clusters: the eligibility gate must pick flat even
        // though the artifact carries an unrolled candidate.
        let req = CompileRequest::new(crate::Arch::L0);
        let l = LoopBuilder::new("ew")
            .trip_count(1024)
            .elementwise(2)
            .build();
        let artifact = req.compile_symbolic(&l, &cfg()).unwrap();
        assert!(artifact.unrolled.is_some(), "elementwise unrolls at N=4");
        let shape = TripShape {
            trip_count: 2,
            visits: 1,
        };
        let inst = req.instantiate(&artifact, shape).unwrap();
        assert_eq!(inst.loop_.unroll_factor, 1);
        assert_eq!(inst.loop_.trip_count, 2);
    }

    #[test]
    fn never_policy_skips_the_unrolled_candidate() {
        let req = CompileRequest::new(crate::Arch::L0).unroll(UnrollPolicy::Never);
        let l = LoopBuilder::new("ew")
            .trip_count(1024)
            .elementwise(2)
            .build();
        let artifact = req.compile_symbolic(&l, &cfg()).unwrap();
        assert!(artifact.unrolled.is_none());
    }
}
