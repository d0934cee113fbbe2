//! Replay-stream construction for the compile-service harnesses (the
//! `sweep_service` bin and l0bench's `service_zipf` workload).
//!
//! The service replays a *request mix*: a deterministic, Zipf-skewed
//! sequence of `(loop, trip count)` draws modelling many clients
//! compiling a shared kernel population with per-client bounds. The mix
//! itself is built once as plain indices ([`zipf_mix`]) so every pass —
//! uncached, exact-keyed, symbolic-keyed — replays the *identical*
//! sequence and their reports are directly comparable; the key-mode
//! specific [`ServiceRequest`]s are materialized per pass
//! ([`materialize_mix`]).

use std::sync::Arc;
use vliw_ir::{LoopNest, TripShape};
use vliw_machine::MachineConfig;
use vliw_sched::CompileRequest;
use vliw_service::{KeyMode, ServiceRequest, Zipf};
use vliw_testutil::Rng;

/// Trip counts the mix draws from — spanning below-unroll-eligibility
/// (16 iterations on wide machines) up to streaming bounds, so both the
/// flat fallback and the unrolled winner paths stay exercised.
pub const TRIP_MENU: [u64; 6] = [16, 64, 128, 256, 1024, 4096];

/// One draw of the request mix: which pool loop, at which trip count.
pub type MixDraw = (usize, u64);

/// A deterministic Zipf(`s`)-skewed mix of `requests` draws over a
/// `pool_len`-loop population, trip counts uniform over [`TRIP_MENU`].
///
/// # Panics
///
/// Panics when `pool_len` is zero (a [`Zipf`] over nothing).
pub fn zipf_mix(pool_len: usize, requests: usize, s: f64, seed: u64) -> Vec<MixDraw> {
    let zipf = Zipf::new(pool_len, s);
    let mut rng = Rng::new(seed);
    (0..requests)
        .map(|_| (zipf.sample(&mut rng), rng.pick(&TRIP_MENU)))
        .collect()
}

/// Materializes a mix into key-mode specific [`ServiceRequest`]s.
///
/// Under [`KeyMode::Symbolic`] the content key is trip-invariant, so it
/// is hashed once per pool loop and shared by every variant
/// ([`ServiceRequest::with_shape`]); under [`KeyMode::Exact`] the
/// concrete bounds are part of the address and every variant re-hashes —
/// the request-side cost of exact keying, on top of its lower hit rate.
pub fn materialize_mix(
    mix: &[MixDraw],
    pool: &[Arc<LoopNest>],
    machine: &Arc<MachineConfig>,
    request: &Arc<CompileRequest>,
    mode: KeyMode,
) -> Vec<ServiceRequest> {
    let bases: Vec<ServiceRequest> = pool
        .iter()
        .map(|l| {
            ServiceRequest::new(
                Arc::clone(l),
                Arc::clone(machine),
                Arc::clone(request),
                mode,
            )
        })
        .collect();
    mix.iter()
        .map(|&(li, trip)| {
            let shape = TripShape {
                trip_count: trip,
                visits: bases[li].shape.visits,
            };
            match mode {
                KeyMode::Symbolic => bases[li].with_shape(shape),
                KeyMode::Exact => {
                    let mut loop_ = (*bases[li].loop_).clone();
                    shape.apply(&mut loop_);
                    ServiceRequest::new(
                        Arc::new(loop_),
                        Arc::clone(machine),
                        Arc::clone(request),
                        mode,
                    )
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_sched::Arch;
    use vliw_workloads::kernels;

    fn pool() -> Vec<Arc<LoopNest>> {
        vec![
            Arc::new(kernels::adpcm_predictor("pred", 64, 2)),
            Arc::new(kernels::row_filter("fir", 4, 64, 2)),
        ]
    }

    #[test]
    fn mix_is_deterministic_per_seed() {
        assert_eq!(zipf_mix(8, 64, 1.1, 7), zipf_mix(8, 64, 1.1, 7));
        assert_ne!(zipf_mix(8, 64, 1.1, 7), zipf_mix(8, 64, 1.1, 8));
    }

    #[test]
    fn symbolic_variants_share_keys_exact_variants_do_not() {
        let pool = pool();
        let machine = Arc::new(MachineConfig::micro2003());
        let request = Arc::new(CompileRequest::new(Arch::L0));
        let mix = vec![(0usize, 16u64), (0, 4096)];
        let sym = materialize_mix(&mix, &pool, &machine, &request, KeyMode::Symbolic);
        let exact = materialize_mix(&mix, &pool, &machine, &request, KeyMode::Exact);
        assert_eq!(sym[0].key, sym[1].key, "trip-invariant address");
        assert_ne!(exact[0].key, exact[1].key, "bounds are part of the address");
        assert_eq!(sym[0].shape.trip_count, 16);
        assert_eq!(sym[1].shape.trip_count, 4096);
        assert_eq!(sym[1].loop_.trip_count, 4096, "shape applied to the loop");
    }
}
