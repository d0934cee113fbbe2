//! Figure-7-style comparison on a single workload: the same loops
//! compiled and executed on all four memory architectures — unified L1
//! baseline, flexible L0 buffers, MultiVLIW (MSI distributed L1), and a
//! word-interleaved cache with attraction buffers.
//!
//! With the shared `Arch` dispatch this is one loop over `Arch::ALL`
//! instead of four hand-rolled compile/simulate pairs.
//!
//! Run with: `cargo run --release --example cache_architectures`

use clustered_vliw_l0::machine::MachineConfig;
use clustered_vliw_l0::sched::{Arch, CompileRequest};
use clustered_vliw_l0::sim::{simulate, SimResult};
use clustered_vliw_l0::workloads::kernels;

fn main() {
    let cfg = MachineConfig::micro2003();
    let loops = [
        kernels::media_stream("filter", 3, 6, 2, 256, 10, false),
        kernels::adpcm_predictor("feedback", 64, 20),
        kernels::row_filter("fir8", 8, 160, 8),
    ];

    let rows: Vec<(Arch, SimResult)> = Arch::ALL
        .into_iter()
        .map(|arch| {
            let mut merged = SimResult::default();
            for l in &loops {
                let s = CompileRequest::new(arch)
                    .compile(l, &cfg)
                    .expect("schedulable");
                merged.merge(&simulate(&s));
            }
            (arch, merged)
        })
        .collect();

    let base_total = rows[0].1.total_cycles() as f64;
    println!(
        "{:<24} {:>10} {:>10} {:>8} {:>11}",
        "architecture", "compute", "stall", "total", "normalized"
    );
    for (arch, r) in &rows {
        println!(
            "{:<24} {:>10} {:>10} {:>8} {:>11.3}",
            arch.label(),
            r.compute_cycles,
            r.stall_cycles,
            r.total_cycles(),
            r.total_cycles() as f64 / base_total
        );
    }
}
