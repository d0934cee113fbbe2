//! A realistic media workload: the g721-style ADPCM predictor with a
//! memory-carried recurrence — the loop shape that benefits most from the
//! 1-cycle L0 buffer latency, because the load sits on the II-bounding
//! dependence cycle (load state[i-1] → multiply → accumulate → store
//! state[i] → next iteration's load).
//!
//! Run with: `cargo run --release --example media_kernel`

use clustered_vliw_l0::machine::MachineConfig;
use clustered_vliw_l0::sched::{Arch, CompileRequest};
use clustered_vliw_l0::sim::simulate;
use clustered_vliw_l0::workloads::kernels;

fn main() {
    let cfg = MachineConfig::micro2003();

    // The predictor update processes 64-sample frames, re-entered 100
    // times (media codecs run per-frame).
    let pred = kernels::adpcm_predictor("adpcm-predictor", 64, 100);

    // The dependence sets: state load + state store alias, so §4.1's
    // coherence machinery must keep the buffers consistent.
    let sets = clustered_vliw_l0::ir::MemDepSets::build(&pred);
    println!("memory-dependent sets:");
    for (i, set) in sets.sets().iter().enumerate() {
        let mixed = sets.set_mixes_loads_and_stores(i, &pred);
        println!(
            "  S{i}: {} ops{}",
            set.len(),
            if mixed {
                " (loads+stores: constrained)"
            } else {
                ""
            }
        );
    }

    let base = CompileRequest::new(Arch::Baseline)
        .compile(&pred, &cfg)
        .expect("schedulable");
    let l0 = CompileRequest::new(Arch::L0)
        .compile(&pred, &cfg)
        .expect("schedulable");
    println!();
    println!(
        "baseline II = {} (6-cycle loads on the recurrence)",
        base.ii()
    );
    println!(
        "L0 II       = {} (1-cycle loads on the recurrence)",
        l0.ii()
    );

    // The 1C coherence solution: the state load and store share a cluster
    // so the store's write-through updates the only L0 copy.
    let state_ops: Vec<_> = l0
        .placements
        .iter()
        .filter(|p| {
            let op = l0.loop_.op(p.op);
            op.kind.is_mem()
                && sets
                    .set_of(p.op)
                    .map(|s| sets.sets()[s].len() > 1)
                    .unwrap_or(false)
        })
        .collect();
    println!();
    println!("constrained set placement (1C keeps them coherent):");
    for p in &state_ops {
        println!(
            "  {} in {} ({}, {})",
            p.op,
            p.cluster,
            if l0.loop_.op(p.op).is_load() {
                "load"
            } else {
                "store"
            },
            p.hints
        );
    }

    let r_base = simulate(&base);
    let r_l0 = simulate(&l0);
    println!();
    println!("baseline:   {} cycles", r_base.total_cycles());
    println!("L0 buffers: {} cycles", r_l0.total_cycles());
    println!(
        "speedup: {:.2}x (normalized time {:.3})",
        r_base.total_cycles() as f64 / r_l0.total_cycles() as f64,
        r_l0.total_cycles() as f64 / r_base.total_cycles() as f64
    );
}
