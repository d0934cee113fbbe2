//! Quickstart: compile one loop for the clustered VLIW with L0 buffers
//! and compare it against the plain unified-L1 baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use clustered_vliw_l0::prelude::*;

fn main() {
    // The paper's machine: 4 clusters, 8-entry L0 buffers (Table 2).
    let cfg = MachineConfig::micro2003();

    // An in-place update: a[i] = g(a[i], a[i-1]). The store feeds the next
    // iteration's load, so the load latency sits on the II-bounding
    // recurrence — exactly where the 1-cycle L0 buffers shine. The
    // aliasing load/store set also exercises the §4.1 coherence machinery.
    let loop_ = LoopBuilder::new("quickstart")
        .trip_count(1024)
        .visits(4)
        .store_load_pair(4)
        .build();

    // Compile for the baseline (no L0 buffers, every load pays the
    // 6-cycle L1 latency) and for the L0-buffer architecture.
    let base = CompileRequest::new(Arch::Baseline)
        .compile(&loop_, &cfg)
        .expect("baseline schedulable");
    let with_l0 = CompileRequest::new(Arch::L0)
        .compile(&loop_, &cfg)
        .expect("L0 schedulable");

    println!("baseline:   II={} stages={}", base.ii(), base.stage_count());
    println!(
        "L0 buffers: II={} stages={} (unrolled x{})",
        with_l0.ii(),
        with_l0.stage_count(),
        with_l0.loop_.unroll_factor
    );

    // The compiler attached hints to every memory instruction:
    for p in &with_l0.placements {
        let op = with_l0.loop_.op(p.op);
        if op.kind.is_mem() {
            println!(
                "  {:>4} in {} at t={} assumed {} cycles: {}",
                format!("{}", p.op),
                p.cluster,
                p.t,
                p.assumed_latency,
                p.hints
            );
        }
    }

    // Execute both on the cycle-level simulator.
    let r_base = simulate(&base);
    let r_l0 = simulate(&with_l0);

    println!();
    println!(
        "baseline:   {} cycles ({} compute + {} stall)",
        r_base.total_cycles(),
        r_base.compute_cycles,
        r_base.stall_cycles
    );
    println!(
        "L0 buffers: {} cycles ({} compute + {} stall), L0 hit rate {:.1}%",
        r_l0.total_cycles(),
        r_l0.compute_cycles,
        r_l0.stall_cycles,
        r_l0.mem_stats.l0_hit_rate() * 100.0
    );
    println!(
        "normalized execution time: {:.3}",
        r_l0.total_cycles() as f64 / r_base.total_cycles() as f64
    );
}
