//! Selective inter-loop flushing (§4.1, left as future work in the paper).
//!
//! The baseline inter-loop coherence solution invalidates every L0 buffer
//! when a loop exits. The paper notes this can be skipped when "there are
//! no memory dependences between the loop and the code following it (up
//! to the next flushing point)". This module implements that analysis at
//! the granularity the IR supports: two loops are memory-dependent when a
//! *stored-to* address range of the first overlaps any address range
//! accessed by the second (and vice versa for stores after loads — stale
//! L0 data is only dangerous for *reads* of data a previous region wrote,
//! and for reads the next region's stores would invalidate only locally).

use crate::schedule::Schedule;
use vliw_ir::LoopNest;

/// Byte ranges `[lo, hi)` the accesses selected by `pred` walk, derived
/// from their array extents.
fn array_ranges(loop_: &LoopNest, pred: impl Fn(&vliw_ir::Op) -> bool) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for op in loop_.mem_ops() {
        if !pred(op) {
            continue;
        }
        let acc = op.kind.mem_access().expect("mem op");
        let arr = loop_.array(acc.array);
        out.push((arr.base_addr, arr.base_addr + arr.size_bytes));
    }
    out
}

fn overlaps(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    a.iter()
        .any(|&(alo, ahi)| b.iter().any(|&(blo, bhi)| alo < bhi && blo < ahi))
}

/// `true` when `first` may leave data in L0 buffers that `second` could
/// observe stale — i.e. the exit flush of `first` cannot be skipped.
///
/// Conservative in the right direction: any overlap between data `first`
/// *wrote* and data `second` *touches* (or vice versa: `second` stores to
/// data `first` cached) requires the flush.
pub fn needs_flush_between(first: &LoopNest, second: &LoopNest) -> bool {
    let first_writes = array_ranges(first, |op| op.is_store());
    let first_touches = array_ranges(first, |_| true);
    let second_touches = array_ranges(second, |_| true);
    let second_writes = array_ranges(second, |op| op.is_store());
    // data written by `first` read (or rewritten) by `second`: second's L0
    // allocations must not start from stale L1... L1 is write-through so
    // it is up to date; the danger is `second` writing data `first` still
    // has cached — but `first` has exited, so only the *next* entry to
    // `first` matters. The flush protects re-entry of ANY loop that reads
    // what `second` writes; without whole-program info we keep the flush
    // whenever address ranges overlap at all.
    overlaps(&first_writes, &second_touches) || overlaps(&second_writes, &first_touches)
}

/// Applies selective flushing to a compiled region: the exit flush of each
/// schedule is dropped when no later loop of the region (up to the next
/// kept flush) overlaps it.
///
/// Returns how many flushes were removed.
pub fn apply_selective_flushing(region: &mut [Schedule]) -> usize {
    let n = region.len();
    let mut removed = 0;
    for i in 0..n {
        if !region[i].flush_on_exit {
            continue;
        }
        // the region repeats (outer loops), so the "code following" loop i
        // wraps around the region
        let mut needed = false;
        for k in 1..n {
            let j = (i + k) % n;
            if needs_flush_between(&region[i].loop_, &region[j].loop_) {
                needed = true;
                break;
            }
        }
        // self-dependence across visits: a loop whose own stores feed its
        // own next visit still relies on the write-through L1, but its
        // *L0 residents* go stale only if another cluster wrote them —
        // which the intra-loop solutions already prevent. Keep the flush
        // for self-aliasing loops to stay conservative.
        let self_aliasing = {
            let writes = array_ranges(&region[i].loop_, |op| op.is_store());
            let reads = array_ranges(&region[i].loop_, |op| op.is_load());
            overlaps(&writes, &reads)
        };
        if !needed && !self_aliasing {
            region[i].flush_on_exit = false;
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arch, CompileRequest};
    use vliw_ir::{LoopBuilder, MemAccess};
    use vliw_machine::MachineConfig;

    fn disjoint_loop(name: &str) -> LoopNest {
        LoopBuilder::new(name).trip_count(64).elementwise(2).build()
    }

    #[test]
    fn disjoint_loops_need_no_flush() {
        let a = disjoint_loop("a");
        let b = disjoint_loop("b");
        // different LoopBuilder instances share the same address space, so
        // their arrays actually overlap; rebuild b with remapped bases
        let mut b2 = b.clone();
        for arr in &mut b2.arrays {
            arr.base_addr += 1 << 30;
        }
        assert!(!needs_flush_between(&a, &b2));
    }

    #[test]
    fn producer_consumer_loops_need_flush() {
        // two loops over literally the same arrays
        let a = disjoint_loop("a");
        let b = a.clone();
        assert!(needs_flush_between(&a, &b));
    }

    #[test]
    fn selective_flushing_drops_only_safe_flushes() {
        let cfg = MachineConfig::micro2003();
        let a = disjoint_loop("a");
        let mut b = disjoint_loop("b");
        for arr in &mut b.arrays {
            arr.base_addr += 1 << 30;
        }
        let mut region = vec![
            CompileRequest::new(Arch::L0).compile(&a, &cfg).unwrap(),
            CompileRequest::new(Arch::L0).compile(&b, &cfg).unwrap(),
        ];
        assert!(region.iter().all(|s| s.flush_on_exit));
        let removed = apply_selective_flushing(&mut region);
        assert_eq!(removed, 2, "disjoint loops drop both flushes");
    }

    #[test]
    fn self_aliasing_loop_keeps_its_flush() {
        let cfg = MachineConfig::micro2003();
        let l = LoopBuilder::new("slp")
            .trip_count(64)
            .store_load_pair(4)
            .build();
        let mut region = vec![CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap()];
        let removed = apply_selective_flushing(&mut region);
        assert_eq!(removed, 0);
        assert!(region[0].flush_on_exit);
    }

    #[test]
    fn region_with_shared_array_keeps_flushes() {
        let cfg = MachineConfig::micro2003();
        let mut b = LoopBuilder::new("writer").trip_count(64);
        let shared = b.array("shared", 4096);
        let (_, v) = b.load(MemAccess::unit(shared, 4, 0));
        let (_, r) = b.alu(vliw_ir::OpKind::IntAlu, &[v]);
        b.store(MemAccess::unit(shared, 4, 2048), r);
        b.dep_mem(vliw_ir::OpId(2), vliw_ir::OpId(0), 1, false);
        let writer = b.build();

        let mut c = LoopBuilder::new("reader").trip_count(64);
        let shared2 = c.array("shared-view", 4096);
        let (_, v2) = c.load(MemAccess::unit(shared2, 4, 0));
        let out = c.array("out", 256);
        c.store(MemAccess::unit(out, 4, 0), v2);
        let mut reader = c.build();
        // overlay the reader's array onto the writer's address range
        reader.arrays[0].base_addr = writer.arrays[0].base_addr;

        let mut region = vec![
            CompileRequest::new(Arch::L0)
                .compile(&writer, &cfg)
                .unwrap(),
            CompileRequest::new(Arch::L0)
                .compile(&reader, &cfg)
                .unwrap(),
        ];
        let removed = apply_selective_flushing(&mut region);
        assert_eq!(removed, 0, "shared data keeps every flush");
    }
}
