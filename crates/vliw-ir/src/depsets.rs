//! Memory-dependent sets `Si` (§4.1).
//!
//! "Given a loop, the scheduling algorithm builds all sets `Si` of memory
//! dependent instructions. A set `Si` contains all memory instructions of
//! the loop that depend among them according to memory disambiguation
//! techniques applied by the compiler."
//!
//! The sets are the connected components of the memory operations under
//! the loop's memory dependence edges — computed here with a union–find.
//! Sets that mix loads and stores constrain scheduling (NL0 / 1C / PSR in
//! `vliw-sched::coherence`); singleton sets and all-store sets are free.

use crate::loop_nest::LoopNest;
use crate::op::OpId;
use std::collections::HashMap;

/// Union–find over op indices.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The memory-dependent sets of one loop.
#[derive(Debug, Clone)]
pub struct MemDepSets {
    sets: Vec<Vec<OpId>>,
    /// Set index per op (indexed by [`OpId::index`]; `None` for
    /// non-memory ops).
    set_of: Vec<Option<usize>>,
}

impl MemDepSets {
    /// Builds the sets from every memory dependence edge of `loop_`
    /// (conservative edges included — the pre-specialization view).
    pub fn build(loop_: &LoopNest) -> Self {
        Self::build_with(loop_, true)
    }

    /// Builds the sets, optionally ignoring conservative edges (the view
    /// after code specialization).
    pub fn build_with(loop_: &LoopNest, include_conservative: bool) -> Self {
        let n = loop_.ops.len();
        let mut uf = UnionFind::new(n);
        for e in loop_.mem_edges() {
            let keep = match e.kind {
                crate::loop_nest::DepKind::Mem { conservative } => {
                    include_conservative || !conservative
                }
                _ => false,
            };
            if keep {
                uf.union(e.src.index(), e.dst.index());
            }
        }
        let mut by_root: HashMap<usize, Vec<OpId>> = HashMap::new();
        for op in loop_.mem_ops() {
            by_root
                .entry(uf.find(op.id.index()))
                .or_default()
                .push(op.id);
        }
        let mut sets: Vec<Vec<OpId>> = by_root.into_values().collect();
        for s in &mut sets {
            s.sort();
        }
        sets.sort_by_key(|s| s[0]);
        let mut set_of = vec![None; n];
        for (i, s) in sets.iter().enumerate() {
            for &op in s {
                set_of[op.index()] = Some(i);
            }
        }
        MemDepSets { sets, set_of }
    }

    /// All sets, each sorted by op id.
    pub fn sets(&self) -> &[Vec<OpId>] {
        &self.sets
    }

    /// Index of the set `op` belongs to (`None` for non-memory ops).
    pub fn set_of(&self, op: OpId) -> Option<usize> {
        self.set_of.get(op.index()).copied().flatten()
    }

    /// The ops in the same set as `op`, including `op` itself.
    pub fn members(&self, op: OpId) -> &[OpId] {
        match self.set_of(op) {
            Some(i) => &self.sets[i],
            None => &[],
        }
    }

    /// `true` when the set contains both loads and stores — the dangerous
    /// case §4.1 is about.
    pub fn set_mixes_loads_and_stores(&self, set: usize, loop_: &LoopNest) -> bool {
        let ops = &self.sets[set];
        ops.iter().any(|&o| loop_.op(o).is_load()) && ops.iter().any(|&o| loop_.op(o).is_store())
    }

    /// `true` when `op`'s set is unconstrained: a singleton, or stores
    /// only (stores are not write-allocate and L1 is always up to date).
    pub fn is_unconstrained(&self, op: OpId, loop_: &LoopNest) -> bool {
        match self.set_of(op) {
            None => true,
            Some(i) => self.sets[i].len() == 1 || !self.set_mixes_loads_and_stores(i, loop_),
        }
    }

    /// Size of the largest set.
    pub fn max_set_len(&self) -> usize {
        self.sets.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::op::MemAccess;

    #[test]
    fn independent_ops_are_singletons() {
        let l = LoopBuilder::new("ew").elementwise(2).build();
        let sets = MemDepSets::build(&l);
        assert_eq!(sets.sets().len(), 2);
        assert!(sets.sets().iter().all(|s| s.len() == 1));
        for op in l.mem_ops() {
            assert!(sets.is_unconstrained(op.id, &l));
        }
    }

    #[test]
    fn store_load_pair_forms_one_mixed_set() {
        let l = LoopBuilder::new("slp").store_load_pair(4).build();
        let sets = MemDepSets::build(&l);
        // all three mem ops alias the same array
        assert_eq!(sets.max_set_len(), 3);
        let st = l.ops.iter().find(|o| o.is_store()).unwrap().id;
        let set = sets.set_of(st).unwrap();
        assert!(sets.set_mixes_loads_and_stores(set, &l));
        assert!(!sets.is_unconstrained(st, &l));
    }

    #[test]
    fn conservative_edges_can_be_excluded() {
        let mut b = LoopBuilder::new("cons").trip_count(16);
        let a = b.array("a", 256);
        let c = b.array("c", 256);
        let (_, v) = b.load(MemAccess::unit(a, 4, 0));
        b.store(MemAccess::unit(c, 4, 0), v);
        b.conservative_alias_all();
        let l = b.build();

        let with = MemDepSets::build(&l);
        assert_eq!(with.max_set_len(), 2);

        let without = MemDepSets::build_with(&l, false);
        assert_eq!(without.max_set_len(), 1);
    }

    #[test]
    fn non_memory_ops_have_no_set() {
        let l = LoopBuilder::new("ew").elementwise(2).build();
        let sets = MemDepSets::build(&l);
        let alu = l.ops.iter().find(|o| !o.kind.is_mem()).unwrap();
        assert_eq!(sets.set_of(alu.id), None);
        assert!(sets.members(alu.id).is_empty());
        assert!(sets.is_unconstrained(alu.id, &l));
    }

    #[test]
    fn members_includes_self() {
        let l = LoopBuilder::new("slp").store_load_pair(4).build();
        let sets = MemDepSets::build(&l);
        let st = l.ops.iter().find(|o| o.is_store()).unwrap().id;
        assert!(sets.members(st).contains(&st));
    }
}
