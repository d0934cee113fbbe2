//! Miss-status-holding registers (MSHRs): per-bank bookkeeping of
//! in-flight line refills, so *secondary* misses to a line that is
//! already being fetched attach to the existing refill instead of
//! re-queueing at the bank's ports.
//!
//! The timing models insert a line into the tag store the moment its
//! refill is *issued* (they are timing-only — there is no data to wait
//! for), so a secondary miss manifests as a tag hit whose data has not
//! arrived yet. [`MshrFile::lookup`] detects exactly that window: an
//! entry matches when the probing request's cycle falls inside
//! `[issued_at, ready_at)`. Merged requests skip the bank-port grant
//! entirely — that is the contention relief MSHRs buy on a banked
//! network — and complete when the in-flight data returns.
//!
//! A bank has [`InterconnectConfig::mshr_entries`] registers
//! (`vliw_machine`); when all of them are busy a new miss simply is not
//! tracked, and later same-line requests behave as if merging were off.
//! `mshr_entries == 0` disables the structure, which keeps every
//! pre-MSHR configuration bit-exact.

use vliw_machine::InterconnectConfig;

/// One in-flight refill.
#[derive(Debug, Clone, Copy)]
struct Entry {
    block: u64,
    issued_at: u64,
    ready_at: u64,
}

/// The per-bank MSHR state of one memory model.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries_per_bank: usize,
    banks: Vec<Vec<Entry>>,
}

impl MshrFile {
    /// MSHRs for `banks` banks with `entries_per_bank` registers each
    /// (`0` disables merging).
    pub fn new(banks: usize, entries_per_bank: usize) -> Self {
        MshrFile {
            entries_per_bank,
            banks: vec![Vec::new(); banks.max(1)],
        }
    }

    /// MSHRs sized from an interconnect configuration: one file per bank
    /// of the network (a single file when the network is flat/unbanked).
    pub fn for_config(cfg: &InterconnectConfig) -> Self {
        Self::new(cfg.banks.max(1), cfg.mshr_entries)
    }

    /// `true` when the file can track refills at all.
    pub fn enabled(&self) -> bool {
        self.entries_per_bank > 0
    }

    /// The in-flight refill of `block` at `bank`, if the probing request
    /// (at `cycle`) lands inside the refill's flight window: returns the
    /// cycle the data arrives at the bank.
    pub fn lookup(&self, bank: usize, block: u64, cycle: u64) -> Option<u64> {
        if !self.enabled() {
            return None;
        }
        self.banks[bank % self.banks.len()]
            .iter()
            .find(|e| e.block == block && e.issued_at <= cycle && cycle < e.ready_at)
            .map(|e| e.ready_at)
    }

    /// Tracks a refill of `block` issued at `issued_at` whose data
    /// arrives at the bank at `ready_at`. Returns `false` when every
    /// register of the bank is busy at `issued_at` (the refill proceeds,
    /// it just cannot absorb secondaries). A refill of the same block
    /// supersedes any previous entry — stale *or* still in flight: the
    /// block was evicted and re-missed, so the newest window is the only
    /// one whose data can still serve secondaries.
    pub fn register(&mut self, bank: usize, block: u64, issued_at: u64, ready_at: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        let n = self.banks.len();
        let bank = &mut self.banks[bank % n];
        bank.retain(|e| e.block != block);
        let busy = bank.iter().filter(|e| e.ready_at > issued_at).count();
        if busy >= self.entries_per_bank {
            return false;
        }
        bank.push(Entry {
            block,
            issued_at,
            ready_at,
        });
        true
    }

    /// Appends the file's *live* flight windows to `out`, timestamps
    /// relative to `base`: per bank, a sorted list of `(block, issued,
    /// ready)` records.
    ///
    /// `base` is a promise that every future probe (`lookup` cycle,
    /// `register` issue) happens at or after it, so an entry with
    /// `ready_at <= base` is timing-dead: it matches no future lookup
    /// window and never counts as busy against a future issue. An
    /// `issued_at` in the past is clamped to `base` — the effective
    /// future window is `[max(issued_at, base), ready_at)` either way.
    /// Blocks are unique per bank (`register` retains-then-pushes), so
    /// vector order decides nothing; sorting the live records keeps the
    /// key independent of how dead entries interleave.
    pub(crate) fn key_into(&self, out: &mut Vec<u64>, base: u64) {
        for bank in &self.banks {
            let live = bank
                .iter()
                .filter(|e| e.ready_at > base)
                .map(|e| [e.block, e.issued_at.saturating_sub(base), e.ready_at - base]);
            crate::digest::push_sorted(out, live);
        }
    }

    /// Shifts every flight window forward by `delta` cycles.
    pub(crate) fn advance(&mut self, delta: u64) {
        for bank in &mut self.banks {
            for e in bank {
                e.issued_at += delta;
                e.ready_at += delta;
            }
        }
    }

    /// Drops registers whose refill completed more than
    /// [`REPLAY_HORIZON`](crate::REPLAY_HORIZON) cycles before `cycle`,
    /// so no replayed request can still land inside their window.
    /// Pruning is timing-invisible — stale windows match no probe and
    /// never count as busy — so the runner may drive this at any
    /// cadence; it exists purely to bound the file's memory on long
    /// simulations.
    pub fn retire(&mut self, cycle: u64) {
        let cutoff = cycle.saturating_sub(crate::REPLAY_HORIZON);
        for bank in &mut self.banks {
            bank.retain(|e| e.ready_at >= cutoff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_file_never_tracks() {
        let mut m = MshrFile::new(2, 0);
        assert!(!m.enabled());
        assert!(!m.register(0, 0x100, 10, 30));
        assert_eq!(m.lookup(0, 0x100, 15), None);
    }

    #[test]
    fn secondary_inside_the_flight_window_merges() {
        let mut m = MshrFile::new(2, 4);
        assert!(m.register(1, 0x100, 10, 30));
        assert_eq!(m.lookup(1, 0x100, 10), Some(30), "issue cycle is covered");
        assert_eq!(m.lookup(1, 0x100, 29), Some(30));
        assert_eq!(m.lookup(1, 0x100, 30), None, "data has arrived");
        assert_eq!(m.lookup(1, 0x100, 9), None, "not yet issued");
        assert_eq!(m.lookup(1, 0x140, 15), None, "different block");
        assert_eq!(m.lookup(0, 0x100, 15), None, "different bank");
    }

    #[test]
    fn full_bank_rejects_new_refills() {
        let mut m = MshrFile::new(1, 2);
        assert!(m.register(0, 0x100, 10, 50));
        assert!(m.register(0, 0x200, 10, 50));
        assert!(!m.register(0, 0x300, 12, 52), "both registers busy");
        // once a refill lands, its register is free again
        assert!(m.register(0, 0x400, 60, 80));
    }

    #[test]
    fn reissued_block_supersedes_stale_entry() {
        let mut m = MshrFile::new(1, 1);
        assert!(m.register(0, 0x100, 10, 20));
        // the line was evicted and missed again later
        assert!(m.register(0, 0x100, 100, 120));
        assert_eq!(m.lookup(0, 0x100, 15), None, "old window gone");
        assert_eq!(m.lookup(0, 0x100, 110), Some(120));
    }

    #[test]
    fn reissued_block_supersedes_live_entry_without_duplicating() {
        // Evicted-and-re-missed while the first refill still flies: the
        // new window replaces the old one (no duplicate burning a
        // register, no rejection of the superseding refill).
        let mut m = MshrFile::new(1, 1);
        assert!(m.register(0, 0x100, 0, 25));
        assert!(m.register(0, 0x100, 10, 35), "supersede, not reject");
        assert_eq!(m.lookup(0, 0x100, 12), Some(35), "newest window wins");
        // the single register is busy with the new window, nothing else
        assert!(!m.register(0, 0x200, 12, 40));
    }

    #[test]
    fn retire_prunes_completed_refills() {
        let mut m = MshrFile::new(1, 8);
        assert!(m.register(0, 0x100, 10, 20));
        m.retire(10_000);
        assert_eq!(m.lookup(0, 0x100, 15), None);
        assert!(m.register(0, 0x200, 10_000, 10_020));
        m.retire(10_001);
        assert_eq!(m.lookup(0, 0x200, 10_010), Some(10_020), "live entry kept");
    }

    #[test]
    fn retire_cadence_is_timing_invisible() {
        // The same lookup/register stream against three files: retired
        // at the drain clock before every access, retired once per
        // REPLAY_HORIZON cycles (the runner's cadence), and never. While
        // replay skew stays under the horizon, every reply and every
        // live-state key must agree.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let key = |m: &MshrFile, base: u64| {
            let mut out = Vec::new();
            m.key_into(&mut out, base);
            out
        };
        let horizon = crate::REPLAY_HORIZON;
        let mut every = MshrFile::new(4, 4);
        let mut sparse = MshrFile::new(4, 4);
        let mut never = MshrFile::new(4, 4);
        let mut next_retire = horizon;
        let mut clock = 0u64;
        for _ in 0..20_000 {
            clock += next() % 7;
            every.retire(clock);
            if clock >= next_retire {
                sparse.retire(clock);
                next_retire = clock + horizon;
            }
            let bank = (next() % 4) as usize;
            // a hot set that merges, plus a cold tail that goes stale
            let block = if next() % 2 == 0 {
                next() % 48
            } else {
                48 + next() % 4096
            } * 64;
            // replay skew: requests up to ~300 cycles behind the clock
            let cycle = clock.saturating_sub(next() % 300);
            let want = never.lookup(bank, block, cycle);
            assert_eq!(every.lookup(bank, block, cycle), want, "lookup at {cycle}");
            assert_eq!(sparse.lookup(bank, block, cycle), want, "lookup at {cycle}");
            if want.is_none() {
                let ready = cycle + 10 + next() % 200;
                let tracked = never.register(bank, block, cycle, ready);
                assert_eq!(every.register(bank, block, cycle, ready), tracked);
                assert_eq!(sparse.register(bank, block, cycle, ready), tracked);
            }
        }
        let base = clock.saturating_sub(300);
        assert_eq!(key(&every, base), key(&never, base));
        assert_eq!(key(&sparse, base), key(&never, base));
        let held = |m: &MshrFile| m.banks.iter().map(Vec::len).sum::<usize>();
        assert!(
            held(&every) < held(&never),
            "retirement must actually prune something for the check to bite"
        );
    }
}
