//! A compact occupancy wheel: the grant calendar of every interconnect
//! bank port, mesh link and node port, and of the cluster buses.
//!
//! Arbitration state here is a pure *occupancy count per cycle*: how many
//! grants a bank port, mesh link or cluster bus has already issued at
//! cycle `t`. A [`SlotWheel`] stores those counts in a power-of-two ring
//! indexed by `t & mask`, with each slot tagged by the full cycle it
//! currently represents. A slot whose tag does not match the probed cycle
//! simply reads as empty — stale reservations *retire as the clock passes
//! over them*, with no pruning sweep and no per-reservation allocation.
//!
//! The simulator replays software-pipelined iterations slightly out of
//! global cycle order (see DESIGN.md §10), so a reservation must stay
//! observable for the whole replay window after it is made. The wheel
//! guarantees exactly that: it is sized to at least twice the window, and
//! reclaiming a slot is only allowed when the reservation it holds has
//! fallen more than the window behind the wheel's reservation frontier.
//! A conflicting reservation that is still inside the window — possible
//! only if queueing excursions outgrow the wheel — forces the wheel to
//! double instead, preserving every live slot. The structure is therefore
//! semantically identical to a horizon-pruned `BTreeMap<u64, u32>`
//! calendar; the randomized differential test below holds the wheel to
//! that reference.

/// Occupancy counts over a sliding window of cycles, reserve-next-free-
/// slot, no explicit retirement.
///
/// [`SlotWheel::reserve`] costs O(1) per cycle it inspects: one step per
/// saturated cycle between the search start and the granted slot. Under
/// an open-loop backlog of B saturated cycles each call therefore costs
/// O(B), and a stream of such calls grows quadratically (a 16-cluster
/// crossbar hot-bank stream takes 25 ms at 4k requests and 393 ms at
/// 16k).
///
/// All bookkeeping below is kept in *wheel-local* time — global cycles
/// minus `SlotWheel::offset` — so that a fast-forward clock advance
/// (`SlotWheel::advance`) is a single addition to the offset instead
/// of a re-seating sweep over the ring. The public API speaks global
/// cycles and translates at the boundary.
#[derive(Debug, Clone)]
pub struct SlotWheel {
    /// The local cycle each slot currently represents (meaningful only
    /// where `counts` is nonzero).
    cycles: Vec<u64>,
    /// Grants issued at the slot's cycle.
    counts: Vec<u32>,
    mask: u64,
    /// Highest local search-start cycle ever passed to
    /// [`SlotWheel::reserve`] — the clock edge reservations are judged
    /// stale against.
    frontier: u64,
    /// How far behind `frontier` a reservation must stay observable (the
    /// out-of-order replay window).
    horizon: u64,
    /// Highest local cycle any grant was ever seated at — caps the live
    /// window `[base, max_granted]` that [`SlotWheel::key_into`]
    /// scans, so encoding an idle or lightly-loaded wheel never walks
    /// the ring.
    max_granted: u64,
    /// Global time of local cycle 0: the sum of every fast-forward
    /// [`SlotWheel::advance`] so far. Probes below the offset cannot
    /// occur (the fast-forward base promise is that every future probe
    /// is at or after the batch boundary) and read as empty.
    offset: u64,
}

impl SlotWheel {
    /// A wheel that keeps reservations observable for at least `horizon`
    /// cycles behind the newest reservation.
    pub fn new(horizon: u64) -> Self {
        let len = (horizon.max(1) * 2).next_power_of_two() as usize;
        SlotWheel {
            cycles: vec![0; len],
            counts: vec![0; len],
            mask: len as u64 - 1,
            frontier: 0,
            horizon,
            max_granted: 0,
            offset: 0,
        }
    }

    /// Current ring size in slots (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when no reservation is live anywhere in the ring.
    ///
    /// A slot whose reservation has aged more than the replay window
    /// behind the frontier is retired-but-unreclaimed: [`reserve`]
    /// would overwrite it without a second thought, and a
    /// horizon-pruned calendar would already have dropped it. Counting
    /// such slots as live would make a long-quiescent wheel report
    /// non-empty forever, so they are judged against the
    /// frontier/horizon here exactly as the reclaim rule judges them.
    ///
    /// [`reserve`]: SlotWheel::reserve
    pub fn is_empty(&self) -> bool {
        self.counts
            .iter()
            .zip(&self.cycles)
            .all(|(&c, &held)| c == 0 || held + self.horizon < self.frontier)
    }

    /// Grants issued at exactly `cycle` (0 when the slot was never
    /// reserved or has already retired).
    pub fn occupancy(&self, cycle: u64) -> u32 {
        if cycle < self.offset {
            return 0;
        }
        let cycle = cycle - self.offset;
        let idx = (cycle & self.mask) as usize;
        if self.counts[idx] > 0 && self.cycles[idx] == cycle {
            self.counts[idx]
        } else {
            0
        }
    }

    /// Reserves one grant at the first cycle ≥ `from` with fewer than
    /// `cap` grants; returns that cycle. Equivalent to the calendar form
    /// `while map[t] >= cap { t += 1 }; map[t] += 1`, and allocation-free
    /// outside (rare) growth. Costs O(saturated run): one step per full
    /// cycle from `from` to the grant.
    pub fn reserve(&mut self, from: u64, cap: u32) -> u64 {
        debug_assert!(cap > 0, "a zero-capacity resource can never grant");
        debug_assert!(
            from >= self.offset,
            "probe at {from} predates the fast-forward epoch {}",
            self.offset
        );
        let from = from.saturating_sub(self.offset);
        self.frontier = self.frontier.max(from);
        let mut t = from;
        loop {
            let idx = (t & self.mask) as usize;
            if self.counts[idx] > 0 && self.cycles[idx] != t {
                let held = self.cycles[idx];
                if held > t || held + self.horizon >= self.frontier {
                    // The slot holds a reservation that is still inside
                    // the replay window (or in the future): reclaiming it
                    // would change an outcome a horizon-pruned calendar
                    // preserves. Widen the ring instead.
                    self.grow();
                    continue;
                }
                // Ancient reservation: the clock has passed it by more
                // than the replay window — retire it in place.
                self.counts[idx] = 0;
            }
            if self.counts[idx] < cap {
                self.counts[idx] += 1;
                self.cycles[idx] = t;
                self.max_granted = self.max_granted.max(t);
                return t + self.offset;
            }
            t += 1;
        }
    }

    /// Appends the wheel's *live* occupancy to `out` as a sorted list
    /// of `(cycle - base, grants)` pairs, so that two wheels differing
    /// only by a rigid time shift encode identically.
    ///
    /// `base` is a promise by the caller that every future probe starts
    /// at or after it, so liveness here is `held >= base` — tighter than
    /// the frontier/horizon reclaim rule. A reservation behind `base`
    /// can never collide with a probed cycle again: `reserve` either
    /// retires it in place or widens the ring around it, and both are
    /// timing-invisible. Encoding such slots would only delay periodic-
    /// state detection by a whole replay window.
    ///
    /// The frontier is excluded for the same reason: `occupancy` never
    /// reads it, and in `reserve` it only arbitrates grow-vs-retire for
    /// a stale seat — two paths with identical grant outcomes. Encoding
    /// it would keep an *idle* wheel (frozen frontier, advancing `base`)
    /// encoding differently at every boundary. The ring size is excluded
    /// too: growth re-seats every live slot without changing a grant.
    ///
    /// Every live slot's cycle lies in `[base, max_granted]`, so when
    /// that window is narrower than the ring the scan probes those
    /// cycles directly, in cycle order, instead of walking every slot —
    /// in steady state the window is the in-flight depth, not the replay
    /// horizon, which keeps per-boundary keys cheap enough for
    /// iteration-level fast-forward detection. The full-ring walk visits
    /// live slots in ring order; sorting by cycle gives both paths the
    /// same words.
    pub(crate) fn key_into(&self, out: &mut Vec<u64>, base: u64) {
        let base = base.saturating_sub(self.offset);
        if self.max_granted < base {
            out.push(0);
        } else if self.max_granted - base < self.counts.len() as u64 {
            let window = (base..=self.max_granted).map(|t| (t & self.mask) as usize);
            self.push_live(out, base, window);
        } else {
            self.push_live(out, base, 0..self.counts.len());
        }
    }

    /// Appends the live slots among ring indices `slots` (each visited at
    /// most once) as sorted `(cycle - base, grants)` pairs; `base` is
    /// wheel-local.
    fn push_live(&self, out: &mut Vec<u64>, base: u64, slots: impl Iterator<Item = usize>) {
        let live = slots.filter_map(|idx| {
            let (c, held) = (self.counts[idx], self.cycles[idx]);
            (c > 0 && held >= base).then(|| [held - base, c as u64])
        });
        crate::digest::push_sorted(out, live);
    }

    /// Shifts every reservation and the frontier forward by `delta`
    /// cycles — the clock-advance half of a fast-forward batch. Because
    /// the ring is kept in wheel-local time, the shift is one addition
    /// to the global-to-local offset: no slot moves, no allocation, and
    /// the cost is independent of the ring size (it used to be a full
    /// re-seating sweep, which dominated batch cost on wide machines
    /// with many wheels).
    pub(crate) fn advance(&mut self, delta: u64) {
        self.offset += delta;
    }

    /// Doubles the ring, re-seating every live slot (live slots have
    /// distinct low bits, so they can never collide in the wider ring).
    fn grow(&mut self) {
        let new_len = self.counts.len() * 2;
        let mut cycles = vec![0u64; new_len];
        let mut counts = vec![0u32; new_len];
        let mask = new_len as u64 - 1;
        for idx in 0..self.counts.len() {
            if self.counts[idx] > 0 {
                let seat = (self.cycles[idx] & mask) as usize;
                cycles[seat] = self.cycles[idx];
                counts[seat] = self.counts[idx];
            }
        }
        self.cycles = cycles;
        self.counts = counts;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserves_first_free_cycle_like_a_calendar() {
        let mut w = SlotWheel::new(64);
        assert_eq!(w.reserve(10, 2), 10);
        assert_eq!(w.reserve(10, 2), 10, "two grants fit at cap 2");
        assert_eq!(w.reserve(10, 2), 11, "third slides to the next cycle");
        assert_eq!(w.reserve(11, 2), 11);
        assert_eq!(w.reserve(10, 2), 12, "10 and 11 are both full");
        assert_eq!(w.occupancy(10), 2);
        assert_eq!(w.occupancy(12), 1);
    }

    #[test]
    fn earlier_cycle_reserved_after_later_processing_is_untouched() {
        // The out-of-order replay property: a request processed later but
        // issued earlier still gets the earlier free slot.
        let mut w = SlotWheel::new(64);
        assert_eq!(w.reserve(50, 1), 50);
        assert_eq!(w.reserve(10, 1), 10, "cycle 10 is still free");
        assert_eq!(w.reserve(10, 1), 11);
    }

    #[test]
    fn stale_slots_retire_as_the_clock_passes() {
        let mut w = SlotWheel::new(64);
        let len = w.len() as u64;
        assert_eq!(w.reserve(5, 1), 5);
        // Far in the future, cycle 5 + k·len aliases into slot 5; the old
        // reservation is far outside the horizon and silently retires.
        let far = 5 + len * 100;
        assert_eq!(w.reserve(far, 1), far);
        assert_eq!(w.occupancy(5), 0, "ancient reservation retired");
        assert_eq!(w.occupancy(far), 1);
        assert_eq!(w.len() as u64, len, "no growth for ancient conflicts");
    }

    #[test]
    fn live_conflicts_grow_the_ring_instead_of_clobbering() {
        // Horizon of 64 → ring of 128. Deep queueing: one request per
        // cycle-slot from the same issue cycle fills the whole ring, so
        // the next grant slides to `from + len` — which aliases onto the
        // reservation at `from`, still live (it *is* the frontier). The
        // wheel must widen, not discard.
        let mut w = SlotWheel::new(64);
        let len = w.len() as u64;
        for k in 0..len {
            assert_eq!(w.reserve(1100, 1), 1100 + k);
        }
        assert_eq!(w.reserve(1100, 1), 1100 + len, "slides past a full ring");
        assert!(w.len() as u64 > len, "ring doubled");
        for t in 1100..=1100 + len {
            assert_eq!(w.occupancy(t), 1, "reservation at {t} preserved");
        }
    }

    #[test]
    fn future_reservations_are_never_reclaimed() {
        let mut w = SlotWheel::new(64);
        let len = w.len() as u64;
        // A grant far in the future (deep queueing), then a probe at the
        // aliasing earlier cycle: the future reservation must survive.
        let future = 10 + len;
        assert_eq!(w.reserve(future, 1), future);
        assert_eq!(w.reserve(10, 1), 10);
        assert_eq!(w.occupancy(future), 1);
        assert_eq!(w.reserve(future, 1), future + 1);
    }

    #[test]
    fn is_empty_sees_through_aged_out_reservations() {
        let mut w = SlotWheel::new(64);
        assert!(w.is_empty(), "fresh wheel is empty");
        assert_eq!(w.reserve(5, 1), 5);
        assert!(!w.is_empty(), "reservation inside the window is live");
        // Age the reservation out: the frontier moves past the replay
        // window without the scan ever revisiting slot 5. Every public
        // `reserve` call leaves a fresh live slot behind it, so the
        // all-stale state only exists between the frontier bump and the
        // slot scan inside `reserve` — staged directly here, which the
        // in-file tests module can do.
        w.frontier = 5 + w.horizon + 1;
        assert!(
            w.is_empty(),
            "a reservation aged past the horizon is retired, not live"
        );
        // Reserving again makes the wheel non-empty once more.
        let f = w.frontier;
        assert_eq!(w.reserve(f, 1), f);
        assert!(!w.is_empty());
    }

    #[test]
    fn key_is_translation_invariant_and_advance_realizes_the_shift() {
        let key = |w: &SlotWheel, base: u64| {
            let mut out = Vec::new();
            w.key_into(&mut out, base);
            out
        };
        // Same reservation pattern at two different epochs…
        let mut a = SlotWheel::new(64);
        a.reserve(100, 2);
        a.reserve(100, 2);
        a.reserve(103, 2);
        let mut b = SlotWheel::new(64);
        b.reserve(1100, 2);
        b.reserve(1100, 2);
        b.reserve(1103, 2);
        // …encode identically relative to their own bases, and advancing
        // the earlier one by the gap makes it behave like the later one.
        assert_eq!(key(&a, 100), key(&b, 1100));
        assert_eq!(
            key(&a, 100),
            vec![2, 0, 2, 3, 1],
            "live count, then (offset, grants)"
        );
        assert_ne!(key(&a, 100), key(&b, 100));
        a.advance(1000);
        assert_eq!(key(&a, 1100), key(&b, 1100));
        assert_eq!(a.reserve(1103, 2), b.reserve(1103, 2));
        assert_eq!(a.reserve(1100, 2), b.reserve(1100, 2));
    }

    #[test]
    fn windowed_scan_and_full_ring_walk_give_identical_words() {
        // Random replay-skewed traffic, then every base from well before
        // the first grant to past the last: wherever `key_into` takes the
        // windowed scan, the full-ring walk must write the same words.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w = SlotWheel::new(64);
        let mut clock = 1000u64;
        for _ in 0..600 {
            clock += next() % 3;
            w.reserve(clock.saturating_sub(next() % 40), 1 + (next() % 3) as u32);
        }
        w.advance(12_345);
        let mut windowed = 0;
        for base in (w.offset + 900)..=(w.offset + w.max_granted + 2) {
            let mut fast = Vec::new();
            w.key_into(&mut fast, base);
            let local = base - w.offset;
            let mut full = Vec::new();
            w.push_live(&mut full, local, 0..w.len());
            assert_eq!(fast, full, "base {base}");
            windowed += (local <= w.max_granted && w.max_granted - local < w.len() as u64) as u32;
        }
        assert!(windowed > 50, "the windowed scan must be exercised");
    }

    #[test]
    fn advance_handles_non_ring_multiples() {
        // A delta that is not a multiple of the ring size forces the
        // re-seating path; occupancy must move with the cycles.
        let mut w = SlotWheel::new(64);
        let len = w.len() as u64;
        w.reserve(10, 4);
        w.reserve(10, 4);
        w.reserve(11, 4);
        let delta = len * 3 + 7;
        w.advance(delta);
        assert_eq!(w.occupancy(10 + delta), 2);
        assert_eq!(w.occupancy(11 + delta), 1);
        assert_eq!(w.occupancy(10), 0);
    }

    #[test]
    fn matches_calendar_reference_on_random_traffic() {
        use std::collections::BTreeMap;
        // xorshift-style mixing, no external PRNG dependency here
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Replays `froms` through a wheel and a never-pruned calendar;
        // returns the wheel for shape checks.
        let check = |horizon: u64, cap: u32, froms: &[u64]| {
            let mut wheel = SlotWheel::new(horizon);
            let mut map: BTreeMap<u64, u32> = BTreeMap::new();
            for (i, &from) in froms.iter().enumerate() {
                let got = wheel.reserve(from, cap);
                let mut t = from;
                while map.get(&t).copied().unwrap_or(0) >= cap {
                    t += 1;
                }
                *map.entry(t).or_insert(0) += 1;
                assert_eq!(got, t, "request {i}, horizon {horizon}, cap {cap}");
            }
            wheel
        };
        // A clock advancing 0–6 cycles per request, each request issued
        // up to `skew` cycles behind it (the runner's replay skew).
        let mut replay = |n: usize, skew: u64| {
            let mut clock = 100u64;
            (0..n)
                .map(|_| {
                    clock += next() % 7;
                    clock.saturating_sub(next() % skew)
                })
                .collect::<Vec<_>>()
        };

        // Interconnect geometry: bank ports, links and node ports.
        for cap in [1u32, 2, 4] {
            check(crate::REPLAY_HORIZON, cap, &replay(4000, 300));
        }
        // Cluster-bus geometry: a 512-cycle horizon at capacity 1, with
        // skew close to (but below) the horizon.
        check(512, 1, &replay(4000, 500));
        // Deep backlog: thousands of requests against one saturated
        // range. The queue outgrows the ring while every seat is still
        // live, so the wheel must grow rather than reclaim.
        let backlog: Vec<u64> = (0..2000).map(|_| 1000 + next() % 16).collect();
        let wheel = check(512, 1, &backlog);
        assert!(wheel.len() > 1024, "backlog grew the ring");
    }
}
