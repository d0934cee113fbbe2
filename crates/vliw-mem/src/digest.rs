//! Shared encodings for the fast-forward state keys (DESIGN.md §14).
//!
//! Every model's [`MemoryModel::state_key`](crate::MemoryModel::state_key)
//! writes its arbitration and buffer state as a word list, with
//! clock-bearing fields expressed relative to the caller's `base_cycle`
//! so that two machine states that differ only by a rigid time
//! translation encode identically. The encoding is exact, not hashed:
//! every container writes its length (or live count) before its
//! elements, so the list is self-delimiting and two equal keys mean two
//! equal states. The helpers here encode the two kinds of timestamp the
//! containers hold and the containers whose storage order is not state.

/// Key encoding of one LRU timestamp at fast-forward boundary `base`:
/// entry `i`'s rank in the container's `(last_use, index)` order, with
/// bit 0 flagging `last_use == base`.
///
/// At a boundary every recorded `last_use` is ≤ `base` and every future
/// touch stamps a cycle ≥ `base`, so the absolute values are
/// unobservable: victim/MRU selection only ever *compares* timestamps —
/// against each other (ties broken by vector index, exactly the
/// `(last_use, index)` order this rank encodes) or against a future
/// stamp, where the one distinguishable case is `last_use == base`
/// meeting a touch at exactly `base` (the flag). Encoding raw offsets
/// instead would keep long-idle entries' offsets sliding at every
/// boundary and block recurrence for any workload with warm, untouched
/// residents.
pub(crate) fn lru_rank_by<T>(items: &[T], i: usize, base: u64, lu: impl Fn(&T) -> u64) -> u64 {
    let me = (lu(&items[i]), i);
    let rank = items
        .iter()
        .enumerate()
        .filter(|&(j, e)| (lu(e), j) < me)
        .count() as u64;
    (rank << 1) | (lu(&items[i]) == base) as u64
}

/// Key encoding of a future-event timestamp at boundary `base`: the
/// offset while the event is still ahead of every future probe, a
/// constant 0 once it is dead (`ready_at <= base` — such a timestamp
/// only ever meets `max(cycle)` / `min(new)` comparisons against cycles
/// ≥ `base`, whose outcome no longer depends on its value).
pub(crate) fn live_ready(ready_at: u64, base: u64) -> u64 {
    ready_at.saturating_sub(base)
}

/// Appends `items` to `out` as a count followed by the items' words in
/// ascending record order — the exact encoding of a container whose
/// storage order decides nothing (wheel slots, MSHR flight windows).
/// Sorts in place, so it allocates nothing beyond `out`'s growth.
pub(crate) fn push_sorted<const N: usize>(
    out: &mut Vec<u64>,
    items: impl IntoIterator<Item = [u64; N]>,
) {
    let at = out.len();
    out.push(0);
    for item in items {
        out.extend(item);
    }
    let (records, rest) = out[at + 1..].as_chunks_mut::<N>();
    debug_assert!(rest.is_empty());
    records.sort_unstable();
    out[at] = ((out.len() - at - 1) / N) as u64;
}

/// Cache-line payload states that know how to contribute to a state
/// key. Implemented for `()` (the plain unified/interleaved tags) and
/// the MultiVLIW MSI state.
pub(crate) trait KeyState {
    /// A stable encoding of the state, distinct per variant.
    fn key_bits(&self) -> u64;
}

impl KeyState for () {
    fn key_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_lists_are_order_free_and_self_delimiting() {
        // Appends after whatever `out` already holds, count first.
        let key = |items: Vec<[u64; 2]>| {
            let mut out = vec![9];
            push_sorted(&mut out, items);
            out
        };
        assert_eq!(key(vec![[3, 1], [1, 2]]), key(vec![[1, 2], [3, 1]]));
        assert_eq!(key(vec![[3, 1], [1, 2]]), vec![9, 2, 1, 2, 3, 1]);
        assert_eq!(key(vec![]), vec![9, 0]);
    }

    #[test]
    fn ranks_follow_last_use_then_index() {
        let lu = [5u64, 1, 5];
        let rank = |i| lru_rank_by(&lu, i, 5, |&x| x);
        assert_eq!([rank(0), rank(1), rank(2)], [(1 << 1) | 1, 0, (2 << 1) | 1]);
    }
}
