//! Offline stand-in for `rayon` (see `crates/compat/README.md`).
//!
//! Supports the one pattern this workspace uses:
//!
//! ```
//! use rayon::prelude::*;
//!
//! let squares: Vec<u64> = (0u64..64).collect::<Vec<_>>()
//!     .into_par_iter()
//!     .map(|x| x * x)
//!     .collect();
//! assert_eq!(squares[7], 49);
//! ```
//!
//! Work is distributed over `std::thread::available_parallelism` threads
//! with a shared atomic index; results always come back in input order,
//! so parallel execution is observationally identical to serial. There
//! is no `scope`: code that needs long-lived worker threads uses
//! `std::thread::scope` directly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The traits you `use rayon::prelude::*` for.
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// Conversion into a parallel iterator (rayon's entry-point trait).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// A pending parallel iteration over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps each item through `f` (runs when `collect` is called).
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator, ready to collect.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> ParMap<T, F> {
    /// Runs the map on a scoped thread pool and collects the results in
    /// input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        C: From<Vec<R>>,
    {
        C::from(parallel_map(self.items, &self.f))
    }
}

fn parallel_map<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each slot is taken once");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("each slot was filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn preserves_input_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = input.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let _: Vec<()> = (0..64)
            .collect::<Vec<i32>>()
            .into_par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
            .collect();
        // With >1 hardware threads this should engage >1 workers; with 1 it
        // degrades to serial, which is also correct.
        assert!(!seen.lock().unwrap().is_empty());
    }
}
