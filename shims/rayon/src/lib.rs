//! Vendored stand-in for `rayon` (the registry is unreachable in this
//! build environment), implementing the subset the workspace uses on top
//! of `std::thread::scope`:
//!
//! * `slice.par_iter().map(f).collect()` (also `Result` collection via
//!   `FromIterator`),
//! * [`current_num_threads`].
//!
//! **Determinism:** `collect` is *order-preserving* — its output is
//! exactly what the sequential `iter()` pipeline would produce, because
//! each worker owns a contiguous chunk and chunk results are
//! concatenated in index order. The query engine relies on this to keep
//! parallel and sequential evaluation bit-identical.
//!
//! Like `rayon`, it fans out whatever it is given; the caller decides
//! whether the work is worth it. There is no pool: every call spawns
//! its workers. Set `GISOLAP_THREADS` to cap or disable (`1`) worker
//! threads.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;

/// Number of worker threads parallel adapters will use, honouring the
/// `GISOLAP_THREADS` environment variable (mirrors rayon's
/// `RAYON_NUM_THREADS`) and falling back to the machine's available
/// parallelism.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("GISOLAP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Order-preserving parallel map over a slice. Returns exactly
/// `items.iter().map(f).collect()`.
fn par_map_slice<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("rayon-shim worker panicked"));
        }
    });
    out
}

/// A pending parallel iterator over a slice. Created by
/// [`IntoParallelRefIterator::par_iter`].
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each item through `f`.
    pub fn map<R, F>(self, f: F) -> Map<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        Map {
            items: self.items,
            f,
        }
    }
}

/// Lazy `map` adapter.
pub struct Map<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> Map<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Executes the pipeline and collects in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        par_map_slice(self.items, self.f).into_iter().collect()
    }
}

/// `par_iter()` entry point for slice-backed collections.
pub trait IntoParallelRefIterator<'a> {
    /// Item yielded by the parallel iterator.
    type Item: 'a;
    /// Starts a parallel pipeline borrowing from `self`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Glob-import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_matches_sequential_order() {
        let v: Vec<i64> = (0..1000).collect();
        let par: Vec<i64> = v.par_iter().map(|x| x * 3).collect();
        let seq: Vec<i64> = v.iter().map(|x| x * 3).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn collect_into_result_short_circuits_like_sequential() {
        let v: Vec<i32> = (0..200).collect();
        let ok: Result<Vec<i32>, String> = v.par_iter().map(|&x| Ok(x)).collect();
        assert_eq!(ok.unwrap().len(), 200);
        let err: Result<Vec<i32>, String> = v
            .par_iter()
            .map(|&x| {
                if x == 150 {
                    Err("boom".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn short_input_keeps_order() {
        let v = vec![1, 2, 3];
        let out: Vec<i32> = v.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }
}
