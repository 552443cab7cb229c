//! The workspace's one worker pool: an ordered parallel map.
//!
//! [`map_indexed`] computes `f(i)` for every `i < n` on up to `threads`
//! workers and returns the results in index order, so the thread count
//! never shows in the output. Callers that need per-worker state (a BFS
//! scratch buffer, a router instance) build it with `init`, once per
//! worker.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count: `0` means every available core, and
/// 1 if that probe fails; any other value is taken as is.
pub fn threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Returns `[f(&mut s, 0), f(&mut s, 1), …, f(&mut s, n - 1)]`, computed on
/// [`threads`]`(threads)` workers clamped to `n`.
///
/// An empty map calls neither `init` nor `f`. At one worker the map runs
/// inline on the caller's thread with a single `init()`. Otherwise each worker calls `init()` once for its own state,
/// draws indices from a shared atomic counter, and keeps `(index, result)`
/// pairs that are placed into their slots after the workers finish. Every
/// worker is joined explicitly: a scope's implicit join does not wait for
/// thread-local destructors, so the telemetry span buffer a worker fills
/// would not yet have flushed.
///
/// # Panics
///
/// A panic in `init` or `f` on any worker propagates to the caller with
/// its original payload.
pub fn map_indexed<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = self::threads(threads).min(n);
    if workers == 0 {
        return Vec::new();
    }
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(&mut state, i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn output_is_in_input_order_at_any_thread_count() {
        for threads in [0, 1, 2, 3, 64] {
            for n in [0, 1, 5, 1000] {
                let out = map_indexed(n, threads, || (), |(), i| i * i);
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, want, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        for threads in [0, 1, 2, 3, 64] {
            for n in [0, 1, 5, 1000] {
                let inits = AtomicUsize::new(0);
                let out = map_indexed(
                    n,
                    threads,
                    || inits.fetch_add(1, Ordering::Relaxed),
                    |_, i| i,
                );
                assert_eq!(out.len(), n);
                let inits = inits.into_inner();
                assert!(
                    inits <= super::threads(threads).min(n),
                    "threads {threads}, n {n}: {inits} inits"
                );
            }
        }
    }

    #[test]
    fn one_thread_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        map_indexed(
            10,
            1,
            || seen.lock().unwrap().push(std::thread::current().id()),
            |(), _| seen.lock().unwrap().push(std::thread::current().id()),
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 11);
        assert!(seen.iter().all(|&t| t == caller));
    }

    #[test]
    fn zero_resolves_to_the_available_cores() {
        assert!(threads(0) >= 1);
        assert_eq!(threads(3), 3);
    }

    #[test]
    #[should_panic(expected = "index 7 failed")]
    fn worker_panic_propagates() {
        map_indexed(
            100,
            4,
            || (),
            |(), i| {
                assert!(i != 7, "index {i} failed");
                i
            },
        );
    }
}
