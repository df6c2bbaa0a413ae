//! Scoped worker-thread fan-out with deterministic aggregation.

use scal_obs::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Work-item threshold below which spawning threads costs more than it buys.
const MIN_ITEMS_PER_THREAD: usize = 8;

/// Resolves a requested thread count (`0` = auto) to the worker count used
/// when work is plentiful: the machine's available parallelism for auto,
/// the request verbatim otherwise. Snapshots record this so numbers stay
/// comparable across machines.
#[must_use]
pub fn resolved_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

/// Resolves a requested thread count against a concrete workload: like
/// [`resolved_threads`], further clamped so no thread would receive fewer
/// than a handful of items. This is the worker count campaign fan-outs
/// actually use (and report in their `campaign_start` events).
#[must_use]
pub fn effective_threads(requested: usize, items: usize) -> usize {
    resolved_threads(requested)
        .min(items / MIN_ITEMS_PER_THREAD)
        .max(1)
}

/// Runs `f(state, worker, item)` for items `0..items` across `threads`
/// scoped worker threads, each owning one `state` built by `init`, and
/// returns the results **in item order** regardless of which worker
/// produced them.
///
/// Items are claimed dynamically through a shared atomic cursor, so uneven
/// per-item cost does not idle workers. With one thread the items run
/// inline on `inline` (when given, e.g. a state already warmed by the
/// caller) with no thread machinery at all. `cancel` is checked before each
/// claim, and a worker also stops once `f` returns `None` (an item it
/// abandoned mid-way); unstarted items keep `None` slots. Items in flight on
/// other workers run to completion, so callers wanting a deterministic
/// prefix truncate at the first gap.
///
/// # Panics
///
/// Propagates panics from `init` and `f`.
pub(crate) fn run_items<S, R>(
    items: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    inline: Option<S>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, usize) -> Option<R> + Sync,
) -> Vec<Option<R>>
where
    R: Send,
{
    let mut results: Vec<Option<R>> = Vec::with_capacity(items);
    results.resize_with(items, || None);
    if threads <= 1 {
        let mut state = inline.unwrap_or_else(&init);
        for (i, slot) in results.iter_mut().enumerate() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                break;
            }
            *slot = f(&mut state, 0, i);
            if slot.is_none() {
                break;
            }
        }
        return results;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let (cursor, init, f) = (&cursor, &init, &f);
                scope.spawn(move || {
                    let mut state = init();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    while !cancel.is_some_and(CancelToken::is_cancelled) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break;
                        }
                        match f(&mut state, worker, i) {
                            Some(r) => local.push((i, r)),
                            None => break,
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("campaign worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_with_per_worker_state() {
        let out = run_items(
            100,
            4,
            None,
            None,
            || 0usize,
            |seen, _, i| {
                *seen += 1;
                Some(i * 2)
            },
        );
        let out: Vec<usize> = out.into_iter().map(Option::unwrap).collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn inline_path_uses_the_given_state() {
        let out = run_items(
            3,
            1,
            None,
            Some(10),
            || 0,
            |s, w, i| {
                assert_eq!(w, 0);
                *s += 1;
                Some(*s + i)
            },
        );
        assert_eq!(out, vec![Some(11), Some(13), Some(15)]);
    }

    #[test]
    fn auto_thread_count_small_workload_stays_inline() {
        assert_eq!(effective_threads(0, 3), 1);
        assert_eq!(effective_threads(4, 1000), 4);
        assert_eq!(effective_threads(1, 1000), 1);
    }

    #[test]
    fn cancellation_and_abandoned_items_leave_the_tail_unprocessed() {
        let token = CancelToken::new();
        token.cancel();
        let out = run_items(50, 1, Some(&token), None, || (), |(), _, i| Some(i));
        assert!(out.iter().all(Option::is_none));
        let out = run_items(50, 1, None, None, || (), |(), _, i| (i < 5).then_some(i));
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 5);
        assert!(out[5..].iter().all(Option::is_none));
    }
}
