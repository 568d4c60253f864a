//! The level runner: executes one batch of independent tasks, inline or on
//! a `std::thread::scope` worker pool (the same striding shape as the
//! partition-coloring pool in `cextend-core`'s Phase II).

/// The default worker count for a batch of `n` tasks: the
/// `CEXTEND_SCHED_WORKERS` environment variable when set to a positive
/// integer, otherwise the machine's `available_parallelism`; either way
/// capped at `n`. This is the only reader of `CEXTEND_SCHED_WORKERS`, and
/// it belongs at the edge: front ends (the `experiments` CLI, the
/// benchmark harness) resolve a width here once and pass it down as
/// `SolverConfig::workers`; no solver pool calls it.
pub fn pool_width(n: usize) -> usize {
    let hw = std::env::var("CEXTEND_SCHED_WORKERS")
        .ok()
        .as_deref()
        .and_then(parse_worker_override)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1)
        });
    hw.min(n)
}

/// Parses a `CEXTEND_SCHED_WORKERS` value; zero, junk and empty strings
/// fall back to hardware detection (`None`).
fn parse_worker_override(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&w| w >= 1)
}

/// Runs `task` for every id in `ids` on up to `width` scoped threads,
/// returning the results in `ids` order. When `width` capped at the task
/// count is below 2 the batch runs inline, with no thread spawned. When
/// several tasks fail, the error of the *first* failing id is returned —
/// the same error a serial left-to-right run whose earlier tasks succeeded
/// would surface. The caller guarantees the tasks are independent (a
/// [`crate::Schedule`] level).
pub fn run_tasks<T, E, F>(ids: &[usize], width: usize, task: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let n_threads = width.min(ids.len());
    if n_threads < 2 {
        return ids.iter().map(|&id| task(id)).collect();
    }
    let mut slots: Vec<Option<Result<T, E>>> = Vec::new();
    slots.resize_with(ids.len(), || None);
    std::thread::scope(|scope| {
        let task = &task;
        let mut handles = Vec::new();
        for t in 0..n_threads {
            handles.push(scope.spawn(move || {
                cextend_obs::label_thread(&format!("sched-worker-{t}"));
                let mut local = Vec::new();
                let mut i = t;
                while i < ids.len() {
                    let _task_span = cextend_obs::span_dyn(|| format!("task:{}", ids[i]));
                    local.push((i, task(ids[i])));
                    i += n_threads;
                }
                // Hand buffered spans/counters to the collector before the
                // scope joins (TLS destructors can outlive the join).
                cextend_obs::flush_thread();
                local
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("scheduler worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_and_first_error_agree_across_widths() {
        let ids: Vec<usize> = (0..23).collect();
        let f = |id: usize| -> Result<usize, String> { Ok(id * 3 + 1) };
        let inline = run_tasks(&ids, 1, f).unwrap();
        assert_eq!(inline[7], 22);
        let failing = |id: usize| -> Result<usize, String> {
            if id >= 7 && id % 2 == 1 {
                Err(format!("task {id} failed"))
            } else {
                Ok(id)
            }
        };
        for width in [0, 1, 2, 4, 64] {
            assert_eq!(run_tasks(&ids, width, f).unwrap(), inline, "width {width}");
            assert_eq!(
                run_tasks(&ids, width, failing).unwrap_err(),
                "task 7 failed",
                "width {width}"
            );
        }
    }

    #[test]
    fn worker_override_parsing() {
        assert_eq!(parse_worker_override("2"), Some(2));
        assert_eq!(parse_worker_override(" 8 "), Some(8));
        assert_eq!(parse_worker_override("0"), None); // zero → autodetect
        assert_eq!(parse_worker_override(""), None);
        assert_eq!(parse_worker_override("two"), None);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let f = |id: usize| -> Result<usize, String> { Ok(id + 1) };
        assert_eq!(run_tasks(&[], 4, f).unwrap(), Vec::<usize>::new());
        assert_eq!(run_tasks(&[9], 4, f).unwrap(), vec![10]);
    }
}
