//! Parallel cell driver.
//!
//! Every cell of a campaign job is an independent simulation (its own
//! `System`), so cells parallelize perfectly across host threads. This
//! driver fans a list of jobs out over scoped threads, claiming work
//! through a single lock-free `AtomicUsize` fetch-add queue; each thread
//! accumulates its `(index, value)` results locally and merges them into
//! the shared output once, when it runs out of work. Per-job cost is one
//! atomic increment — no mutex is touched while jobs are running, so the
//! driver scales to many-core hosts even for sub-millisecond jobs.
//!
//! Each job runs under [`std::panic::catch_unwind`], so one diverging
//! cell (a protocol bug, a pathological parameter) never aborts its
//! hundreds of siblings: [`parallel_try_map`] completes the rest and
//! reports exactly which cells failed and why.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A job that panicked.
#[derive(Debug, Clone)]
pub struct FailedJob {
    /// Index into the input job list.
    pub index: usize,
    /// Rendered panic payload (`&str`/`String` payloads verbatim).
    pub panic: String,
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `jobs` to values in parallel, preserving order and isolating
/// panics: a panicking job is reported in the second return value while
/// every other job still completes.
///
/// `f` must be pure per job (each job builds its own simulator), which
/// every scenario in this crate satisfies.
pub fn parallel_try_map<J, R, F>(jobs: Vec<J>, f: F) -> (Vec<Option<R>>, Vec<FailedJob>)
where
    J: Send + Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let n = jobs.len();
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let failures: Mutex<Vec<FailedJob>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    // Carry the caller's ambient metrics registry and telemetry hub into
    // the workers, so the counters of the simulators the jobs construct
    // on pool threads drain into the caller's registry and their
    // time-series samples land in the caller's hub (the hub's merge is
    // order-independent, so concurrent drains from many workers still
    // produce a deterministic series).
    let metrics = hswx_engine::MetricsRegistry::ambient();
    let telemetry = hswx_engine::TelemetryHub::ambient();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _metrics_scope =
                    metrics.clone().map(hswx_engine::MetricsRegistry::set_ambient);
                let _telemetry_scope =
                    telemetry.clone().map(hswx_engine::TelemetryHub::set_ambient);
                // Claim jobs with a bare fetch-add; buffer outcomes
                // locally and take the shared locks exactly once.
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut local_failures: Vec<FailedJob> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(&jobs[i]))) {
                        Ok(r) => local.push((i, r)),
                        Err(payload) => local_failures
                            .push(FailedJob { index: i, panic: panic_message(payload) }),
                    }
                }
                if !local.is_empty() {
                    let mut out = results.lock().unwrap_or_else(|e| e.into_inner());
                    for (i, r) in local {
                        out[i] = Some(r);
                    }
                }
                if !local_failures.is_empty() {
                    failures
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .append(&mut local_failures);
                }
            });
        }
    });

    let mut failures = failures.into_inner().unwrap_or_else(|e| e.into_inner());
    failures.sort_by_key(|fj| fj.index);
    let results = results.into_inner().unwrap_or_else(|e| e.into_inner());
    (results, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_completeness() {
        let jobs: Vec<u64> = (0..100).collect();
        let (out, failed) = parallel_try_map(jobs, |&j| j * j);
        assert_eq!(out.len(), 100);
        assert!(failed.is_empty());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some((i * i) as u64));
        }
    }

    #[test]
    fn works_with_empty_and_single() {
        let (out, _) = parallel_try_map(Vec::<u32>::new(), |&j| j);
        assert!(out.is_empty());
        let (out, _) = parallel_try_map(vec![7u32], |&j| j + 1);
        assert_eq!(out, vec![Some(8)]);
    }

    #[test]
    fn runs_simulations_concurrently() {
        use hswx_haswell::{CoherenceMode, System, SystemConfig};
        use hswx_mem::{CoreId, LineAddr};
        let modes = vec![
            CoherenceMode::SourceSnoop,
            CoherenceMode::HomeSnoop,
            CoherenceMode::ClusterOnDie,
        ];
        let (lats, _) = parallel_try_map(modes, |&m| {
            let mut sys = System::new(SystemConfig::e5_2680_v3(m));
            sys.read(CoreId(0), LineAddr(0), hswx_engine::SimTime::ZERO)
                .latency_ns(hswx_engine::SimTime::ZERO)
        });
        assert_eq!(lats.len(), 3);
        assert!(lats.iter().all(|l| l.is_some_and(|l| l > 50.0)));
    }

    #[test]
    fn ambient_telemetry_hub_reaches_pool_threads() {
        use hswx_engine::{SimTime, TelemetryConfig, TelemetryHub};
        use std::sync::Arc;
        let hub = Arc::new(TelemetryHub::new(TelemetryConfig::default()));
        let _scope = TelemetryHub::set_ambient(Arc::clone(&hub));
        let jobs: Vec<u64> = (0..32).collect();
        parallel_try_map(jobs, |&j| {
            // Each worker samples into whatever hub it sees ambiently —
            // exactly what the simulator's telemetry taps do.
            let hub = TelemetryHub::ambient().expect("hub propagated to worker");
            let mut s = hub.sampler();
            s.record("test.jobs", SimTime::ZERO, 1);
            s.record("test.value", SimTime::ZERO, j);
            hub.absorb(s);
        });
        let merged = hub.collect();
        assert_eq!(merged.channel_total("test.jobs"), 32);
        assert_eq!(merged.channel_total("test.value"), (0..32).sum::<u64>());
    }

    #[test]
    fn panicking_job_does_not_abort_siblings() {
        let jobs: Vec<u32> = (0..64).collect();
        let (results, failures) = parallel_try_map(jobs, |&j| {
            if j % 10 == 3 {
                panic!("deliberate failure at {j}");
            }
            j * 2
        });
        assert_eq!(failures.len(), 7); // 3, 13, ..., 63
        assert!(failures.iter().all(|fj| fj.index % 10 == 3));
        assert!(failures[0].panic.contains("deliberate failure at 3"));
        for (i, r) in results.iter().enumerate() {
            if i % 10 == 3 {
                assert!(r.is_none());
            } else {
                assert_eq!(*r, Some(i as u32 * 2));
            }
        }
    }
}
