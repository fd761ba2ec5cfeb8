//! Thread-per-job fan-out for independent simulation runs.
//!
//! The simulator's `Rc<RefCell<…>>` internals are `!Send`, so a run can
//! never migrate between threads — but every (trace × protocol × seed) job
//! is fully described by plain `Send` data and *constructs* its own
//! [`netsim::Simulator`] on the worker thread that executes it. The runner
//! therefore fans jobs out across a bounded pool of OS threads
//! (`std::thread::scope`, no external dependencies) and merges results back
//! into a slot-indexed `Vec`, so output order is the input order regardless
//! of which worker finished first: [`SuiteResult`](crate::SuiteResult)
//! ordering and every derived CSV byte are identical to a serial run.
//!
//! Worker count resolution, in priority order:
//!
//! 1. an explicit request (e.g. `SuiteConfig::jobs` or `reproduce --jobs`),
//! 2. the `CESRM_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `jobs = 1` bypasses the pool entirely and runs on the calling thread —
//! bit-for-bit the historical serial path.

use std::sync::Mutex;
use std::time::Duration;

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "CESRM_JOBS";

/// Resolves the worker count: `requested` if given, else `CESRM_JOBS`, else
/// [`available_parallelism`](std::thread::available_parallelism). Requests
/// of `0` are clamped to 1.
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    requested
        .or_else(|| parse_jobs_env(std::env::var(JOBS_ENV).ok().as_deref()))
        .unwrap_or_else(default_parallelism)
        .max(1)
}

/// Parses a `CESRM_JOBS` value: empty, unset or unparsable values fall
/// through to the default; `0` is clamped to 1.
pub(crate) fn parse_jobs_env(raw: Option<&str>) -> Option<usize> {
    let trimmed = raw?.trim();
    if trimmed.is_empty() {
        return None;
    }
    trimmed.parse::<usize>().ok().map(|n| n.max(1))
}

/// The machine's available parallelism, or 1 if it cannot be determined.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `work` over every job on up to `workers` OS threads and returns the
/// results in input order (slot-indexed merge — the output is independent
/// of scheduling).
///
/// `workers` is clamped to `1..=jobs.len()`; with one worker the jobs run
/// inline on the calling thread, reproducing the serial path exactly. A
/// panicking job propagates out of the scope after the remaining workers
/// drain naturally — the queue never deadlocks on a dead worker.
pub fn run_indexed<T, R, F>(jobs: Vec<T>, workers: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = jobs.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| work(i, job))
            .collect();
    }
    // LIFO pop from the back; reversing first keeps dispatch in input
    // order, which makes per-run timing logs read naturally.
    let mut stack: Vec<(usize, T)> = jobs.into_iter().enumerate().collect();
    stack.reverse();
    let queue = Mutex::new(stack);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((i, job)) = queue.lock().unwrap().pop() else {
                    break;
                };
                let result = work(i, job);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker mutexes cannot be poisoned after a clean join")
                .expect("every job slot is filled once the scope joins")
        })
        .collect()
}

/// Wall-clock measurement of one (trace × protocol) reenactment.
#[derive(Clone, Debug)]
pub struct RunTiming {
    /// 1-based Table-1 trace number.
    pub trace: usize,
    /// Trace name, e.g. `"RFV1"`.
    pub name: &'static str,
    /// `"SRM"` or `"CESRM"`.
    pub protocol: &'static str,
    /// Wall-clock time of the run on its worker: the reenactment, plus the
    /// trace's synthesis and §4.2 inference for whichever of its two
    /// protocol runs started first (the other waits for or reuses it).
    pub wall: Duration,
}

/// Wall-clock observability for a whole suite invocation.
#[derive(Clone, Debug, Default)]
pub struct SuiteTiming {
    /// Worker threads the suite ran with.
    pub jobs: usize,
    /// End-to-end wall-clock time of the fan-out + merge.
    pub wall: Duration,
    /// Per-run timings, in result (Table-1 × protocol) order.
    pub runs: Vec<RunTiming>,
}

impl SuiteTiming {
    /// Sum of per-run wall-clock times — the serial-equivalent cost.
    pub fn cpu_total(&self) -> Duration {
        self.runs.iter().map(|r| r.wall).sum()
    }

    /// Observed speedup over a serial execution of the same runs
    /// (`cpu_total / wall`; 1.0 when nothing ran).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        (self.cpu_total().as_secs_f64() / wall).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        // Make early jobs the slowest so out-of-order completion is certain.
        let jobs: Vec<u64> = (0..32).collect();
        let out = run_indexed(jobs, 8, |i, job| {
            if i < 4 {
                std::thread::sleep(Duration::from_millis(20));
            }
            job * 2
        });
        assert_eq!(out, (0..32).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let f = |i: usize, job: u64| job.wrapping_mul(31).wrapping_add(i as u64);
        let serial = run_indexed((0..100).collect(), 1, f);
        let parallel = run_indexed((0..100).collect(), 7, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_count_is_clamped() {
        // 0 workers → serial; more workers than jobs → one thread per job.
        assert_eq!(run_indexed(vec![5, 6], 0, |_, j| j + 1), vec![6, 7]);
        assert_eq!(run_indexed(vec![5, 6], 64, |_, j| j + 1), vec![6, 7]);
        assert_eq!(run_indexed(Vec::<u8>::new(), 0, |_, j| j), Vec::<u8>::new());
    }

    #[test]
    fn panic_in_one_job_propagates_without_deadlock() {
        let caught = std::panic::catch_unwind(|| {
            run_indexed((0..16).collect::<Vec<u64>>(), 4, |_, job| {
                if job == 9 {
                    panic!("job 9 exploded");
                }
                job
            })
        });
        assert!(caught.is_err(), "the job panic must surface to the caller");
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(parse_jobs_env(None), None);
        assert_eq!(parse_jobs_env(Some("")), None);
        assert_eq!(parse_jobs_env(Some("  ")), None);
        assert_eq!(parse_jobs_env(Some("8")), Some(8));
        assert_eq!(parse_jobs_env(Some(" 3 ")), Some(3));
        assert_eq!(parse_jobs_env(Some("0")), Some(1), "0 clamps to 1");
        assert_eq!(parse_jobs_env(Some("lots")), None, "garbage falls back");
        assert_eq!(parse_jobs_env(Some("-2")), None);
    }

    #[test]
    fn resolve_prefers_explicit_request() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn timing_aggregates() {
        let t = SuiteTiming {
            jobs: 4,
            wall: Duration::from_secs(2),
            runs: vec![
                RunTiming {
                    trace: 1,
                    name: "A",
                    protocol: "SRM",
                    wall: Duration::from_secs(3),
                },
                RunTiming {
                    trace: 1,
                    name: "A",
                    protocol: "CESRM",
                    wall: Duration::from_secs(5),
                },
            ],
        };
        assert_eq!(t.cpu_total(), Duration::from_secs(8));
        assert!((t.speedup() - 4.0).abs() < 1e-9);
        assert_eq!(SuiteTiming::default().speedup(), 1.0);
    }
}
