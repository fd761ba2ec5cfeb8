//! Experiment harness reproducing the evaluation of the CESRM paper
//! (Livadas & Keidar, DSN 2004, §4).
//!
//! The pipeline per trace follows §4.2–§4.3 exactly:
//!
//! 1. Synthesize the trace (Table 1 shape and loss counts — the original
//!    Yajnik et al. MBone data is not retrievable; see `DESIGN.md` §2).
//! 2. Estimate per-link loss rates from the observed per-receiver loss
//!    sequences ([`lossmap::yajnik_rates`]).
//! 3. Attribute every lossy packet to its most probable link combination
//!    ([`lossmap::infer_link_drops`]) — the *link trace representation*.
//! 4. Reenact the transmission in the [`netsim`] simulator, injecting
//!    losses per the link trace representation, once under SRM and once
//!    under CESRM (most-recent-loss policy, `REORDER-DELAY = 0`,
//!    lossless recovery by default).
//! 5. Aggregate per-receiver recovery latencies, packet counts and
//!    link-crossing overhead into the series of Fig. 1–5 and Table 1.
//!
//! [`run_suite`] drives all 14 traces, fanning the 28 (trace × protocol)
//! reenactments across a bounded worker pool ([`runner`]) — every run is an
//! independent simulation, so the merge back into Table-1 order is
//! deterministic and the results are byte-identical at any worker count.
//! [`SuiteResult`] renders each table and figure as paper-style text. The
//! `reproduce` binary ties it together:
//!
//! ```text
//! cargo run --release -p harness --bin reproduce -- --scale 0.1 --jobs 8 --timings
//! ```
//!
//! `--trace FILE` additionally captures every run's structured recovery
//! events (the `obs` crate; [`run_trace_with`], [`SuiteConfig`]'s
//! `capture_events`) as JSONL and prints the provenance coverage plus the
//! slowest recoveries ([`tracing`]); schema in `docs/TRACING.md`.
//!
//! `--health` runs every reenactment under the online invariant monitors
//! (the `obs::monitor` module; [`SuiteConfig`]'s `monitor`), prints the
//! verdict ([`health_text`]) and exits non-zero on any invariant violation.
//!
//! `--report FILE` writes the one machine-readable run report
//! ([`report`], schema `cesrm-run/2` in `docs/METRICS.md`): workload,
//! totals, counters and per-run rows, plus the `--profile` engine
//! telemetry and the `--health` verdict when those ran.
//!
//! Beyond the paper's 12-receiver traces, the [`scale`] module runs the
//! same protocols on 10³–10⁶-receiver trees (`reproduce scale`):
//! [`ScaleConfig`] describes a rung, [`run_scale`] executes it —
//! optionally sharded across worker threads with byte-identical output at
//! any shard count ([`build_assignment`] partitions the root subtrees) —
//! and [`ScaleResult`] carries recovery, traffic, footprint and (on
//! unsharded rungs) invariant-monitor outcomes. Model and measured
//! footprints: `docs/SCALING.md`.

mod csv;
pub mod digest;
mod experiment;
mod health;
mod observe;
mod render;
pub mod report;
pub mod runner;
pub mod scale;
mod suite;
mod sweep;
pub mod tracing;

pub use digest::{
    aligned_event_diff, diff_trails, localize, scale_digest_json, suite_digest_json, DiffOutcome,
    Divergence, ReplaySpec, WindowSink, DIGEST_SCHEMA,
};
pub use experiment::{
    run_trace, run_trace_with, ExperimentConfig, Protocol, RecoverySample, RunMetrics,
};
pub use health::health_text;
pub use observe::run_snapshot;
pub use report::{
    scale_report, strip_volatile, suite_report, utc_date_stamp, Overhead, RungOutcome, RUN_SCHEMA,
    VOLATILE_FIELDS,
};
pub use runner::{default_parallelism, resolve_jobs, run_indexed, RunTiming, SuiteTiming};
pub use scale::{
    build_assignment, default_losses, run_scale, scale_cesrm_config, scale_protocol,
    scale_srm_params, ScaleConfig, ScaleResult, ShardAccounting,
};
pub use suite::{
    run_suite, run_suites, RunDigest, RunEventLog, RunHealth, RunProf, RunProfile, SuiteConfig,
    SuiteResult, TracePair,
};
pub use sweep::{seed_sweep, Stat, SweepSummary};
pub use tracing::{coverage, slowest_text, write_jsonl, TraceCoverage, TraceFilter};
