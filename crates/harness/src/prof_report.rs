//! Machine-readable self-profiles: the `cesrm-prof/2` document.
//!
//! [`prof_json`] renders one profiled run (suite or scale mode) as a
//! schema-stable JSON document, [`prof_folded`] as flamegraph-compatible
//! folded stacks. The same invariants as the `cesrm-bench/2` writer
//! ([`crate::bench_report`]) apply:
//!
//! - **Member order is fixed** (the `obs::JsonValue` object model is
//!   ordered, phases appear in [`Phase::ALL`] order), so equal runs
//!   produce byte-equal documents.
//! - **Volatile fields are enumerable**: exactly the members named in
//!   [`PROF_VOLATILE_FIELDS`] are wall-clock readings or derived from
//!   them. [`strip_prof_volatile`] nulls them, and two profiled runs of
//!   the same configuration agree byte-for-byte on the stripped form at
//!   any `--jobs` setting (per-phase call counts, timed-sample counts and
//!   engine telemetry are pure functions of the simulation).
//! - For sharded scale runs, the stripped form is deterministic for a
//!   *fixed shard count*; per-queue figures (bucket high-water, cursor
//!   skips) legitimately change when the event stream is partitioned
//!   differently. `docs/PROFILING.md` discusses reading those.

use obs::{JsonValue, Phase, ProfSnapshot};

use crate::scale::ShardAccounting;
use crate::suite::RunProf;

/// Version tag every profile document carries; bump on breaking schema
/// changes.
pub const PROF_SCHEMA: &str = "cesrm-prof/2";

/// Member names that hold wall-clock readings (or values derived from
/// them) and legitimately differ between two runs of the same
/// configuration. [`strip_prof_volatile`] nulls these wherever they
/// appear.
pub const PROF_VOLATILE_FIELDS: &[&str] = &[
    "wall_ns",
    "attributed_pct",
    "sampled_ns",
    "est_ns",
    "self_ns",
    "busy_ns",
    "barrier_ns",
    "imbalance_ratio",
];

fn engine_json(e: &netsim::EngineTelemetry) -> JsonValue {
    JsonValue::obj(vec![
        (
            "queue",
            JsonValue::obj(vec![
                ("pushes", JsonValue::uint(e.queue.pushes)),
                ("pops", JsonValue::uint(e.queue.pops)),
                ("far_pushes", JsonValue::uint(e.queue.far_pushes)),
                ("promotions", JsonValue::uint(e.queue.promotions)),
                ("max_bucket_len", JsonValue::uint(e.queue.max_bucket_len)),
                ("advances", JsonValue::uint(e.queue.advances)),
                ("skip_ticks", JsonValue::uint(e.queue.skip_ticks)),
                ("max_skip_ticks", JsonValue::uint(e.queue.max_skip_ticks)),
            ]),
        ),
        (
            "arena",
            JsonValue::obj(vec![
                ("allocs", JsonValue::uint(e.arena.allocs)),
                ("recycled", JsonValue::uint(e.arena.recycled)),
                ("high_water", JsonValue::uint(e.arena.high_water)),
            ]),
        ),
        ("transmits", JsonValue::uint(e.transmits)),
        ("deliveries", JsonValue::uint(e.deliveries)),
        ("fan_outs", JsonValue::uint(e.fan_outs)),
        ("events", JsonValue::uint(e.events)),
    ])
}

fn phases_json(snapshot: &ProfSnapshot) -> JsonValue {
    JsonValue::Arr(
        Phase::ALL
            .iter()
            .map(|&phase| {
                let t = snapshot.phase(phase);
                JsonValue::obj(vec![
                    ("phase", JsonValue::Str(phase.name().to_string())),
                    ("stack", JsonValue::Str(phase.stack())),
                    ("calls", JsonValue::uint(t.calls)),
                    ("timed", JsonValue::uint(t.timed)),
                    ("sampled_ns", JsonValue::uint(t.nanos)),
                    ("est_ns", JsonValue::uint(snapshot.estimated_nanos(phase))),
                    ("self_ns", JsonValue::uint(snapshot.self_nanos(phase))),
                ])
            })
            .collect(),
    )
}

/// Renders one profiled run as a pretty-printed `cesrm-prof/2` document
/// (trailing newline included); see [`prof_doc`] for the arguments.
pub fn prof_json(
    snapshot: &ProfSnapshot,
    wall_ns: Option<u64>,
    engine: Option<&netsim::EngineTelemetry>,
    shards: &[ShardAccounting],
) -> String {
    let mut text = prof_doc(snapshot, wall_ns, engine, shards).to_string_pretty();
    text.push('\n');
    text
}

/// One profiled run as a `cesrm-prof/2` document. `wall_ns` is the
/// whole-run wall-clock denominator of the attribution figure (`None` when
/// untimed), `engine` the merged engine telemetry, `shards` the per-shard
/// accounting of a scale run (empty for suite runs — the member is then an
/// empty array, and `imbalance_ratio` null below two shards).
pub fn prof_doc(
    snapshot: &ProfSnapshot,
    wall_ns: Option<u64>,
    engine: Option<&netsim::EngineTelemetry>,
    shards: &[ShardAccounting],
) -> JsonValue {
    let shards_json = JsonValue::Arr(
        shards
            .iter()
            .map(|a| {
                JsonValue::obj(vec![
                    ("shard", JsonValue::uint(u64::from(a.shard))),
                    ("epochs", JsonValue::uint(a.epochs)),
                    ("busy_ns", JsonValue::uint(a.busy_ns)),
                    ("barrier_ns", JsonValue::uint(a.barrier_ns)),
                    ("packets_sent", JsonValue::uint(a.packets_sent)),
                    ("packets_received", JsonValue::uint(a.packets_received)),
                ])
            })
            .collect(),
    );
    let imbalance = imbalance_ratio(shards);
    JsonValue::obj(vec![
        ("schema", JsonValue::Str(PROF_SCHEMA.to_string())),
        ("stride", JsonValue::uint(snapshot.stride)),
        ("events", JsonValue::uint(snapshot.events)),
        ("wall_ns", wall_ns.map_or(JsonValue::Null, JsonValue::uint)),
        (
            "attributed_pct",
            wall_ns.map_or(JsonValue::Null, |w| {
                JsonValue::Num(snapshot.attributed_pct(w))
            }),
        ),
        ("phases", phases_json(snapshot)),
        ("engine", engine.map_or(JsonValue::Null, engine_json)),
        ("shards", shards_json),
        (
            "imbalance_ratio",
            imbalance.map_or(JsonValue::Null, JsonValue::Num),
        ),
    ])
}

/// The busiest shard's busy time over the mean, `None` for fewer than two
/// timed shards (mirrors [`crate::ScaleResult::imbalance_ratio`], which
/// reports `1.0` in the degenerate cases instead).
fn imbalance_ratio(shards: &[ShardAccounting]) -> Option<f64> {
    let total: u64 = shards.iter().map(|s| s.busy_ns).sum();
    if shards.len() < 2 || total == 0 {
        return None;
    }
    let max = shards.iter().map(|s| s.busy_ns).max().unwrap_or(0);
    Some(max as f64 * shards.len() as f64 / total as f64)
}

/// Folded-stack (flamegraph-compatible) text of a profile snapshot: one
/// `stack self-nanos` line per phase with calls, in fixed phase order.
pub fn prof_folded(snapshot: &ProfSnapshot) -> String {
    snapshot.folded()
}

/// Merges the per-run profiles of a profiled suite run into the inputs
/// [`prof_json`] wants: the slot-order-folded snapshot, the summed run
/// wall-clock and the merged engine telemetry. Returns `None` when the
/// suite ran without [`crate::SuiteConfig::profile`].
pub fn merge_suite_profs(
    profs: &[RunProf],
) -> Option<(ProfSnapshot, u64, netsim::EngineTelemetry)> {
    let first = profs.first()?;
    let mut snapshot = first.snapshot.clone();
    let mut engine = first.engine;
    let mut wall_ns = first.wall.as_nanos();
    for p in &profs[1..] {
        snapshot.merge(&p.snapshot);
        engine.merge(&p.engine);
        wall_ns = wall_ns.saturating_add(p.wall.as_nanos());
    }
    Some((snapshot, u64::try_from(wall_ns).unwrap_or(u64::MAX), engine))
}

/// Nulls every [`PROF_VOLATILE_FIELDS`] member anywhere in `json` and
/// returns the compact serialization: two profiled runs of the same
/// configuration agree byte-for-byte on this form at any worker count
/// (and, for scale runs, at a fixed shard count).
pub fn strip_prof_volatile(json: &str) -> Result<String, String> {
    let mut doc = JsonValue::parse(json)?;
    doc.scrub(PROF_VOLATILE_FIELDS);
    Ok(doc.to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteConfig;

    fn profiled_suite() -> crate::SuiteResult {
        let mut cfg = SuiteConfig::quick(0.01).with_profile();
        cfg.traces = Some(vec![4]);
        crate::run_suite(&cfg)
    }

    #[test]
    fn suite_profile_produces_schema_stable_document() {
        let result = profiled_suite();
        assert_eq!(result.profs.len(), 2, "SRM and CESRM runs");
        let (snapshot, wall_ns, engine) = merge_suite_profs(&result.profs).unwrap();
        let text = prof_json(&snapshot, Some(wall_ns), Some(&engine), &[]);
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(PROF_SCHEMA));
        assert_eq!(doc.get("stride").unwrap().as_u64(), Some(256));
        assert!(doc.get("events").unwrap().as_u64().unwrap() > 0);
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases.len(), obs::PHASE_COUNT, "all phases always present");
        // Engine-derived call totals flow into the per-phase tallies.
        let by_name = |n: &str| {
            phases
                .iter()
                .find(|p| p.get("phase").unwrap().as_str() == Some(n))
                .unwrap()
        };
        let pops = by_name("queue_pop").get("calls").unwrap().as_u64().unwrap();
        assert!(pops > 0);
        let eng = doc.get("engine").unwrap();
        assert_eq!(
            eng.get("queue").unwrap().get("pops").unwrap().as_u64(),
            Some(pops)
        );
        assert!(
            eng.get("arena")
                .unwrap()
                .get("allocs")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        // Whole-run attribution: the three exact root spans cover nearly
        // all of the measured wall-clock.
        let pct = doc.get("attributed_pct").unwrap().as_f64().unwrap();
        assert!(pct >= 90.0, "only {pct:.1}% of wall-clock attributed");
        assert!(pct <= 110.0, "attribution overshot: {pct:.1}%");
        // Unsharded: empty shard array, null imbalance.
        assert!(doc.get("shards").unwrap().as_arr().unwrap().is_empty());
        assert_eq!(doc.get("imbalance_ratio"), Some(&JsonValue::Null));
    }

    #[test]
    fn folded_stacks_cover_the_phase_tree() {
        let result = profiled_suite();
        let (snapshot, _, _) = merge_suite_profs(&result.profs).unwrap();
        let folded = prof_folded(&snapshot);
        assert!(folded.contains("run;deliver;srm_on_packet "));
        assert!(folded.contains("run;fan_out;transmit "));
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            value.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn stripped_profiles_are_identical_across_worker_counts() {
        let mut cfg = SuiteConfig::quick(0.01).with_profile();
        cfg.traces = Some(vec![4]);
        let serial = crate::run_suite(&cfg.clone().with_jobs(1));
        let parallel = crate::run_suite(&cfg.with_jobs(4));
        let render = |r: &crate::SuiteResult| {
            let (snapshot, wall_ns, engine) = merge_suite_profs(&r.profs).unwrap();
            prof_json(&snapshot, Some(wall_ns), Some(&engine), &[])
        };
        let a = strip_prof_volatile(&render(&serial)).unwrap();
        let b = strip_prof_volatile(&render(&parallel)).unwrap();
        assert_eq!(a, b);
        assert!(a.contains(r#""wall_ns":null"#));
        assert!(a.contains(r#""sampled_ns":null"#));
        assert!(!a.contains(r#""calls":null"#));
    }

    #[test]
    fn profiling_never_perturbs_measurements() {
        let mut plain = SuiteConfig::quick(0.01);
        plain.traces = Some(vec![4]);
        let profiled = plain.clone().with_profile();
        let a = crate::run_suite(&plain);
        let b = crate::run_suite(&profiled);
        assert_eq!(format!("{:?}", a.pairs), format!("{:?}", b.pairs));
    }

    #[test]
    fn sharded_scale_profile_reports_shards_and_imbalance() {
        let cfg = crate::ScaleConfig {
            shards: 4,
            packets: 8,
            profile: true,
            ..crate::ScaleConfig::rung(100)
        };
        let r = crate::run_scale(&cfg);
        let snapshot = r.prof.as_ref().expect("profiled run has a snapshot");
        let busy: u64 = r.shard_accounting.iter().map(|a| a.busy_ns).sum();
        let text = prof_json(snapshot, Some(busy), r.engine.as_ref(), &r.shard_accounting);
        let doc = JsonValue::parse(&text).unwrap();
        let shards = doc.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 4);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.get("shard").unwrap().as_u64(), Some(i as u64));
            assert_eq!(s.get("epochs").unwrap().as_u64(), Some(r.epochs));
            assert!(s.get("busy_ns").unwrap().as_u64().unwrap() > 0);
        }
        assert!(doc.get("imbalance_ratio").unwrap().as_f64().unwrap() >= 1.0);
        // The profiled sharded run still matches the unprofiled one.
        let plain = crate::run_scale(&crate::ScaleConfig {
            profile: false,
            ..cfg
        });
        assert_eq!(plain.csv_row(), r.csv_row());
    }
}
