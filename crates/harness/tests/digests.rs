//! The divergence-triage contract (`docs/DEBUGGING.md`): the
//! `cesrm-digest/3` trail is byte-identical at any parallelism, when two
//! trails differ the merge-join pinpoints the exact (window, node) leaf of
//! the first divergent event, and a replay of that leaf captures exactly
//! the records the original run emitted there.

use harness::{
    diff_trails, run_scale, run_suite, scale_digest_json, suite_digest_json, DiffOutcome,
    ReplaySpec, ScaleConfig, SuiteConfig,
};
use proptest::prelude::*;

fn digest_config(seed: u64) -> SuiteConfig {
    let mut cfg = SuiteConfig::quick(0.01);
    cfg.traces = Some(vec![4, 13]);
    cfg.seed = seed;
    cfg.digest = true;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The rendered trail document — not just the in-memory snapshots —
    /// is byte-identical at any `--jobs` setting, for arbitrary seeds.
    /// This is the property the determinism CI job relies on when it
    /// `cmp`s two trails.
    #[test]
    fn suite_trail_is_byte_identical_at_any_jobs(
        seed in 1u64..1_000_000,
        jobs in 2usize..5,
    ) {
        let cfg_serial = digest_config(seed).with_jobs(1);
        let cfg_parallel = digest_config(seed).with_jobs(jobs);
        let trail_serial = suite_digest_json(&cfg_serial, &run_suite(&cfg_serial));
        let trail_parallel = suite_digest_json(&cfg_parallel, &run_suite(&cfg_parallel));
        prop_assert_eq!(
            trail_serial,
            trail_parallel,
            "digest trail diverged between jobs=1 and jobs={}",
            jobs
        );
    }
}

/// Renders the scale trail of one rung.
fn rung_trail(cfg: &ScaleConfig) -> String {
    let snapshot = run_scale(cfg).digest.expect("digest requested");
    scale_digest_json("cesrm", cfg.seed, cfg.packets, &[(cfg, &snapshot)])
}

/// The scale-mode trail is byte-identical at shard counts 1, 2 and 3 —
/// the window width is capped by the sharding lookahead, a pure function
/// of the topology, and shard snapshots merge commutatively.
#[test]
fn scale_trail_is_byte_identical_at_any_shard_count() {
    let rung = |shards: u32| {
        let mut cfg = ScaleConfig::rung(120);
        cfg.shards = shards;
        cfg.packets = 8;
        cfg.digest = true;
        rung_trail(&cfg)
    };
    let unsharded = rung(1);
    assert_eq!(unsharded, rung(2), "trail diverged between 1 and 2 shards");
    assert_eq!(unsharded, rung(3), "trail diverged between 1 and 3 shards");
    assert!(unsharded.contains("\"leaves\""), "trail carries its leaves");
}

/// Flipping exactly one event in a real run's digested stream is
/// localized to that event's exact (window, node) leaf — the perturbation
/// oracle for the merge-join.
#[test]
fn one_flipped_event_is_pinpointed_to_its_exact_window() {
    let mut cfg = digest_config(20040628);
    cfg.traces = Some(vec![4]);
    cfg.capture_events = true;
    let mut result = run_suite(&cfg);
    let baseline = suite_digest_json(&cfg, &result);

    // The digest recorder observed exactly the records the capture sink
    // kept, so rebuilding a recorder over the captured stream reproduces
    // the run's snapshot bit for bit.
    let records: Vec<obs::Record> = result.events[0].records.iter().collect();
    assert!(!records.is_empty());
    let rebuild = |records: &[obs::Record]| {
        let mut recorder = obs::DigestRecorder::default();
        for r in records {
            recorder.observe(r);
        }
        recorder.snapshot()
    };
    assert_eq!(
        rebuild(&records),
        result.digests[0].snapshot,
        "rebuilt snapshot must match the run's own digest"
    );

    // Flip one mid-run event: same instant, same node, different payload.
    let mut flipped = records;
    let victim = flipped.len() / 2;
    let t_ns = flipped[victim].t_ns;
    let node = flipped[victim].event.node();
    flipped[victim].event = obs::Event::SpuriousLoss { node, seq: 999_999 };
    result.digests[0].snapshot = rebuild(&flipped);
    let perturbed = suite_digest_json(&cfg, &result);
    assert_ne!(baseline, perturbed);

    let parse = |text: &str| obs::JsonValue::parse(text).expect("trails are well-formed JSON");
    let div = match diff_trails(&parse(&baseline), &parse(&perturbed)) {
        Ok(DiffOutcome::Diverged(div)) => div,
        other => panic!("expected a divergence, got {other:?}"),
    };
    assert_eq!(div.leaf.window, t_ns / obs::DEFAULT_WINDOW_NS, "window");
    assert_eq!(div.leaf.node, node, "node");
    let (lo, hi) = div.bounds_ns();
    assert!(lo <= t_ns && t_ns < hi, "window contains the flipped event");
    assert!(
        matches!(div.replay_b, ReplaySpec::Suite { trace: 4, .. }),
        "both sides carry a replayable configuration"
    );
}

/// Replays the leaf of the middle record of every run of `cfg` and
/// asserts the replay keeps exactly the records a full capture run emitted
/// at that (node, window).
fn assert_replays_capture_their_runs_window(mut cfg: SuiteConfig) {
    cfg.traces = Some(vec![2, 4]);
    cfg.capture_events = true;
    let result = run_suite(&cfg);
    for run in &result.events {
        let records: Vec<obs::Record> = run.records.iter().collect();
        let pick = records[records.len() / 2];
        let (node, window) = (pick.event.node(), pick.t_ns / obs::DEFAULT_WINDOW_NS);
        let (lo, hi) = (
            window * obs::DEFAULT_WINDOW_NS,
            (window + 1) * obs::DEFAULT_WINDOW_NS,
        );
        let want: Vec<obs::Record> = records
            .iter()
            .filter(|r| r.event.node() == node && (lo..hi).contains(&r.t_ns))
            .copied()
            .collect();
        let replay = ReplaySpec::Suite {
            scale: cfg.scale,
            seed: cfg.seed,
            trace: run.trace,
            protocol: if run.protocol == "SRM" {
                harness::Protocol::Srm
            } else {
                harness::Protocol::Cesrm(cfg.cesrm)
            },
            experiment: cfg.experiment,
        };
        assert!(!want.is_empty());
        assert_eq!(
            replay.replay_window(node, lo, hi),
            want,
            "trace {} / {}: node {node}, window {window}",
            run.trace,
            run.protocol
        );
    }
}

/// A suite replay reenacts one run, capture pinned to one leaf, and keeps
/// exactly the records a full capture run emitted at that (node, window):
/// the replay `reproduce diff` prints is the run the trail was made from.
#[test]
fn a_suite_replay_captures_exactly_the_runs_window() {
    assert_replays_capture_their_runs_window(SuiteConfig::quick(0.02));
}

/// The same for a `--lossy-recovery` run, whose recovery traffic draws
/// its drops from the senders' streams: the replay carries the run's own
/// settings, so it redraws exactly the run's drops.
#[test]
fn a_lossy_recovery_replay_captures_exactly_the_runs_window() {
    let mut cfg = SuiteConfig::quick(0.02);
    cfg.experiment.lossy_recovery = true;
    assert_replays_capture_their_runs_window(cfg);
}

/// Two trails of runs that differ only in `--lossy-recovery` diverge, and
/// each side's replay reenacts its own run: the replayed windows differ.
#[test]
fn a_plain_and_a_lossy_recovery_trail_replay_different_events() {
    let trail = |lossy: bool| {
        let mut cfg = SuiteConfig::quick(0.02).with_digest();
        cfg.traces = Some(vec![2]);
        cfg.experiment.lossy_recovery = lossy;
        let text = suite_digest_json(&cfg, &run_suite(&cfg));
        obs::JsonValue::parse(&text).expect("trails are well-formed JSON")
    };
    let div = match diff_trails(&trail(false), &trail(true)) {
        Ok(DiffOutcome::Diverged(div)) => div,
        other => panic!("expected a divergence, got {other:?}"),
    };
    let (lo, hi) = div.bounds_ns();
    let node = div.leaf.node;
    let a = div.replay_a.replay_window(node, lo, hi);
    let b = div.replay_b.replay_window(node, lo, hi);
    let (_, summary) = harness::aligned_event_diff(&a, &b, "plain", "lossy");
    assert!(
        summary.is_some(),
        "window {} node {node}: both sides replayed the same events",
        div.leaf.window
    );
}

/// The digest is observation-only: with it on, the measured pairs and
/// every derived CSV byte match a digest-off run. (The suite and scale
/// unit tests assert the same for records and csv rows; this covers the
/// full CSV artifact set end to end.)
#[test]
fn digest_never_perturbs_suite_csv_artifacts() {
    let mut off = SuiteConfig::quick(0.01);
    off.traces = Some(vec![4]);
    let mut on = off.clone();
    on.digest = true;
    let result_off = run_suite(&off);
    let result_on = run_suite(&on);
    let dir_off = std::env::temp_dir().join("cesrm_digest_off_csv");
    let dir_on = std::env::temp_dir().join("cesrm_digest_on_csv");
    let files_off = result_off.write_csv_files(&dir_off).unwrap();
    let files_on = result_on.write_csv_files(&dir_on).unwrap();
    assert_eq!(files_off.len(), files_on.len());
    for (a, b) in files_off.iter().zip(&files_on) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "CSV diverged with digest on: {}",
            a.file_name().unwrap().to_string_lossy()
        );
    }
    std::fs::remove_dir_all(&dir_off).ok();
    std::fs::remove_dir_all(&dir_on).ok();
}

/// Prunes a `cesrm-digest/3` trail to each scope's `digest` and `records`
/// (drops every `leaves` array) and renders it. Each scope digest is an
/// order-dependent fold over every (window, node) leaf of the scope, so
/// the pruned trail pins the same event stream as the full one at a
/// fraction of the size.
fn pruned_to_scopes(trail: &str, scopes: &str) -> String {
    use obs::JsonValue::{Arr, Obj};
    let mut doc = obs::JsonValue::parse(trail).expect("trails are well-formed JSON");
    let Some(Arr(scopes)) = doc.get_mut(scopes) else {
        panic!("trail has no {scopes} array");
    };
    for scope in scopes {
        if let Obj(members) = scope {
            members.retain(|(k, _)| k != "leaves");
        }
    }
    let mut text = doc.to_string_pretty();
    text.push('\n');
    text
}

/// Asserts `got == want`, naming the first differing line.
fn assert_matches_fixture(got: &str, want: &str, fixture: &str, how: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{how}: event stream diverged from fixtures/{fixture} at line {}:\n  fixture: {}\n  \
         current: {}\n(fixtures/README.md says how to localize it against a parent-built trail)",
        line + 1,
        want.lines().nth(line).unwrap_or("<end of file>"),
        got.lines().nth(line).unwrap_or("<end of file>"),
    );
}

/// Runs the golden-trail recipe (`fixtures/README.md`) at `--jobs 1` and
/// `2` and asserts it reproduces `fixture` — and that all three consumers
/// (monitors, digest and capture) saw the same records.
fn assert_suite_matches_golden_trail(
    experiment: harness::ExperimentConfig,
    fixture: &str,
    want: &str,
) {
    for jobs in [1, 2] {
        let mut cfg = SuiteConfig::quick(0.02).with_monitor().with_digest();
        cfg.traces = Some(vec![2, 4]);
        cfg.experiment = experiment;
        cfg.capture_events = true;
        cfg.jobs = Some(jobs);
        let result = run_suite(&cfg);
        assert_matches_fixture(
            &pruned_to_scopes(&suite_digest_json(&cfg, &result), "runs"),
            want,
            fixture,
            &format!("--jobs {jobs}"),
        );
        for ((digest, events), health) in result
            .digests
            .iter()
            .zip(&result.events)
            .zip(&result.health)
        {
            let mut recorder = obs::DigestRecorder::default();
            events.records.iter().for_each(|r| recorder.observe(&r));
            assert_eq!(
                recorder.snapshot(),
                digest.snapshot,
                "{}/{}: the capturing sink and the digest saw different records",
                digest.name,
                digest.protocol
            );
            assert!(
                events
                    .records
                    .iter()
                    .zip(events.records.iter().skip(1))
                    .all(|(a, b)| a.t_ns <= b.t_ns),
                "captured records are in emit order"
            );
            assert_eq!(
                health.report.stats.events,
                digest.snapshot.count(),
                "{}/{}: the monitors and the digest saw different record counts",
                digest.name,
                digest.protocol
            );
        }
    }
}

/// Golden event stream, suite path: a tiny suite with monitors, digest and
/// capture all attached reproduces the committed golden trail
/// (`fixtures/README.md` has its history) at `--jobs 1` and `2`.
/// Jobs-invariance alone would still pass if an emit site lost its handle;
/// this does not.
#[test]
fn suite_event_stream_matches_the_committed_golden_trail() {
    assert_suite_matches_golden_trail(
        harness::ExperimentConfig::paper_default(),
        "suite-scale0.02-traces2-4.digest.json",
        include_str!("fixtures/suite-scale0.02-traces2-4.digest.json"),
    );
}

/// Golden event stream, lossy-recovery suite: the same recipe with
/// `--lossy-recovery`, the one loss path that draws randomness (recovery
/// traffic drops with the link's estimated rate, drawn from the sender's
/// stream).
#[test]
fn lossy_recovery_event_stream_matches_the_committed_golden_trail() {
    let mut experiment = harness::ExperimentConfig::paper_default();
    experiment.lossy_recovery = true;
    assert_suite_matches_golden_trail(
        experiment,
        "suite-lossy-scale0.02-traces2-4.digest.json",
        include_str!("fixtures/suite-lossy-scale0.02-traces2-4.digest.json"),
    );
}

/// Golden event stream, scale path: the 10³ rung reproduces the committed
/// golden trail at 1 and 2 shards.
#[test]
fn scale_event_stream_matches_the_committed_golden_trail() {
    let want = include_str!("fixtures/scale-rung1000.digest.json");
    for shards in [1, 2] {
        let mut cfg = ScaleConfig::rung(1000);
        cfg.shards = shards;
        cfg.digest = true;
        assert_matches_fixture(
            &pruned_to_scopes(&rung_trail(&cfg), "rungs"),
            want,
            "scale-rung1000.digest.json",
            &format!("{shards} shard(s)"),
        );
    }
}
