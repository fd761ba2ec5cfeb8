//! The divergence-triage contract (`docs/DEBUGGING.md`): the
//! `cesrm-digest/1` trail is byte-identical at any parallelism, and when
//! two trails differ the bisector pinpoints the exact
//! (epoch, node, bucket) window of the first divergent event.

use harness::{
    diff_trails, run_scale, run_suite, rung_digest_json, suite_digest_json, DiffOutcome,
    ScaleConfig, SuiteConfig,
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

/// The scale-mode trail fragment is byte-identical at shard counts 1, 2
/// and 3 — the digest epoch width is the sharding lookahead and the
/// "shard" level is the root-subtree partition, both pure functions of
/// the topology.
#[test]
fn scale_trail_is_byte_identical_at_any_shard_count() {
    let rung = |shards: u32| {
        let mut cfg = ScaleConfig::rung(120);
        cfg.shards = shards;
        cfg.packets = 8;
        cfg.digest = true;
        rung_digest_json(&cfg, &run_scale(&cfg)).to_string_pretty()
    };
    let unsharded = rung(1);
    assert_eq!(unsharded, rung(2), "trail diverged between 1 and 2 shards");
    assert_eq!(unsharded, rung(3), "trail diverged between 1 and 3 shards");
    assert!(
        unsharded.contains("groups"),
        "trail carries the subtree level"
    );
}

/// Flipping exactly one event in a real run's digested stream is
/// localized to that event's exact (epoch, node, bucket) window — the
/// perturbation oracle for the bisector.
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
    let records = result.events[0].records.clone();
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
    assert_eq!(div.epoch, Some(t_ns / obs::DEFAULT_EPOCH_NS), "epoch");
    assert_eq!(div.node, Some(u64::from(node)), "node");
    assert_eq!(div.bucket, Some(t_ns / obs::DEFAULT_BUCKET_NS), "bucket");
    let (lo, hi) = div.window_ns().expect("bucket window");
    assert!(lo <= t_ns && t_ns < hi, "window contains the flipped event");
    assert!(
        div.replay_a.is_some() && div.replay_b.is_some(),
        "both sides carry a replayable configuration"
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

/// Prunes a `cesrm-digest/1` trail below the epoch level (drops every
/// epoch's `nodes` array) and renders it. Each epoch digest is an
/// order-dependent fold over every (node, bucket) leaf beneath it, so the
/// pruned trail pins the same event stream as the full one at 1 % of the
/// size (the full trails behind the fixtures are 5.2 MB).
fn pruned_to_epochs(trail: &str, scopes: &str) -> String {
    use obs::JsonValue::{Arr, Obj};
    let mut doc = obs::JsonValue::parse(trail).expect("trails are well-formed JSON");
    let Some(Arr(scopes)) = doc.get_mut(scopes) else {
        panic!("trail has no {scopes} array");
    };
    for scope in scopes {
        let Some(Arr(epochs)) = scope.get_mut("epochs") else {
            panic!("trail scope has no epochs array");
        };
        for epoch in epochs {
            if let Obj(members) = epoch {
                members.retain(|(k, _)| k != "nodes");
            }
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
         current: {}\n(fixtures/README.md says how to bisect against a parent-built trail)",
        line + 1,
        want.lines().nth(line).unwrap_or("<end of file>"),
        got.lines().nth(line).unwrap_or("<end of file>"),
    );
}

/// Golden event stream, suite path: a tiny suite with monitors, digest and
/// capture all attached reproduces the trail committed from the parent of
/// the one-handle refactor, at `--jobs 1` and `2` — and all three
/// consumers saw the same records. Jobs-invariance alone would still pass
/// if an emit site lost its handle; this does not.
#[test]
fn suite_event_stream_matches_the_committed_golden_trail() {
    let want = include_str!("fixtures/suite-scale0.02-traces2-4.digest.json");
    for jobs in [1, 2] {
        let mut cfg = SuiteConfig::quick(0.02).with_monitor().with_digest();
        cfg.traces = Some(vec![2, 4]);
        cfg.capture_events = true;
        cfg.jobs = Some(jobs);
        let result = run_suite(&cfg);
        assert_matches_fixture(
            &pruned_to_epochs(&suite_digest_json(&cfg, &result), "runs"),
            want,
            "suite-scale0.02-traces2-4.digest.json",
            &format!("--jobs {jobs}"),
        );
        for ((digest, events), health) in result
            .digests
            .iter()
            .zip(&result.events)
            .zip(&result.health)
        {
            let mut recorder = obs::DigestRecorder::default();
            events.records.iter().for_each(|r| recorder.observe(r));
            assert_eq!(
                recorder.snapshot(),
                digest.snapshot,
                "{}/{}: the capturing sink and the digest saw different records",
                digest.name,
                digest.protocol
            );
            assert!(
                events.records.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
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

/// Golden event stream, scale path: the 10³ rung reproduces the trail
/// committed from the parent of the one-handle refactor at 1 and 2 shards.
#[test]
fn scale_event_stream_matches_the_committed_golden_trail() {
    let want = include_str!("fixtures/scale-rung1000.digest.json");
    for shards in [1, 2] {
        let mut cfg = ScaleConfig::rung(1000);
        cfg.shards = shards;
        cfg.digest = true;
        let fragment = rung_digest_json(&cfg, &run_scale(&cfg));
        let trail = harness::scale_digest_doc("cesrm", cfg.seed, cfg.packets, vec![fragment]);
        assert_matches_fixture(
            &pruned_to_epochs(&trail, "rungs"),
            want,
            "scale-rung1000.digest.json",
            &format!("{shards} shard(s)"),
        );
    }
}
