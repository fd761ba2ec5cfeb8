//! End-to-end checks of the recovery-provenance trace: a reenactment with
//! capture on emits well-formed JSONL whose reduced timelines cover the
//! losses the metrics layer recorded (the ISSUE's ≥95 % bar).

use cesrm::CesrmConfig;
use harness::{run_trace_with, ExperimentConfig, Protocol};
use obs::provenance::{reduce, RecoveryPath};
use obs::to_json_line;
use traces::{table1, Trace};

fn small_trace() -> Trace {
    table1()[3].scaled(0.01).generate(5)
}

/// Minimal structural JSON validation: one object per line, every line
/// starts a `{"t":` record, braces and quotes balance.
fn assert_valid_jsonl(lines: &[String]) {
    for line in lines {
        assert!(line.starts_with("{\"t\":"), "bad line start: {line}");
        assert!(line.ends_with('}'), "bad line end: {line}");
        let mut depth = 0i32;
        let mut quotes = 0usize;
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                '"' => quotes += 1,
                _ => {}
            }
            assert!(depth >= 0, "brace underflow: {line}");
        }
        assert_eq!(depth, 0, "unbalanced braces: {line}");
        assert!(quotes.is_multiple_of(2), "unbalanced quotes: {line}");
    }
}

#[test]
fn cesrm_trace_covers_recorded_losses() {
    let trace = small_trace();
    let handle = obs::Instruments::memory();
    let (metrics, _) = run_trace_with(
        &trace,
        Protocol::Cesrm(CesrmConfig::paper_default()),
        &ExperimentConfig::paper_default(),
        &handle,
    );
    let log = handle.drain();
    assert!(!log.is_empty());

    let lines: Vec<String> = log.iter().map(|r| to_json_line(&r)).collect();
    assert_valid_jsonl(&lines);

    // Timestamps are non-decreasing: events come out in simulation order.
    let records: Vec<obs::Record> = log.iter().collect();
    assert!(records.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));

    let timelines = reduce(&log);
    let complete = timelines
        .iter()
        .filter(|tl| tl.latency_ns().is_some())
        .count();
    let losses = timelines
        .iter()
        .filter(|tl| tl.path != RecoveryPath::Spurious)
        .count();
    assert_eq!(
        losses, metrics.losses,
        "every loss the metrics layer recorded must have a timeline"
    );
    assert!(
        complete as f64 >= 0.95 * losses as f64,
        "only {complete} of {losses} losses have a complete timeline"
    );

    // Both recovery paths occur on this trace, and the expedited share of
    // the timelines matches the expedited share of the metrics samples.
    let expedited = timelines
        .iter()
        .filter(|tl| tl.path == RecoveryPath::Expedited)
        .count();
    let fallback = timelines
        .iter()
        .filter(|tl| tl.path == RecoveryPath::Fallback)
        .count();
    assert!(expedited > 0, "expedited recoveries should appear");
    assert!(fallback > 0, "fallback recoveries should appear");
    let metric_expedited = metrics.samples.iter().filter(|s| s.expedited).count();
    assert_eq!(expedited, metric_expedited);
}

#[test]
fn srm_trace_is_all_fallback() {
    let trace = small_trace();
    let handle = obs::Instruments::memory();
    let (metrics, _) = run_trace_with(
        &trace,
        Protocol::Srm,
        &ExperimentConfig::paper_default(),
        &handle,
    );
    let timelines = reduce(&handle.drain());
    assert!(timelines
        .iter()
        .all(|tl| tl.path != RecoveryPath::Expedited));
    let complete = timelines
        .iter()
        .filter(|tl| tl.latency_ns().is_some())
        .count();
    assert_eq!(complete, metrics.losses - metrics.unrecovered);
}

#[test]
fn off_handle_and_capturing_handle_agree_on_metrics() {
    let trace = small_trace();
    let cfg = ExperimentConfig::paper_default();
    let plain = harness::run_trace(&trace, Protocol::Srm, &cfg);
    let captured = obs::Instruments::memory();
    let (traced, _) = run_trace_with(&trace, Protocol::Srm, &cfg, &captured);
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    assert!(!captured.drain().is_empty());
}

/// One handle, cloned into every layer: the simulator, the recovery log,
/// the SRM core and the CESRM agent all emit into the sink the caller
/// holds, and the handle's counters are the counts of that stream.
#[test]
fn every_layer_observes_through_the_one_handle() {
    let handle = obs::Instruments::new(obs::Setup {
        sink: Some(Box::new(obs::MemorySink::new())),
        metrics: true,
        ..obs::Setup::default()
    });
    let (metrics, engine) = run_trace_with(
        &small_trace(),
        Protocol::Cesrm(CesrmConfig::paper_default()),
        &ExperimentConfig::paper_default(),
        &handle,
    );
    let records = handle.drain();
    let seen: std::collections::BTreeSet<&str> = records.iter().map(|r| r.event.name()).collect();
    for (layer, names) in [
        ("netsim::Simulator", &["sent", "dropped", "delivered"][..]),
        (
            "metrics::RecoveryLog",
            &["loss_detected", "req_sent", "recovered"],
        ),
        (
            "srm::SrmCore",
            &["req_scheduled", "rep_scheduled", "rep_sent"],
        ),
        (
            "cesrm::CesrmAgent",
            &["cache_update", "cache_hit", "xreq_sent", "xrep_sent"],
        ),
    ] {
        for name in names {
            assert!(seen.contains(name), "{layer} emitted no `{name}` event");
        }
    }
    let counters = harness::run_snapshot(&handle, &engine).counters;
    for name in [
        "sim.events.hop",
        "recovery.detected",
        "srm.request_timers_set",
        "cesrm.cache.hits",
    ] {
        assert!(counters[name] > 0, "`{name}` never counted");
    }
    assert_eq!(counters["recovery.detected"], metrics.losses as u64);
    assert_eq!(
        counters["sim.events.hop"],
        engine.events - engine.start_events - engine.timer_events,
        "the snapshot's engine counts are the returned telemetry's"
    );
    let mut captured = obs::EventTally::default();
    for record in records.iter() {
        captured.observe(&record.event);
    }
    for (counter, event) in obs::tally::COUNTERS {
        assert_eq!(counters[counter], captured.count(event), "`{counter}`");
    }
}

/// The capture log packs a suite run's records into a few bytes each. A
/// captured `obs::Record` is 40 bytes in memory; keeping records in that
/// form again (or a fatter encoding) fails here, not only in a noisy
/// peak-RSS reading.
#[test]
fn captured_records_pack_into_at_most_ten_bytes_each() {
    let mut cfg = harness::SuiteConfig::quick(0.02);
    cfg.traces = Some(vec![1, 4, 13]);
    cfg.capture_events = true;
    let result = harness::run_suite(&cfg);
    assert_eq!(result.events.len(), 6, "3 traces x {{SRM, CESRM}}");
    let records: usize = result.events.iter().map(|e| e.records.len()).sum();
    let bytes: usize = result.events.iter().map(|e| e.records.byte_len()).sum();
    assert!(records > 10_000, "only {records} records captured");
    let per_record = bytes as f64 / records as f64;
    assert!(
        per_record <= 10.0,
        "{bytes} bytes for {records} records = {per_record:.2} B/record"
    );
}
