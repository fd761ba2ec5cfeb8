//! Where a run's observation request becomes its one [`obs::Instruments`]
//! handle — shared by the suite runner (`RunJob::execute`) and the scale
//! runner (`run_shard`), so both build, register and fold the same way.

use netsim::EngineTelemetry;
use obs::Phase;

/// Builds the run's handle on the calling (worker) thread. A flight ring
/// labelled by `label` rides along whenever monitors or digests are on and
/// is registered with the panic hook, so a violation or a panic mid-run
/// dumps the last events with this run's provenance; the caller clears the
/// registration ([`obs::flight::clear_current`]) when the run is over.
pub(crate) fn instruments(
    mut setup: obs::Setup,
    label: impl FnOnce() -> String,
) -> obs::Instruments {
    if setup.monitors.is_some() || setup.digest.is_some() {
        setup.flight = Some(obs::FlightRecorder::new(obs::FLIGHT_CAPACITY, label()));
    }
    let handle = obs::Instruments::new(setup);
    if let Some(flight) = handle.flight() {
        obs::flight::set_current(flight);
    }
    handle
}

/// Folds the engine's always-on counters into the profiler's per-phase call
/// tallies. Exact call totals come from here, not from per-call increments
/// on the hot path: the timings sampled during the run are scaled by these
/// totals when the snapshot estimates per-phase time (see `obs::prof`).
pub(crate) fn fold_engine_calls(handle: &obs::Instruments, engine: &EngineTelemetry) {
    handle.add_calls(Phase::QueuePop, engine.queue.pops);
    handle.add_calls(Phase::QueuePush, engine.queue.pushes);
    handle.add_calls(Phase::LossDraw, engine.transmits);
    handle.add_calls(Phase::Transmit, engine.transmits);
    handle.add_calls(Phase::FanOut, engine.fan_outs);
    handle.add_calls(Phase::Deliver, engine.deliveries);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_scale, run_suite, ScaleConfig, SuiteConfig};

    /// The per-phase call tallies a profiled run reports for the
    /// engine-counted phases, next to what its telemetry says they must be.
    fn folded_vs_engine(prof: &obs::ProfSnapshot, engine: &EngineTelemetry) -> [(u64, u64); 6] {
        [
            (Phase::QueuePop, engine.queue.pops),
            (Phase::QueuePush, engine.queue.pushes),
            (Phase::LossDraw, engine.transmits),
            (Phase::Transmit, engine.transmits),
            (Phase::FanOut, engine.fan_outs),
            (Phase::Deliver, engine.deliveries),
        ]
        .map(|(phase, expected)| (prof.phase(phase).calls, expected))
    }

    #[test]
    fn suite_and_scale_fold_engine_telemetry_into_the_same_phases() {
        let mut suite = SuiteConfig::quick(0.01).with_profile();
        suite.traces = Some(vec![4]);
        for run in run_suite(&suite).profs {
            for (folded, expected) in folded_vs_engine(&run.snapshot, &run.engine) {
                assert!(
                    expected > 0,
                    "{}: the workload exercises every phase",
                    run.protocol
                );
                assert_eq!(folded, expected, "suite {} run", run.protocol);
            }
        }
        for shards in [1, 2] {
            let rung = run_scale(&ScaleConfig {
                shards,
                packets: 8,
                profile: true,
                ..ScaleConfig::rung(100)
            });
            let (prof, engine) = (rung.prof.expect("profiled"), rung.engine.expect("profiled"));
            for (folded, expected) in folded_vs_engine(&prof, &engine) {
                assert!(expected > 0, "the rung exercises every phase");
                assert_eq!(folded, expected, "scale rung at {shards} shard(s)");
            }
        }
    }

    /// The profiler and the monitors share one inner, so monitor feeds are
    /// attributed on the scale path exactly as on the suite path: one
    /// `monitor_feed` call per emitted record.
    #[test]
    fn monitored_scale_rung_profiles_its_monitor_feeds() {
        let rung = run_scale(&ScaleConfig {
            packets: 8,
            monitor: true,
            digest: true,
            profile: true,
            ..ScaleConfig::rung(100)
        });
        assert_eq!(rung.violations, Some(0));
        let records = rung.digest.expect("digest requested").count();
        assert!(records > 0);
        assert_eq!(
            rung.prof.expect("profiled").phase(Phase::Monitors).calls,
            records
        );
    }
}
