//! Where a run's observation request becomes its one [`obs::Instruments`]
//! handle — shared by the suite runner (`RunJob::execute`) and the scale
//! runner (`run_shard`), so both build, register and fold the same way.

use netsim::EngineTelemetry;

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

/// Publishes the engine's always-on counters to the run's registry once
/// the run is over, as its `sim.events.*`, `sim.packets.*` and
/// `sim.timers.*` counters (`docs/METRICS.md`): exact totals come from
/// here, not from per-call increments on the hot path. A no-op on a handle
/// built without metrics.
pub(crate) fn publish_engine(handle: &obs::Instruments, engine: &EngineTelemetry) {
    for (name, value) in [
        ("sim.events.start", engine.start_events),
        ("sim.events.timer", engine.timer_events),
        (
            "sim.events.hop",
            engine.events - engine.start_events - engine.timer_events,
        ),
        ("sim.timers.scheduled", engine.timers),
        ("sim.timers.cancelled", engine.timers_cancelled),
        ("sim.timers.voided", engine.timers_voided),
        ("sim.packets.forwarded", engine.transmits - engine.drops),
        ("sim.packets.dropped", engine.drops),
    ] {
        handle.counter(name).add(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_suite, SuiteConfig};

    /// The registry's `sim.*` counters are derived from the telemetry, not
    /// counted beside it: pins the published names and the derivations, on
    /// the suite and against the traffic observer's own drop count.
    #[test]
    fn registry_sim_counters_are_published_from_engine_telemetry() {
        let mut suite = SuiteConfig::quick(0.01).with_metrics().with_profile();
        suite.traces = Some(vec![4, 13]);
        let result = run_suite(&suite);
        assert_eq!(result.profiles.len(), 4);
        for (profile, prof) in result.profiles.iter().zip(&result.profs) {
            let (c, e) = (&profile.snapshot.counters, &prof.engine);
            let run = format!("{} {}", profile.name, profile.protocol);
            assert_eq!(
                c["sim.events.start"] + c["sim.events.timer"] + c["sim.events.hop"],
                e.events,
                "{run}"
            );
            assert_eq!(e.events, profile.events_processed, "{run}");
            assert_eq!(
                c["sim.packets.forwarded"] + c["sim.packets.dropped"],
                e.transmits,
                "{run}"
            );
            assert_eq!(c["sim.timers.scheduled"], e.timers, "{run}");
            assert_eq!(c["sim.timers.cancelled"], e.timers_cancelled, "{run}");
            assert_eq!(c["sim.timers.voided"], e.timers_voided, "{run}");
            assert!(
                c["sim.packets.dropped"] > 0 && c["sim.events.timer"] > 0,
                "{run}"
            );
            assert!(
                0 < e.timers_voided && e.timers_voided <= e.timers_cancelled,
                "{run}: suppression cancels timers, and only a cancelled timer is voided"
            );
            assert!(e.queue.max_len > 0, "{run}");
            assert_eq!(
                profile.peak_queue_bytes(),
                e.queue.max_len * netsim::scheduled_event_footprint_bytes() as u64,
                "{run}"
            );
        }

        // One source flooding three packets down a chain, two of them
        // dropped on the way: the registry, the telemetry and the
        // per-packet traffic observer agree on the drops.
        struct Burst;
        impl netsim::Agent for Burst {
            fn on_start(&mut self, ctx: &mut netsim::Context<'_>) {
                for seq in 0..3 {
                    let id = netsim::PacketId {
                        source: ctx.me(),
                        seq: netsim::SeqNo(seq),
                    };
                    ctx.multicast(netsim::PacketBody::Data { id });
                }
            }
            fn on_packet(
                &mut self,
                _: &mut netsim::Context<'_>,
                _: &netsim::Packet,
                _: &netsim::DeliveryMeta,
            ) {
            }
            fn on_timer(&mut self, _: &mut netsim::Context<'_>, _: netsim::TimerToken) {}
        }
        let mut b = topology::TreeBuilder::new();
        let router = b.add_router(b.root());
        let leaf = b.add_receiver(router);
        let handle = obs::Instruments::new(obs::Setup {
            metrics: true,
            ..obs::Setup::default()
        });
        let mut sim =
            netsim::Simulator::new(b.build().expect("a chain"), netsim::NetConfig::default());
        sim.set_loss(Box::new(netsim::TraceLoss::new([
            (topology::LinkId(router), netsim::SeqNo(0)),
            (topology::LinkId(leaf), netsim::SeqNo(2)),
        ])));
        sim.set_obs(handle.clone());
        let collector = std::rc::Rc::new(std::cell::RefCell::new(metrics::TrafficCollector::new()));
        sim.set_observer(Box::new(std::rc::Rc::clone(&collector)));
        sim.attach_agent(topology::NodeId::ROOT, Box::new(Burst));
        sim.run_until(netsim::SimTime::ZERO + netsim::SimDuration::from_secs(1));
        publish_engine(&handle, &sim.telemetry());
        let counters = handle.metrics_snapshot().counters;
        assert_eq!(counters["sim.packets.dropped"], 2);
        assert_eq!(
            counters["sim.packets.dropped"],
            collector.borrow().drop_count()
        );
        assert_eq!(
            counters["sim.packets.forwarded"], 3,
            "3 + 2 crossings, 2 lost"
        );
    }
}
