//! Micro-benchmarks of the building blocks: recovery cache, loss-pattern
//! attribution DP, Gilbert–Elliott stepping, estimators, raw simulator
//! flooding throughput, and the metrics-registry instruments that ride on
//! the simulator's hot paths.

use criterion::{criterion_group, criterion_main, Criterion};
use lossmap::{yajnik_rates, Attributor};
use netsim::{
    Agent, Context, DeliveryMeta, NetConfig, Packet, PacketBody, PacketId, RecoveryTuple, SeqNo,
    SimDuration, SimTime, Simulator, TimerToken,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topology::{random_tree, NodeId, TreeShape};
use traces::{table1, GilbertElliott};

fn tuple(seq: u64, q: u32, r: u32) -> RecoveryTuple {
    RecoveryTuple {
        id: PacketId {
            source: NodeId::ROOT,
            seq: SeqNo(seq),
        },
        requestor: NodeId(q),
        dist_req_src: SimDuration::from_millis(40),
        replier: NodeId(r),
        dist_rep_req: SimDuration::from_millis(40),
        turning_point: None,
    }
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/cache");
    group.bench_function("observe_and_select", |b| {
        b.iter(|| {
            let mut cache = cesrm::RecoveryCache::new(16);
            for i in 0..64u64 {
                cache.observe(tuple(i, (i % 5) as u32 + 1, (i % 3) as u32 + 6));
            }
            std::hint::black_box((cache.most_recent().copied(), cache.most_frequent().copied()))
        });
    });
    group.finish();
}

fn bench_attribution(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let tree = random_tree(&mut rng, TreeShape::new(15, 7));
    let rates: Vec<f64> = (0..tree.len())
        .map(|i| 0.01 + (i % 5) as f64 * 0.03)
        .collect();
    let receivers = tree.receivers().to_vec();
    let mut group = c.benchmark_group("micro/attribution");
    group.bench_function("fresh_pattern_dp", |b| {
        let mut i = 0usize;
        b.iter(|| {
            // A different pattern every iteration defeats the memo.
            let mut attributor = Attributor::new(&tree, &rates);
            i = i.wrapping_add(1);
            let pattern: Vec<NodeId> = receivers
                .iter()
                .enumerate()
                .filter(|(k, _)| (i >> (k % 15)) & 1 == 1)
                .map(|(_, &r)| r)
                .collect();
            std::hint::black_box(attributor.attribute(&pattern))
        });
    });
    group.finish();
}

fn bench_gilbert(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/gilbert");
    group.bench_function("step_10k", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut g = GilbertElliott::from_rate_and_burst(0.1, 4.0);
            let mut losses = 0usize;
            for _ in 0..10_000 {
                if g.step(&mut rng) {
                    losses += 1;
                }
            }
            std::hint::black_box(losses)
        });
    });
    group.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let trace = table1()[3].scaled(0.05).generate(2);
    let mut group = c.benchmark_group("micro/estimators");
    group.bench_function("yajnik_rates", |b| {
        b.iter(|| std::hint::black_box(yajnik_rates(&trace)));
    });
    group.bench_function("mle_rates", |b| {
        b.iter(|| std::hint::black_box(lossmap::mle_rates(&trace)));
    });
    group.finish();
}

/// A source agent that floods `n` payload packets back to back.
struct Flooder(u64);
impl Agent for Flooder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.0 {
            ctx.multicast(PacketBody::Data {
                id: PacketId {
                    source: ctx.me(),
                    seq: SeqNo(i),
                },
            });
        }
    }
    fn on_packet(&mut self, _: &mut Context<'_>, _: &Packet, _: &DeliveryMeta) {}
    fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
}

fn bench_sim_flood(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let tree = random_tree(&mut rng, TreeShape::new(15, 7));
    let mut group = c.benchmark_group("micro/netsim");
    group.bench_function("flood_1k_packets", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(tree.clone(), NetConfig::default());
            sim.attach_agent(NodeId::ROOT, Box::new(Flooder(1_000)));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
            std::hint::black_box(sim.events_processed())
        });
    });
    group.finish();
}

/// Engine internals (the flood workload itself is `micro/netsim` above):
/// the packet arena's alloc/retain/release churn, and the calendar
/// queue's bucket storage under a rotating wave of large buckets.
fn bench_engine(c: &mut Criterion) {
    use netsim::PacketArena;

    let mut group = c.benchmark_group("micro/engine");
    group.bench_function("arena_churn_256", |b| {
        let mut arena = PacketArena::new();
        b.iter(|| {
            // 256 packets each fanned out to 4 hops, released in arrival
            // order — the lifecycle `transmit` drives, compressed.
            let mut handles = Vec::with_capacity(256);
            for i in 0..256u64 {
                let h = arena.alloc(NodeId::ROOT);
                arena.fill(
                    h,
                    Packet {
                        origin: NodeId::ROOT,
                        cast: netsim::CastClass::Multicast,
                        body: PacketBody::Data {
                            id: PacketId {
                                source: NodeId::ROOT,
                                seq: SeqNo(i),
                            },
                        },
                    },
                );
                for _ in 0..4 {
                    arena.retain(h);
                }
                arena.release(h);
                handles.push(h);
            }
            for h in handles {
                for _ in 0..4 {
                    arena.release(h);
                }
            }
            std::hint::black_box(arena.capacity())
        });
    });
    // Storage churn without a 10⁵ rung: waves of 100k entries (48 B each,
    // like the simulator's) spread over 64 ticks and drained, the wave
    // front rotating across 8 192 ticks — two laps of the calendar ring.
    // Per-slot bucket storage would grow ~4 096 slots to their own
    // high-water here; the chunk pool stays at one wave.
    group.sample_size(3).bench_function("queue_wave_100k", |b| {
        use netsim::{CalendarQueue, Entry};
        const TICK_NS: u64 = 1 << 20;
        b.iter(|| {
            let mut queue: CalendarQueue<[u64; 4]> = CalendarQueue::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for wave in 0..8_192 / 64 {
                let base = wave * 64 * TICK_NS;
                for i in 0..100_000u64 {
                    let at = base + (i % 64) * TICK_NS + i % 1_000;
                    queue.push(
                        Entry {
                            at,
                            seq,
                            item: [i; 4],
                        },
                        now,
                    );
                    seq += 1;
                }
                while let Some(entry) = queue.pop_at_most(base + 64 * TICK_NS - 1) {
                    now = entry.at;
                }
            }
            std::hint::black_box(now)
        });
    });
    group.finish();
}

fn bench_registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/registry");
    let handle = obs::Instruments::new(obs::Setup {
        metrics: true,
        ..obs::Setup::default()
    });
    let counter = handle.counter("bench.counter");
    group.bench_function("counter_inc", |b| {
        b.iter(|| {
            counter.inc();
            std::hint::black_box(&counter);
        });
    });
    let off = obs::Counter::off();
    group.bench_function("counter_inc_disabled", |b| {
        b.iter(|| {
            off.inc();
            std::hint::black_box(&off);
        });
    });
    group.bench_function("snapshot_and_merge", |b| {
        b.iter(|| {
            let mut a = handle.metrics_snapshot();
            let other = handle.metrics_snapshot();
            a.merge(&other);
            std::hint::black_box(a)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_attribution,
    bench_gilbert,
    bench_estimator,
    bench_sim_flood,
    bench_engine,
    bench_registry
);
criterion_main!(benches);
