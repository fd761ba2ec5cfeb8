//! Sharded single-simulation runner for million-receiver topologies.
//!
//! The reproduction suite ([`crate::run_suite`]) parallelizes across
//! *independent* simulations; this module parallelizes *one* simulation of
//! a [`topology::scale_tree`] across worker threads, so the 10³→10⁶
//! receiver sweep of `reproduce scale` finishes in minutes instead of
//! hours. The partitioning and the determinism argument (documented in
//! `docs/SCALING.md`) are:
//!
//! - **Root-cut sharding.** Every subtree hanging off the root is owned
//!   wholly by one shard (greedy min-load binning by receiver count, in
//!   deterministic order); the root itself lives on shard 0. The only
//!   links crossing shards are therefore the root's own links.
//! - **Conservative lookahead.** All cut links have positive delay, so a
//!   packet sent during epoch `[kL, (k+1)L)` — `L` being the minimum
//!   cut-link delay — arrives no earlier than `(k+1)L`. Each shard runs
//!   one epoch, exchanges cross-shard packets at a barrier (drained in
//!   shard order, the same slot-merge discipline the suite runner uses),
//!   and repeats. The epoch count is fixed up front from the simulation
//!   horizon, so no termination consensus is needed.
//! - **Per-node event keys.** The simulator keys every event `(time,
//!   owner-node, per-node counter)` and draws randomness from per-node
//!   streams — the same order the suite runs on — which makes the event
//!   total order independent of how nodes are distributed over shards.
//!   Results are byte-identical at any shard count (asserted by
//!   `identical_results_at_any_shard_count` below and gated by
//!   `reproduce scale`'s identity check).
//!
//! Protocol state stays O(active losses) per receiver: receivers run with
//! session messages disabled (all-to-all session exchange is O(N²) traffic
//! and O(N) per-member state) and their distance to the source pre-seeded
//! from the topology's true path delay; only the source multicasts session
//! messages, which is what tail-loss detection needs.

use std::cell::RefCell;
use std::mem;
use std::rc::Rc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use cesrm::{CesrmAgent, CesrmConfig, CesrmEndpoints};
use metrics::{PacketKind, RecoveryLog, RecoveryRecord, TrafficCollector};
use netsim::{CrossShardPacket, NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
use srm::{Role, SourceConfig, SrmAgent, SrmEndpoints, SrmParams};
use topology::{scale_tree, LinkId, MulticastTree, NodeId, ScaleShape, ScaleTree};

use crate::observe::instruments;
use crate::Protocol;

/// SRM parameters for scale runs: the paper's §4.3 settings with a 2 s
/// session period (the 1 s default doubles the per-flood event volume at
/// 10⁶ receivers for no measurement benefit).
pub fn scale_srm_params() -> SrmParams {
    SrmParams {
        session_period: SimDuration::from_secs(2),
        ..SrmParams::paper_default()
    }
}

/// CESRM configuration for scale runs ([`scale_srm_params`] underneath).
pub fn scale_cesrm_config() -> CesrmConfig {
    CesrmConfig {
        srm: scale_srm_params(),
        ..CesrmConfig::paper_default()
    }
}

/// The scale sweep's protocol by its command-line name, `"srm"` or
/// `"cesrm"`.
pub fn scale_protocol(name: &str) -> Option<Protocol> {
    match name {
        "srm" => Some(Protocol::Srm),
        "cesrm" => Some(Protocol::Cesrm(scale_cesrm_config())),
        _ => None,
    }
}

/// Widens a parameter set's `default_distance` to 1 s for scale-mode
/// *receivers*. With sessions disabled, holders have no distance estimate
/// to a requestor and would all draw reply timers from the same
/// `[D1·100ms, (D1+D2)·100ms]` default window — an O(group size) reply
/// implosion (measured: ~440 replies per loss at 10³ receivers). Backing
/// distance-less hosts off to a 1 s-based window while the source keeps
/// the standard default means the source's reply arrives long before any
/// receiver window opens and suppresses the whole group.
fn widen_receiver_default(params: SrmParams) -> SrmParams {
    SrmParams {
        default_distance: SimDuration::from_secs(1),
        ..params
    }
}

/// Deterministic loss count for a rung: one loss per 4096 receivers,
/// clamped to `[4, 16]` — enough recoveries to measure, bounded so the
/// request/reply floods stay a small fraction of the data traffic.
pub fn default_losses(receivers: u64) -> u32 {
    (receivers / 4096).clamp(4, 16) as u32
}

/// One rung of the scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Target receiver count; the generated tree has at least this many
    /// (exactly this many for powers of ten — see
    /// [`ScaleShape::with_target_receivers`]).
    pub receivers: u64,
    /// Topology seed ([`scale_tree`]).
    pub seed: u64,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Worker shards; clamped to the number of root subtrees. `1` runs
    /// unsharded (required for monitors, which need the global event
    /// order).
    pub shards: u32,
    /// Data packets multicast by the source.
    pub packets: u64,
    /// Inter-packet period.
    pub period: SimDuration,
    /// Quiet time before the first data packet.
    pub warmup: SimDuration,
    /// Simulated time after the last data packet for outstanding
    /// recoveries.
    pub drain: SimDuration,
    /// Losses to inject (each drops one data packet on one receiver's
    /// access link, receivers evenly strided across the group).
    pub losses: u32,
    /// Attach the I1–I6 invariant monitors (only honoured at `shards: 1`).
    pub monitor: bool,
    /// Keep the engine telemetry of every shard, merged into
    /// [`ScaleResult::engine`] (see `docs/PROFILING.md`). The counts are
    /// exact and keeping them touches no simulation state.
    pub profile: bool,
    /// Fold the canonical event stream into a per-(window, node) digest in
    /// every shard (see `docs/DEBUGGING.md`), with a flight recorder riding
    /// along. The window width is the finer of 100 ms and the sharding
    /// lookahead — a pure function of the topology, so the merged trail is
    /// byte-identical at any shard count. Measurements stay byte-identical
    /// to a digest-off run.
    pub digest: bool,
    /// Capture the raw trace events of one `(node, [t_lo_ns, t_hi_ns))`
    /// window into [`ScaleResult::window_events`] — the replay side of
    /// `reproduce diff` (see `docs/DEBUGGING.md`). Out-of-window events
    /// cost one branch each, so a pinned replay stays cheap on large
    /// rungs. Observation-only: measurements are unaffected.
    pub capture_window: Option<(u32, u64, u64)>,
}

impl ScaleConfig {
    /// The sweep's default settings for one rung (CESRM, seed 7, 12 data
    /// packets at 100 ms, monitors off).
    pub fn rung(receivers: u64) -> Self {
        ScaleConfig {
            receivers,
            seed: 7,
            protocol: Protocol::Cesrm(scale_cesrm_config()),
            shards: 1,
            packets: 12,
            period: SimDuration::from_millis(100),
            warmup: SimDuration::from_secs(2),
            drain: SimDuration::from_secs(10),
            losses: default_losses(receivers),
            monitor: false,
            profile: false,
            digest: false,
            capture_window: None,
        }
    }

    /// End of simulated time: warmup, the data transmission, then drain.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO
            + self.warmup
            + SimDuration::from_nanos(self.period.as_nanos() * self.packets)
            + self.drain
    }
}

/// Per-shard accounting of one sharded run: where each worker spent its
/// wall-clock time and how much traffic crossed its cut links. The packet
/// counts and epoch count are deterministic for a given `(config, shard
/// count)`; `busy_ns` and `barrier_ns` are wall-clock and excluded from
/// every determinism comparison (see `docs/PROFILING.md` and the
/// shard-imbalance section of `docs/SCALING.md`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardAccounting {
    /// Shard index (mailbox/slot order).
    pub shard: u32,
    /// Lookahead epochs this shard executed (equal across shards).
    pub epochs: u64,
    /// Wall-clock nanoseconds spent simulating (inside `run_until` and the
    /// outbox drain), summed over epochs.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds spent blocked on the two per-epoch barriers,
    /// summed over epochs. High barrier share on some shards with low on
    /// others means the root-cut binning left the work unbalanced.
    pub barrier_ns: u64,
    /// Cross-shard packets this shard posted to other shards' mailboxes.
    pub packets_sent: u64,
    /// Cross-shard packets this shard accepted from its mailboxes (arrivals
    /// past the horizon are dropped and not counted).
    pub packets_received: u64,
}

/// Everything one rung measures that is a pure function of the
/// configuration — byte-identical at any shard count (`shards` itself and
/// `violations` are carried for reporting but excluded from
/// [`ScaleResult::csv_row`]).
#[derive(Clone, Debug)]
pub struct ScaleResult {
    /// Receivers in the generated tree.
    pub receivers: u64,
    /// Total tree nodes.
    pub nodes: u64,
    /// Tree links.
    pub links: u64,
    /// Shard count this result was produced with (not part of the
    /// deterministic row).
    pub shards: u32,
    /// Simulator events processed, summed over shards. The same events
    /// pop exactly once regardless of which shard owns them, so the sum
    /// is deterministic.
    pub events: u64,
    /// Losses detected.
    pub detected: u64,
    /// Losses recovered by the end of the run.
    pub recovered: u64,
    /// Recoveries won by the expedited (CESRM) path.
    pub expedited: u64,
    /// Losses never recovered.
    pub unrecovered: u64,
    /// Multicast repair requests sent (summed over records).
    pub requests_sent: u64,
    /// Mean detection→recovery latency over recovered losses, integer
    /// nanoseconds.
    pub mean_latency_ns: u64,
    /// Slowest recovery, nanoseconds.
    pub max_latency_ns: u64,
    /// Link crossings by retransmissions (paper §4.4 overhead units).
    pub retransmission_crossings: u64,
    /// Link crossings by control traffic (requests, expedited requests).
    pub control_crossings: u64,
    /// Link crossings by session messages.
    pub session_crossings: u64,
    /// Link crossings by original data transmissions.
    pub data_crossings: u64,
    /// Summed per-agent protocol state estimate
    /// ([`srm::SrmCore::state_bytes`]), bytes.
    pub state_bytes: u64,
    /// Invariant violations when monitored (`None` when monitors were
    /// off; not part of the deterministic row).
    pub violations: Option<u64>,
    /// Lookahead epochs executed per shard (`1` when unsharded). A pure
    /// function of the horizon, the topology's minimum cut-link delay and
    /// the shard count; not part of the deterministic row because it
    /// changes with `shards`.
    pub epochs: u64,
    /// Per-shard busy/barrier/traffic accounting, in shard order. The
    /// `busy_ns`/`barrier_ns` members are wall-clock; everything else is
    /// deterministic for a given shard count. Not part of the
    /// deterministic row or of equality.
    pub shard_accounting: Vec<ShardAccounting>,
    /// Merged engine telemetry counters (`None` unless
    /// [`ScaleConfig::profile`] was set). Per-queue high-water figures
    /// depend on the shard count; totals do not. Not part of equality.
    pub engine: Option<netsim::EngineTelemetry>,
    /// Merged event-stream digest (`None` unless
    /// [`ScaleConfig::digest`] was set). Leaf merging is commutative, so
    /// the merged snapshot is byte-identical at any shard count. Not part
    /// of equality (the identity check compares it explicitly and
    /// localizes divergence instead).
    pub digest: Option<obs::DigestSnapshot>,
    /// Raw trace events captured inside the pinned
    /// [`ScaleConfig::capture_window`], sorted by simulated time (a
    /// window pins one node, whose events all come from one shard, so the
    /// stable sort reproduces that shard's emission order). Empty unless a
    /// window was pinned. Not part of equality.
    pub window_events: Vec<obs::Record>,
    /// Every loss lifecycle, sorted by `(receiver, sequence number)`.
    pub records: Vec<RecoveryRecord>,
}

impl PartialEq for ScaleResult {
    /// Equality covers only the run's measurements (including the
    /// deterministic shard/epoch context), never the wall-clock
    /// [`ShardAccounting`] timings — two runs of the same configuration
    /// compare equal regardless of machine load.
    fn eq(&self, other: &Self) -> bool {
        self.csv_row() == other.csv_row()
            && self.shards == other.shards
            && self.epochs == other.epochs
            && self.violations == other.violations
            && self.records == other.records
    }
}

impl ScaleResult {
    /// Header for [`csv_row`](Self::csv_row).
    pub fn csv_header() -> &'static str {
        "receivers,nodes,links,events,detected,recovered,expedited,unrecovered,requests,\
         mean_latency_ns,max_latency_ns,retx_crossings,control_crossings,session_crossings,\
         data_crossings,state_bytes"
    }

    /// The deterministic results row: identical at any shard count for a
    /// given [`ScaleConfig`] (shard count, monitor outcome, and all
    /// wall-clock-derived figures are excluded by construction).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.receivers,
            self.nodes,
            self.links,
            self.events,
            self.detected,
            self.recovered,
            self.expedited,
            self.unrecovered,
            self.requests_sent,
            self.mean_latency_ns,
            self.max_latency_ns,
            self.retransmission_crossings,
            self.control_crossings,
            self.session_crossings,
            self.data_crossings,
            self.state_bytes,
        )
    }

    /// Protocol-state bytes per receiver (integer division; the flatness
    /// of this figure across rungs is the O(active-losses) claim).
    pub fn state_bytes_per_receiver(&self) -> u64 {
        self.state_bytes.checked_div(self.receivers).unwrap_or(0)
    }

    /// Shard busy-time imbalance: the busiest shard's wall-clock busy time
    /// over the mean across shards. `1.0` means perfectly balanced; `2.0`
    /// means the slowest shard did twice the mean work while the others
    /// waited at the barrier. Returns `1.0` for unsharded or untimed runs.
    /// See the shard-imbalance section of `docs/SCALING.md` for how to
    /// read this figure.
    pub fn imbalance_ratio(&self) -> f64 {
        let n = self.shard_accounting.len();
        let total: u64 = self.shard_accounting.iter().map(|s| s.busy_ns).sum();
        if n < 2 || total == 0 {
            return 1.0;
        }
        let max = self
            .shard_accounting
            .iter()
            .map(|s| s.busy_ns)
            .max()
            .unwrap_or(0);
        max as f64 * n as f64 / total as f64
    }

    /// Total cross-shard packets exchanged over the run (sum of per-shard
    /// sends; deterministic for a given shard count).
    pub fn cross_shard_packets(&self) -> u64 {
        self.shard_accounting.iter().map(|s| s.packets_sent).sum()
    }
}

/// The rung's drop list: `losses` receivers, evenly strided across the
/// (contiguous, BFS-last-level) receiver id range, each lose two data
/// packets on their access link — an early one (sequence `k mod
/// ⌊packets/3⌋`, detected through the ordinary sequence gap) and the final
/// packet (detected only through the source's session reports). The
/// shared tail loss lands after every early loss has recovered, so the
/// recovery caches are warm and the cached expeditious requestor exercises
/// CESRM's expedited unicast path.
///
/// Every shard injects the whole list as its [`TraceLoss`], whose size
/// does not grow with the tree. A drop decision happens on the shard that
/// sends across the link, and access links are never cut links.
fn rung_drops(tree: &MulticastTree, losses: u32, packets: u64) -> Vec<(LinkId, SeqNo)> {
    let receivers = tree.receivers().len() as u64;
    let first_receiver = tree.len() as u64 - receivers;
    let losses = u64::from(losses).min(receivers);
    let stride = (receivers / losses.max(1)).max(1);
    let (third, tail) = ((packets / 3).max(1), packets.max(1) - 1);
    let mut drops = Vec::new();
    for k in 0..losses {
        let link = LinkId(NodeId((first_receiver + k * stride) as u32));
        let early = k % third;
        drops.push((link, SeqNo(early)));
        if tail != early {
            drops.push((link, SeqNo(tail)));
        }
    }
    drops
}

/// Assigns every node to a shard: the root to shard 0, each root subtree
/// wholly to one shard (greedy min-load binning by receiver count, largest
/// subtrees placed first, ties broken by node id), descendants inheriting
/// their parent's shard. Deterministic for a given tree and shard count.
pub fn build_assignment(tree: &MulticastTree, shards: u16) -> Vec<u16> {
    assert!(shards >= 1, "need at least one shard");
    let mut assign = vec![0u16; tree.len()];
    let mut tops: Vec<(NodeId, usize)> = tree
        .children(tree.root())
        .iter()
        .map(|&c| (c, tree.receivers_below(c).len()))
        .collect();
    tops.sort_by_key(|&(c, size)| (std::cmp::Reverse(size), c));
    let mut load = vec![0u64; usize::from(shards)];
    for (c, size) in tops {
        let bin = (0..usize::from(shards))
            .min_by_key(|&b| (load[b], b))
            .expect("at least one shard");
        load[bin] += size.max(1) as u64;
        assign[c.index()] = bin as u16;
    }
    // BFS ids put every parent before its children, so one forward pass
    // propagates the subtree owner all the way down.
    for i in 1..tree.len() {
        let n = NodeId(i as u32);
        let p = tree.parent(n).expect("non-root nodes have parents");
        if p != tree.root() {
            assign[i] = assign[p.index()];
        }
    }
    assign
}

/// What one shard worker ships back to the coordinating thread. Protocol
/// agents and the recovery log hold the `Rc`-based observation handle and
/// are not `Send`, so workers extract the plain-data measurements before exiting.
struct ShardOutcome {
    events: u64,
    records: Vec<RecoveryRecord>,
    traffic: TrafficCollector,
    state_bytes: u64,
    violations: Option<u64>,
    accounting: ShardAccounting,
    engine: Option<netsim::EngineTelemetry>,
    digest: Option<obs::DigestSnapshot>,
    window: obs::RecordLog,
}

/// Mailboxes for the barrier exchange, indexed `[destination][sender]` so
/// receivers drain senders in shard order (slot-merge discipline).
type Mailboxes = Vec<Vec<Mutex<Vec<CrossShardPacket>>>>;

/// Generates the rung's topology and runs it, sharded across
/// `cfg.shards` worker threads (clamped to the number of root subtrees).
/// The returned measurements are byte-identical at any shard count.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleResult {
    let shape = ScaleShape::with_target_receivers(cfg.receivers);
    let ScaleTree {
        tree,
        link_delay_ns,
    } = scale_tree(cfg.seed, &shape);
    assert!(cfg.packets > 0, "need at least one data packet");

    let shards = (cfg.shards.max(1) as usize).min(tree.children(tree.root()).len().max(1));
    let assign = Arc::new(build_assignment(&tree, shards as u16));
    // All cut links are root links; their minimum delay bounds how soon a
    // cross-shard packet can arrive after it was sent.
    let lookahead_ns = tree
        .children(tree.root())
        .iter()
        .map(|c| link_delay_ns[c.index()])
        .min()
        .expect("scale trees have at least one root subtree");
    assert!(lookahead_ns > 0, "cut links must have positive delay");

    let drops = rung_drops(&tree, cfg.losses, cfg.packets);
    let tree = Arc::new(tree);
    let delays = Arc::new(link_delay_ns);
    let barrier = Barrier::new(shards);
    let mailboxes: Mailboxes = (0..shards)
        .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
        .collect();

    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|me| {
                let tree = Arc::clone(&tree);
                let delays = Arc::clone(&delays);
                let assign = Arc::clone(&assign);
                let barrier = &barrier;
                let mailboxes = &mailboxes;
                let drops = &drops;
                scope.spawn(move || {
                    run_shard(
                        cfg,
                        &tree,
                        &delays,
                        drops,
                        &assign,
                        me as u16,
                        shards,
                        lookahead_ns,
                        barrier,
                        mailboxes,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    let mut events = 0u64;
    let mut state_bytes = 0u64;
    let mut records: Vec<RecoveryRecord> = Vec::new();
    let mut traffic = TrafficCollector::new();
    let mut violations: Option<u64> = None;
    let mut shard_accounting: Vec<ShardAccounting> = Vec::with_capacity(shards);
    let mut engine: Option<netsim::EngineTelemetry> = None;
    let mut digest: Option<obs::DigestSnapshot> = None;
    let mut window_events: Vec<obs::Record> = Vec::new();
    for o in outcomes {
        events += o.events;
        state_bytes += o.state_bytes;
        records.extend(o.records);
        traffic.merge(o.traffic);
        if let Some(v) = o.violations {
            violations = Some(violations.unwrap_or(0) + v);
        }
        shard_accounting.push(o.accounting);
        if let Some(e) = o.engine {
            match &mut engine {
                Some(merged) => merged.merge(&e),
                None => engine = Some(e),
            }
        }
        if let Some(d) = o.digest {
            // Leaf merging is commutative and associative, so the fold
            // order (shard order here) cannot affect the merged snapshot.
            digest
                .get_or_insert_with(obs::DigestSnapshot::default)
                .merge(&d);
        }
        window_events.extend(o.window.iter());
    }
    window_events.sort_by_key(|r| r.t_ns);
    let epochs = shard_accounting.first().map_or(0, |a| a.epochs);
    records.sort_by_key(|r| (r.receiver, r.id.seq.value()));

    let detected = records.len() as u64;
    let recovered = records.iter().filter(|r| r.recovered_at.is_some()).count() as u64;
    let expedited = records
        .iter()
        .filter(|r| r.expedited && r.recovered_at.is_some())
        .count() as u64;
    let requests_sent = records.iter().map(|r| u64::from(r.requests_sent)).sum();
    let mut latency_sum: u128 = 0;
    let mut max_latency_ns = 0u64;
    for r in &records {
        if let Some(l) = r.latency() {
            latency_sum += u128::from(l.as_nanos());
            max_latency_ns = max_latency_ns.max(l.as_nanos());
        }
    }
    let mean_latency_ns = if recovered > 0 {
        (latency_sum / u128::from(recovered)) as u64
    } else {
        0
    };
    let overhead = traffic.overhead();

    ScaleResult {
        receivers: tree.receivers().len() as u64,
        nodes: tree.len() as u64,
        links: (tree.len() - 1) as u64,
        shards: shards as u32,
        events,
        detected,
        recovered,
        expedited,
        unrecovered: detected - recovered,
        requests_sent,
        mean_latency_ns,
        max_latency_ns,
        retransmission_crossings: overhead.retransmissions,
        control_crossings: overhead.control_total(),
        session_crossings: overhead.sessions,
        data_crossings: traffic.crossings_any_cast(PacketKind::Data),
        state_bytes,
        violations,
        epochs,
        shard_accounting,
        engine,
        digest,
        window_events,
        records,
    }
}

/// Sums the per-link delays along the root→`node` path.
fn path_delay_ns(tree: &MulticastTree, delays: &[u64], node: NodeId) -> u64 {
    let mut total = 0u64;
    let mut cur = node;
    while let Some(p) = tree.parent(cur) {
        total += delays[cur.index()];
        cur = p;
    }
    total
}

/// Shard `me`'s receivers with their root path delays, in attach order:
/// sorted by `(path delay, node id)`. Each agent's heap block is allocated
/// when it is attached, so the blocks land in memory in the order a flood
/// from the source reaches them and a flood's deliveries walk memory
/// forward instead of at random. Attach order is invisible to the run
/// (event keys and random streams are per node), so this moves no event.
/// The sorted list is freed once the attach loop ends: held through the
/// run it would add 16 B per receiver to the rung's peak RSS.
fn attach_order(
    tree: &MulticastTree,
    delays: &[u64],
    assign: &[u16],
    me: u16,
) -> impl Iterator<Item = (NodeId, SimDuration)> {
    let mut owned: Vec<(u64, NodeId)> = tree
        .receivers()
        .iter()
        .filter(|r| assign[r.index()] == me)
        .map(|&r| (path_delay_ns(tree, delays, r), r))
        .collect();
    owned.sort_unstable();
    owned
        .into_iter()
        .map(|(delay, r)| (r, SimDuration::from_nanos(delay)))
}

#[allow(clippy::too_many_arguments)]
fn run_shard(
    cfg: &ScaleConfig,
    tree: &Arc<MulticastTree>,
    delays: &[u64],
    drops: &[(LinkId, SeqNo)],
    assign: &Arc<Vec<u16>>,
    me: u16,
    shards: usize,
    lookahead_ns: u64,
    barrier: &Barrier,
    mailboxes: &Mailboxes,
) -> ShardOutcome {
    // Monitors replay the structured event stream and assume the global
    // event order, which only the unsharded runner produces.
    let monitored = cfg.monitor && shards == 1;
    let handle = instruments(
        obs::Setup {
            // A pinned capture window attaches a filtering sink; the
            // filter is observation-only, so measurements are unaffected.
            sink: cfg.capture_window.map(|(node, lo, hi)| {
                Box::new(crate::digest::WindowSink::new(node, lo, hi)) as Box<dyn obs::EventSink>
            }),
            monitors: monitored.then(obs::MonitorSet::standard),
            // Window width = the finer of the default window and the
            // sharding lookahead (a pure function of the topology,
            // identical at any shard count).
            digest: cfg
                .digest
                .then(|| obs::DigestRecorder::new(obs::DEFAULT_WINDOW_NS.min(lookahead_ns))),
            ..obs::Setup::default()
        },
        || {
            format!(
                "scale rung {} receivers / {}, shard {}/{}, seed {}",
                cfg.receivers,
                cfg.protocol.name(),
                me,
                shards,
                cfg.seed
            )
        },
    );
    let router_assist = matches!(cfg.protocol, Protocol::Cesrm(c) if c.router_assist);
    let net = NetConfig::default()
        .with_seed(cfg.seed)
        .with_router_assist(router_assist);
    let mut sim = Simulator::new_shared(Arc::clone(tree), net);
    sim.enable_sharding(Arc::clone(assign), me);
    sim.set_obs(handle.clone());
    for (i, &delay) in delays.iter().enumerate().skip(1) {
        sim.set_link_delay(LinkId(NodeId(i as u32)), SimDuration::from_nanos(delay));
    }
    sim.set_loss(TraceLoss::new(drops.iter().copied()));

    let log = RecoveryLog::shared();
    let collector = Rc::new(RefCell::new(TrafficCollector::new()));
    sim.set_observer(Box::new(Rc::clone(&collector)));
    log.borrow_mut().set_obs(handle.clone());

    let source = tree.root();
    let source_cfg = SourceConfig {
        packets: cfg.packets,
        period: cfg.period,
        start_at: SimTime::ZERO + cfg.warmup,
    };
    // One shared block for the source, one for all of this shard's
    // receivers: an endpoint is a single heap block with a pointer to it.
    // Receivers run session-less with the true path delay seeded.
    let owns_source = assign[source.index()] == me;
    match cfg.protocol {
        Protocol::Srm => {
            let endpoints = |params, role| {
                SrmEndpoints::new(source, params, role, log.clone()).with_obs(handle.clone())
            };
            if owns_source {
                let sources = endpoints(scale_srm_params(), Role::Source(source_cfg));
                sim.attach_agent(source, Box::new(sources.agent(source)));
            }
            let receivers = endpoints(widen_receiver_default(scale_srm_params()), Role::Receiver);
            for (r, dist) in attach_order(tree, delays, assign, me) {
                let mut a = receivers.agent(r);
                a.core_mut().set_sessions_enabled(false);
                a.core_mut().seed_distance(source, dist);
                sim.attach_agent(r, Box::new(a));
            }
        }
        Protocol::Cesrm(ccfg) => {
            let endpoints = |cfg, role| {
                CesrmEndpoints::new(source, cfg, role, log.clone()).with_obs(handle.clone())
            };
            if owns_source {
                let sources = endpoints(ccfg, Role::Source(source_cfg));
                sim.attach_agent(source, Box::new(sources.agent(source)));
            }
            let rcfg = CesrmConfig {
                srm: widen_receiver_default(ccfg.srm),
                ..ccfg
            };
            let receivers = endpoints(rcfg, Role::Receiver);
            for (r, dist) in attach_order(tree, delays, assign, me) {
                let mut a = receivers.agent(r);
                a.core_mut().set_sessions_enabled(false);
                a.core_mut().seed_distance(source, dist);
                sim.attach_agent(r, Box::new(a));
            }
        }
    }

    let horizon_ns = cfg.horizon().as_nanos();
    let mut accounting = ShardAccounting {
        shard: u32::from(me),
        ..ShardAccounting::default()
    };
    if shards == 1 {
        // simlint: allow(D002, reason = "per-shard busy-time accounting for the imbalance report; never feeds simulation state")
        let busy = Instant::now();
        sim.run_until(SimTime::from_nanos(horizon_ns));
        accounting.busy_ns = busy.elapsed().as_nanos() as u64;
        accounting.epochs = 1;
    } else {
        let mut epoch: u64 = 0;
        loop {
            let end = (epoch + 1).saturating_mul(lookahead_ns).min(horizon_ns + 1);
            // simlint: allow(D002, reason = "per-shard busy/barrier-time accounting for the imbalance report; never feeds simulation state")
            let busy = Instant::now();
            sim.run_until(SimTime::from_nanos(end - 1));
            for p in sim.take_outbox() {
                let dest = usize::from(assign[p.dest().index()]);
                mailboxes[dest][usize::from(me)]
                    .lock()
                    .expect("mailbox lock poisoned")
                    .push(p);
                accounting.packets_sent += 1;
            }
            accounting.busy_ns += busy.elapsed().as_nanos() as u64;
            // simlint: allow(D002, reason = "per-shard barrier-wait accounting; never feeds simulation state")
            let wait = Instant::now();
            barrier.wait();
            accounting.barrier_ns += wait.elapsed().as_nanos() as u64;
            for slot in &mailboxes[usize::from(me)] {
                let batch = mem::take(&mut *slot.lock().expect("mailbox lock poisoned"));
                for p in batch {
                    // A packet sent during the final epoch arrives past the
                    // horizon — exactly the events an unsharded run leaves
                    // unprocessed in its queue.
                    if p.arrive_ns() <= horizon_ns {
                        sim.inject_cross_shard(p);
                        accounting.packets_received += 1;
                    }
                }
            }
            // simlint: allow(D002, reason = "per-shard barrier-wait accounting; never feeds simulation state")
            let wait = Instant::now();
            barrier.wait();
            accounting.barrier_ns += wait.elapsed().as_nanos() as u64;
            epoch += 1;
            if end > horizon_ns {
                break;
            }
        }
        accounting.epochs = epoch;
    }

    let violations = handle
        .finish_monitors()
        .map(|report| report.stats.violations);
    let mut state_bytes = 0u64;
    for i in 0..tree.len() {
        if assign[i] != me {
            continue;
        }
        let n = NodeId(i as u32);
        if let Some(a) = sim.agent_as::<SrmAgent>(n) {
            state_bytes += a.state_bytes() as u64;
        } else if let Some(a) = sim.agent_as::<CesrmAgent>(n) {
            state_bytes += a.state_bytes() as u64;
        }
    }
    let records: Vec<RecoveryRecord> = log.borrow().records().copied().collect();
    let traffic = mem::replace(&mut *collector.borrow_mut(), TrafficCollector::new());
    let digest = handle.digest_snapshot();
    let window = handle.drain();
    obs::flight::clear_current();
    ShardOutcome {
        events: sim.events_processed(),
        records,
        traffic,
        state_bytes,
        violations,
        accounting,
        engine: cfg.profile.then(|| sim.telemetry()),
        digest,
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(receivers: u64, shards: u32) -> ScaleConfig {
        ScaleConfig {
            shards,
            packets: 8,
            ..ScaleConfig::rung(receivers)
        }
    }

    #[test]
    fn losses_are_injected_and_recovered() {
        let r = run_scale(&small_cfg(100, 1));
        assert_eq!(r.receivers, 100);
        assert_eq!(
            r.detected, 8,
            "default plan injects 2 losses each at 4 strided receivers"
        );
        assert_eq!(r.unrecovered, 0, "all losses must recover within the drain");
        assert!(r.mean_latency_ns > 0);
        assert!(r.requests_sent >= 1 || r.expedited > 0);
        assert!(r.state_bytes > 0);
        // Each strided receiver appears exactly twice (early + tail loss).
        let mut receivers: Vec<NodeId> = r.records.iter().map(|rec| rec.receiver).collect();
        receivers.sort_unstable();
        receivers.dedup();
        assert_eq!(receivers.len(), 4, "4 distinct strided receivers");
    }

    #[test]
    fn tail_losses_exercise_the_expedited_path() {
        // By the time the shared tail loss is detected (via session
        // reports), every early loss has recovered and populated the
        // recovery caches; the cached expeditious requestor must then
        // recover at least one tail loss via CESRM's expedited unicast.
        let r = run_scale(&ScaleConfig {
            shards: 1,
            ..ScaleConfig::rung(100)
        });
        assert_eq!(r.unrecovered, 0);
        assert!(
            r.expedited > 0,
            "warm caches must trigger expedited recovery on the tail loss"
        );
    }

    #[test]
    fn identical_results_at_any_shard_count() {
        for protocol in [Protocol::Srm, Protocol::Cesrm(scale_cesrm_config())] {
            let cfg = |shards| ScaleConfig {
                protocol,
                ..small_cfg(100, shards)
            };
            let one = run_scale(&cfg(1));
            let name = protocol.name();
            for shards in [2u32, 3, 4] {
                let many = run_scale(&cfg(shards));
                assert_eq!(many.shards, shards, "rung has 10 root subtrees");
                assert_eq!(one.csv_row(), many.csv_row(), "{name} at {shards} shards");
                assert_eq!(one.records, many.records, "{name} at {shards} shards");
                assert_eq!(one.events, many.events, "{name} at {shards} shards");
            }
        }
    }

    #[test]
    fn digest_trail_is_identical_at_any_shard_count_and_never_perturbs() {
        let plain = run_scale(&small_cfg(100, 1));
        let digest_cfg = |shards| ScaleConfig {
            digest: true,
            ..small_cfg(100, shards)
        };
        let one = run_scale(&digest_cfg(1));
        // Digesting must not change the science.
        assert_eq!(plain.csv_row(), one.csv_row());
        assert_eq!(plain.records, one.records);
        let d1 = one.digest.as_ref().expect("digest requested");
        assert!(d1.count() > 0, "the rung emits canonical events");
        for shards in [2u32, 3] {
            let many = run_scale(&digest_cfg(shards));
            assert_eq!(one.csv_row(), many.csv_row(), "at {shards} shards");
            let dn = many.digest.as_ref().expect("digest requested");
            assert_eq!(d1, dn, "digest trail diverged at {shards} shards");
        }
    }

    #[test]
    fn sharded_run_reports_per_shard_accounting() {
        let r = run_scale(&small_cfg(100, 4));
        assert_eq!(r.shard_accounting.len(), 4);
        assert!(r.epochs > 1, "multi-epoch run expected");
        for (i, a) in r.shard_accounting.iter().enumerate() {
            assert_eq!(a.shard, i as u32, "shard order");
            assert_eq!(a.epochs, r.epochs, "epoch counts agree across shards");
            assert!(a.busy_ns > 0, "shard {i} recorded no busy time");
        }
        // Every cross-shard packet sent within the horizon is received.
        let sent = r.cross_shard_packets();
        let received: u64 = r.shard_accounting.iter().map(|a| a.packets_received).sum();
        assert!(sent > 0, "root-cut traffic must cross shards");
        assert!(received <= sent, "receives cannot exceed sends");
        assert!(r.imbalance_ratio() >= 1.0);

        let solo = run_scale(&small_cfg(100, 1));
        assert_eq!(solo.epochs, 1);
        assert_eq!(solo.shard_accounting.len(), 1);
        assert_eq!(solo.imbalance_ratio(), 1.0);
        assert_eq!(solo.cross_shard_packets(), 0);
    }

    #[test]
    fn srm_rung_is_deterministic_and_recovers() {
        let cfg = ScaleConfig {
            protocol: Protocol::Srm,
            ..small_cfg(100, 2)
        };
        let a = run_scale(&cfg);
        let b = run_scale(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.unrecovered, 0);
        assert_eq!(a.expedited, 0, "plain SRM has no expedited path");
    }

    #[test]
    fn monitors_run_clean_on_the_small_rung() {
        let cfg = ScaleConfig {
            monitor: true,
            ..small_cfg(100, 1)
        };
        let r = run_scale(&cfg);
        assert_eq!(r.violations, Some(0), "I1–I6 must hold");
    }

    #[test]
    fn monitors_are_skipped_when_sharded() {
        let cfg = ScaleConfig {
            monitor: true,
            ..small_cfg(100, 2)
        };
        assert_eq!(run_scale(&cfg).violations, None);
    }

    #[test]
    fn assignment_is_a_root_cut() {
        let ScaleTree { tree, .. } = scale_tree(7, &ScaleShape::with_target_receivers(100));
        let assign = build_assignment(&tree, 3);
        assert_eq!(assign[0], 0, "root lives on shard 0");
        for i in 1..tree.len() {
            let n = NodeId(i as u32);
            let p = tree.parent(n).unwrap();
            if p != tree.root() {
                assert_eq!(assign[i], assign[p.index()], "only root links are cut");
            }
        }
        let mut used: Vec<u16> = assign.to_vec();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, vec![0, 1, 2], "all shards get work");
    }

    #[test]
    fn receivers_attach_in_root_path_delay_order() {
        let ScaleTree {
            tree,
            link_delay_ns,
        } = scale_tree(7, &ScaleShape::with_target_receivers(1_000));
        for shards in [1u16, 2] {
            let assign = build_assignment(&tree, shards);
            for me in 0..shards {
                let keys: Vec<(u64, NodeId)> = attach_order(&tree, &link_delay_ns, &assign, me)
                    .map(|(r, d)| (d.as_nanos(), r))
                    .collect();
                for &(delay, r) in &keys {
                    assert_eq!(delay, path_delay_ns(&tree, &link_delay_ns, r), "{r}");
                }
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "{shards} shards, shard {me}: sorted by (delay, id)"
                );
                assert!(
                    keys.windows(2).any(|w| w[0].1 > w[1].1),
                    "{shards} shards, shard {me}: delay order differs from id order"
                );
                let mut ids: Vec<NodeId> = keys.iter().map(|&(_, r)| r).collect();
                ids.sort_unstable();
                let owned: Vec<NodeId> = tree
                    .receivers()
                    .iter()
                    .copied()
                    .filter(|r| assign[r.index()] == me)
                    .collect();
                assert!(
                    !owned.is_empty(),
                    "{shards} shards, shard {me} owns receivers"
                );
                assert_eq!(
                    ids, owned,
                    "{shards} shards, shard {me}: exactly its receivers"
                );
            }
        }
    }

    #[test]
    fn rung_drops_stride_the_access_links() {
        let ScaleTree { tree, .. } = scale_tree(7, &ScaleShape::with_target_receivers(100));
        let drops = rung_drops(&tree, 4, 8);
        assert_eq!(drops.len(), 8, "two drops per strided receiver");
        assert_eq!(TraceLoss::new(drops.iter().copied()).len(), 8, "distinct");
        let mut receivers: Vec<NodeId> = drops.iter().map(|(l, _)| l.0).collect();
        receivers.dedup();
        assert!(receivers.iter().all(|r| tree.receivers().contains(r)));
        assert_eq!(
            receivers.iter().map(|r| r.0).collect::<Vec<_>>(),
            [11, 36, 61, 86],
            "strided by receivers / losses from the first receiver"
        );
        // Every strided receiver loses the final packet (tail loss).
        assert_eq!(
            drops.iter().filter(|&&(_, seq)| seq == SeqNo(7)).count(),
            4,
            "shared tail loss on every strided receiver"
        );
        assert_eq!(
            rung_drops(&tree, 4, 1).len(),
            4,
            "one packet: one drop each"
        );
    }

    #[test]
    fn state_bytes_per_receiver_stays_flat_across_rungs() {
        // The O(active-losses) claim at test scale: growing the group 10×
        // must not grow per-receiver state (nothing is held per member).
        let small = run_scale(&small_cfg(1_000, 1));
        let large = run_scale(&small_cfg(10_000, 2));
        let per_small = small.state_bytes_per_receiver();
        let per_large = large.state_bytes_per_receiver();
        assert!(
            per_large <= per_small,
            "bytes/receiver grew from {per_small} to {per_large}"
        );
        // And the one-block claim: an ordinary receiver owns its own struct
        // and not a byte more, so the average sits on `size_of` — the few
        // loss receivers' spilled maps and the source's own state, spread
        // over 10⁴ receivers, are the allowance.
        let budget = std::mem::size_of::<CesrmAgent>() as u64 + 8;
        assert!(
            per_large <= budget,
            "{per_large} bytes/receiver owned, budget {budget}"
        );
    }
}
