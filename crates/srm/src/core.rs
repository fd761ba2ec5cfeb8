use std::collections::BTreeMap;

use rand::Rng;

use metrics::SharedRecoveryLog;
use netsim::{
    Context, DeliveryMeta, Packet, PacketBody, PacketId, RecoveryTuple, SeqNo, SessionData,
    SessionEcho, SimDuration, SimTime, TimerToken,
};
use topology::NodeId;

use crate::state::{LossState, PeerEcho, ReplyState, Role, TimerKind};
use crate::timers::{FixedTimers, TimerPolicy};
use crate::window::ReceivedSet;
use crate::SrmParams;

/// Ordered sparse map from node id to `V`: a sorted vector with binary
/// search. Footprint is O(entries) like a `BTreeMap` — the property that
/// keeps per-endpoint state off the group size at 10⁶ members
/// (`docs/SCALING.md`) — but storage is contiguous, so the session hot
/// path (one update per session message heard) stays a single cache-line
/// touch for the typical already-present peer, and iteration is a linear
/// scan in ascending id order (the order the former dense vector and the
/// interim `BTreeMap` both produced, preserving byte-identical results).
#[derive(Clone, Debug, Default)]
struct NodeMap<V> {
    entries: Vec<(NodeId, V)>,
}

impl<V> NodeMap<V> {
    fn new() -> Self {
        NodeMap {
            entries: Vec::new(),
        }
    }

    fn get(&self, node: NodeId) -> Option<&V> {
        self.entries
            .binary_search_by_key(&node, |probe| probe.0)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    fn insert(&mut self, node: NodeId, value: V) {
        match self.entries.binary_search_by_key(&node, |probe| probe.0) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (node, value)),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.entries.iter().map(|(n, v)| (*n, v))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The SRM protocol engine (paper §2): session exchange, loss detection,
/// request scheduling with suppression and back-off, and reply scheduling
/// with suppression and abstinence.
///
/// `SrmCore` is driven through [`on_start`](SrmCore::on_start),
/// [`on_packet`](SrmCore::on_packet) and [`on_timer`](SrmCore::on_timer) but
/// is not itself a [`netsim::Agent`]: [`SrmAgent`](crate::SrmAgent) wraps it
/// for plain SRM, and the CESRM crate composes it with the caching-based
/// expedited recovery layer through the query/notification methods
/// ([`take_newly_detected`](SrmCore::take_newly_detected),
/// [`reply_blocked`](SrmCore::reply_blocked),
/// [`note_reply_sent`](SrmCore::note_reply_sent), …).
pub struct SrmCore {
    me: NodeId,
    source: NodeId,
    params: SrmParams,
    role: Role,
    log: SharedRecoveryLog,
    /// Suppression-window policy (fixed weights by default; adaptive for
    /// ablations).
    timer_policy: Box<dyn TimerPolicy>,
    /// Data packets received (receivers only; the source implicitly has all
    /// packets it sent). Compacted: contiguous prefix + sparse tail.
    received: ReceivedSet,
    /// Data packets transmitted so far (source only).
    sent: u64,
    /// Highest sequence number known to exist, from any evidence.
    highest: Option<u64>,
    losses: BTreeMap<u64, LossState>,
    replies: BTreeMap<u64, ReplyState>,
    timers: BTreeMap<TimerToken, TimerKind>,
    /// Last session echo per peer, sized by the peers actually heard from,
    /// not the group: at 10⁶ receivers a dense per-member vector per
    /// endpoint would be O(N²) across the group.
    peers: NodeMap<PeerEcho>,
    /// One-way distance estimate per peer; sparse for the same reason.
    dist: NodeMap<SimDuration>,
    /// Whether this endpoint runs its own session timer. Scale-mode
    /// receivers disable it (see [`set_sessions_enabled`]
    /// (SrmCore::set_sessions_enabled)): with 10⁶ members the all-to-all
    /// session exchange is O(N²) traffic, so only the source announces
    /// `highest_seq` and receiver→source distances are seeded from the
    /// topology instead.
    sessions_enabled: bool,
    newly_detected: Vec<SeqNo>,
    default_distance_uses: u64,
    spurious_detections: u64,
    /// The run's observation handle (see the `obs` crate); off by default.
    obs: obs::Instruments,
    /// Counters pre-registered on `obs`.
    metrics: SrmMetrics,
}

/// Pre-registered counters over the suppression-timer machinery — the
/// layer the SRM retrospectives single out as where scalability costs
/// hide. All no-ops by default.
#[derive(Default)]
struct SrmMetrics {
    request_timers_set: obs::Counter,
    requests_sent: obs::Counter,
    request_suppressed: obs::Counter,
    reply_timers_set: obs::Counter,
    replies_sent: obs::Counter,
    reply_suppressed: obs::Counter,
}

impl SrmMetrics {
    fn new(metrics: &obs::Instruments) -> Self {
        SrmMetrics {
            request_timers_set: metrics.counter("srm.request_timers_set"),
            requests_sent: metrics.counter("srm.requests_sent"),
            request_suppressed: metrics.counter("srm.request_suppressed"),
            reply_timers_set: metrics.counter("srm.reply_timers_set"),
            replies_sent: metrics.counter("srm.replies_sent"),
            reply_suppressed: metrics.counter("srm.reply_suppressed"),
        }
    }
}

impl SrmCore {
    /// Creates an SRM endpoint for host `me` receiving from `source`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid or if `role` is
    /// [`Role::Source`] while `me != source`.
    pub fn new(
        me: NodeId,
        source: NodeId,
        params: SrmParams,
        role: Role,
        log: SharedRecoveryLog,
    ) -> Self {
        params.validate();
        if role.is_source() {
            assert_eq!(me, source, "the source role must run on the source node");
        }
        SrmCore {
            me,
            source,
            timer_policy: Box::new(FixedTimers::new(params)),
            params,
            role,
            log,
            received: ReceivedSet::new(),
            sent: 0,
            highest: None,
            losses: BTreeMap::new(),
            replies: BTreeMap::new(),
            timers: BTreeMap::new(),
            peers: NodeMap::new(),
            dist: NodeMap::new(),
            sessions_enabled: true,
            newly_detected: Vec::new(),
            default_distance_uses: 0,
            spurious_detections: 0,
            obs: obs::Instruments::off(),
            metrics: SrmMetrics::default(),
        }
    }

    /// Installs the run's observation handle. The core emits the
    /// scheduling/suppression decisions only it can see
    /// (`req_scheduled`/`req_suppressed`/`rep_scheduled`/`rep_suppressed`/
    /// `rep_sent`) and counts them (`srm.request_timers_set`,
    /// `srm.requests_sent`, `srm.request_suppressed`,
    /// `srm.reply_timers_set`, `srm.replies_sent`, `srm.reply_suppressed`);
    /// detection and completion records come from the shared
    /// [`metrics::RecoveryLog`], which should be given a clone of the same
    /// handle. Per-simulation owned and observation-only.
    pub fn set_obs(&mut self, obs: obs::Instruments) {
        self.metrics = SrmMetrics::new(&obs);
        self.obs = obs;
    }

    /// The installed observation handle, for the agent wrapping this core
    /// to emit and profile through.
    #[inline]
    pub fn obs(&self) -> &obs::Instruments {
        &self.obs
    }

    /// This endpoint's node id.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The transmission source's node id.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The scheduling parameters.
    #[inline]
    pub fn params(&self) -> &SrmParams {
        &self.params
    }

    /// Replaces the suppression-window policy (e.g. with
    /// [`AdaptiveTimers`](crate::AdaptiveTimers)). The `C3`/`D3` abstinence
    /// weights stay in [`SrmParams`].
    pub fn set_timer_policy(&mut self, policy: Box<dyn TimerPolicy>) {
        self.timer_policy = policy;
    }

    /// Current effective scheduling weights `(c1, c2, d1, d2)`.
    pub fn timer_weights(&self) -> (f64, f64, f64, f64) {
        self.timer_policy.weights()
    }

    /// `true` iff this endpoint holds packet `seq` (received it, or sent it
    /// as the source).
    pub fn has(&self, seq: SeqNo) -> bool {
        if self.role.is_source() {
            seq.value() < self.sent
        } else {
            self.received.contains(seq.value())
        }
    }

    /// `true` iff `seq` is a currently outstanding (detected, unrecovered)
    /// loss.
    pub fn is_lost(&self, seq: SeqNo) -> bool {
        self.losses.contains_key(&seq.value())
    }

    /// Estimated one-way distance to `peer` from session exchange (or from
    /// [`seed_distance`](SrmCore::seed_distance)).
    pub fn dist_to(&self, peer: NodeId) -> Option<SimDuration> {
        self.dist.get(peer).copied()
    }

    /// Pre-seeds the one-way distance estimate to `peer`, as a session
    /// exchange would have. Scale-mode runs use this to install the true
    /// topology path delay to the source on every receiver, replacing the
    /// all-to-all session estimation that is infeasible at 10⁶ members.
    pub fn seed_distance(&mut self, peer: NodeId, d: SimDuration) {
        self.dist.insert(peer, d);
    }

    /// Enables or disables this endpoint's own session timer (on by
    /// default). Scale-mode receivers turn it off; tail-loss detection then
    /// rides exclusively on the *source's* session reports, whose
    /// `highest_seq` the receivers still consume in
    /// [`on_packet`](SrmCore::on_packet). Must be called before
    /// [`on_start`](SrmCore::on_start).
    pub fn set_sessions_enabled(&mut self, on: bool) {
        self.sessions_enabled = on;
    }

    /// Estimated one-way distance to the source, falling back to
    /// [`SrmParams::default_distance`] when no estimate exists yet.
    pub fn dist_to_source(&mut self) -> SimDuration {
        self.dist_or_default(self.source)
    }

    /// Estimated one-way distance to `peer`, falling back to
    /// [`SrmParams::default_distance`] when no estimate exists yet.
    pub fn dist_to_or_default(&mut self, peer: NodeId) -> SimDuration {
        self.dist_or_default(peer)
    }

    /// Highest sequence number known to exist.
    pub fn highest(&self) -> Option<SeqNo> {
        self.highest.map(SeqNo)
    }

    /// Times the default distance had to substitute for a missing session
    /// estimate; stays 0 in warmed-up lossless-session runs.
    pub fn default_distance_uses(&self) -> u64 {
        self.default_distance_uses
    }

    /// Loss detections that turned out spurious (the original packet arrived
    /// after a session message implied it was lost); stays 0 under the
    /// paper's timing assumptions.
    pub fn spurious_detections(&self) -> u64 {
        self.spurious_detections
    }

    /// Drains the sequence numbers whose loss was detected since the last
    /// call — the hook the CESRM layer uses to trigger expedited
    /// recoveries.
    pub fn take_newly_detected(&mut self) -> Vec<SeqNo> {
        std::mem::take(&mut self.newly_detected)
    }

    /// `true` iff a reply for `seq` is scheduled or pending (within the
    /// reply abstinence period) — the condition under which both SRM and
    /// CESRM's expeditious replier must not send another reply (§3.2).
    pub fn reply_blocked(&self, seq: SeqNo, now: SimTime) -> bool {
        self.replies
            .get(&seq.value())
            .map(|r| r.timer.is_some() || now < r.abstinence_until)
            .unwrap_or(false)
    }

    /// Records that this host just sent a (possibly expedited) reply for
    /// `seq` instigated by `requestor`: cancels any scheduled reply and
    /// opens the reply abstinence period, exactly as for a normal reply
    /// send.
    pub fn note_reply_sent(&mut self, ctx: &mut Context<'_>, seq: SeqNo, requestor: NodeId) {
        let d = self.dist_or_default(requestor);
        let abstinence = ctx.now() + d.mul_f64(self.params.d3);
        let entry = self
            .replies
            .entry(seq.value())
            .or_insert_with(|| ReplyState {
                timer: None,
                requestor,
                req_dist_src: SimDuration::ZERO,
                abstinence_until: abstinence,
                we_replied: false,
            });
        if let Some(tok) = entry.timer.take() {
            ctx.cancel_timer(tok);
            self.timers.remove(&tok);
        }
        entry.we_replied = true;
        if abstinence > entry.abstinence_until {
            entry.abstinence_until = abstinence;
        }
    }

    /// Starts the endpoint: schedules the session exchange (jittered within
    /// one period to avoid fleet-wide synchronization) and, for the source,
    /// the data transmission.
    pub fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.sessions_enabled {
            let period = self.params.session_period;
            let jitter = SimDuration::from_nanos(ctx.rng().gen_range(0..period.as_nanos().max(1)));
            let tok = ctx.set_timer(jitter);
            self.timers.insert(tok, TimerKind::Session);
        }
        if let Role::Source(cfg) = self.role {
            let delay = cfg.start_at.saturating_since(ctx.now());
            let tok = ctx.set_timer(delay);
            self.timers.insert(tok, TimerKind::DataTx);
        }
    }

    /// Handles a fired timer. Returns `false` when the token does not
    /// belong to this core (e.g. it belongs to the CESRM layer above).
    pub fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) -> bool {
        let Some(kind) = self.timers.remove(&token) else {
            return false;
        };
        match kind {
            TimerKind::DataTx => self.fire_data_tx(ctx),
            TimerKind::Session => self.fire_session(ctx),
            TimerKind::Request(seq) => self.fire_request(ctx, SeqNo(seq)),
            TimerKind::Reply(seq) => self.fire_reply(ctx, SeqNo(seq)),
        }
        true
    }

    /// Handles a delivered packet.
    pub fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, _meta: &DeliveryMeta) {
        match &packet.body {
            PacketBody::Data { id } => {
                if id.source == self.source {
                    self.receive_data(ctx, id.seq);
                }
            }
            PacketBody::Request {
                id,
                requestor,
                dist_req_src,
            } => {
                if id.source == self.source {
                    self.receive_request(ctx, id.seq, *requestor, *dist_req_src);
                }
            }
            PacketBody::Reply { tuple, expedited } => {
                if tuple.id.source == self.source {
                    self.receive_reply(ctx, tuple, *expedited);
                }
            }
            PacketBody::ExpeditedRequest { id, .. } => {
                // Handled by the CESRM layer; the core only notes that the
                // packet exists (an expedited request is evidence of it).
                if id.source == self.source {
                    self.note_exists(ctx, id.seq);
                }
            }
            PacketBody::Session(data) => self.receive_session(ctx, data),
        }
    }

    // ------------------------------------------------------------------
    // Timer firings
    // ------------------------------------------------------------------

    fn fire_data_tx(&mut self, ctx: &mut Context<'_>) {
        let Role::Source(cfg) = self.role else {
            unreachable!("data timer on non-source");
        };
        let seq = self.sent;
        self.sent += 1;
        self.highest = Some(seq);
        ctx.multicast(PacketBody::Data {
            id: self.pid(SeqNo(seq)),
        });
        if self.sent < cfg.packets {
            let tok = ctx.set_timer(cfg.period);
            self.timers.insert(tok, TimerKind::DataTx);
        }
    }

    fn fire_session(&mut self, ctx: &mut Context<'_>) {
        let highest_seq = if self.role.is_source() {
            self.sent.checked_sub(1).map(SeqNo)
        } else {
            // Report the highest packet actually received, not merely known
            // to exist: the paper uses session state to let others detect
            // losses from packets *received* elsewhere.
            self.received.max().map(SeqNo)
        };
        let echoes: Vec<SessionEcho> = self
            .peers
            .iter()
            .map(|(peer, e)| SessionEcho {
                peer,
                sent_at: e.sent_at,
                held_for: ctx.now().saturating_since(e.received_at),
            })
            .collect();
        ctx.multicast(PacketBody::session_about(
            self.me,
            ctx.now(),
            self.source,
            highest_seq,
            echoes,
        ));
        // Piggyback state GC on the session tick: reply entries whose
        // abstinence has lapsed (and with no timer pending) are dead.
        let now = ctx.now();
        self.replies
            .retain(|_, r| r.timer.is_some() || now < r.abstinence_until);
        let tok = ctx.set_timer(self.params.session_period);
        self.timers.insert(tok, TimerKind::Session);
    }

    fn fire_request(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        if !self.losses.contains_key(&seq.value()) {
            return; // recovered in the meantime
        }
        let dist = self.dist_or_default(self.source);
        ctx.multicast(PacketBody::Request {
            id: self.pid(seq),
            requestor: self.me,
            dist_req_src: dist,
        });
        self.metrics.requests_sent.inc();
        self.log
            .borrow_mut()
            .on_request_sent(self.me, self.pid(seq), ctx.now());
        if let Some(state) = self.losses.get(&seq.value()) {
            self.timer_policy.on_request_sent(state.delay_over_d);
        }
        // Schedule the next recovery round and observe the back-off
        // abstinence period (§2.1).
        self.reschedule_request(ctx, seq);
    }

    fn fire_reply(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        let Some(state) = self.replies.get_mut(&seq.value()) else {
            return;
        };
        state.timer = None;
        let requestor = state.requestor;
        let req_dist_src = state.req_dist_src;
        let dist_rep_req = self.dist_or_default(requestor);
        let tuple = RecoveryTuple {
            id: self.pid(seq),
            requestor,
            dist_req_src: req_dist_src,
            replier: self.me,
            dist_rep_req,
            turning_point: None,
        };
        ctx.multicast(PacketBody::Reply {
            tuple,
            expedited: false,
        });
        self.metrics.replies_sent.inc();
        self.obs
            .emit(ctx.now().as_nanos(), || obs::Event::ReplySent {
                node: self.me.0,
                seq: seq.value(),
                requestor: requestor.0,
                expedited: false,
            });
        self.note_reply_sent(ctx, seq, requestor);
    }

    // ------------------------------------------------------------------
    // Packet receptions
    // ------------------------------------------------------------------

    fn receive_data(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        // Store the packet before gap detection so the arriving packet is
        // not mistaken for its own loss.
        self.mark_received(
            ctx, seq, /*via_reply=*/ false, /*expedited=*/ false,
        );
        self.note_exists(ctx, seq);
    }

    fn receive_request(
        &mut self,
        ctx: &mut Context<'_>,
        seq: SeqNo,
        requestor: NodeId,
        req_dist_src: SimDuration,
    ) {
        self.note_exists(ctx, seq);
        if self.has(seq) {
            self.maybe_schedule_reply(ctx, seq, requestor, req_dist_src);
        } else if let Some(state) = self.losses.get(&seq.value()) {
            // Another host requested the packet we are missing: back our own
            // request off to the next recovery round, at most once per round
            // (back-off abstinence, §2.1).
            if state.timer.is_some() && ctx.now() >= state.backoff_abstinence_until {
                self.metrics.request_suppressed.inc();
                // Suppress → immediately re-arm, one atomic path: the
                // suppression-health monitor (I3, docs/MONITORS.md) treats
                // a `req_sent` after `req_suppressed` with no intervening
                // `req_scheduled` as a violation.
                self.obs
                    .emit(ctx.now().as_nanos(), || obs::Event::RequestSuppressed {
                        node: self.me.0,
                        seq: seq.value(),
                        by: requestor.0,
                    });
                self.reschedule_request(ctx, seq);
            } else {
                // A same-round duplicate of a request we made or heard:
                // evidence that suppression is too tight.
                self.timer_policy.on_duplicate_request();
            }
        }
    }

    fn receive_reply(&mut self, ctx: &mut Context<'_>, tuple: &RecoveryTuple, expedited: bool) {
        let seq = tuple.id.seq;
        // The reply carries the packet: recover (or store) it before gap
        // detection so it is not mistaken for its own loss.
        self.mark_received(ctx, seq, /*via_reply=*/ true, expedited);
        self.note_exists(ctx, seq);
        // Receiving a reply cancels a scheduled reply and opens the reply
        // abstinence period (§2.2).
        let d = self.dist_or_default(tuple.requestor);
        let abstinence = ctx.now() + d.mul_f64(self.params.d3);
        let entry = self
            .replies
            .entry(seq.value())
            .or_insert_with(|| ReplyState {
                timer: None,
                requestor: tuple.requestor,
                req_dist_src: tuple.dist_req_src,
                abstinence_until: abstinence,
                we_replied: false,
            });
        if entry.we_replied && ctx.now() < entry.abstinence_until {
            // Someone else retransmitted a packet we had just
            // retransmitted: our reply window was too tight.
            self.timer_policy.on_duplicate_reply();
        }
        if let Some(tok) = entry.timer.take() {
            ctx.cancel_timer(tok);
            self.timers.remove(&tok);
            self.metrics.reply_suppressed.inc();
            self.obs
                .emit(ctx.now().as_nanos(), || obs::Event::ReplySuppressed {
                    node: self.me.0,
                    seq: seq.value(),
                    by: tuple.replier.0,
                });
        }
        if abstinence > entry.abstinence_until {
            entry.abstinence_until = abstinence;
        }
    }

    fn receive_session(&mut self, ctx: &mut Context<'_>, data: &SessionData) {
        self.peers.insert(
            data.member,
            PeerEcho {
                sent_at: data.sent_at,
                received_at: ctx.now(),
            },
        );
        for echo in &data.echoes {
            if echo.peer == self.me {
                // d̂ = (now − our_send_time − peer_hold_time) / 2.
                let elapsed = ctx.now().saturating_since(echo.sent_at);
                let rtt = if elapsed > echo.held_for {
                    elapsed - echo.held_for
                } else {
                    SimDuration::ZERO
                };
                self.dist.insert(data.member, rtt / 2);
            }
        }
        if let Some(h) = data.highest_seq {
            // In multi-source groups, only the report about our source is a
            // statement about our sequence space.
            if data.about.is_none() || data.about == Some(self.source) {
                self.note_exists(ctx, h);
            }
        }
    }

    // ------------------------------------------------------------------
    // Loss bookkeeping
    // ------------------------------------------------------------------

    /// Notes evidence that packet `seq` exists; detects as lost every
    /// not-yet-received packet up to it (sequence-gap / session-report
    /// detection, §2).
    fn note_exists(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        if self.role.is_source() {
            return;
        }
        let from = self.highest.map_or(0, |h| h + 1);
        if self.highest.is_none() || seq.value() >= from {
            for i in from..=seq.value() {
                self.highest = Some(i);
                if !self.received.contains(i) && !self.losses.contains_key(&i) {
                    self.detect_loss(ctx, SeqNo(i));
                }
            }
        }
    }

    fn detect_loss(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        self.log
            .borrow_mut()
            .on_detect(self.me, self.pid(seq), ctx.now());
        self.losses.insert(
            seq.value(),
            LossState {
                timer: None,
                k: 0,
                backoff_abstinence_until: ctx.now(),
                delay_over_d: 0.0,
            },
        );
        self.schedule_request(ctx, seq);
        self.newly_detected.push(seq);
    }

    /// Schedules (or first-schedules) the request timer for `seq` in the
    /// current round's interval `2^k · [C1·d̂, (C1+C2)·d̂]` and advances
    /// `k`.
    fn schedule_request(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        let d = self.dist_or_default(self.source);
        let state = self
            .losses
            .get_mut(&seq.value())
            .expect("scheduling request for unknown loss");
        let factor = (1u64 << state.k.min(32)) as f64;
        let (lo, width) = self.timer_policy.request_window(d);
        let (lo, width) = (lo.mul_f64(factor), width.mul_f64(factor));
        let delay = lo + SimDuration::from_nanos(ctx.rng().gen_range(0..=width.as_nanos()));
        let tok = ctx.set_timer(delay);
        self.timers.insert(tok, TimerKind::Request(seq.value()));
        state.timer = Some(tok);
        let round = state.k;
        state.k += 1;
        state.delay_over_d = if d.is_zero() {
            0.0
        } else {
            delay.as_secs_f64() / d.as_secs_f64()
        };
        self.metrics.request_timers_set.inc();
        self.obs
            .emit(ctx.now().as_nanos(), || obs::Event::RequestScheduled {
                node: self.me.0,
                seq: seq.value(),
                round,
                delay_ns: delay.as_nanos(),
            });
    }

    /// Moves the request for `seq` to the next recovery round (after sending
    /// our own request or hearing another host's) and opens the back-off
    /// abstinence period `2^k · C3 · d̂` with the same round factor (§2.1).
    fn reschedule_request(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        let d = self.dist_or_default(self.source);
        let Some(state) = self.losses.get_mut(&seq.value()) else {
            return;
        };
        if let Some(tok) = state.timer.take() {
            ctx.cancel_timer(tok);
            self.timers.remove(&tok);
        }
        let factor = (1u64 << state.k.min(32)) as f64;
        state.backoff_abstinence_until = ctx.now() + d.mul_f64(self.params.c3 * factor);
        self.schedule_request(ctx, seq);
    }

    fn maybe_schedule_reply(
        &mut self,
        ctx: &mut Context<'_>,
        seq: SeqNo,
        requestor: NodeId,
        req_dist_src: SimDuration,
    ) {
        if self.reply_blocked(seq, ctx.now()) {
            return; // scheduled already, or a reply is pending (abstinence)
        }
        let d = self.dist_or_default(requestor);
        let (lo, width) = self.timer_policy.reply_window(d);
        let delay = lo + SimDuration::from_nanos(ctx.rng().gen_range(0..=width.as_nanos()));
        let tok = ctx.set_timer(delay);
        self.timers.insert(tok, TimerKind::Reply(seq.value()));
        let entry = self
            .replies
            .entry(seq.value())
            .or_insert_with(|| ReplyState {
                timer: None,
                requestor,
                req_dist_src,
                abstinence_until: ctx.now(),
                we_replied: false,
            });
        entry.timer = Some(tok);
        entry.requestor = requestor;
        entry.req_dist_src = req_dist_src;
        self.metrics.reply_timers_set.inc();
        self.obs
            .emit(ctx.now().as_nanos(), || obs::Event::ReplyScheduled {
                node: self.me.0,
                seq: seq.value(),
                requestor: requestor.0,
            });
    }

    /// Stores packet `seq`; if it was an outstanding loss, completes the
    /// recovery.
    fn mark_received(
        &mut self,
        ctx: &mut Context<'_>,
        seq: SeqNo,
        via_reply: bool,
        expedited: bool,
    ) {
        if self.role.is_source() || !self.received.insert(seq.value()) {
            return;
        }
        // Hot path: most receptions are in-order originals with no loss
        // outstanding; skip the map walk entirely then.
        if self.losses.is_empty() {
            return;
        }
        if let Some(state) = self.losses.remove(&seq.value()) {
            if let Some(tok) = state.timer {
                ctx.cancel_timer(tok);
                self.timers.remove(&tok);
            }
            if via_reply {
                self.log
                    .borrow_mut()
                    .on_recover(self.me, self.pid(seq), ctx.now(), expedited);
            } else {
                // The original arrived after a session message or a
                // reordered successor made us believe it lost: not a real
                // loss, void the record.
                self.spurious_detections += 1;
                self.log
                    .borrow_mut()
                    .on_spurious(self.me, self.pid(seq), ctx.now());
            }
        }
    }

    fn dist_or_default(&mut self, peer: NodeId) -> SimDuration {
        match self.dist.get(peer).copied() {
            Some(d) => d,
            None => {
                self.default_distance_uses += 1;
                self.params.default_distance
            }
        }
    }

    /// Estimated heap-resident footprint of this endpoint's protocol state,
    /// in bytes: the fixed struct plus every sparse collection weighted by
    /// its entry size. Every collection here grows with *activity* (losses
    /// outstanding, replies pending, peers actually heard from), never with
    /// group size — the O(active-losses) property `docs/SCALING.md` charts
    /// across the sweep rungs.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.received.sparse_len() * size_of::<u64>()
            + self.losses.len() * (size_of::<u64>() + size_of::<LossState>())
            + self.replies.len() * (size_of::<u64>() + size_of::<ReplyState>())
            + self.timers.len() * (size_of::<TimerToken>() + size_of::<TimerKind>())
            + self.peers.len() * (size_of::<NodeId>() + size_of::<PeerEcho>())
            + self.dist.len() * (size_of::<NodeId>() + size_of::<SimDuration>())
            + self.newly_detected.len() * size_of::<SeqNo>()
    }

    fn pid(&self, seq: SeqNo) -> PacketId {
        PacketId {
            source: self.source,
            seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::RecoveryLog;

    #[test]
    fn source_role_must_match_node() {
        let log = RecoveryLog::shared();
        let cfg = crate::SourceConfig {
            packets: 1,
            period: SimDuration::from_millis(80),
            start_at: SimTime::ZERO,
        };
        let core = SrmCore::new(
            NodeId::ROOT,
            NodeId::ROOT,
            SrmParams::default(),
            Role::Source(cfg),
            log,
        );
        assert!(!core.has(SeqNo(0)));
        assert_eq!(core.me(), NodeId::ROOT);
        assert_eq!(core.source(), NodeId::ROOT);
    }

    #[test]
    #[should_panic(expected = "source role must run on the source node")]
    fn source_role_on_wrong_node_rejected() {
        let log = RecoveryLog::shared();
        let cfg = crate::SourceConfig {
            packets: 1,
            period: SimDuration::from_millis(80),
            start_at: SimTime::ZERO,
        };
        SrmCore::new(
            NodeId(3),
            NodeId::ROOT,
            SrmParams::default(),
            Role::Source(cfg),
            log,
        );
    }

    #[test]
    fn receiver_has_nothing_initially() {
        let log = RecoveryLog::shared();
        let core = SrmCore::new(
            NodeId(2),
            NodeId::ROOT,
            SrmParams::default(),
            Role::Receiver,
            log,
        );
        assert!(!core.has(SeqNo(0)));
        assert!(!core.is_lost(SeqNo(0)));
        assert_eq!(core.highest(), None);
        assert_eq!(core.dist_to(NodeId::ROOT), None);
        assert!(!core.reply_blocked(SeqNo(0), SimTime::ZERO));
    }
}
