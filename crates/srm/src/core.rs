use std::mem;
use std::rc::Rc;

use rand::Rng;

use metrics::SharedRecoveryLog;
use netsim::{
    Context, DeliveryMeta, Packet, PacketBody, PacketId, RecoveryTuple, SeqNo, SessionData,
    SessionEcho, SimDuration, SimTime, TimerToken,
};
use topology::NodeId;

use crate::endpoints::Shared;
use crate::smallmap::{btree_node_bytes, SmallMap};
use crate::state::{LossState, Peer, PeerEcho, ReplyState, Role, TimerKind};
use crate::timers::{FixedTimers, TimerPolicy};
use crate::window::ReceivedSet;
use crate::{SrmEndpoints, SrmParams};

// Inline capacities of the per-endpoint maps, sized so that an ordinary
// receiver of the reference `reproduce scale` rungs never spills: it hears
// the recoveries of five packets inside one 1.5 s reply abstinence (five
// live reply entries) while holding up to four reply timers, knows one
// peer (the source), and loses nothing itself. Measured per receiver at
// 10³–10⁵; see `docs/SCALING.md`.
const LOSSES_INLINE: usize = 1;
const REPLIES_INLINE: usize = 5;
const TIMERS_INLINE: usize = 4;
const PEERS_INLINE: usize = 1;

type Replies = SmallMap<u64, ReplyState, REPLIES_INLINE>;

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
    /// Whether this endpoint runs its own session timer. Scale-mode
    /// receivers disable it (see [`set_sessions_enabled`]
    /// (SrmCore::set_sessions_enabled)): with 10⁶ members the all-to-all
    /// session exchange is O(N²) traffic, so only the source announces
    /// `highest_seq` and receiver→source distances are seeded from the
    /// topology instead.
    sessions_enabled: bool,
    /// Whether a loss was detected since the last
    /// [`take_newly_detected`](SrmCore::take_newly_detected).
    detected_since_take: bool,
    /// Everything the endpoints of this run have in common.
    shared: Rc<Shared>,
    /// A custom suppression-window policy (adaptive, for ablations);
    /// `None` means the fixed weights of the shared parameters.
    timer_policy: Option<Box<dyn TimerPolicy>>,
    /// Data packets received (receivers only; the source implicitly has all
    /// packets it sent). Compacted: contiguous prefix + sparse tail.
    received: ReceivedSet,
    /// How many sequence numbers are known to exist, from any evidence:
    /// one past the highest (for the source, the packets sent so far).
    known: u64,
    /// `known` as of the last [`take_newly_detected`]
    /// (SrmCore::take_newly_detected): every loss detected since lies at
    /// or above it.
    detection_mark: u64,
    losses: SmallMap<u64, LossState, LOSSES_INLINE>,
    replies: Replies,
    timers: SmallMap<TimerToken, TimerKind, TIMERS_INLINE>,
    /// What is known about each peer, sized by the peers actually heard
    /// from (or seeded), not the group: at 10⁶ receivers a dense
    /// per-member vector per endpoint would be O(N²) across the group.
    peers: SmallMap<NodeId, Peer, PEERS_INLINE>,
    default_distance_uses: u64,
    spurious_detections: u64,
}

impl SrmCore {
    /// Creates one SRM endpoint for host `me` receiving from `source` —
    /// shorthand for an [`SrmEndpoints`] factory that makes a single
    /// endpoint.
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
        SrmEndpoints::new(source, params, role, log).core(me)
    }

    pub(crate) fn with_shared(me: NodeId, shared: Rc<Shared>) -> Self {
        if shared.role.is_source() {
            assert_eq!(
                me, shared.source,
                "the source role must run on the source node"
            );
        }
        SrmCore {
            me,
            sessions_enabled: true,
            detected_since_take: false,
            shared,
            timer_policy: None,
            received: ReceivedSet::new(),
            known: 0,
            detection_mark: 0,
            losses: SmallMap::new(),
            replies: SmallMap::new(),
            timers: SmallMap::new(),
            peers: SmallMap::new(),
            default_distance_uses: 0,
            spurious_detections: 0,
        }
    }

    /// The installed observation handle ([`SrmEndpoints::with_obs`]), for the agent wrapping this core
    /// to emit and profile through.
    #[inline]
    pub fn obs(&self) -> &obs::Instruments {
        &self.shared.obs
    }

    /// The run's recovery log.
    #[inline]
    pub fn log(&self) -> &SharedRecoveryLog {
        &self.shared.log
    }

    /// This endpoint's node id.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The transmission source's node id.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.shared.source
    }

    /// The scheduling parameters.
    #[inline]
    pub fn params(&self) -> &SrmParams {
        &self.shared.params
    }

    /// Replaces the suppression-window policy (e.g. with
    /// [`AdaptiveTimers`](crate::AdaptiveTimers)). The `C3`/`D3` abstinence
    /// weights stay in [`SrmParams`].
    pub fn set_timer_policy(&mut self, policy: Box<dyn TimerPolicy>) {
        self.timer_policy = Some(policy);
    }

    /// Current effective scheduling weights `(c1, c2, d1, d2)`.
    pub fn timer_weights(&self) -> (f64, f64, f64, f64) {
        match &self.timer_policy {
            Some(policy) => policy.weights(),
            None => self.fixed_timers().weights(),
        }
    }

    /// The paper's fixed-weight policy, computed from the shared parameters
    /// rather than stored per endpoint.
    fn fixed_timers(&self) -> FixedTimers {
        FixedTimers::new(self.shared.params)
    }

    fn request_window(&self, d: SimDuration) -> (SimDuration, SimDuration) {
        match &self.timer_policy {
            Some(policy) => policy.request_window(d),
            None => self.fixed_timers().request_window(d),
        }
    }

    fn reply_window(&self, d: SimDuration) -> (SimDuration, SimDuration) {
        match &self.timer_policy {
            Some(policy) => policy.reply_window(d),
            None => self.fixed_timers().reply_window(d),
        }
    }

    /// `true` iff this endpoint holds packet `seq` (received it, or sent it
    /// as the source).
    pub fn has(&self, seq: SeqNo) -> bool {
        if self.shared.role.is_source() {
            seq.value() < self.known
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
        self.peers.get(&peer).and_then(|p| p.dist)
    }

    /// Pre-seeds the one-way distance estimate to `peer`, as a session
    /// exchange would have. Scale-mode runs use this to install the true
    /// topology path delay to the source on every receiver, replacing the
    /// all-to-all session estimation that is infeasible at 10⁶ members.
    pub fn seed_distance(&mut self, peer: NodeId, d: SimDuration) {
        self.peers.get_or_insert_with(peer, Peer::default).dist = Some(d);
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
        self.dist_or_default(self.shared.source)
    }

    /// Estimated one-way distance to `peer`, falling back to
    /// [`SrmParams::default_distance`] when no estimate exists yet.
    pub fn dist_to_or_default(&mut self, peer: NodeId) -> SimDuration {
        self.dist_or_default(peer)
    }

    /// Highest sequence number known to exist.
    pub fn highest(&self) -> Option<SeqNo> {
        self.known.checked_sub(1).map(SeqNo)
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

    /// The sequence numbers, ascending, whose loss was detected since the
    /// last call and is still outstanding — the hook the CESRM layer uses
    /// to trigger expedited recoveries. Detection only ever covers packets
    /// not previously known to exist, so no buffer is kept: these are the
    /// outstanding losses at or above the last call's high-water mark.
    pub fn take_newly_detected(&mut self) -> Vec<SeqNo> {
        let from = mem::replace(&mut self.detection_mark, self.known);
        if !mem::take(&mut self.detected_since_take) {
            return Vec::new();
        }
        (from..self.known)
            .filter(|i| self.losses.contains_key(i))
            .map(SeqNo)
            .collect()
    }

    /// `true` iff a reply for `seq` is scheduled or pending (within the
    /// reply abstinence period) — the condition under which both SRM and
    /// CESRM's expeditious replier must not send another reply (§3.2).
    pub fn reply_blocked(&self, seq: SeqNo, now: SimTime) -> bool {
        self.replies
            .get(&seq.value())
            .is_some_and(|r| r.is_live(now))
    }

    /// Records that this host just sent a (possibly expedited) reply for
    /// `seq` instigated by `requestor`: cancels any scheduled reply and
    /// opens the reply abstinence period, exactly as for a normal reply
    /// send.
    pub fn note_reply_sent(&mut self, ctx: &mut Context<'_>, seq: SeqNo, requestor: NodeId) {
        let d = self.dist_or_default(requestor);
        let abstinence = ctx.now() + d.mul_f64(self.shared.params.d3);
        let entry = reply_entry(&mut self.replies, seq, ctx.now(), || ReplyState {
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
            let period = self.shared.params.session_period;
            let jitter = SimDuration::from_nanos(ctx.rng().gen_range(0..period.as_nanos().max(1)));
            let tok = ctx.set_timer(jitter);
            self.timers.insert(tok, TimerKind::Session);
        }
        if let Role::Source(cfg) = self.shared.role {
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
                if id.source == self.shared.source {
                    self.receive_data(ctx, id.seq);
                }
            }
            PacketBody::Request {
                id,
                requestor,
                dist_req_src,
            } => {
                if id.source == self.shared.source {
                    self.receive_request(ctx, id.seq, *requestor, *dist_req_src);
                }
            }
            PacketBody::Reply { tuple, expedited } => {
                if tuple.id.source == self.shared.source {
                    self.receive_reply(ctx, tuple, *expedited);
                }
            }
            PacketBody::ExpeditedRequest { id, .. } => {
                // Handled by the CESRM layer; the core only notes that the
                // packet exists (an expedited request is evidence of it).
                if id.source == self.shared.source {
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
        let Role::Source(cfg) = self.shared.role else {
            unreachable!("data timer on non-source");
        };
        let seq = self.known;
        self.known += 1;
        ctx.multicast(PacketBody::Data {
            id: self.pid(SeqNo(seq)),
        });
        if self.known < cfg.packets {
            let tok = ctx.set_timer(cfg.period);
            self.timers.insert(tok, TimerKind::DataTx);
        }
    }

    fn fire_session(&mut self, ctx: &mut Context<'_>) {
        let highest_seq = if self.shared.role.is_source() {
            self.known.checked_sub(1).map(SeqNo)
        } else {
            // Report the highest packet actually received, not merely known
            // to exist: the paper uses session state to let others detect
            // losses from packets *received* elsewhere.
            self.received.max().map(SeqNo)
        };
        let mut echoes = Vec::with_capacity(self.peers.len());
        echoes.extend(self.peers.iter().filter_map(|(&peer, p)| {
            let e = p.echo?;
            Some(SessionEcho {
                peer,
                sent_at: e.sent_at,
                held_for: ctx.now().saturating_since(e.received_at),
            })
        }));
        ctx.multicast(PacketBody::session_about(
            self.me,
            ctx.now(),
            self.shared.source,
            highest_seq,
            echoes,
        ));
        // Piggyback state GC on the session tick: reply entries whose
        // abstinence has lapsed (and with no timer pending) are dead.
        let now = ctx.now();
        self.replies.retain(|_, r| r.is_live(now));
        let tok = ctx.set_timer(self.shared.params.session_period);
        self.timers.insert(tok, TimerKind::Session);
    }

    fn fire_request(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        if !self.losses.contains_key(&seq.value()) {
            return; // recovered in the meantime
        }
        let dist = self.dist_or_default(self.shared.source);
        ctx.multicast(PacketBody::Request {
            id: self.pid(seq),
            requestor: self.me,
            dist_req_src: dist,
        });
        self.shared
            .log
            .borrow_mut()
            .on_request_sent(self.me, self.pid(seq), ctx.now());
        if let (Some(policy), Some(state)) = (&mut self.timer_policy, self.losses.get(&seq.value()))
        {
            policy.on_request_sent(state.delay_over_d);
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
        self.shared
            .obs
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
                // Suppress → immediately re-arm, one atomic path: the
                // suppression-health monitor (I3, docs/MONITORS.md) treats
                // a `req_sent` after `req_suppressed` with no intervening
                // `req_scheduled` as a violation.
                self.shared
                    .obs
                    .emit(ctx.now().as_nanos(), || obs::Event::RequestSuppressed {
                        node: self.me.0,
                        seq: seq.value(),
                        by: requestor.0,
                    });
                self.reschedule_request(ctx, seq);
            } else {
                // A same-round duplicate of a request we made or heard:
                // evidence that suppression is too tight.
                if let Some(policy) = &mut self.timer_policy {
                    policy.on_duplicate_request();
                }
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
        let abstinence = ctx.now() + d.mul_f64(self.shared.params.d3);
        let entry = reply_entry(&mut self.replies, seq, ctx.now(), || ReplyState {
            timer: None,
            requestor: tuple.requestor,
            req_dist_src: tuple.dist_req_src,
            abstinence_until: abstinence,
            we_replied: false,
        });
        if entry.we_replied && ctx.now() < entry.abstinence_until {
            // Someone else retransmitted a packet we had just
            // retransmitted: our reply window was too tight.
            if let Some(policy) = &mut self.timer_policy {
                policy.on_duplicate_reply();
            }
        }
        if let Some(tok) = entry.timer.take() {
            ctx.cancel_timer(tok);
            self.timers.remove(&tok);
            self.shared
                .obs
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
        let peer = self.peers.get_or_insert_with(data.member, Peer::default);
        peer.echo = Some(PeerEcho {
            sent_at: data.sent_at,
            received_at: ctx.now(),
        });
        for echo in &data.echoes {
            if echo.peer == self.me {
                // d̂ = (now − our_send_time − peer_hold_time) / 2.
                let elapsed = ctx.now().saturating_since(echo.sent_at);
                let rtt = if elapsed > echo.held_for {
                    elapsed - echo.held_for
                } else {
                    SimDuration::ZERO
                };
                peer.dist = Some(rtt / 2);
            }
        }
        if let Some(h) = data.highest_seq {
            // In multi-source groups, only the report about our source is a
            // statement about our sequence space.
            if data.about.is_none() || data.about == Some(self.shared.source) {
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
        if self.shared.role.is_source() {
            return;
        }
        if seq.value() >= self.known {
            for i in self.known..=seq.value() {
                self.known = i + 1;
                if !self.received.contains(i) && !self.losses.contains_key(&i) {
                    self.detect_loss(ctx, SeqNo(i));
                }
            }
        }
    }

    fn detect_loss(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        self.shared
            .log
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
        self.detected_since_take = true;
    }

    /// Schedules (or first-schedules) the request timer for `seq` in the
    /// current round's interval `2^k · [C1·d̂, (C1+C2)·d̂]` and advances
    /// `k`.
    fn schedule_request(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        let d = self.dist_or_default(self.shared.source);
        let (lo, width) = self.request_window(d);
        let state = self
            .losses
            .get_mut(&seq.value())
            .expect("scheduling request for unknown loss");
        let factor = (1u64 << state.k.min(32)) as f64;
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
        self.shared
            .obs
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
        let d = self.dist_or_default(self.shared.source);
        let Some(state) = self.losses.get_mut(&seq.value()) else {
            return;
        };
        if let Some(tok) = state.timer.take() {
            ctx.cancel_timer(tok);
            self.timers.remove(&tok);
        }
        let factor = (1u64 << state.k.min(32)) as f64;
        state.backoff_abstinence_until = ctx.now() + d.mul_f64(self.shared.params.c3 * factor);
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
        let (lo, width) = self.reply_window(d);
        let delay = lo + SimDuration::from_nanos(ctx.rng().gen_range(0..=width.as_nanos()));
        let tok = ctx.set_timer(delay);
        self.timers.insert(tok, TimerKind::Reply(seq.value()));
        let entry = reply_entry(&mut self.replies, seq, ctx.now(), || ReplyState {
            timer: None,
            requestor,
            req_dist_src,
            abstinence_until: ctx.now(),
            we_replied: false,
        });
        entry.timer = Some(tok);
        entry.requestor = requestor;
        entry.req_dist_src = req_dist_src;
        self.shared
            .obs
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
        if self.shared.role.is_source() || !self.received.insert(seq.value()) {
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
                self.shared.log.borrow_mut().on_recover(
                    self.me,
                    self.pid(seq),
                    ctx.now(),
                    expedited,
                );
            } else {
                // The original arrived after a session message or a
                // reordered successor made us believe it lost: not a real
                // loss, void the record.
                self.spurious_detections += 1;
                self.shared
                    .log
                    .borrow_mut()
                    .on_spurious(self.me, self.pid(seq), ctx.now());
            }
        }
    }

    fn dist_or_default(&mut self, peer: NodeId) -> SimDuration {
        match self.dist_to(peer) {
            Some(d) => d,
            None => {
                self.default_distance_uses += 1;
                self.shared.params.default_distance
            }
        }
    }

    /// Bytes of memory this endpoint owns: the struct itself plus
    /// [`heap_bytes`](SrmCore::heap_bytes). Every part grows with
    /// *activity* (losses outstanding, replies pending, peers actually
    /// heard from), never with group size — the O(active-losses) property
    /// `docs/SCALING.md` charts across the sweep rungs. Allocator headers
    /// and size-class rounding are not included, and what the endpoints of
    /// a run share (parameters, log, observation handles) is counted
    /// nowhere: it is one block per run.
    pub fn state_bytes(&self) -> usize {
        mem::size_of::<Self>() + self.heap_bytes()
    }

    /// Bytes in heap blocks this endpoint owns besides the one it lives
    /// in: whatever its maps have spilled, the out-of-order tail of the
    /// received set and a boxed custom timer policy. Zero for a receiver
    /// whose concurrent recoveries fit the inline slots. A pure function of
    /// the endpoint's own history, so it is identical at any shard count.
    pub fn heap_bytes(&self) -> usize {
        self.losses.heap_bytes()
            + self.replies.heap_bytes()
            + self.timers.heap_bytes()
            + self.peers.heap_bytes()
            + btree_node_bytes::<u64, ()>(self.received.sparse_len())
            + self.timer_policy.as_deref().map_or(0, mem::size_of_val)
    }

    fn pid(&self, seq: SeqNo) -> PacketId {
        PacketId {
            source: self.shared.source,
            seq,
        }
    }
}

/// The reply state for `seq`, created by `fresh` if absent.
///
/// Creating an entry is also when dead ones are collected. Endpoints that
/// run a session timer collect on every tick, but scale-mode receivers
/// never tick, and without this each would keep every reply entry it ever
/// made. A sweep costs O(entries), so it runs only when the inline slots
/// are full (the insert would otherwise spill) and, once spilled, each time
/// the length reaches a power of two — amortised O(1) per insert, and the
/// map stays within twice its live entries.
fn reply_entry(
    replies: &mut Replies,
    seq: SeqNo,
    now: SimTime,
    fresh: impl FnOnce() -> ReplyState,
) -> &mut ReplyState {
    let len = replies.len();
    let full = len == REPLIES_INLINE || (len > REPLIES_INLINE && len.is_power_of_two());
    #[cfg(test)]
    let full = full && !tests::COLLECT_AT_SESSION_TICKS_ONLY.get();
    if full && !replies.contains_key(&seq.value()) {
        replies.retain(|_, r| r.is_live(now));
    }
    replies.get_or_insert_with(seq.value(), fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SrmAgent;
    use metrics::{PacketKind, RecoveryLog};
    use netsim::{CastClass, NetConfig, SimObserver, Simulator};
    use proptest::prelude::*;
    use std::cell::{Cell, RefCell};
    use topology::{MulticastTree, TreeBuilder};

    thread_local! {
        /// Test hook: leave dead reply entries to the session tick alone,
        /// as before eager collection, so a test can run the same script
        /// both ways and show that the difference cannot be observed.
        pub(super) static COLLECT_AT_SESSION_TICKS_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    const ME: NodeId = NodeId(2);
    const PEER: NodeId = NodeId(3);
    const SOURCE: NodeId = NodeId::ROOT;

    /// n0 (source) -> n1 (router) -> { n2, n3 }: the endpoint under test
    /// sits alone at n2 and is fed crafted packets.
    fn tree() -> MulticastTree {
        let mut b = TreeBuilder::new();
        let r = b.add_router(b.root());
        b.add_receiver(r);
        b.add_receiver(r);
        b.build().unwrap()
    }

    #[derive(Default)]
    struct Sends(Vec<(SimTime, PacketKind)>);

    impl SimObserver for Sends {
        fn on_send(&mut self, now: SimTime, _: NodeId, packet: &Packet) {
            self.0.push((now, PacketKind::of(packet)));
        }
    }

    /// A lone receiver at [`ME`] that already holds packets `0..held`.
    fn lone_receiver(sessions: bool, held: u64) -> (Simulator, Rc<RefCell<Sends>>) {
        let sends = Rc::new(RefCell::new(Sends::default()));
        let mut sim = Simulator::new(tree(), NetConfig::default().with_seed(5));
        sim.set_observer(Box::new(Rc::clone(&sends)));
        let mut agent = SrmAgent::receiver(
            ME,
            SOURCE,
            SrmParams::paper_default(),
            RecoveryLog::shared(),
        );
        agent.core_mut().set_sessions_enabled(sessions);
        sim.attach_agent(ME, Box::new(agent));
        for seq in 0..held {
            inject(&mut sim, SOURCE, PacketBody::Data { id: pid(seq) });
        }
        (sim, sends)
    }

    fn core(sim: &Simulator) -> &SrmCore {
        sim.agent_as::<SrmAgent>(ME).unwrap().core()
    }

    fn pid(seq: u64) -> PacketId {
        PacketId {
            source: SOURCE,
            seq: SeqNo(seq),
        }
    }

    fn inject(sim: &mut Simulator, origin: NodeId, body: PacketBody) {
        let packet = Packet {
            origin,
            cast: CastClass::Multicast,
            body,
        };
        sim.inject_packet(ME, NodeId(1), &packet, None);
    }

    fn request(seq: u64) -> PacketBody {
        PacketBody::Request {
            id: pid(seq),
            requestor: PEER,
            dist_req_src: SimDuration::from_millis(40),
        }
    }

    fn reply(seq: u64) -> PacketBody {
        PacketBody::Reply {
            tuple: RecoveryTuple {
                id: pid(seq),
                requestor: PEER,
                dist_req_src: SimDuration::from_millis(40),
                replier: SOURCE,
                dist_rep_req: SimDuration::from_millis(40),
                turning_point: None,
            },
            expedited: false,
        }
    }

    fn advance(sim: &mut Simulator, by: SimDuration) {
        sim.run_until(sim.now() + by);
    }

    #[test]
    fn session_less_receiver_keeps_its_replies_map_bounded() {
        // Scale-mode receivers never run the session tick that used to be
        // the only collector. Replies for 100 packets, each outliving the
        // 150 ms abstinence of the one before: at most the inline slots are
        // ever held, and nothing spills.
        let (mut sim, _) = lone_receiver(false, 100);
        for seq in 0..100 {
            inject(&mut sim, SOURCE, reply(seq));
            assert!(core(&sim).replies.len() <= REPLIES_INLINE);
            advance(&mut sim, SimDuration::from_millis(200));
        }
        assert_eq!(core(&sim).heap_bytes(), 0);

        // A burst of 100 at once is all live, so it must be held (and
        // spills); once it has lapsed, later inserts collect it again and
        // the emptied map comes back inline.
        for seq in 0..100 {
            inject(&mut sim, SOURCE, reply(seq));
        }
        assert_eq!(core(&sim).replies.len(), 100);
        assert!(core(&sim).heap_bytes() > 0);
        advance(&mut sim, SimDuration::from_secs(1));
        for seq in 100..200 {
            inject(&mut sim, SOURCE, reply(seq));
            advance(&mut sim, SimDuration::from_millis(200));
        }
        assert!(core(&sim).replies.len() <= REPLIES_INLINE);
        assert_eq!(core(&sim).heap_bytes(), 0);
    }

    /// Everything about the reply machinery an outside observer (or a
    /// later protocol step) can see.
    #[derive(PartialEq, Debug)]
    struct Observed {
        now: SimTime,
        blocked: Vec<bool>,
        timers: Vec<(TimerToken, TimerKind)>,
        sends: usize,
    }

    /// Runs `tape` — (op, seq, gap ms) — against a receiver with sessions
    /// on, collecting dead reply entries eagerly or only at session ticks.
    fn observe(tape: &[(u8, u64, u64)], lazy: bool) -> (Vec<Observed>, Vec<(SimTime, PacketKind)>) {
        const SEQS: u64 = 12;
        COLLECT_AT_SESSION_TICKS_ONLY.set(lazy);
        let (mut sim, sends) = lone_receiver(true, SEQS);
        let mut seen = Vec::new();
        for &(op, seq, gap_ms) in tape {
            match op {
                0 => inject(&mut sim, PEER, request(seq)),
                1 => inject(&mut sim, SOURCE, reply(seq)),
                _ => {}
            }
            // Timers (reply, session) fire inside the gap.
            advance(&mut sim, SimDuration::from_millis(gap_ms));
            let core = core(&sim);
            seen.push(Observed {
                now: sim.now(),
                blocked: (0..SEQS)
                    .map(|s| core.reply_blocked(SeqNo(s), sim.now()))
                    .collect(),
                timers: core.timers.iter().map(|(t, k)| (*t, *k)).collect(),
                sends: sends.borrow().0.len(),
            });
        }
        COLLECT_AT_SESSION_TICKS_ONLY.set(false);
        let sends = sends.borrow().0.clone();
        (seen, sends)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Dropping dead reply entries early cannot be observed: under the
        /// fixed timer policy `reply_blocked`, the timers armed and the
        /// packets sent are the same whether dead entries go when the next
        /// one is inserted or wait for the session tick. Gaps straddle the
        /// 150 ms abstinence and the 100–200 ms reply window; twelve
        /// sequence numbers overflow the inline slots.
        #[test]
        fn eager_reply_collection_is_unobservable(
            tape in proptest::collection::vec((0u8..3, 0u64..12, 0u64..260), 1..80)
        ) {
            let eager = observe(&tape, false);
            let lazy = observe(&tape, true);
            prop_assert_eq!(eager, lazy);
        }
    }

    #[test]
    fn eager_collection_does_drop_entries_the_session_tick_would_keep() {
        // The property above would hold vacuously if nothing were ever
        // collected early: six spaced replies inside one session period.
        let replies_after = |lazy| {
            COLLECT_AT_SESSION_TICKS_ONLY.set(lazy);
            let (mut sim, _) = lone_receiver(false, 6);
            for seq in 0..6 {
                inject(&mut sim, SOURCE, reply(seq));
                advance(&mut sim, SimDuration::from_millis(160));
            }
            COLLECT_AT_SESSION_TICKS_ONLY.set(false);
            core(&sim).replies.len()
        };
        assert_eq!(replies_after(true), 6);
        assert_eq!(replies_after(false), 1);
    }

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
