//! The structured event vocabulary and its timestamped record wrapper.

/// Coarse classification of a simulated packet's body.
///
/// Mirrors `netsim::PacketBody` without depending on it: `obs` sits below
/// `netsim` in the dependency graph, so the simulator maps its own body
/// enum onto this one at the emit site. `Ord` follows declaration order so
/// the class can key the ordered maps the invariant monitors use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PacketClass {
    /// Original multicast payload from the source (`DATA` in the paper).
    Data,
    /// SRM suppression-delayed retransmission request (`REQUEST`).
    Request,
    /// Retransmission of a lost packet (`REPLY`/repair).
    Reply,
    /// CESRM/LMS unicast expedited request (`EXP-REQUEST`).
    ExpeditedRequest,
    /// CESRM/LMS expedited repair, often subcast (`EXP-REPLY`).
    ExpeditedReply,
    /// Periodic SRM session/state-exchange message.
    Session,
}

impl PacketClass {
    /// Stable lowercase wire name used in the JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            PacketClass::Data => "data",
            PacketClass::Request => "request",
            PacketClass::Reply => "reply",
            PacketClass::ExpeditedRequest => "exp_request",
            PacketClass::ExpeditedReply => "exp_reply",
            PacketClass::Session => "session",
        }
    }
}

/// How a packet was addressed when it entered the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cast {
    /// Flooded down the whole multicast tree.
    Multicast,
    /// Point-to-point to a single node.
    Unicast,
    /// Router-assisted subcast below a turning point (CESRM §4 / LMS).
    Subcast,
}

impl Cast {
    /// Stable lowercase wire name used in the JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            Cast::Multicast => "multicast",
            Cast::Unicast => "unicast",
            Cast::Subcast => "subcast",
        }
    }
}

/// One structured tracing event.
///
/// All fields are plain scalars: `node`/`by`/`requestor`/`replier` are node
/// ids (`u32`), `seq` is the data sequence number the event concerns, and
/// durations are nanoseconds. Events carry no timestamp themselves — the
/// enclosing [`Record`] does — so variants stay `Copy` and cheap to build
/// inside the [`crate::Instruments::emit`] closure.
///
/// See `docs/TRACING.md` for the field-by-field schema and the JSONL
/// encoding of every variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A packet entered the network at `node` (netsim send path).
    PacketSent {
        /// Originating node.
        node: u32,
        /// Body classification.
        class: PacketClass,
        /// Data sequence number the packet concerns, when it has one.
        seq: Option<u64>,
        /// Addressing mode.
        cast: Cast,
    },
    /// A packet was dropped on the link into `link` (netsim loss model).
    PacketDropped {
        /// Downstream endpoint of the lossy link.
        link: u32,
        /// Body classification.
        class: PacketClass,
        /// Data sequence number the packet concerns, when it has one.
        seq: Option<u64>,
    },
    /// A recovery-class packet reached `node` (netsim delivery path).
    PacketDelivered {
        /// Receiving node.
        node: u32,
        /// Body classification.
        class: PacketClass,
        /// Data sequence number the packet concerns, when it has one.
        seq: Option<u64>,
        /// Node that originally sent the packet.
        origin: u32,
    },
    /// Receiver `node` noticed a gap and began recovering `seq`.
    LossDetected {
        /// Detecting receiver.
        node: u32,
        /// Missing data sequence number.
        seq: u64,
    },
    /// An SRM request timer was (re)scheduled.
    RequestScheduled {
        /// Scheduling receiver.
        node: u32,
        /// Missing data sequence number.
        seq: u64,
        /// Exponential back-off round (0 for the first attempt).
        round: u32,
        /// Delay until the timer fires, in nanoseconds.
        delay_ns: u64,
    },
    /// A pending request timer was backed off because `by`'s request for
    /// the same packet was overheard (SRM suppression).
    RequestSuppressed {
        /// Receiver whose timer backed off.
        node: u32,
        /// Missing data sequence number.
        seq: u64,
        /// Node whose request triggered the suppression.
        by: u32,
    },
    /// A multicast request actually left `node`.
    RequestSent {
        /// Requesting receiver.
        node: u32,
        /// Missing data sequence number.
        seq: u64,
        /// How many requests this receiver has now sent for `seq`.
        round: u32,
    },
    /// A reply timer was scheduled at a node holding the packet.
    ReplyScheduled {
        /// Prospective replier.
        node: u32,
        /// Requested data sequence number.
        seq: u64,
        /// Receiver whose request is being answered.
        requestor: u32,
    },
    /// A pending reply timer was cancelled because `by`'s reply for the
    /// same packet was overheard (SRM suppression).
    ReplySuppressed {
        /// Node whose reply timer was cancelled.
        node: u32,
        /// Requested data sequence number.
        seq: u64,
        /// Node whose reply triggered the suppression.
        by: u32,
    },
    /// A repair actually left `node`.
    ReplySent {
        /// Replying node.
        node: u32,
        /// Repaired data sequence number.
        seq: u64,
        /// Receiver whose request is being answered.
        requestor: u32,
        /// True when this repair answers an expedited request.
        expedited: bool,
    },
    /// CESRM sent a unicast expedited request straight to `replier`.
    ExpeditedRequestSent {
        /// Requesting receiver.
        node: u32,
        /// Missing data sequence number.
        seq: u64,
        /// Cached replier the request is unicast to.
        replier: u32,
    },
    /// A node answered an expedited request with an expedited repair.
    ExpeditedReplySent {
        /// Replying node.
        node: u32,
        /// Repaired data sequence number.
        seq: u64,
        /// Receiver whose expedited request is being answered.
        requestor: u32,
        /// True when the repair was subcast via a turning point rather
        /// than multicast to the whole group.
        subcast: bool,
    },
    /// The expedited-recovery cache produced a usable requestor/replier
    /// pair for `seq` (CESRM §3: expedited recovery attempted).
    CacheHit {
        /// Consulting receiver.
        node: u32,
        /// Missing data sequence number.
        seq: u64,
        /// Cached optimal requestor.
        requestor: u32,
        /// Cached optimal replier.
        replier: u32,
    },
    /// The cache had no usable entry; recovery falls back to plain SRM.
    CacheMiss {
        /// Consulting receiver.
        node: u32,
        /// Missing data sequence number.
        seq: u64,
    },
    /// The cache absorbed a completed recovery's requestor/replier pair.
    CacheUpdate {
        /// Caching receiver.
        node: u32,
        /// Data sequence number the observed recovery repaired.
        seq: u64,
        /// Observed requestor.
        requestor: u32,
        /// Observed replier.
        replier: u32,
    },
    /// Receiver `node` finally received the missing packet.
    RecoveryCompleted {
        /// Recovering receiver.
        node: u32,
        /// Recovered data sequence number.
        seq: u64,
        /// True when the winning repair was expedited.
        expedited: bool,
    },
    /// Receiver `node` detected a loss for a packet that later arrived via
    /// the original transmission (reordering, not loss).
    SpuriousLoss {
        /// Detecting receiver.
        node: u32,
        /// Data sequence number that was not actually lost.
        seq: u64,
    },
}

impl Event {
    /// Every stable wire name, in declaration order — the authoritative
    /// vocabulary for anything that accepts an event name from the user
    /// (e.g. `reproduce --trace-filter ev=...` validates against this and
    /// lists it on a typo).
    pub const NAMES: [&'static str; 17] = [
        "sent",
        "dropped",
        "delivered",
        "loss_detected",
        "req_scheduled",
        "req_suppressed",
        "req_sent",
        "rep_scheduled",
        "rep_suppressed",
        "rep_sent",
        "xreq_sent",
        "xrep_sent",
        "cache_hit",
        "cache_miss",
        "cache_update",
        "recovered",
        "spurious",
    ];

    /// Stable lowercase wire name used as the `"ev"` field in JSONL.
    pub fn name(&self) -> &'static str {
        match self {
            Event::PacketSent { .. } => "sent",
            Event::PacketDropped { .. } => "dropped",
            Event::PacketDelivered { .. } => "delivered",
            Event::LossDetected { .. } => "loss_detected",
            Event::RequestScheduled { .. } => "req_scheduled",
            Event::RequestSuppressed { .. } => "req_suppressed",
            Event::RequestSent { .. } => "req_sent",
            Event::ReplyScheduled { .. } => "rep_scheduled",
            Event::ReplySuppressed { .. } => "rep_suppressed",
            Event::ReplySent { .. } => "rep_sent",
            Event::ExpeditedRequestSent { .. } => "xreq_sent",
            Event::ExpeditedReplySent { .. } => "xrep_sent",
            Event::CacheHit { .. } => "cache_hit",
            Event::CacheMiss { .. } => "cache_miss",
            Event::CacheUpdate { .. } => "cache_update",
            Event::RecoveryCompleted { .. } => "recovered",
            Event::SpuriousLoss { .. } => "spurious",
        }
    }

    /// The data sequence number the event concerns, when it has one.
    pub fn seq(&self) -> Option<u64> {
        match *self {
            Event::PacketSent { seq, .. }
            | Event::PacketDropped { seq, .. }
            | Event::PacketDelivered { seq, .. } => seq,
            Event::LossDetected { seq, .. }
            | Event::RequestScheduled { seq, .. }
            | Event::RequestSuppressed { seq, .. }
            | Event::RequestSent { seq, .. }
            | Event::ReplyScheduled { seq, .. }
            | Event::ReplySuppressed { seq, .. }
            | Event::ReplySent { seq, .. }
            | Event::ExpeditedRequestSent { seq, .. }
            | Event::ExpeditedReplySent { seq, .. }
            | Event::CacheHit { seq, .. }
            | Event::CacheMiss { seq, .. }
            | Event::CacheUpdate { seq, .. }
            | Event::RecoveryCompleted { seq, .. }
            | Event::SpuriousLoss { seq, .. } => Some(seq),
        }
    }

    /// The node the event is attributed to (`link` for drops).
    pub fn node(&self) -> u32 {
        match *self {
            Event::PacketSent { node, .. }
            | Event::PacketDelivered { node, .. }
            | Event::LossDetected { node, .. }
            | Event::RequestScheduled { node, .. }
            | Event::RequestSuppressed { node, .. }
            | Event::RequestSent { node, .. }
            | Event::ReplyScheduled { node, .. }
            | Event::ReplySuppressed { node, .. }
            | Event::ReplySent { node, .. }
            | Event::ExpeditedRequestSent { node, .. }
            | Event::ExpeditedReplySent { node, .. }
            | Event::CacheHit { node, .. }
            | Event::CacheMiss { node, .. }
            | Event::CacheUpdate { node, .. }
            | Event::RecoveryCompleted { node, .. }
            | Event::SpuriousLoss { node, .. } => node,
            Event::PacketDropped { link, .. } => link,
        }
    }
}

/// A timestamped [`Event`] as stored by sinks and consumed by reducers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// Simulation time of the event, nanoseconds since simulation start.
    pub t_ns: u64,
    /// The event itself.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        let ev = Event::RecoveryCompleted {
            node: 1,
            seq: 2,
            expedited: true,
        };
        assert_eq!(ev.name(), "recovered");
        assert_eq!(ev.seq(), Some(2));
        assert_eq!(ev.node(), 1);
    }

    #[test]
    fn packet_events_may_lack_seq() {
        let ev = Event::PacketSent {
            node: 0,
            class: PacketClass::Session,
            seq: None,
            cast: Cast::Multicast,
        };
        assert_eq!(ev.seq(), None);
        assert_eq!(ev.name(), "sent");
    }

    #[test]
    fn name_catalogue_covers_every_variant() {
        // One instance of each variant, in declaration order; keeps NAMES
        // honest when the vocabulary grows.
        let all = [
            Event::PacketSent {
                node: 0,
                class: PacketClass::Data,
                seq: None,
                cast: Cast::Multicast,
            },
            Event::PacketDropped {
                link: 0,
                class: PacketClass::Data,
                seq: None,
            },
            Event::PacketDelivered {
                node: 0,
                class: PacketClass::Reply,
                seq: None,
                origin: 0,
            },
            Event::LossDetected { node: 0, seq: 0 },
            Event::RequestScheduled {
                node: 0,
                seq: 0,
                round: 0,
                delay_ns: 0,
            },
            Event::RequestSuppressed {
                node: 0,
                seq: 0,
                by: 0,
            },
            Event::RequestSent {
                node: 0,
                seq: 0,
                round: 0,
            },
            Event::ReplyScheduled {
                node: 0,
                seq: 0,
                requestor: 0,
            },
            Event::ReplySuppressed {
                node: 0,
                seq: 0,
                by: 0,
            },
            Event::ReplySent {
                node: 0,
                seq: 0,
                requestor: 0,
                expedited: false,
            },
            Event::ExpeditedRequestSent {
                node: 0,
                seq: 0,
                replier: 0,
            },
            Event::ExpeditedReplySent {
                node: 0,
                seq: 0,
                requestor: 0,
                subcast: false,
            },
            Event::CacheHit {
                node: 0,
                seq: 0,
                requestor: 0,
                replier: 0,
            },
            Event::CacheMiss { node: 0, seq: 0 },
            Event::CacheUpdate {
                node: 0,
                seq: 0,
                requestor: 0,
                replier: 0,
            },
            Event::RecoveryCompleted {
                node: 0,
                seq: 0,
                expedited: false,
            },
            Event::SpuriousLoss { node: 0, seq: 0 },
        ];
        assert_eq!(all.len(), Event::NAMES.len());
        for (ev, &name) in all.iter().zip(Event::NAMES.iter()) {
            assert_eq!(ev.name(), name);
        }
    }

    #[test]
    fn drop_attributes_to_link() {
        let ev = Event::PacketDropped {
            link: 9,
            class: PacketClass::Data,
            seq: Some(4),
        };
        assert_eq!(ev.node(), 9);
    }
}
