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
    /// Every class in declaration order, so `ALL[class as usize] == class`.
    pub const ALL: [PacketClass; 6] = [
        PacketClass::Data,
        PacketClass::Request,
        PacketClass::Reply,
        PacketClass::ExpeditedRequest,
        PacketClass::ExpeditedReply,
        PacketClass::Session,
    ];

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
    /// Every cast in declaration order, so `ALL[cast as usize] == cast`.
    pub const ALL: [Cast; 3] = [Cast::Multicast, Cast::Unicast, Cast::Subcast];

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
/// [`Event::fields`] is the one description of each variant's wire form;
/// `docs/TRACING.md` documents every variant's fields and the JSONL
/// encoding.
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

    /// The variant's declaration index, which is also its index into
    /// [`Self::NAMES`] and the variant tag the wire forms encode.
    pub fn kind(&self) -> usize {
        match self {
            Event::PacketSent { .. } => 0,
            Event::PacketDropped { .. } => 1,
            Event::PacketDelivered { .. } => 2,
            Event::LossDetected { .. } => 3,
            Event::RequestScheduled { .. } => 4,
            Event::RequestSuppressed { .. } => 5,
            Event::RequestSent { .. } => 6,
            Event::ReplyScheduled { .. } => 7,
            Event::ReplySuppressed { .. } => 8,
            Event::ReplySent { .. } => 9,
            Event::ExpeditedRequestSent { .. } => 10,
            Event::ExpeditedReplySent { .. } => 11,
            Event::CacheHit { .. } => 12,
            Event::CacheMiss { .. } => 13,
            Event::CacheUpdate { .. } => 14,
            Event::RecoveryCompleted { .. } => 15,
            Event::SpuriousLoss { .. } => 16,
        }
    }

    /// Stable lowercase wire name used as the `"ev"` field in JSONL.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.kind()]
    }

    /// Calls `f` with each field's wire name and value, in declaration
    /// order. This walk is the event's wire form: the JSONL writer, the
    /// digest hash and the packed [`crate::RecordLog`] all encode from it,
    /// and the log decodes the fields back in the same order.
    // Inlined so each codec's closure state stays in registers: out of
    // line, `RecordLog::push` measured about 20 % slower per record.
    #[inline]
    pub fn fields(&self, mut f: impl FnMut(&'static str, Field)) {
        use Field::{Class, Flag, Id, Seq, U64};
        match *self {
            Event::PacketSent {
                node,
                class,
                seq,
                cast,
            } => {
                f("node", Id(node));
                f("class", Class(class));
                f("seq", Seq(seq));
                f("cast", Field::Cast(cast));
            }
            Event::PacketDropped { link, class, seq } => {
                f("link", Id(link));
                f("class", Class(class));
                f("seq", Seq(seq));
            }
            Event::PacketDelivered {
                node,
                class,
                seq,
                origin,
            } => {
                f("node", Id(node));
                f("class", Class(class));
                f("seq", Seq(seq));
                f("origin", Id(origin));
            }
            Event::LossDetected { node, seq }
            | Event::CacheMiss { node, seq }
            | Event::SpuriousLoss { node, seq } => {
                f("node", Id(node));
                f("seq", U64(seq));
            }
            Event::RequestScheduled {
                node,
                seq,
                round,
                delay_ns,
            } => {
                f("node", Id(node));
                f("seq", U64(seq));
                f("round", Id(round));
                f("delay_ns", U64(delay_ns));
            }
            Event::RequestSuppressed { node, seq, by }
            | Event::ReplySuppressed { node, seq, by } => {
                f("node", Id(node));
                f("seq", U64(seq));
                f("by", Id(by));
            }
            Event::RequestSent { node, seq, round } => {
                f("node", Id(node));
                f("seq", U64(seq));
                f("round", Id(round));
            }
            Event::ReplyScheduled {
                node,
                seq,
                requestor,
            } => {
                f("node", Id(node));
                f("seq", U64(seq));
                f("requestor", Id(requestor));
            }
            Event::ReplySent {
                node,
                seq,
                requestor,
                expedited,
            } => {
                f("node", Id(node));
                f("seq", U64(seq));
                f("requestor", Id(requestor));
                f("expedited", Flag(expedited));
            }
            Event::ExpeditedRequestSent { node, seq, replier } => {
                f("node", Id(node));
                f("seq", U64(seq));
                f("replier", Id(replier));
            }
            Event::ExpeditedReplySent {
                node,
                seq,
                requestor,
                subcast,
            } => {
                f("node", Id(node));
                f("seq", U64(seq));
                f("requestor", Id(requestor));
                f("subcast", Flag(subcast));
            }
            Event::CacheHit {
                node,
                seq,
                requestor,
                replier,
            }
            | Event::CacheUpdate {
                node,
                seq,
                requestor,
                replier,
            } => {
                f("node", Id(node));
                f("seq", U64(seq));
                f("requestor", Id(requestor));
                f("replier", Id(replier));
            }
            Event::RecoveryCompleted {
                node,
                seq,
                expedited,
            } => {
                f("node", Id(node));
                f("seq", U64(seq));
                f("expedited", Flag(expedited));
            }
        }
    }

    /// The event of variant `kind` whose fields, read from `src` in the
    /// order [`Self::fields`] yields them, are the ones `src` returns.
    ///
    /// # Panics
    /// Panics when `kind` is not a variant index (`>= NAMES.len()`).
    pub(crate) fn from_fields(kind: usize, src: &mut impl FieldSource) -> Event {
        // Every variant leads with its node; the packet events (kinds 0-2)
        // follow it with their class and optional seq, every other variant
        // with its seq. Struct-literal fields are evaluated in the order
        // written, which is declaration order here.
        let node = src.id();
        if kind < 3 {
            let (class, seq) = (src.class(), src.seq());
            return match kind {
                0 => Event::PacketSent {
                    node,
                    class,
                    seq,
                    cast: src.cast(),
                },
                1 => Event::PacketDropped {
                    link: node,
                    class,
                    seq,
                },
                _ => Event::PacketDelivered {
                    node,
                    class,
                    seq,
                    origin: src.id(),
                },
            };
        }
        let seq = src.u64();
        match kind {
            3 => Event::LossDetected { node, seq },
            4 => Event::RequestScheduled {
                node,
                seq,
                round: src.id(),
                delay_ns: src.u64(),
            },
            5 => Event::RequestSuppressed {
                node,
                seq,
                by: src.id(),
            },
            6 => Event::RequestSent {
                node,
                seq,
                round: src.id(),
            },
            7 => Event::ReplyScheduled {
                node,
                seq,
                requestor: src.id(),
            },
            8 => Event::ReplySuppressed {
                node,
                seq,
                by: src.id(),
            },
            9 => Event::ReplySent {
                node,
                seq,
                requestor: src.id(),
                expedited: src.flag(),
            },
            10 => Event::ExpeditedRequestSent {
                node,
                seq,
                replier: src.id(),
            },
            11 => Event::ExpeditedReplySent {
                node,
                seq,
                requestor: src.id(),
                subcast: src.flag(),
            },
            12 => Event::CacheHit {
                node,
                seq,
                requestor: src.id(),
                replier: src.id(),
            },
            13 => Event::CacheMiss { node, seq },
            14 => Event::CacheUpdate {
                node,
                seq,
                requestor: src.id(),
                replier: src.id(),
            },
            15 => Event::RecoveryCompleted {
                node,
                seq,
                expedited: src.flag(),
            },
            16 => Event::SpuriousLoss { node, seq },
            _ => panic!("no Event variant {kind}"),
        }
    }

    /// The data sequence number the event concerns, when it has one: its
    /// `seq` field.
    pub fn seq(&self) -> Option<u64> {
        let mut seq = None;
        self.fields(|key, field| match field {
            Field::Seq(v) => seq = v,
            Field::U64(v) if key == "seq" => seq = Some(v),
            _ => {}
        });
        seq
    }

    /// The node the event is attributed to: its first field, which is
    /// `link` for drops.
    pub fn node(&self) -> u32 {
        let mut node = None;
        self.fields(|_, field| {
            if let (None, Field::Id(id)) = (node, field) {
                node = Some(id);
            }
        });
        node.expect("every variant leads with a node id")
    }
}

/// One field of an [`Event`] as [`Event::fields`] yields it: the six
/// value types the wire forms encode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Field {
    /// A node id, round or other `u32`.
    Id(u32),
    /// A data sequence number or a duration in nanoseconds.
    U64(u64),
    /// A packet event's data sequence number, absent when it has none.
    Seq(Option<u64>),
    /// A packet event's body classification.
    Class(PacketClass),
    /// A packet event's addressing mode.
    Cast(Cast),
    /// A variant's one `bool`.
    Flag(bool),
}

/// What [`Event::from_fields`] reads an event's fields from, one call per
/// field in the order [`Event::fields`] yields them.
pub(crate) trait FieldSource {
    fn id(&mut self) -> u32;
    fn u64(&mut self) -> u64;
    fn seq(&mut self) -> Option<u64>;
    fn class(&mut self) -> PacketClass;
    fn cast(&mut self) -> Cast;
    fn flag(&mut self) -> bool;
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

    /// Reads every field as zero: `0`, `None`, the first class and cast,
    /// `false`.
    struct Zeros;

    impl FieldSource for Zeros {
        fn id(&mut self) -> u32 {
            0
        }
        fn u64(&mut self) -> u64 {
            0
        }
        fn seq(&mut self) -> Option<u64> {
            None
        }
        fn class(&mut self) -> PacketClass {
            PacketClass::Data
        }
        fn cast(&mut self) -> Cast {
            Cast::Multicast
        }
        fn flag(&mut self) -> bool {
            false
        }
    }

    #[test]
    fn tracing_doc_table_matches_the_schema() {
        // The `| `ev` | Fields | Emitted when |` table: one row per
        // variant, in declaration order, its fields in walk order.
        let doc = include_str!("../../../docs/TRACING.md");
        let rows: Vec<(&str, Vec<&str>)> = doc
            .lines()
            .skip_while(|line| !line.starts_with("| `ev` |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                let cols: Vec<&str> = line.split(" | ").collect();
                let fields = cols[1].split(", ").map(|f| f.trim_matches('`'));
                (cols[0].trim_matches(['|', ' ', '`']), fields.collect())
            })
            .collect();
        assert_eq!(rows.len(), Event::NAMES.len(), "one row per variant");
        for (kind, (name, fields)) in rows.iter().enumerate() {
            let event = Event::from_fields(kind, &mut Zeros);
            assert_eq!(event.kind(), kind, "from_fields and kind agree");
            assert_eq!(event.name(), *name, "row {kind}");
            let mut walked = Vec::new();
            event.fields(|key, _| walked.push(key));
            assert_eq!(&walked, fields, "`{name}` fields");
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
