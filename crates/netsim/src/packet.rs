use std::fmt;

use obs::PacketClass;
use topology::NodeId;

use crate::{NetConfig, SimDuration, SimTime};

/// Sequence number of a packet within a single-source transmission.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The next sequence number.
    #[inline]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }

    /// The numeric value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Globally unique identity of an application data packet: the transmission
/// source plus the sequence number assigned by that source.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PacketId {
    /// The node that originally transmitted the packet.
    pub source: NodeId,
    /// The source-assigned sequence number.
    pub seq: SeqNo,
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.source, self.seq)
    }
}

/// A recovery tuple `⟨i, q, d̂_qs, r, d̂_rq⟩` (paper §3.1): the
/// requestor/replier pair that carried out the recovery of packet `i`,
/// together with the distance estimates needed to rank pairs by recovery
/// delay `d̂_qs + 2 d̂_rq`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RecoveryTuple {
    /// The recovered packet.
    pub id: PacketId,
    /// The requestor `q` whose request instigated the reply.
    pub requestor: NodeId,
    /// The requestor's distance estimate to the source, `d̂_qs`.
    pub dist_req_src: SimDuration,
    /// The replier `r`.
    pub replier: NodeId,
    /// The replier's distance estimate to the requestor, `d̂_rq`.
    pub dist_rep_req: SimDuration,
    /// Turning-point router annotation (router-assisted mode, §3.3).
    pub turning_point: Option<NodeId>,
}

impl RecoveryTuple {
    /// The recovery delay this pair affords: `d̂_qs + 2 d̂_rq`. Pairs with
    /// smaller values are preferred ("optimal", paper §3.1).
    #[inline]
    pub fn recovery_delay(&self) -> SimDuration {
        self.dist_req_src + self.dist_rep_req * 2
    }

    /// The requestor/replier pair, ignoring the packet and distances.
    #[inline]
    pub fn pair(&self) -> (NodeId, NodeId) {
        (self.requestor, self.replier)
    }
}

/// An echo entry inside a session message: for each peer recently heard
/// from, the peer's send timestamp and how long the reporting host held the
/// message before echoing. Peers use this to estimate one-way distances as
/// in SRM: `d̂ = (now - sent_at - held_for) / 2`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SessionEcho {
    /// The peer whose session message is being echoed.
    pub peer: NodeId,
    /// The peer's send timestamp, copied verbatim.
    pub sent_at: SimTime,
    /// Time elapsed between receiving the peer's message and this echo.
    pub held_for: SimDuration,
}

/// The contents of an SRM session message (paper §2): sender state used for
/// loss detection plus timestamps used for distance estimation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionData {
    /// The member sending the session message.
    pub member: NodeId,
    /// The member's send timestamp.
    pub sent_at: SimTime,
    /// Highest sequence number received from the reported source, if any —
    /// the "state report" that lets peers detect losses they cannot see as
    /// sequence-number gaps.
    pub highest_seq: Option<SeqNo>,
    /// Which transmission source `highest_seq` refers to. `None` means the
    /// group's (single) source — the common case; multi-source groups tag
    /// each report so receivers match it to the right per-source state.
    pub about: Option<NodeId>,
    /// Echoes for distance estimation.
    pub echoes: Vec<SessionEcho>,
}

/// The message types exchanged by SRM and CESRM.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PacketBody {
    /// An original data transmission from the source. Payload-sized.
    Data { id: PacketId },
    /// A repair request (multicast, SRM recovery). Control-sized. Annotated
    /// with the requestor and its distance to the source (paper §3.1) so
    /// that receivers can assemble recovery tuples.
    Request {
        /// The packet whose retransmission is requested.
        id: PacketId,
        /// The requesting host `q`.
        requestor: NodeId,
        /// `q`'s distance estimate to the source, `d̂_qs`.
        dist_req_src: SimDuration,
    },
    /// A repair reply: the retransmission of the packet. Payload-sized.
    /// Annotated with the full recovery tuple.
    Reply {
        /// The recovery tuple describing this reply.
        tuple: RecoveryTuple,
        /// `true` when sent by CESRM's expedited recovery scheme.
        expedited: bool,
    },
    /// CESRM's expedited request (unicast to the expeditious replier).
    /// Control-sized.
    ExpeditedRequest {
        /// The packet whose retransmission is requested.
        id: PacketId,
        /// The requesting host `q`.
        requestor: NodeId,
        /// `q`'s distance estimate to the source.
        dist_req_src: SimDuration,
        /// Turning-point router to subcast the reply through, when the
        /// router-assisted variant is active.
        turning_point: Option<NodeId>,
    },
    /// A session message. Control-sized.
    Session(SessionData),
}

impl PacketBody {
    /// Convenience constructor for session bodies (single-source groups).
    pub fn session(
        member: NodeId,
        sent_at: SimTime,
        highest_seq: Option<SeqNo>,
        echoes: Vec<SessionEcho>,
    ) -> PacketBody {
        PacketBody::Session(SessionData {
            member,
            sent_at,
            highest_seq,
            about: None,
            echoes,
        })
    }

    /// Session body constructor tagging the state report with its source
    /// (multi-source groups).
    pub fn session_about(
        member: NodeId,
        sent_at: SimTime,
        source: NodeId,
        highest_seq: Option<SeqNo>,
        echoes: Vec<SessionEcho>,
    ) -> PacketBody {
        PacketBody::Session(SessionData {
            member,
            sent_at,
            highest_seq,
            about: Some(source),
            echoes,
        })
    }

    /// The application packet this message is about, when there is one.
    pub fn subject(&self) -> Option<PacketId> {
        match self {
            PacketBody::Data { id } => Some(*id),
            PacketBody::Request { id, .. } => Some(*id),
            PacketBody::Reply { tuple, .. } => Some(tuple.id),
            PacketBody::ExpeditedRequest { id, .. } => Some(*id),
            PacketBody::Session(_) => None,
        }
    }

    /// The body's class in the one packet vocabulary, `obs::PacketClass`:
    /// what the engine counts sends and link crossings by, and what its
    /// trace records name.
    pub fn class(&self) -> PacketClass {
        match self {
            PacketBody::Data { .. } => PacketClass::Data,
            PacketBody::Request { .. } => PacketClass::Request,
            PacketBody::Reply {
                expedited: true, ..
            } => PacketClass::ExpeditedReply,
            PacketBody::Reply { .. } => PacketClass::Reply,
            PacketBody::ExpeditedRequest { .. } => PacketClass::ExpeditedRequest,
            PacketBody::Session(_) => PacketClass::Session,
        }
    }

    /// Size on the wire in bytes under the paper's model: payload-carrying
    /// packets (original data and retransmissions) are `payload_bytes`;
    /// control packets (requests and session messages) are `control_bytes`.
    pub fn size_bytes(&self, cfg: &NetConfig) -> u32 {
        match self {
            PacketBody::Data { .. } | PacketBody::Reply { .. } => cfg.payload_bytes,
            PacketBody::Request { .. }
            | PacketBody::ExpeditedRequest { .. }
            | PacketBody::Session(_) => cfg.control_bytes,
        }
    }

    /// `true` for payload-carrying bodies (original data, retransmissions).
    pub fn carries_payload(&self) -> bool {
        matches!(self, PacketBody::Data { .. } | PacketBody::Reply { .. })
    }

    /// `true` for original (non-retransmitted) data.
    pub fn is_original_data(&self) -> bool {
        matches!(self, PacketBody::Data { .. })
    }
}

/// How a packet was sent — used for accounting, since unicast transmissions
/// are substantially cheaper than multicast ones (paper §4.4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CastClass {
    /// Multicast flood of the whole tree.
    Multicast,
    /// Unicast along the tree path to a single destination.
    Unicast,
    /// Unicast to a router followed by a flood of its subtree (§3.3).
    Subcast,
}

impl fmt::Display for CastClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CastClass::Multicast => "multicast",
            CastClass::Unicast => "unicast",
            CastClass::Subcast => "subcast",
        };
        f.write_str(s)
    }
}

/// A packet in flight: an originator plus a message body and how it was
/// cast. Packet contents are immutable once sent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// The node that sent the packet.
    pub origin: NodeId,
    /// How the packet was sent.
    pub cast: CastClass,
    /// The message payload.
    pub body: PacketBody,
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            PacketBody::Data { id } => write!(f, "data {id}")?,
            PacketBody::Request { id, requestor, .. } => write!(f, "request {id} by {requestor}")?,
            PacketBody::Reply { tuple, expedited } => {
                let kind = if *expedited {
                    "expedited-reply"
                } else {
                    "reply"
                };
                write!(f, "{kind} {} by {}", tuple.id, tuple.replier)?
            }
            PacketBody::ExpeditedRequest { id, requestor, .. } => {
                write!(f, "expedited-request {id} by {requestor}")?
            }
            PacketBody::Session(s) => write!(f, "session from {}", s.member)?,
        }
        write!(f, " ({})", self.cast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(seq: u64) -> PacketId {
        PacketId {
            source: NodeId::ROOT,
            seq: SeqNo(seq),
        }
    }

    #[test]
    fn seqno_ordering_and_next() {
        assert!(SeqNo(1) < SeqNo(2));
        assert_eq!(SeqNo(1).next(), SeqNo(2));
        assert_eq!(SeqNo(5).value(), 5);
        assert_eq!(SeqNo(5).to_string(), "#5");
    }

    #[test]
    fn recovery_delay_formula() {
        let t = RecoveryTuple {
            id: pid(3),
            requestor: NodeId(1),
            dist_req_src: SimDuration::from_millis(40),
            replier: NodeId(2),
            dist_rep_req: SimDuration::from_millis(30),
            turning_point: None,
        };
        // d_qs + 2 d_rq = 40 + 60 = 100 ms.
        assert_eq!(t.recovery_delay(), SimDuration::from_millis(100));
        assert_eq!(t.pair(), (NodeId(1), NodeId(2)));
    }

    #[test]
    fn size_model_matches_paper() {
        let cfg = NetConfig::default();
        let data = PacketBody::Data { id: pid(0) };
        let req = PacketBody::Request {
            id: pid(0),
            requestor: NodeId(1),
            dist_req_src: SimDuration::ZERO,
        };
        let tuple = RecoveryTuple {
            id: pid(0),
            requestor: NodeId(1),
            dist_req_src: SimDuration::ZERO,
            replier: NodeId(2),
            dist_rep_req: SimDuration::ZERO,
            turning_point: None,
        };
        let reply = PacketBody::Reply {
            tuple,
            expedited: false,
        };
        let sess = PacketBody::session(NodeId(1), SimTime::ZERO, None, Vec::new());
        assert_eq!(data.size_bytes(&cfg), 1024);
        assert_eq!(reply.size_bytes(&cfg), 1024);
        assert_eq!(req.size_bytes(&cfg), 0);
        assert_eq!(sess.size_bytes(&cfg), 0);
        assert!(data.carries_payload());
        assert!(reply.carries_payload());
        assert!(!req.carries_payload());
        assert!(data.is_original_data());
        assert!(!reply.is_original_data());
    }

    #[test]
    fn subject_extraction() {
        let req = PacketBody::Request {
            id: pid(9),
            requestor: NodeId(1),
            dist_req_src: SimDuration::ZERO,
        };
        assert_eq!(req.subject(), Some(pid(9)));
        let sess = PacketBody::session(NodeId(1), SimTime::ZERO, None, Vec::new());
        assert_eq!(sess.subject(), None);
    }

    #[test]
    fn class_covers_every_body() {
        let tuple = RecoveryTuple {
            id: pid(0),
            requestor: NodeId(1),
            dist_req_src: SimDuration::ZERO,
            replier: NodeId(2),
            dist_rep_req: SimDuration::ZERO,
            turning_point: None,
        };
        let bodies = [
            PacketBody::Data { id: pid(0) },
            PacketBody::Request {
                id: pid(0),
                requestor: NodeId(1),
                dist_req_src: SimDuration::ZERO,
            },
            PacketBody::Reply {
                tuple,
                expedited: false,
            },
            PacketBody::ExpeditedRequest {
                id: pid(0),
                requestor: NodeId(1),
                dist_req_src: SimDuration::ZERO,
                turning_point: None,
            },
            PacketBody::Reply {
                tuple,
                expedited: true,
            },
            PacketBody::session(NodeId(1), SimTime::ZERO, None, Vec::new()),
        ];
        let classes: Vec<PacketClass> = bodies.iter().map(PacketBody::class).collect();
        assert_eq!(classes, PacketClass::ALL);
    }

    #[test]
    fn display_forms() {
        assert_eq!(pid(2).to_string(), "n0#2");
        assert_eq!(CastClass::Multicast.to_string(), "multicast");
        assert_eq!(CastClass::Subcast.to_string(), "subcast");
    }
}
