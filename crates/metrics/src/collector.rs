use std::collections::BTreeMap;
use std::fmt;

use netsim::{CastClass, Direction, Packet, PacketBody, SimObserver, SimTime};
use topology::{LinkId, NodeId};

/// Classification of a packet for accounting purposes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PacketKind {
    /// Original data transmission.
    Data,
    /// Multicast repair request (SRM recovery scheme).
    Request,
    /// Normal repair reply (retransmission).
    Reply,
    /// Expedited request (CESRM, unicast).
    ExpeditedRequest,
    /// Expedited reply (CESRM retransmission).
    ExpeditedReply,
    /// Session message.
    Session,
}

impl PacketKind {
    /// Classifies a packet body.
    pub fn of(packet: &Packet) -> PacketKind {
        match &packet.body {
            PacketBody::Data { .. } => PacketKind::Data,
            PacketBody::Request { .. } => PacketKind::Request,
            PacketBody::Reply { expedited, .. } => {
                if *expedited {
                    PacketKind::ExpeditedReply
                } else {
                    PacketKind::Reply
                }
            }
            PacketBody::ExpeditedRequest { .. } => PacketKind::ExpeditedRequest,
            PacketBody::Session(_) => PacketKind::Session,
        }
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PacketKind::Data => "data",
            PacketKind::Request => "request",
            PacketKind::Reply => "reply",
            PacketKind::ExpeditedRequest => "expedited-request",
            PacketKind::ExpeditedReply => "expedited-reply",
            PacketKind::Session => "session",
        })
    }
}

/// The transmission-overhead split used in the paper's Fig. 5: link-crossing
/// cost (1 unit per link traversed, §4.4) of recovery traffic by category.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct OverheadBreakdown {
    /// Crossings by retransmissions (normal + expedited replies).
    pub retransmissions: u64,
    /// Crossings by multicast control packets (SRM-style requests).
    pub control_multicast: u64,
    /// Crossings by unicast control packets (expedited requests).
    pub control_unicast: u64,
    /// Crossings by session messages (identical across protocols; reported
    /// separately and excluded from the recovery-overhead comparison).
    pub sessions: u64,
}

impl OverheadBreakdown {
    /// Total recovery overhead: retransmissions plus control.
    pub fn recovery_total(&self) -> u64 {
        self.retransmissions + self.control_multicast + self.control_unicast
    }

    /// Total control overhead (multicast + unicast requests).
    pub fn control_total(&self) -> u64 {
        self.control_multicast + self.control_unicast
    }
}

/// Number of [`PacketKind`] variants (dense counter index space).
const KIND_COUNT: usize = 6;
/// Number of [`CastClass`] variants (dense counter index space).
const CAST_COUNT: usize = 3;

/// A [`SimObserver`] that counts packet sends per node and link crossings
/// per packet kind and cast mode.
///
/// Crossing counters are a dense `(kind, cast)` array: the observer sits on
/// the per-crossing hot path, and integer-indexed bumps replace the former
/// `BTreeMap` entry lookups. Per-node send counters are sparse (only nodes
/// that actually sent own a row — a dense per-node table would scale with
/// group size at the million-receiver rungs, and sends are orders of
/// magnitude rarer than crossings, so the map lookup is off the hot path).
/// All aggregates are exact `u64` sums, so accumulation order cannot
/// perturb results and byte-for-byte reproducibility across processes and
/// worker threads is preserved.
#[derive(Clone, Default, Debug)]
pub struct TrafficCollector {
    /// `sends[node][kind]`: packets of `kind` sent by `node`.
    sends: BTreeMap<u32, [u64; KIND_COUNT]>,
    /// `crossings[kind][cast]`: link crossings of `kind` under `cast`.
    crossings: [[u64; CAST_COUNT]; KIND_COUNT],
}

impl TrafficCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        TrafficCollector::default()
    }

    /// Number of packets of `kind` sent by `node`.
    pub fn sends_by(&self, node: NodeId, kind: PacketKind) -> u64 {
        self.sends.get(&node.0).map_or(0, |row| row[kind as usize])
    }

    /// Total packets of `kind` sent by any node.
    pub fn total_sends(&self, kind: PacketKind) -> u64 {
        self.sends.values().map(|row| row[kind as usize]).sum()
    }

    /// Folds `other`'s counters into this collector, elementwise. Counters
    /// are exact sums, so the merge is order-insensitive — the sharded
    /// runner combines its per-shard collectors this way.
    pub fn merge(&mut self, other: TrafficCollector) {
        for (node, row) in other.sends {
            let mine = self.sends.entry(node).or_insert([0; KIND_COUNT]);
            for (m, v) in mine.iter_mut().zip(row) {
                *m += v;
            }
        }
        for (mine, theirs) in self.crossings.iter_mut().zip(other.crossings) {
            for (m, v) in mine.iter_mut().zip(theirs) {
                *m += v;
            }
        }
    }

    /// Total link crossings of `kind` under `cast`.
    pub fn crossings(&self, kind: PacketKind, cast: CastClass) -> u64 {
        self.crossings[kind as usize][cast as usize]
    }

    /// Total link crossings of `kind` under any cast mode.
    pub fn crossings_any_cast(&self, kind: PacketKind) -> u64 {
        self.crossings[kind as usize].iter().sum()
    }

    /// The Fig. 5 overhead breakdown.
    pub fn overhead(&self) -> OverheadBreakdown {
        OverheadBreakdown {
            retransmissions: self.crossings_any_cast(PacketKind::Reply)
                + self.crossings_any_cast(PacketKind::ExpeditedReply),
            control_multicast: self.crossings(PacketKind::Request, CastClass::Multicast),
            control_unicast: self.crossings(PacketKind::ExpeditedRequest, CastClass::Unicast),
            sessions: self.crossings_any_cast(PacketKind::Session),
        }
    }
}

impl SimObserver for TrafficCollector {
    fn on_send(&mut self, _now: SimTime, node: NodeId, packet: &Packet) {
        let row = self.sends.entry(node.0).or_insert([0; KIND_COUNT]);
        row[PacketKind::of(packet) as usize] += 1;
    }

    fn on_link_crossing(&mut self, _now: SimTime, _link: LinkId, _dir: Direction, packet: &Packet) {
        self.crossings[PacketKind::of(packet) as usize][packet.cast as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{PacketId, RecoveryTuple, SeqNo, SimDuration};

    fn pid(seq: u64) -> PacketId {
        PacketId {
            source: NodeId::ROOT,
            seq: SeqNo(seq),
        }
    }

    fn packet(kind: PacketKind, cast: CastClass) -> Packet {
        let body = match kind {
            PacketKind::Data => PacketBody::Data { id: pid(0) },
            PacketKind::Request => PacketBody::Request {
                id: pid(0),
                requestor: NodeId(1),
                dist_req_src: SimDuration::ZERO,
            },
            PacketKind::Reply | PacketKind::ExpeditedReply => PacketBody::Reply {
                tuple: RecoveryTuple {
                    id: pid(0),
                    requestor: NodeId(1),
                    dist_req_src: SimDuration::ZERO,
                    replier: NodeId(2),
                    dist_rep_req: SimDuration::ZERO,
                    turning_point: None,
                },
                expedited: kind == PacketKind::ExpeditedReply,
            },
            PacketKind::ExpeditedRequest => PacketBody::ExpeditedRequest {
                id: pid(0),
                requestor: NodeId(1),
                dist_req_src: SimDuration::ZERO,
                turning_point: None,
            },
            PacketKind::Session => PacketBody::session(NodeId(1), SimTime::ZERO, None, Vec::new()),
        };
        Packet {
            origin: NodeId(1),
            cast,
            body,
        }
    }

    #[test]
    fn kind_classification() {
        for kind in [
            PacketKind::Data,
            PacketKind::Request,
            PacketKind::Reply,
            PacketKind::ExpeditedRequest,
            PacketKind::ExpeditedReply,
            PacketKind::Session,
        ] {
            let p = packet(kind, CastClass::Multicast);
            assert_eq!(PacketKind::of(&p), kind);
        }
    }

    #[test]
    fn send_and_crossing_counts() {
        let mut c = TrafficCollector::new();
        let req = packet(PacketKind::Request, CastClass::Multicast);
        let ereq = packet(PacketKind::ExpeditedRequest, CastClass::Unicast);
        c.on_send(SimTime::ZERO, NodeId(1), &req);
        c.on_send(SimTime::ZERO, NodeId(1), &req);
        c.on_send(SimTime::ZERO, NodeId(2), &ereq);
        for _ in 0..5 {
            c.on_link_crossing(SimTime::ZERO, LinkId(NodeId(1)), Direction::Up, &req);
        }
        c.on_link_crossing(SimTime::ZERO, LinkId(NodeId(1)), Direction::Down, &ereq);
        assert_eq!(c.sends_by(NodeId(1), PacketKind::Request), 2);
        assert_eq!(c.sends_by(NodeId(2), PacketKind::ExpeditedRequest), 1);
        assert_eq!(c.total_sends(PacketKind::Request), 2);
        assert_eq!(c.crossings(PacketKind::Request, CastClass::Multicast), 5);
        let o = c.overhead();
        assert_eq!(o.control_multicast, 5);
        assert_eq!(o.control_unicast, 1);
        assert_eq!(o.control_total(), 6);
        assert_eq!(o.recovery_total(), 6);
    }

    #[test]
    fn overhead_separates_replies_and_sessions() {
        let mut c = TrafficCollector::new();
        let reply = packet(PacketKind::Reply, CastClass::Multicast);
        let ereply = packet(PacketKind::ExpeditedReply, CastClass::Multicast);
        let sess = packet(PacketKind::Session, CastClass::Multicast);
        c.on_link_crossing(SimTime::ZERO, LinkId(NodeId(1)), Direction::Down, &reply);
        c.on_link_crossing(SimTime::ZERO, LinkId(NodeId(1)), Direction::Down, &ereply);
        c.on_link_crossing(SimTime::ZERO, LinkId(NodeId(1)), Direction::Down, &ereply);
        c.on_link_crossing(SimTime::ZERO, LinkId(NodeId(1)), Direction::Down, &sess);
        let o = c.overhead();
        assert_eq!(o.retransmissions, 3);
        assert_eq!(o.sessions, 1);
        assert_eq!(o.recovery_total(), 3);
    }

    #[test]
    fn display_of_kinds() {
        assert_eq!(
            PacketKind::ExpeditedRequest.to_string(),
            "expedited-request"
        );
        assert_eq!(PacketKind::Session.to_string(), "session");
    }
}
