use netsim::{SimDuration, SimTime, TimerToken};
use topology::NodeId;

/// Configuration of the transmission source: `packets` data packets sent
/// every `period`, starting at `start_at` (leaving time for session warm-up
/// so inter-host distances are established, as in §4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SourceConfig {
    /// Number of data packets to transmit.
    pub packets: u64,
    /// Transmission period.
    pub period: SimDuration,
    /// Simulated time of the first transmission.
    pub start_at: SimTime,
}

/// Whether this SRM endpoint is the transmission source or a receiver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// The source: transmits the data stream, never requests, replies to
    /// requests for anything it has sent.
    Source(SourceConfig),
    /// A receiver: detects and recovers losses, replies to requests for
    /// packets it holds.
    Receiver,
}

impl Role {
    /// `true` iff this endpoint is the source.
    pub fn is_source(&self) -> bool {
        matches!(self, Role::Source(_))
    }
}

/// Per-outstanding-loss request-scheduling state (paper §2.1).
#[derive(Debug)]
pub(crate) struct LossState {
    /// Pending request timer.
    pub timer: Option<TimerToken>,
    /// Number of times a request for this packet has been scheduled; the
    /// next round's interval is scaled by `2^k`.
    pub k: u32,
    /// Until when received requests must not back this request off again
    /// (they belong to the current recovery round).
    pub backoff_abstinence_until: SimTime,
    /// The realized request delay of the current round, in units of the
    /// distance estimate (feedback for adaptive timer policies).
    pub delay_over_d: f64,
}

/// Per-packet reply-scheduling state (paper §2.2).
#[derive(Debug)]
pub(crate) struct ReplyState {
    /// Pending reply timer, if a reply is scheduled.
    pub timer: Option<TimerToken>,
    /// The requestor that instigated the scheduled reply.
    pub requestor: NodeId,
    /// The requestor's advertised distance to the source (annotation copied
    /// into the reply, §3.1).
    pub req_dist_src: SimDuration,
    /// Until when a reply for this packet is considered pending: no new
    /// replies are scheduled and incoming requests are discarded.
    pub abstinence_until: SimTime,
    /// `true` once this host itself sent a reply for the packet (duplicate
    /// replies heard during abstinence then feed adaptive timer policies).
    pub we_replied: bool,
}

impl ReplyState {
    /// `true` while the entry still means something: a reply is scheduled
    /// or the abstinence period is running. A dead entry is
    /// indistinguishable from an absent one and may be dropped at any time.
    pub fn is_live(&self, now: SimTime) -> bool {
        self.timer.is_some() || now < self.abstinence_until
    }
}

/// What a fired timer belonging to the SRM core means.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TimerKind {
    /// Send the next data packet (source only).
    DataTx,
    /// Send the periodic session message.
    Session,
    /// Request timeout for the given sequence number.
    Request(u64),
    /// Reply timeout for the given sequence number.
    Reply(u64),
}

/// Last-heard bookkeeping about a peer, for session echoes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PeerEcho {
    /// The peer's send timestamp of its last session message.
    pub sent_at: SimTime,
    /// When we received that message.
    pub received_at: SimTime,
}

/// What an endpoint knows about one peer.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Peer {
    /// One-way distance estimate, from session exchange or seeded.
    pub dist: Option<SimDuration>,
    /// The peer's last session message, to echo back in ours.
    pub echo: Option<PeerEcho>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_predicates() {
        let src = Role::Source(SourceConfig {
            packets: 10,
            period: SimDuration::from_millis(80),
            start_at: SimTime::ZERO,
        });
        assert!(src.is_source());
        assert!(!Role::Receiver.is_source());
    }
}
