use netsim::CastClass;
use obs::PacketClass;

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
    /// The split of an engine's crossing counts,
    /// [`netsim::EngineTelemetry::crossings`], indexed
    /// `[class as usize][cast as usize]`.
    pub fn from_crossings(crossings: &[[u64; 3]; 6]) -> Self {
        let any_cast = |class: PacketClass| crossings[class as usize].iter().sum::<u64>();
        let under = |class: PacketClass, cast: CastClass| crossings[class as usize][cast as usize];
        OverheadBreakdown {
            retransmissions: any_cast(PacketClass::Reply) + any_cast(PacketClass::ExpeditedReply),
            control_multicast: under(PacketClass::Request, CastClass::Multicast),
            control_unicast: under(PacketClass::ExpeditedRequest, CastClass::Unicast),
            sessions: any_cast(PacketClass::Session),
        }
    }

    /// Total recovery overhead: retransmissions plus control.
    pub fn recovery_total(&self) -> u64 {
        self.retransmissions + self.control_multicast + self.control_unicast
    }

    /// Total control overhead (multicast + unicast requests).
    pub fn control_total(&self) -> u64 {
        self.control_multicast + self.control_unicast
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crossings(cells: &[(PacketClass, CastClass, u64)]) -> [[u64; 3]; 6] {
        let mut c = [[0; 3]; 6];
        for &(class, cast, n) in cells {
            c[class as usize][cast as usize] += n;
        }
        c
    }

    #[test]
    fn control_is_multicast_requests_plus_unicast_expedited_requests() {
        let o = OverheadBreakdown::from_crossings(&crossings(&[
            (PacketClass::Request, CastClass::Multicast, 5),
            (PacketClass::ExpeditedRequest, CastClass::Unicast, 1),
            // Neither scheme sends these; the split does not count them.
            (PacketClass::Request, CastClass::Unicast, 7),
            (PacketClass::ExpeditedRequest, CastClass::Multicast, 7),
            (PacketClass::Data, CastClass::Multicast, 100),
        ]));
        assert_eq!(o.control_multicast, 5);
        assert_eq!(o.control_unicast, 1);
        assert_eq!(o.control_total(), 6);
        assert_eq!(o.retransmissions, 0);
        assert_eq!(o.recovery_total(), 6);
    }

    #[test]
    fn overhead_separates_replies_and_sessions() {
        let o = OverheadBreakdown::from_crossings(&crossings(&[
            (PacketClass::Reply, CastClass::Multicast, 1),
            (PacketClass::ExpeditedReply, CastClass::Multicast, 2),
            (PacketClass::ExpeditedReply, CastClass::Subcast, 1),
            (PacketClass::Session, CastClass::Multicast, 1),
        ]));
        assert_eq!(o.retransmissions, 4, "replies of either kind, any cast");
        assert_eq!(o.sessions, 1);
        assert_eq!(o.recovery_total(), 4, "sessions are not recovery overhead");
    }
}
