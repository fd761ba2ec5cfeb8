use crate::SimDuration;

/// Network and simulation parameters, defaulting to the CESRM paper's
/// simulation setup (§4.3): 1.5 Mbps links, 20 ms per-link delay, 1 KB
/// payload packets, 0 KB control packets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NetConfig {
    /// One-way propagation delay of every link. The paper sweeps 10, 20 and
    /// 30 ms and reports 20 ms results.
    pub link_delay: SimDuration,
    /// Link bandwidth in bits per second, applied per direction.
    pub bandwidth_bps: u64,
    /// Size of payload-carrying packets (original data, retransmissions).
    pub payload_bytes: u32,
    /// Size of control packets (requests, session messages).
    pub control_bytes: u32,
    /// Enables the router-assisted capabilities of §3.3: turning-point
    /// annotation of replies and subcasting.
    pub router_assist: bool,
    /// Maximum extra per-crossing delay, drawn uniformly from
    /// `[0, jitter]`. Zero (the paper's setting) keeps links FIFO; positive
    /// jitter lets packets reorder, which is the failure mode CESRM's
    /// `REORDER-DELAY` guards against (§3.2).
    pub jitter: SimDuration,
    /// Seed of the run: each node's random stream (agent draws, loss
    /// draws and jitter on its transmissions) is seeded from this and the
    /// node id.
    pub seed: u64,
}

impl NetConfig {
    /// The configuration used for the paper's reported results.
    pub fn paper_default() -> Self {
        NetConfig {
            link_delay: SimDuration::from_millis(20),
            bandwidth_bps: 1_500_000,
            payload_bytes: 1024,
            control_bytes: 0,
            router_assist: false,
            jitter: SimDuration::ZERO,
            seed: 0,
        }
    }

    /// Returns the same configuration with a different link delay (the
    /// paper's 10/20/30 ms sweep).
    pub fn with_link_delay(mut self, delay: SimDuration) -> Self {
        self.link_delay = delay;
        self
    }

    /// Returns the same configuration with a different RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the same configuration with router assistance enabled or
    /// disabled.
    pub fn with_router_assist(mut self, enabled: bool) -> Self {
        self.router_assist = enabled;
        self
    }

    /// Returns the same configuration with per-crossing delay jitter.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Time to serialize `bytes` onto a link at the configured bandwidth.
    pub fn transmission_time(&self, bytes: u32) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps as f64)
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.link_delay, SimDuration::from_millis(20));
        assert_eq!(cfg.bandwidth_bps, 1_500_000);
        assert_eq!(cfg.payload_bytes, 1024);
        assert_eq!(cfg.control_bytes, 0);
        assert!(!cfg.router_assist);
    }

    #[test]
    fn transmission_time_of_payload() {
        let cfg = NetConfig::default();
        // 1 KB at 1.5 Mbps = 8192 / 1.5e6 s ≈ 5.461 ms.
        let t = cfg.transmission_time(1024);
        let expect = 1024.0 * 8.0 / 1.5e6;
        assert!((t.as_secs_f64() - expect).abs() < 1e-9);
        assert_eq!(cfg.transmission_time(0), SimDuration::ZERO);
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = NetConfig::default()
            .with_link_delay(SimDuration::from_millis(10))
            .with_seed(99)
            .with_router_assist(true);
        assert_eq!(cfg.link_delay, SimDuration::from_millis(10));
        assert_eq!(cfg.seed, 99);
        assert!(cfg.router_assist);
    }
}
