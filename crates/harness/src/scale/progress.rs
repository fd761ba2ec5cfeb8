//! Published per-shard progress: the synchronisation of the sharded
//! runner's windowed conservative sync (`docs/SCALING.md`).
//!
//! Each shard owns one clock, the end of the last window it has simulated
//! and posted the cross-shard packets of. A peer that has published `c`
//! sends nothing that departs before `c`, so nothing it can still send
//! arrives before `c + lookahead`; a shard may therefore run any window
//! ending at or before that bound for every peer ([`admits`]). The clocks
//! belong to one `run_scale` call, so concurrent runs in one process share
//! nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// The clock value of a shard whose worker unwound. No window ends there:
/// window ends stop at the horizon plus one, far below it.
const FAILED: u64 = u64::MAX;

/// The window rule: a shard may run the window that ends (exclusive) at
/// `end` while a peer has published `clock` iff the earliest arrival that
/// peer can still send, `clock + lookahead_ns`, is not inside the window.
fn admits(clock: u64, lookahead_ns: u64, end: u64) -> bool {
    clock.saturating_add(lookahead_ns) >= end
}

/// A peer shard's worker unwound: nothing it would have sent will come.
pub(super) struct PeerFailed;

/// One shard's clock on a cache line of its own, so that publishing does
/// not evict the line a peer is polling.
#[repr(align(128))]
#[derive(Default)]
struct Clock(AtomicU64);

/// The progress clocks of one sharded run, all starting at zero.
pub(super) struct Progress {
    clocks: Box<[Clock]>,
}

impl Progress {
    pub(super) fn new(shards: usize) -> Self {
        Progress {
            clocks: (0..shards).map(|_| Clock::default()).collect(),
        }
    }

    /// A guard that marks shard `me` failed if it is dropped while its
    /// thread unwinds, so that peers waiting on `me` stop instead of
    /// waiting forever.
    pub(super) fn guard(&self, me: usize) -> FailGuard<'_> {
        FailGuard { progress: self, me }
    }

    /// Publishes that shard `me` has simulated every time before `end` and
    /// posted every packet it sent there. The `Release` store orders those
    /// posts before the clock for any peer that reads it with `Acquire`.
    pub(super) fn publish(&self, me: usize, end: u64) {
        self.clocks[me].0.store(end, Ordering::Release);
    }

    /// Waits until every peer of `me` [`admits`] the window ending at
    /// `end`, yielding the core between polls to whatever else is
    /// runnable (more shards than cores, or another run); with a core to
    /// itself a yield returns at once, so this polls as fast as a spin.
    /// Clocks only grow, so a peer once admitted stays admitted.
    pub(super) fn wait_for_peers(
        &self,
        me: usize,
        end: u64,
        lookahead_ns: u64,
    ) -> Result<(), PeerFailed> {
        for (peer, clock) in self.clocks.iter().enumerate() {
            if peer == me {
                continue;
            }
            loop {
                match clock.0.load(Ordering::Acquire) {
                    FAILED => return Err(PeerFailed),
                    c if admits(c, lookahead_ns, end) => break,
                    _ => thread::yield_now(),
                }
            }
        }
        Ok(())
    }
}

/// See [`Progress::guard`].
pub(super) struct FailGuard<'a> {
    progress: &'a Progress,
    me: usize,
}

impl Drop for FailGuard<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.progress.clocks[self.me]
                .0
                .store(FAILED, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    proptest! {
        /// Safety: a window the rule admits against every peer ends no
        /// later than the earliest arrival any peer can still send.
        /// Liveness: the shard furthest behind is always admitted to its
        /// next window, whatever its peers have published, as long as a
        /// window is no wider than the lookahead — so the run never stalls.
        #[test]
        fn window_rule_is_safe_and_live(
            clocks in proptest::collection::vec(0u64..1 << 40, 2..8),
            lookahead in 1u64..1 << 20,
            end in 0u64..1 << 41,
            width in 1u64..1 << 20,
        ) {
            let earliest_arrival = clocks.iter().map(|&c| c + lookahead).min().unwrap();
            if clocks.iter().all(|&c| admits(c, lookahead, end)) {
                prop_assert!(end <= earliest_arrival);
            }
            let width = width.min(lookahead);
            let slowest = *clocks.iter().min().unwrap();
            prop_assert!(clocks.iter().all(|&c| admits(c, lookahead, slowest + width)));
        }
    }

    #[test]
    fn a_peer_waiting_on_a_panicked_shard_returns() {
        let progress = Arc::new(Progress::new(2));
        let failing = {
            let progress = Arc::clone(&progress);
            thread::spawn(move || {
                let _guard = progress.guard(0);
                panic!("shard 0 fails mid-run");
            })
        };
        // The peer runs detached, so that a hang fails the test at the
        // timeout instead of hanging the test binary.
        let (done, finished) = mpsc::channel();
        let waiting = Arc::clone(&progress);
        let peer = thread::spawn(move || {
            let _guard = waiting.guard(1);
            // A window far past anything shard 0 published.
            let waited = waiting.wait_for_peers(1, 1_000, 10);
            done.send(waited.is_err()).expect("the test is listening");
        });
        assert!(failing.join().is_err(), "shard 0 panicked");
        let stopped = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the peer returned instead of hanging");
        assert!(stopped, "the peer saw the failure");
        peer.join().expect("the peer returned cleanly");
    }

    #[test]
    fn published_clocks_admit_windows_up_to_the_lookahead() {
        let progress = Progress::new(3);
        progress.publish(0, 40);
        progress.publish(2, 50);
        // Shard 1 may run up to the earliest peer clock plus the lookahead.
        assert!(progress.wait_for_peers(1, 50, 10).is_ok());
        drop(progress.guard(1));
        assert_eq!(
            progress.clocks[1].0.load(Ordering::Relaxed),
            0,
            "a guard dropped without a panic publishes nothing"
        );
    }
}
