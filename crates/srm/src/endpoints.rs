use std::rc::Rc;

use metrics::SharedRecoveryLog;
use topology::NodeId;

use crate::{Role, SrmAgent, SrmCore, SrmParams};

/// What every endpoint made by one [`SrmEndpoints`] has in common: the
/// stream's source, the scheduling parameters, the role, and the run's
/// recovery log and observation handle. Held
/// behind one `Rc` so that an endpoint carries a pointer to it instead of
/// its own copy — at 10⁵ receivers the copies were half of every
/// endpoint's footprint (`docs/SCALING.md`).
#[derive(Clone)]
pub(crate) struct Shared {
    pub source: NodeId,
    pub params: SrmParams,
    pub role: Role,
    pub log: SharedRecoveryLog,
    /// The run's observation handle (see the `obs` crate); off by default.
    pub obs: obs::Instruments,
}

/// The one construction path for SRM endpoints: fixes everything the
/// endpoints of a stream share, then hands out one endpoint per node.
///
/// Every endpoint made by the same factory points at the same shared
/// block, so a run with 10⁵ receivers stores its parameters, log and
/// observation handles once. The `SrmAgent::{source, receiver}` and
/// `SrmCore::new` constructors are single-endpoint shorthands over this.
///
/// # Examples
///
/// ```
/// use metrics::RecoveryLog;
/// use srm::{Role, SrmEndpoints, SrmParams};
/// use topology::NodeId;
///
/// let receivers = SrmEndpoints::new(
///     NodeId::ROOT,
///     SrmParams::paper_default(),
///     Role::Receiver,
///     RecoveryLog::shared(),
/// );
/// let a = receivers.agent(NodeId(2));
/// let b = receivers.agent(NodeId(3));
/// assert_eq!(a.core().source(), b.core().source());
/// ```
#[derive(Clone)]
pub struct SrmEndpoints {
    shared: Rc<Shared>,
}

impl SrmEndpoints {
    /// Endpoints of the stream sent by `source`, all in `role`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid.
    pub fn new(source: NodeId, params: SrmParams, role: Role, log: SharedRecoveryLog) -> Self {
        params.validate();
        SrmEndpoints {
            shared: Rc::new(Shared {
                source,
                params,
                role,
                log,
                obs: obs::Instruments::off(),
            }),
        }
    }

    /// Installs the run's observation handle for every endpoint made from
    /// here on, in the one block they share. Each core emits the
    /// scheduling/suppression decisions only it can see
    /// (`req_scheduled`/`req_suppressed`/`rep_scheduled`/`rep_suppressed`/
    /// `rep_sent`), whose counts are the handle's `srm.*` counters;
    /// detection, request and completion records come from the shared
    /// [`metrics::RecoveryLog`], which should be given a clone of the same
    /// handle. Per-simulation owned and observation-only; off by default.
    pub fn with_obs(mut self, obs: obs::Instruments) -> Self {
        Rc::make_mut(&mut self.shared).obs = obs;
        self
    }

    /// The protocol engine for host `me`.
    ///
    /// # Panics
    ///
    /// Panics if the role is [`Role::Source`] while `me` is not the source.
    pub fn core(&self, me: NodeId) -> SrmCore {
        SrmCore::with_shared(me, Rc::clone(&self.shared))
    }

    /// The plain-SRM simulator agent for host `me`.
    pub fn agent(&self, me: NodeId) -> SrmAgent {
        SrmAgent::from_core(self.core(me))
    }
}
