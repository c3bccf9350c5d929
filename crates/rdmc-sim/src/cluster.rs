//! The simulation driver: binds `rdmc` protocol engines to the simulated
//! RDMA fabric and runs whole experiments under virtual time.
//!
//! A [`SimCluster`] hosts every group member's [`GroupEngine`] in one
//! process. Engine [`Action`]s become verbs (block sends carry the
//! message size as the immediate; ready-for-block notices and failure
//! relays are one-sided writes); fabric [`Delivery`]s become engine
//! [`Event`]s. Multiple groups — including fully overlapping ones with
//! different senders, as in the paper's Figs. 9–10 — run concurrently over
//! one fabric and contend for real link bandwidth.
//!
//! ## Failure recovery
//!
//! RDMC proper stops at the *wedge* (§3 property 6); §2.4 assumes an
//! external membership service restarts interrupted transfers in a new
//! group. [`crate::ClusterBuilder::recovery`] turns that service on: each
//! member runs an SST-style [`ViewTracker`] whose suspicion updates
//! spread epidemically over the fabric (`TAG_VIEW` writes); once every
//! unsuspected member publishes the identical failure set, the agreed
//! view is installed — old queue pairs torn down, survivors renumbered,
//! and every interrupted message resumed block-wise from the survivors'
//! wedge-time bitmaps via the `recovery` planner (with sender-side
//! re-multicast when one member holds everything, and consistent
//! whole-group discard when the failed members took the only copy of a
//! block with them). Reconfiguration attempts are paced by a grace
//! timer with bounded exponential backoff, and after `force_after`
//! fruitless attempts the orchestrator force-feeds the failure evidence
//! rather than waiting for the epidemic — the simulation's stand-in for
//! a heavyweight external failure detector.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::atomic::{AtomicDelivery, AtomicGroupId, AtomicMember, AtomicRuntime, Slot, SlotKind};
use crate::pacer::{PacerConfig, PacerState, PacingStats, QueuedSend};
use crate::reliability::{
    self, ParityGen, RelRecvState, RelSendState, ReliabilityPolicy, ReliabilityStats,
};
use bytes::Bytes;
use rdmc::engine::{
    Action, EngineConfig, EpochInstall, Event, GroupEngine, ResumeTransfer, TransferStatus,
};
use rdmc::rotation;
use rdmc::schedule::SchedulePlanner;
use rdmc::{Algorithm, Rank};
use recovery::{plan_message_resume, resume_transfers, MessagePlan, ResumeStrategy};
use simnet::{SimDuration, SimTime};
use sst::{View, ViewTracker};
use trace::check::wire;
use verbs::{CpuReport, Delivery, Fabric, NodeId, QpHandle, Transport, WrId};

/// One-sided-write tag for ready-for-block notices.
const TAG_READY: u64 = 0;
/// One-sided-write tag for relayed failure notices.
const TAG_FAILURE: u64 = 1;
// Tag 2 is retired, not free: tags are wire-visible (external probes
// match `TAG_FRONTIER` by number), so they are never renumbered.
/// One-sided-write tag for membership-view (suspicion/epoch) updates.
const TAG_VIEW: u64 = 3;
/// One-sided-write tag for gap-repair requests (reliability layer).
const TAG_NACK: u64 = 4;
/// One-sided-write tag for retransmitted blocks (reliability layer).
const TAG_RETRANS: u64 = 5;
/// One-sided-write tag for erasure-coded parity writes.
const TAG_PARITY: u64 = 6;
/// One-sided-write tag for sender send-frontier probes (trailing-loss
/// detection after a quiet period).
const TAG_PROBE: u64 = 7;
/// One-sided-write tag for atomic-multicast SST frontier-row updates
/// (the stability epidemic; see [`AtomicGroupId`]).
const TAG_FRONTIER: u64 = 8;

/// Identifies a group within a [`SimCluster`].
pub type GroupId = usize;

/// Opaque handle to one multicast message submitted on a [`SimCluster`]
/// (returned by [`SimCluster::submit_send`] and
/// [`SimCluster::schedule_send_at`]). Look its completion record up with
/// [`SimCluster::result`] — the handle-based replacement for positional
/// indexing into [`SimCluster::message_results`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(u64);

/// A group to instantiate on the cluster.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// Fabric node index of each member; `members[0]` is the root.
    pub members: Vec<usize>,
    /// Block-dissemination algorithm.
    pub algorithm: Algorithm,
    /// Block size in bytes.
    pub block_size: u64,
    /// Readiness credits granted ahead per peer.
    pub ready_window: u32,
    /// Block sends that may be posted to the NIC at once.
    pub max_outstanding_sends: u32,
}

/// Completion record of one multicast message.
#[derive(Clone, Debug)]
pub struct MessageResult {
    /// The group it was sent on.
    pub group: GroupId,
    /// Message index within the group (send order).
    pub index: usize,
    /// Message size in bytes.
    pub size: u64,
    /// When the root submitted the send.
    pub submitted: SimTime,
    /// Local-completion time per member rank (the paper measures until
    /// *all* members have the upcall).
    pub delivered_at: Vec<Option<SimTime>>,
}

impl MessageResult {
    /// Time until every member completed, if all did.
    pub fn latency(&self) -> Option<SimDuration> {
        let last = self
            .delivered_at
            .iter()
            .copied()
            .collect::<Option<Vec<SimTime>>>()?
            .into_iter()
            .max()?;
        Some(last.since(self.submitted))
    }

    /// `size / latency`, in gigabits per second.
    pub fn bandwidth_gbps(&self) -> Option<f64> {
        let lat = self.latency()?.as_secs_f64();
        (lat > 0.0).then(|| self.size as f64 * 8.0 / lat / 1e9)
    }
}

/// Configuration of the epoch-based recovery orchestration
/// ([`crate::ClusterBuilder::recovery`]).
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Delay from a member's first failure suspicion to the first
    /// reconfiguration attempt (lets the epidemic converge and batches
    /// near-simultaneous failures into one view change).
    pub grace: SimDuration,
    /// Cap on the exponential backoff between reconfiguration attempts.
    pub max_backoff: SimDuration,
    /// Fruitless attempts after which the orchestrator force-feeds the
    /// failure evidence instead of waiting for the epidemic.
    pub force_after: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            grace: SimDuration::from_millis(2),
            max_backoff: SimDuration::from_millis(16),
            force_after: 5,
        }
    }
}

/// First suspicion of one failed member (detection-latency accounting).
#[derive(Clone, Debug)]
pub struct DetectionRecord {
    /// The group that noticed.
    pub group: GroupId,
    /// The suspected member, in *original* group ranks.
    pub failed: Rank,
    /// The suspected member's fabric node.
    pub node: usize,
    /// When the first survivor suspected it.
    pub suspected_at: SimTime,
}

/// One completed reconfiguration.
#[derive(Clone, Debug)]
pub struct ReconfigRecord {
    /// The reconfigured group.
    pub group: GroupId,
    /// The installed epoch number.
    pub epoch: u64,
    /// Members removed by this view change, in original ranks.
    pub removed: Vec<Rank>,
    /// Surviving members, in original ranks (new rank = index).
    pub survivors: Vec<Rank>,
    /// When the triggering failure was first suspected.
    pub first_suspected_at: SimTime,
    /// When the new epoch was installed on every survivor.
    pub installed_at: SimTime,
    /// Messages resumed block-wise.
    pub resumed: usize,
    /// Messages resumed by sender-side re-multicast.
    pub remulticast: usize,
    /// Messages where every survivor already held every block.
    pub already_complete: usize,
    /// Total block transfers across all resume schedules (the bytes the
    /// new epoch must move — only the *missing* blocks).
    pub resumed_blocks: usize,
    /// Message indices discarded group-wide (a failed member took the
    /// only copy of some block).
    pub abandoned: Vec<usize>,
    /// Whether the orchestrator had to force the view.
    pub forced: bool,
}

/// Everything the recovery orchestration measured.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// First-suspicion records, in suspicion order.
    pub detections: Vec<DetectionRecord>,
    /// Completed reconfigurations, in installation order.
    pub reconfigurations: Vec<ReconfigRecord>,
}

/// Per-group membership/recovery state (present when recovery is on).
///
/// Trackers for single-member groups are degenerate (no peer can fail);
/// `ViewTracker` itself requires `n >= 1` only.
struct GroupRecovery {
    /// One tracker per *original* rank; dead members' trackers freeze.
    trackers: Vec<ViewTracker>,
    /// Original ranks already counted in the detection stats.
    detected: BTreeSet<Rank>,
    /// Bumped at every install; reconfiguration timers carry the version
    /// they were armed under and go stale when it moves.
    version: u64,
    /// First suspicion time of the in-progress cycle.
    cycle_started: Option<SimTime>,
}

impl GroupRecovery {
    fn new(n: usize) -> Self {
        GroupRecovery {
            trackers: (0..n)
                .map(|r| ViewTracker::new(r as u32, n as u32))
                .collect(),
            detected: BTreeSet::new(),
            version: 0,
            cycle_started: None,
        }
    }
}

enum TimerAction {
    Send {
        group: GroupId,
        size: u64,
        message: MessageId,
    },
    Crash {
        node: usize,
    },
    Reconfigure {
        group: GroupId,
        version: u64,
        attempt: u32,
    },
    /// Receiver retry timeout: re-NACK still-missing blocks on `qp` (or
    /// escalate once the budget is spent).
    RelRto {
        qp: QpHandle,
    },
    /// Sender quiet-period check: probe the send frontier on `qp` if no
    /// block has been posted for the policy's probe delay.
    RelProbe {
        qp: QpHandle,
    },
    /// Submit a rotated atomic-multicast message when the timer fires
    /// (the slot owner is resolved at fire time, from the then-current
    /// rotation cursor and live set).
    AtomicSend {
        ag: AtomicGroupId,
        size: u64,
        message: MessageId,
    },
}

struct GroupRuntime {
    spec: GroupSpec,
    engines: Vec<GroupEngine>,
    /// (my rank, peer rank) -> my queue pair endpoint (current epoch).
    /// Ordered: epoch teardown iterates it, and iteration order must be
    /// run-to-run stable (the determinism audit; the PR 5 regression).
    qps: BTreeMap<(Rank, Rank), QpHandle>,
    /// Completion record of every message, in submission order (the
    /// `delivered_at` rows are indexed by *original* rank).
    results: Vec<MessageResult>,
    /// Per original rank: undelivered, unabandoned message indices in
    /// delivery order (the engines deliver strictly in order, so the
    /// front of the queue names the message a `DeliverMessage` is for).
    pending: Vec<VecDeque<usize>>,
    /// Original rank that submitted each message (its app buffer holds
    /// every block, so it can re-seed a resume).
    senders: Vec<usize>,
    /// High-water mark of the root's send-side backlog, sampled at every
    /// submission (the traffic engine's overload evidence).
    peak_backlog: usize,
    /// Fabric node of each *original* rank (never shrinks).
    orig_members: Vec<usize>,
    /// Current rank -> original rank (identity until a reconfiguration).
    orig_rank: Vec<usize>,
    /// Set when this group is one sender's subgroup of an atomic
    /// multicast overlay: `(atomic group id, sender member index)`.
    /// Deliveries and reconfigurations then feed the overlay's frontier
    /// and trim machinery.
    overlay: Option<(AtomicGroupId, usize)>,
    /// Membership/recovery state (None = wedge-only semantics).
    recovery: Option<GroupRecovery>,
    /// How this group recovers blocks the fabric loses (None = the
    /// paper's lossless assumption: block immediates carry the raw
    /// message size and a loss stalls or wedges the transfer).
    reliability: Option<ReliabilityPolicy>,
}

impl GroupRuntime {
    /// Current rank of an original rank, if still a member.
    fn current_of(&self, orig: usize) -> Option<Rank> {
        self.orig_rank
            .iter()
            .position(|&o| o == orig)
            .map(|c| c as Rank)
    }
}

/// An RDMC deployment over any [`Transport`]: transport + engines +
/// bookkeeping. The orchestration — group creation, pacer admission,
/// epoch recovery, reliability policies, atomic overlays, the flight
/// recorder — is written once against the [`Transport`] contract and
/// runs unchanged over the simulated verbs fabric
/// (`Cluster<Fabric>`, aliased [`SimCluster`]) or the real nonblocking
/// TCP backend (`rdmc-tcp`'s `TcpFabric`).
pub struct Cluster<T: Transport = Fabric> {
    fabric: T,
    groups: Vec<GroupRuntime>,
    qp_owner: BTreeMap<QpHandle, (GroupId, Rank, Rank)>,
    timers: BTreeMap<u64, TimerAction>,
    next_timer: u64,
    /// Message handle -> (group, per-group message index). A scheduled
    /// send's slot is bound when its timer fires.
    message_slots: BTreeMap<u64, (GroupId, usize)>,
    next_message: u64,
    /// Flight recorder shared by the fabric, the net, and every engine
    /// (disabled — one branch per instrumentation point — by default).
    recorder: trace::Recorder,
    recovery_config: Option<RecoveryConfig>,
    recovery_stats: RecoveryStats,
    /// When each crashed node went down (detection-latency baseline).
    crash_times: BTreeMap<usize, SimTime>,
    /// Engine events fed so far (the chaos harness's notion of a
    /// deterministic protocol step).
    fed_events: u64,
    /// Step -> nodes to crash just before feeding that step's event.
    event_crashes: BTreeMap<u64, Vec<usize>>,
    /// Per-NIC send admission (None = unpaced, the default; see
    /// [`crate::PacerConfig`]).
    pacer: Option<PacerState>,
    /// Pool of recycled engine-action buffers: `feed` pops one, fills it
    /// via [`GroupEngine::handle_into`], executes, and returns it — no
    /// per-event `Vec` allocation. A pool (not a single buffer) because
    /// executing actions can feed further events reentrantly.
    action_pool: Vec<Vec<Action>>,
    /// Controlled scheduler shared with the fabric when exploration is
    /// driving the run; the cluster consults it for pacer admission
    /// ties so every layer's choices form one global sequence.
    scheduler: Option<verbs::SharedScheduler>,
    /// Deliberately seeded ordering bugs (mutation testing of the
    /// exploration harness); empty in normal operation.
    mutations: Vec<Mutation>,
    /// [`Mutation::UnsortedQpTeardown`] state: this cluster's index
    /// among the clusters its thread seeded with the mutation.
    replay_nonce: u64,
    /// [`Mutation::LazyRecvPost`] state: receives whose posting was
    /// (buggily) deferred, flushed at the owning node's next delivery.
    lazy_recvs: BTreeMap<usize, Vec<(QpHandle, u64)>>,
    /// Reliability policy newly created groups inherit
    /// ([`crate::ClusterBuilder::reliability`]).
    default_reliability: Option<ReliabilityPolicy>,
    /// Sender-side reliability state, keyed by the sender's local
    /// endpoint; entries die with the queue pair at epoch teardown.
    rel_send: BTreeMap<QpHandle, RelSendState>,
    /// Receiver-side reliability state, keyed by the receiver's local
    /// endpoint.
    rel_recv: BTreeMap<QpHandle, RelRecvState>,
    /// Cluster-wide counters of everything the reliability layer did.
    rel_stats: ReliabilityStats,
    /// Multi-sender atomic multicast overlays (see
    /// [`SimCluster::create_atomic_group`]); each owns one RDMC
    /// subgroup per sender.
    atomics: Vec<AtomicRuntime>,
}

/// A cluster over the simulated verbs fabric — the classic simulation
/// driver, and the reference [`Transport`] every other backend is
/// gated against.
pub type SimCluster = Cluster<Fabric>;

/// A deliberately seeded ordering bug, for mutation-testing the
/// `analyzer::explore` harness: each variant re-introduces a class of
/// bug the invariant suite must catch mechanically. Hidden from docs —
/// this is test scaffolding, not API.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Resurrects a past determinism bug: epoch teardown order depends
    /// on state outside the run — here, whether the cluster is an odd or
    /// even one its thread seeded with this mutation (odd ones tear down
    /// in reverse) — so two consecutive runs of the *same* choice
    /// sequence always diverge. Caught by the replay-determinism audit.
    UnsortedQpTeardown,
    /// Reorders the §4.2 same-instant receive/send pair: a readiness
    /// grant posts its one-sided write first and defers the receive
    /// post until the node's next delivery (a plausible "batch the recv
    /// posts off the critical path" optimisation). Under orderings
    /// where the peer's block send beats that next delivery, the send
    /// finds no posted receive and the RNR machinery arms. Caught by
    /// the zero-RNR invariant.
    LazyRecvPost,
    /// Classic off-by-one in gap repair: every NACK requests the range
    /// starting one past its first missing block, so the first loss of
    /// each gap is never retransmitted. The receiver's retry budget
    /// drains re-requesting the same wrong range and it escalates,
    /// evicting a healthy sender — caught by the crash-free
    /// completeness invariant (messages the evicted sender alone held
    /// go undelivered on a run with no injected crash).
    NackOffByOne,
    /// Classic off-by-one in the atomic delivery gate: a data slot is
    /// released when the stability frontier reaches its sequence number
    /// instead of strictly exceeding it, so every message is delivered
    /// one step *before* it is stable (and possibly before it is even
    /// locally received). The `StableFrontier` trace events still
    /// record the true minima, so the trace oracle's ordering rule
    /// catches the premature `AtomicDelivered` mechanically.
    FrontierOffByOne,
}

impl<T: Transport> Cluster<T> {
    /// The constructor proper ([`crate::ClusterBuilder::build`] ends
    /// here).
    pub(crate) fn from_transport(fabric: T) -> Self {
        Cluster {
            fabric,
            groups: Vec::new(),
            qp_owner: BTreeMap::new(),
            timers: BTreeMap::new(),
            next_timer: 0,
            message_slots: BTreeMap::new(),
            next_message: 0,
            recorder: trace::Recorder::disabled(),
            recovery_config: None,
            recovery_stats: RecoveryStats::default(),
            crash_times: BTreeMap::new(),
            fed_events: 0,
            event_crashes: BTreeMap::new(),
            pacer: None,
            action_pool: Vec::new(),
            scheduler: None,
            mutations: Vec::new(),
            replay_nonce: 0,
            lazy_recvs: BTreeMap::new(),
            default_reliability: None,
            rel_send: BTreeMap::new(),
            rel_recv: BTreeMap::new(),
            rel_stats: ReliabilityStats::default(),
            atomics: Vec::new(),
        }
    }

    /// Attaches a controlled scheduler ([`crate::ClusterBuilder::scheduler`]
    /// is the public path): the fabric's same-instant delivery races and
    /// the pacer's admission ties become explicit choice points resolved
    /// by `scheduler`. Call before running any traffic.
    pub(crate) fn set_scheduler(&mut self, scheduler: verbs::SharedScheduler) {
        self.fabric.set_scheduler(scheduler.clone());
        self.scheduler = Some(scheduler);
    }

    /// Seeds a deliberate ordering bug (mutation testing of the
    /// exploration harness — see [`Mutation`]). Not for normal use.
    #[doc(hidden)]
    pub fn seed_mutation(&mut self, mutation: Mutation) {
        thread_local! {
            static TEARDOWN_REPLAYS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        }
        if self.mutations.contains(&mutation) {
            return;
        }
        self.mutations.push(mutation);
        if mutation == Mutation::UnsortedQpTeardown {
            self.replay_nonce = TEARDOWN_REPLAYS.with(|c| c.replace(c.get() + 1));
        }
    }

    fn has_mutation(&self, mutation: Mutation) -> bool {
        self.mutations.contains(&mutation)
    }

    /// Turns on per-NIC send admission ([`crate::ClusterBuilder::pacing`]
    /// is the public path). Call before any sends.
    pub(crate) fn set_pacing(&mut self, config: PacerConfig) {
        self.pacer = Some(PacerState::new(config));
    }

    /// Counters of the send admission layer, if pacing is enabled.
    pub fn pacing_stats(&self) -> Option<PacingStats> {
        self.pacer.as_ref().map(|p| p.stats)
    }

    /// Default reliability policy for groups created from now on
    /// ([`crate::ClusterBuilder::reliability`] is the public path).
    pub(crate) fn set_default_reliability(&mut self, policy: ReliabilityPolicy) {
        self.default_reliability = Some(policy);
    }

    /// Sets one group's reliability policy (see [`ReliabilityPolicy`]):
    /// block sends start carrying per-connection sequence numbers and
    /// losses are repaired per the policy instead of stalling the
    /// transfer. Call right after [`SimCluster::create_group`], before
    /// any sends — mixing tagged and untagged blocks on one connection
    /// is not supported.
    ///
    /// # Panics
    ///
    /// Panics if messages were already submitted on the group.
    pub fn set_reliability(&mut self, group: GroupId, policy: ReliabilityPolicy) {
        let g = &mut self.groups[group];
        assert!(
            g.results.is_empty(),
            "set the reliability policy before sending"
        );
        g.reliability = Some(policy);
    }

    /// Everything the reliability layer did so far, cluster-wide.
    pub fn reliability_stats(&self) -> ReliabilityStats {
        self.rel_stats
    }

    /// Recovery switch proper ([`crate::ClusterBuilder::recovery`]).
    pub(crate) fn set_recovery(&mut self, config: RecoveryConfig) {
        self.recovery_config = Some(config);
        for g in &mut self.groups {
            if g.recovery.is_none() {
                g.recovery = Some(GroupRecovery::new(g.orig_members.len()));
            }
        }
    }

    /// What the recovery orchestration detected and reconfigured so far.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery_stats
    }

    /// The group's current membership as original ranks, ascending (new
    /// rank = index). Before any reconfiguration this is `0..n`.
    pub fn surviving_ranks(&self, group: GroupId) -> Vec<Rank> {
        self.groups[group]
            .orig_rank
            .iter()
            .map(|&o| o as Rank)
            .collect()
    }

    /// The configuration epoch the group's members currently run.
    pub fn group_epoch(&self, group: GroupId) -> u64 {
        self.groups[group]
            .engines
            .first()
            .map(|e| e.epoch())
            .unwrap_or(0)
    }

    /// Recorder attach proper ([`crate::ClusterBuilder::flight_recorder`]).
    /// The transport stamps the recorder with its own clock and every
    /// layer — flow network, verbs, protocol engines (present and
    /// future), membership orchestration — streams structured events
    /// into it. Returns a clone of the handle for direct
    /// export/analysis; calling again replaces the recorder.
    pub(crate) fn attach_recorder(&mut self, mode: trace::Mode) -> trace::Recorder {
        let recorder = trace::Recorder::new(mode);
        self.recorder = recorder.clone();
        self.fabric.set_recorder(recorder.clone());
        for (gid, g) in self.groups.iter_mut().enumerate() {
            for (rank, engine) in g.engines.iter_mut().enumerate() {
                let scope = trace::Scope {
                    node: Some(g.spec.members[rank] as u32),
                    group: Some(gid as u32),
                    rank: Some(rank as u32),
                };
                engine.set_recorder(recorder.clone(), scope);
            }
        }
        recorder
    }

    /// The attached flight recorder (disabled unless
    /// [`crate::ClusterBuilder::flight_recorder`] configured one).
    pub fn recorder(&self) -> &trace::Recorder {
        &self.recorder
    }

    /// One node's CPU usage report.
    pub fn cpu_report(&self, node: usize) -> CpuReport {
        self.fabric.cpu_report(NodeId(node as u32))
    }

    /// Access the underlying transport.
    pub fn transport(&self) -> &T {
        &self.fabric
    }

    /// Consumes the cluster and returns the transport — how a real
    /// backend (e.g. `rdmc-tcp`) gets its sockets back for an
    /// error-surfacing shutdown.
    pub fn into_transport(self) -> T {
        self.fabric
    }

    /// Closes a group — the §4.6 close barrier. Drains every
    /// outstanding event first (like [`Cluster::run`]), then reports
    /// whether delivery is *certified*: no member crashed, every
    /// engine is idle and unwedged, and every submitted message was
    /// delivered at every member. A `true` from every member's
    /// destroy proves every message reached every destination; a
    /// failure or incomplete transfer anywhere reports `false`.
    pub fn destroy_group(&mut self, group: GroupId) -> bool {
        self.run();
        let g = &self.groups[group];
        let all_live = g
            .spec
            .members
            .iter()
            .all(|&m| !self.fabric.is_crashed(NodeId(m as u32)));
        let engines_quiet = g.engines.iter().all(|e| e.is_idle() && !e.is_wedged());
        let delivered = g
            .results
            .iter()
            .all(|m| m.delivered_at.iter().all(|d| d.is_some()));
        all_live && engines_quiet && delivered
    }

    /// Creates a group; all members instantiate their engines and
    /// receivers pre-grant their first ready-for-block credit (the
    /// out-of-band bootstrap of §3 step 1).
    ///
    /// # Panics
    ///
    /// Panics if the member list is empty, repeats a node, or names a node
    /// outside the topology.
    pub fn create_group(&mut self, spec: GroupSpec) -> GroupId {
        let planner = Arc::new(SchedulePlanner::new(spec.algorithm.clone()));
        self.create_group_with_planner(spec, planner)
    }

    /// Like [`SimCluster::create_group`], but with an explicit schedule
    /// planner — how custom schedule families (e.g. the `baselines`
    /// crate's MPI broadcast) run on the fabric. `spec.algorithm` is kept
    /// only as a label.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimCluster::create_group`].
    pub fn create_group_with_planner(
        &mut self,
        spec: GroupSpec,
        planner: Arc<SchedulePlanner>,
    ) -> GroupId {
        assert!(!spec.members.is_empty(), "group needs members");
        let n = spec.members.len() as u32;
        let total_nodes = self.fabric.num_nodes();
        let mut rank_of_node = BTreeMap::new();
        for (rank, &node) in spec.members.iter().enumerate() {
            assert!(node < total_nodes, "member node {node} outside topology");
            let prev = rank_of_node.insert(node, rank as Rank);
            assert!(prev.is_none(), "node {node} appears twice in the group");
        }
        let gid = self.groups.len();
        let mut engines = Vec::with_capacity(spec.members.len());
        let mut initial: Vec<(Rank, Vec<Action>)> = Vec::new();
        for rank in 0..n {
            let (mut engine, actions) = GroupEngine::new(EngineConfig {
                rank,
                num_nodes: n,
                block_size: spec.block_size,
                ready_window: spec.ready_window,
                max_outstanding_sends: spec.max_outstanding_sends,
                planner: Arc::clone(&planner),
            });
            if self.recorder.is_enabled() {
                let scope = trace::Scope {
                    node: Some(spec.members[rank as usize] as u32),
                    group: Some(gid as u32),
                    rank: Some(rank),
                };
                engine.set_recorder(self.recorder.clone(), scope);
                // The constructor's idle-state credit predates the
                // recorder attach; restate it so credit accounting in the
                // trace starts balanced.
                for a in &actions {
                    if let Action::SendReady { to } = *a {
                        self.recorder
                            .record(scope, || trace::EventKind::ReadyGranted { to });
                    }
                }
            }
            engines.push(engine);
            initial.push((rank, actions));
        }
        let orig_members = spec.members.clone();
        self.groups.push(GroupRuntime {
            spec,
            engines,
            qps: BTreeMap::new(),
            results: Vec::new(),
            pending: vec![VecDeque::new(); n as usize],
            senders: Vec::new(),
            peak_backlog: 0,
            orig_members,
            orig_rank: (0..n as usize).collect(),
            overlay: None,
            recovery: self
                .recovery_config
                .is_some()
                .then(|| GroupRecovery::new(n as usize)),
            reliability: self.default_reliability,
        });
        for (rank, mut actions) in initial {
            self.execute(gid, rank, &mut actions);
        }
        gid
    }

    /// Submits a multicast of `size` random-content bytes on `group` now,
    /// returning the handle its completion record is filed under.
    pub fn submit_send(&mut self, group: GroupId, size: u64) -> MessageId {
        let id = MessageId(self.next_message);
        self.next_message += 1;
        let idx = self.do_submit(group, size);
        self.message_slots.insert(id.0, (group, idx));
        id
    }

    /// Records a submission's bookkeeping (delivery slots for every
    /// original member, pending-queue entries for the current ones) and
    /// hands the send to the current root engine. Returns the message's
    /// index within the group.
    fn do_submit(&mut self, group: GroupId, size: u64) -> usize {
        let now = self.fabric.now();
        let idx = {
            let g = &mut self.groups[group];
            let idx = g.results.len();
            g.results.push(MessageResult {
                group,
                index: idx,
                size,
                submitted: now,
                delivered_at: vec![None; g.orig_members.len()],
            });
            g.senders.push(g.orig_rank[0]);
            let members = g.orig_rank.clone();
            for o in members {
                g.pending[o].push_back(idx);
            }
            idx
        };
        self.feed(group, 0, Event::StartSend { size });
        let g = &mut self.groups[group];
        if let Some(root) = g.engines.first() {
            g.peak_backlog = g.peak_backlog.max(root.queue_pressure().backlog());
        }
        idx
    }

    /// Schedules a multicast submission at an absolute virtual time,
    /// returning its handle immediately. The handle resolves to a
    /// completion record ([`SimCluster::result`]) once the timer fires
    /// and the send is actually submitted.
    pub fn schedule_send_at(&mut self, group: GroupId, at: SimTime, size: u64) -> MessageId {
        let message = MessageId(self.next_message);
        self.next_message += 1;
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(
            token,
            TimerAction::Send {
                group,
                size,
                message,
            },
        );
        let root_node = self.groups[group].spec.members[0];
        let delay = at.saturating_since(self.fabric.now());
        self.fabric
            .schedule_timer(NodeId(root_node as u32), delay, token);
        message
    }

    /// The completion record of one message, by handle. `None` for a
    /// scheduled send whose timer has not fired yet.
    pub fn result(&self, id: MessageId) -> Option<&MessageResult> {
        let &(group, idx) = self.message_slots.get(&id.0)?;
        self.groups.get(group)?.results.get(idx)
    }

    /// High-water mark of the group root's send-side backlog (active +
    /// queued + resuming messages), sampled at every submission — the
    /// per-group queue-pressure evidence the traffic engine reports.
    pub fn peak_backlog(&self, group: GroupId) -> usize {
        self.groups[group].peak_backlog
    }

    /// Schedules a node crash at an absolute virtual time.
    pub fn schedule_crash_at(&mut self, node: usize, at: SimTime) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, TimerAction::Crash { node });
        let delay = at.saturating_since(self.fabric.now());
        self.fabric
            .schedule_timer(NodeId(node as u32), delay, token);
    }

    /// Advances the simulation by one software-visible delivery (and
    /// everything it triggers). Returns `false` once no events remain.
    /// [`SimCluster::run`] is `while self.step() {}` plus the end-of-run
    /// asserts; model checkers call `step` directly so they can sample
    /// state digests and stop on invariant violations without tripping
    /// the terminal asserts first.
    pub fn step(&mut self) -> bool {
        match self.fabric.advance() {
            Some((time, node, delivery)) => {
                self.dispatch(time, node, delivery);
                true
            }
            None => false,
        }
    }

    /// Runs the simulation until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
        // Runtime mirror of the analyzer's static posting-order lint: the
        // ready-for-block discipline means no send ever finds its receiver
        // without a posted receive, so the RNR machinery must never arm
        // (§4.2) — not even on failure runs, where connections break via
        // crash detection rather than retry exhaustion.
        debug_assert_eq!(
            self.fabric.stats().rnr_arms,
            0,
            "a send raced ahead of receive posting and armed an RNR timer"
        );
    }

    /// Completion records for every message submitted so far, grouped by
    /// group and ordered by submission within each group. Prefer
    /// [`SimCluster::result`] with the [`MessageId`] a submission
    /// returned over positional indexing into this list.
    pub fn message_results(&self) -> Vec<MessageResult> {
        self.groups
            .iter()
            .flat_map(|g| g.results.iter().cloned())
            .collect()
    }

    /// True if every engine is idle and unwedged — the condition under
    /// which a group close ("destroy") would report success, guaranteeing
    /// every message reached every destination (§4.6).
    pub fn all_quiescent(&self) -> bool {
        self.groups
            .iter()
            .flat_map(|g| g.engines.iter())
            .all(|e| e.is_idle() && !e.is_wedged())
    }

    /// True if every engine hosted on a *live* node is idle and unwedged —
    /// quiescence from the survivors' point of view. With recovery
    /// enabled this is the terminal condition every chaos run must reach:
    /// all interrupted work was either finished in a later epoch or
    /// consistently abandoned.
    pub fn live_quiescent(&self) -> bool {
        self.groups.iter().all(|g| {
            g.engines.iter().enumerate().all(|(r, e)| {
                let node = NodeId(g.spec.members[r] as u32);
                self.fabric.is_crashed(node) || (e.is_idle() && !e.is_wedged())
            })
        })
    }

    /// A canonical digest of all protocol-visible cluster state,
    /// deliberately *time-free*: two executions that moved the same
    /// messages to the same members through the same epochs digest
    /// equally even if virtual timestamps differ. The explorer's
    /// determinism audit compares digests across replays of one choice
    /// sequence (must match bit-for-bit) and across DPOR-equivalent
    /// interleavings (must converge to the same terminal state).
    pub fn state_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, w: u64) {
            *h ^= w;
            *h = h.wrapping_mul(PRIME);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (gid, g) in self.groups.iter().enumerate() {
            mix(&mut h, gid as u64);
            mix(&mut h, g.orig_rank.len() as u64);
            for &o in &g.orig_rank {
                mix(&mut h, o as u64);
            }
            for e in &g.engines {
                for w in e.state_digest() {
                    mix(&mut h, w);
                }
            }
            mix(&mut h, g.results.len() as u64);
            for m in &g.results {
                mix(&mut h, m.size);
                for d in &m.delivered_at {
                    mix(&mut h, u64::from(d.is_some()));
                }
            }
            for q in &g.pending {
                mix(&mut h, q.len() as u64);
                for &idx in q {
                    mix(&mut h, idx as u64);
                }
            }
            for &s in &g.senders {
                mix(&mut h, s as u64);
            }
        }
        // Overlay state (mixed only when atomic groups exist, so plain
        // clusters digest bit-identically to pre-overlay builds).
        for a in &self.atomics {
            mix(&mut h, a.slots.len() as u64);
            for s in &a.slots {
                mix(&mut h, s.owner as u64);
                mix(&mut h, s.seq);
                mix(&mut h, matches!(s.kind, SlotKind::Null) as u64);
                mix(&mut h, s.trimmed as u64);
            }
            for m in &a.members {
                mix(&mut h, m.next_deliver as u64);
                mix(&mut h, m.log.len() as u64);
                for d in &m.log {
                    mix(&mut h, d.slot);
                    mix(&mut h, u64::from(d.sender));
                    mix(&mut h, d.seq);
                }
            }
            for &d in &a.dead {
                mix(&mut h, d as u64);
            }
        }
        for &node in self.crash_times.keys() {
            mix(&mut h, node as u64);
        }
        h
    }

    /// The configuration epoch each *live* member of `group` currently
    /// runs (one entry per surviving engine on an uncrashed node). The
    /// explorer's view-agreement invariant requires these to be equal at
    /// quiescence: survivors that disagree about the epoch diverged
    /// during reconfiguration.
    pub fn live_member_epochs(&self, group: GroupId) -> Vec<u64> {
        let g = &self.groups[group];
        g.engines
            .iter()
            .enumerate()
            .filter(|&(r, _)| !self.fabric.is_crashed(NodeId(g.spec.members[r] as u32)))
            .map(|(_, e)| e.epoch())
            .collect()
    }

    /// Ranks that consider the group wedged (learned of a failure).
    pub fn wedged_members(&self, group: GroupId) -> Vec<Rank> {
        self.groups[group]
            .engines
            .iter()
            .filter(|e| e.is_wedged())
            .map(|e| e.rank())
            .collect()
    }

    fn dispatch(&mut self, _time: SimTime, node: NodeId, delivery: Delivery) {
        // LazyRecvPost mutation: flush this node's deferred receive posts
        // now — "the next delivery" is exactly the too-late point the bug
        // defers them to.
        if !self.lazy_recvs.is_empty() {
            if let Some(deferred) = self.lazy_recvs.remove(&(node.index())) {
                for (qp, size) in deferred {
                    // The QP may have been torn down by a reconfiguration
                    // while the post sat deferred.
                    let _ = self.fabric.post_recv(qp, WrId(0), size);
                }
            }
        }
        match delivery {
            Delivery::RecvDone { qp, imm, .. } => {
                // Completions for torn-down (old-epoch) queue pairs are
                // stale: their owner entries are gone, so ignore them.
                let Some(&(group, me, peer)) = self.qp_owner.get(&qp) else {
                    return;
                };
                if self.groups[group].reliability.is_some() {
                    // Policy groups tag every block with its connection
                    // sequence number; route through the reorder/repair
                    // shim so the engine sees a gap-free FIFO.
                    if let (Some(seq), total) = wire::unpack_imm(imm) {
                        self.rel_data_arrival(qp, seq, total);
                        return;
                    }
                }
                self.feed(
                    group,
                    me,
                    Event::BlockReceived {
                        from: peer,
                        total_size: imm,
                    },
                );
            }
            Delivery::RecvCorrupted { qp, imm, .. } => {
                let Some(&(group, me, _peer)) = self.qp_owner.get(&qp) else {
                    return;
                };
                let Some(policy) = self.groups[group].reliability else {
                    // An unprotected group has no redelivery path: the
                    // payload is garbage, the block is gone, and the
                    // transfer stalls — exactly what a lossless-assuming
                    // deployment does on a corrupting fabric. The trace
                    // oracle flags the unrepaired loss.
                    return;
                };
                // The immediate survives (headers and payload carry
                // separate CRCs), so the receiver knows exactly which
                // block to re-request — no need to wait for the gap to
                // show up in the sequence stream.
                let (Some(seq), _total) = wire::unpack_imm(imm) else {
                    return;
                };
                let fresh = {
                    let st = self.rel_recv.entry(qp).or_default();
                    !st.escalated
                        && seq >= st.next_expected
                        && !st.buffered.contains_key(&seq)
                        && st.missing.insert(seq)
                };
                if !fresh {
                    return;
                }
                if matches!(policy, ReliabilityPolicy::WedgeResume { .. }) {
                    self.rel_escalate(qp);
                } else {
                    self.rel_request(qp, group, me, &[seq]);
                    self.rel_arm_rto(qp, group, me);
                }
            }
            Delivery::SendDone { qp, wr_id } => {
                let freed = self.release_send_slot(qp, wr_id);
                if let Some(&(group, me, peer)) = self.qp_owner.get(&qp) {
                    self.feed(group, me, Event::SendCompleted { to: peer });
                }
                // Pump after feeding: sends the completion just triggered
                // are in the queue by now, so the policy arbitrates them
                // against everything already waiting.
                if let Some(node) = freed {
                    self.pump(node);
                }
            }
            Delivery::WriteDone { .. } => {}
            Delivery::WriteArrived { qp, tag, payload } => {
                let Some(&(group, me, peer)) = self.qp_owner.get(&qp) else {
                    return;
                };
                match tag {
                    TAG_READY => {
                        self.feed(group, me, Event::ReadyReceived { from: peer });
                    }
                    TAG_FAILURE => {
                        let failed =
                            u32::from_le_bytes(payload[..4].try_into().expect("failure payload"));
                        self.feed(group, me, Event::PeerFailed { rank: failed });
                        self.note_suspicion(group, me, failed);
                    }
                    TAG_VIEW => {
                        self.view_update(group, me, peer, &payload);
                    }
                    TAG_NACK => {
                        let (base, span) =
                            reliability::decode_nack(&payload).expect("nack payload");
                        self.rel_retransmit(qp, group, me, base, span);
                    }
                    TAG_RETRANS => {
                        let (seq, total) =
                            reliability::decode_repair(&payload).expect("repair payload");
                        self.rel_stats.repairs_received += 1;
                        self.record_rel(group, me, || trace::EventKind::RepairDelivered {
                            conn: qp.conn_id(),
                            seq,
                            coded: false,
                        });
                        self.rel_data_arrival(qp, seq, total);
                    }
                    TAG_PARITY => {
                        let (generation, slots) =
                            reliability::decode_parity(&payload).expect("parity payload");
                        self.rel_parity_arrival(qp, group, me, generation, slots);
                    }
                    TAG_PROBE => {
                        let frontier = reliability::decode_probe(&payload).expect("probe payload");
                        self.rel_probe_arrival(qp, group, me, frontier);
                    }
                    TAG_FRONTIER => {
                        self.atomic_frontier_arrival(group, me, &payload);
                    }
                    other => panic!("unknown control tag {other}"),
                }
            }
            Delivery::WrFlushed { qp, wr_id, recv } => {
                // Flushed WRs carry no protocol state the engines need;
                // the QpBroken notice that follows triggers wedging. But a
                // flushed *send* never gets a SendDone, so its admission
                // slot must be released here. (A flushed control write with
                // a colliding work-request id may release the slot a beat
                // early; the ledger entry leaves exactly once either way,
                // so the accounting stays balanced through teardown.)
                if !recv {
                    if let Some(node) = self.release_send_slot(qp, wr_id) {
                        self.pump(node);
                    }
                }
            }
            Delivery::QpBroken { qp } => {
                if let Some(&(group, me, peer)) = self.qp_owner.get(&qp) {
                    self.feed(group, me, Event::PeerFailed { rank: peer });
                    self.note_suspicion(group, me, peer);
                }
            }
            Delivery::Timer { token } => match self.timers.remove(&token) {
                Some(TimerAction::Send {
                    group,
                    size,
                    message,
                }) => {
                    let idx = self.do_submit(group, size);
                    self.message_slots.insert(message.0, (group, idx));
                }
                Some(TimerAction::Crash { node }) => {
                    self.crash_now(node);
                }
                Some(TimerAction::Reconfigure {
                    group,
                    version,
                    attempt,
                }) => {
                    self.try_reconfigure(group, version, attempt);
                }
                Some(TimerAction::RelRto { qp }) => {
                    self.rel_rto_fired(qp);
                }
                Some(TimerAction::RelProbe { qp }) => {
                    self.rel_probe_fired(qp);
                }
                Some(TimerAction::AtomicSend { ag, size, message }) => {
                    self.atomic_send_fired(ag, size, message);
                }
                None => {
                    let _ = node; // stale or foreign timer: ignore
                }
            },
        }
    }

    /// Feeds an event to one engine and executes the resulting actions.
    fn feed(&mut self, group: GroupId, rank: Rank, event: Event) {
        // Deterministic chaos trigger: crash nodes scheduled for this
        // protocol step just before the event reaches its engine.
        if let Some(nodes) = self.event_crashes.remove(&self.fed_events) {
            for victim in nodes {
                self.crash_now(victim);
            }
        }
        self.fed_events += 1;
        let node = self.groups[group].spec.members[rank as usize];
        if self.fabric.is_crashed(NodeId(node as u32)) {
            return; // dead software runs no handlers
        }
        let mut actions = self.action_pool.pop().unwrap_or_default();
        self.groups[group].engines[rank as usize]
            .handle_into(event, &mut actions)
            .unwrap_or_else(|e| panic!("group {group} rank {rank}: protocol violation: {e}"));
        self.execute(group, rank, &mut actions);
        actions.clear();
        self.action_pool.push(actions);
    }

    /// Lazily creates the queue pair between two group members.
    fn ensure_qp(&mut self, group: GroupId, a: Rank, b: Rank) -> QpHandle {
        if let Some(&qp) = self.groups[group].qps.get(&(a, b)) {
            return qp;
        }
        let na = NodeId(self.groups[group].spec.members[a as usize] as u32);
        let nb = NodeId(self.groups[group].spec.members[b as usize] as u32);
        let (qa, qb) = self.fabric.connect(na, nb);
        self.groups[group].qps.insert((a, b), qa);
        self.groups[group].qps.insert((b, a), qb);
        self.qp_owner.insert(qa, (group, a, b));
        self.qp_owner.insert(qb, (group, b, a));
        qa
    }

    fn execute(&mut self, group: GroupId, rank: Rank, actions: &mut Vec<Action>) {
        let node = NodeId(self.groups[group].spec.members[rank as usize] as u32);
        // The first-block copy is charged *after* all posts from this
        // handler: the paper's receivers post their receives first "and in
        // parallel, copy the first block" (§4.2), so the copy must not
        // delay readiness grants or relays.
        let mut deferred_copy = SimDuration::ZERO;
        for action in actions.drain(..) {
            match action {
                Action::SendReady { to } => {
                    let qp = self.ensure_qp(group, rank, to);
                    let block_size = self.groups[group].spec.block_size;
                    if self.has_mutation(Mutation::LazyRecvPost) {
                        // Seeded §4.2 inversion: announce readiness first
                        // and batch the receive post to "the next time this
                        // node's software runs". Under most interleavings
                        // the deferred post still wins the race; under some
                        // the peer's block send arrives first and finds no
                        // receive — the RNR bug the explorer must find.
                        let _ = self.fabric.post_write(
                            qp,
                            WrId(0),
                            TAG_READY,
                            Bytes::from_static(b"RDY"),
                            None,
                        );
                        self.lazy_recvs
                            .entry(node.index())
                            .or_default()
                            .push((qp, block_size));
                        continue;
                    }
                    // Readiness implies the receive is pre-posted (§4.2):
                    // post it first so the peer's send always lands.
                    // Ignore failures: the group is wedging if the QP broke.
                    let _ = self.fabric.post_recv(qp, WrId(0), block_size);
                    let _ = self.fabric.post_write(
                        qp,
                        WrId(0),
                        TAG_READY,
                        Bytes::from_static(b"RDY"),
                        None,
                    );
                }
                Action::SendBlock {
                    to,
                    block,
                    bytes,
                    total_size,
                    ..
                } => {
                    self.admit_or_queue_block(group, rank, to, block, bytes, total_size);
                }
                Action::AllocateBuffer { size } => {
                    // malloc on the critical path (§4.6) gates everything;
                    // the copy of the size-announcing first block into the
                    // new buffer (Table 1 "Copy Time") is deferred past the
                    // posts below.
                    let profile = self.fabric.profile(node).clone();
                    let first_block = size.min(self.groups[group].spec.block_size);
                    self.fabric.consume_cpu(node, profile.malloc_latency);
                    deferred_copy += profile.memcpy_time(first_block);
                }
                Action::DeliverMessage { .. } => {
                    let now = self.fabric.now();
                    let g = &mut self.groups[group];
                    let orig = g.orig_rank[rank as usize];
                    let idx = g.pending[orig].pop_front().unwrap_or_else(|| {
                        panic!("group {group} rank {rank}: delivery with no pending message")
                    });
                    g.results[idx].delivered_at[orig] = Some(now);
                    // Atomic overlay: a subgroup delivery resolves one of
                    // its sender's data slots at this member — advance
                    // the member's received frontier and re-run its
                    // delivery engine.
                    if self.groups[group].overlay.is_some() {
                        self.atomic_on_rdmc_delivery(group, rank);
                    }
                }
                Action::RelayFailure { failed } => {
                    let n = self.groups[group].spec.members.len() as Rank;
                    for peer in 0..n {
                        if peer == rank {
                            continue;
                        }
                        let peer_node =
                            NodeId(self.groups[group].spec.members[peer as usize] as u32);
                        if self.fabric.is_crashed(peer_node) {
                            continue;
                        }
                        let qp = self.ensure_qp(group, rank, peer);
                        let _ = self.fabric.post_write(
                            qp,
                            WrId(1),
                            TAG_FAILURE,
                            Bytes::copy_from_slice(&failed.to_le_bytes()),
                            None,
                        );
                    }
                }
            }
        }
        if deferred_copy > SimDuration::ZERO {
            self.fabric.consume_cpu(node, deferred_copy);
        }
    }

    /// Routes an engine block send through the admission layer: unpaced
    /// clusters post straight to the fabric; paced ones enqueue and let
    /// the policy decide what the NIC's free slots carry.
    fn admit_or_queue_block(
        &mut self,
        group: GroupId,
        rank: Rank,
        to: Rank,
        block: u32,
        bytes: u64,
        total_size: u64,
    ) {
        let node = self.groups[group].spec.members[rank as usize];
        let Some(p) = self.pacer.as_mut() else {
            self.post_block(group, rank, to, block, bytes, total_size);
            return;
        };
        let max = p.config.max_inflight;
        let np = p.nodes.entry(node).or_default();
        // Invariant: after every pump, a non-empty queue means the NIC is
        // saturated — so a send arriving with a free slot is admitted by
        // the pump below without ever waiting.
        if np.inflight >= max {
            p.stats.deferred_sends += 1;
        }
        let enqueued_ns = self.recorder.now();
        np.queue.push_back(QueuedSend {
            group,
            rank,
            to,
            block,
            bytes,
            total_size,
            enqueued_ns,
        });
        let depth = np.queue.len();
        p.stats.peak_queue_depth = p.stats.peak_queue_depth.max(depth);
        self.pump(node);
    }

    /// Admits queued sends on `node` while it has free admission slots,
    /// in policy order. With a controlled scheduler attached, genuine
    /// admission ties (more than one equally-preferred send) become
    /// explicit choice points the scheduler resolves.
    fn pump(&mut self, node: usize) {
        loop {
            // Borrow scope: compute the policy's tied candidates, then
            // release the pacer borrow before consulting the scheduler.
            let (first, candidates) = {
                let Some(p) = self.pacer.as_mut() else {
                    return;
                };
                let config = p.config;
                let Some(np) = p.nodes.get_mut(&node) else {
                    return;
                };
                if np.inflight >= config.max_inflight {
                    return;
                }
                let tied = PacerState::pick_tied(&config, np);
                let Some(&first) = tied.first() else {
                    return;
                };
                let candidates: Vec<verbs::Candidate> = if tied.len() > 1 {
                    tied.iter()
                        .map(|&slot| verbs::Candidate {
                            seq: slot as u64,
                            node: node as u32,
                            conn: None,
                            kind: verbs::CandidateKind::PacerSend {
                                group: np.queue[slot].group as u64,
                                slot: slot as u64,
                            },
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                (first, candidates)
            };
            let i = match (&self.scheduler, candidates.len()) {
                (Some(sched), 2..) => {
                    let point = verbs::ChoicePoint {
                        time_ns: self.fabric.now().as_nanos(),
                        kind: verbs::PointKind::PacerTie,
                        candidates: &candidates,
                    };
                    let chosen = verbs::sched::pick(sched, &point);
                    match candidates[chosen].kind {
                        verbs::CandidateKind::PacerSend { slot, .. } => slot as usize,
                        _ => first,
                    }
                }
                _ => first,
            };
            let p = self.pacer.as_mut().expect("pacing on");
            let np = p.nodes.get_mut(&node).expect("node has a pacer entry");
            let qs = np.queue.remove(i).expect("picked index in range");
            np.rr_last = Some(qs.group);
            // A rejected post (the connection broke while the send sat in
            // the queue) takes no slot, so the loop just tries the next
            // candidate.
            if self.post_block(qs.group, qs.rank, qs.to, qs.block, qs.bytes, qs.total_size) {
                self.recorder
                    .record(trace::Scope::group_rank(qs.group as u32, qs.rank), || {
                        trace::EventKind::SendAdmitted {
                            to: qs.to,
                            block: qs.block,
                            queued_ns: self.recorder.now().saturating_sub(qs.enqueued_ns),
                        }
                    });
            }
        }
    }

    /// Posts one block send to the fabric, recording it in the pacer's
    /// ledger (so its completion releases the admission slot) when pacing
    /// is on. Returns whether the fabric accepted the post.
    fn post_block(
        &mut self,
        group: GroupId,
        rank: Rank,
        to: Rank,
        block: u32,
        bytes: u64,
        total_size: u64,
    ) -> bool {
        let qp = self.ensure_qp(group, rank, to);
        // Policy groups tag each block with its connection sequence
        // number (packed alongside the message size) and ledger it for
        // retransmission; plain groups keep the raw size immediate, so
        // lossless runs stay bit-for-bit unchanged.
        let policy = self.groups[group].reliability;
        let now_ns = self.fabric.now().as_nanos();
        let imm = match policy {
            Some(p) => {
                let st = self.rel_send.entry(qp).or_default();
                let seq = st.next_seq;
                st.next_seq += 1;
                st.ledger.insert(seq, (bytes, total_size));
                st.last_post_ns = now_ns;
                if matches!(p, ReliabilityPolicy::ErasureCode { .. }) {
                    st.gen_slots.push((seq, bytes, total_size));
                }
                wire::pack_imm(seq, total_size)
            }
            None => total_size,
        };
        let posted = self
            .fabric
            .post_send(qp, WrId(u64::from(block)), bytes, imm, None)
            .is_ok();
        // Debug-build mirror of the static invariant: a block send is
        // emitted only against a ready credit, and each credit was granted
        // after the matching receive was posted — so the receiver's queue
        // cannot be empty here unless the connection already broke.
        #[cfg(debug_assertions)]
        {
            let peer_qp = self.groups[group].qps[&(to, rank)];
            let snap = self.fabric.posting_snapshot(peer_qp);
            debug_assert!(
                snap.broken || snap.posted_recvs >= 1,
                "group {group}: rank {rank} posted block {block} to {to} \
                 with no receive posted at the target"
            );
        }
        if posted {
            let node = self.groups[group].spec.members[rank as usize];
            if let Some(p) = self.pacer.as_mut() {
                p.admitted.insert((qp, WrId(u64::from(block))), node);
                p.nodes.entry(node).or_default().inflight += 1;
            }
            if policy.is_some() {
                // Closes the erasure generation if this block filled it,
                // and (re)arms the quiet-period frontier probe.
                self.rel_flush_parity(group, rank, qp, false);
                self.rel_arm_probe(qp, group, rank);
            }
        }
        posted
    }

    /// Releases the admission slot a retiring work request held, if it
    /// was a pacer-admitted block send. Returns the posting node so the
    /// caller can pump its queue.
    fn release_send_slot(&mut self, qp: QpHandle, wr_id: WrId) -> Option<usize> {
        let p = self.pacer.as_mut()?;
        let node = p.admitted.remove(&(qp, wr_id))?;
        if let Some(np) = p.nodes.get_mut(&node) {
            np.inflight = np.inflight.saturating_sub(1);
        }
        Some(node)
    }
}

/// Simulation-only surface: knobs and accessors that exist on the
/// simulated verbs [`Fabric`] but have no meaning on a real transport.
impl Cluster<Fabric> {
    /// Attaches a fault model to the fabric: allocator-visible transfers
    /// (block sends, retransmissions, parity — anything above the tiny
    /// control-write bypass) become subject to seeded loss and
    /// corruption per [`simnet::FaultProfile`]. A clean profile leaves
    /// the fabric lossless and runs bit-for-bit identical to one that
    /// never called this.
    pub fn set_fault_profile(&mut self, profile: simnet::FaultProfile) {
        self.fabric.set_fault_profile(profile);
    }

    /// Offers up to `budget` deliver-or-drop choice points to the
    /// attached controlled scheduler (model-checking loss sites instead
    /// of sampling them; requires a scheduler).
    pub fn set_loss_choice_budget(&mut self, budget: u64) {
        self.fabric.set_loss_choice_budget(budget);
    }

    /// Access the underlying fabric (topology, link accounting, CPU).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

/// Failure injection and the epoch-based recovery orchestration (the
/// module docs' "membership service"). Everything here runs *outside*
/// the protocol engines: engines only ever see `PeerFailed` events and
/// `install_epoch` calls, exactly like a real RDMC deployment under an
/// external membership layer (§2.4).
impl<T: Transport> Cluster<T> {
    /// Crashes a node immediately: its queues drop, in-flight work is
    /// flushed, and peers detect the broken connections.
    pub fn crash_now(&mut self, node: usize) {
        let now = self.fabric.now();
        self.crash_times.entry(node).or_insert(now);
        self.fabric.crash(NodeId(node as u32));
        // Dead software posts nothing: whatever the node's admission queue
        // still held dies with it (its posted sends flush separately).
        if let Some(p) = self.pacer.as_mut() {
            if let Some(np) = p.nodes.get_mut(&node) {
                np.queue.clear();
            }
        }
    }

    /// Crashes `node` just before the `n`-th engine event (0-based,
    /// cluster-wide) is fed — the chaos harness's deterministic "crash at
    /// protocol step `n`" trigger. `n = 0` crashes before any protocol
    /// activity at all.
    pub fn crash_after_events(&mut self, node: usize, n: u64) {
        self.event_crashes.entry(n).or_default().push(node);
    }

    /// Engine events fed so far (the protocol-step counter
    /// [`SimCluster::crash_after_events`] indexes into).
    pub fn events_fed(&self) -> u64 {
        self.fed_events
    }

    /// When `node` went down, if it crashed.
    pub fn crash_time(&self, node: usize) -> Option<SimTime> {
        self.crash_times.get(&node).copied()
    }

    /// Severs the queue pair between two current members of `group`
    /// without crashing either node (a link flap). Both endpoints will
    /// suspect each other; because there is no rejoin path, the agreed
    /// view evicts every suspected member even though its node is alive.
    pub fn inject_link_flap(&mut self, group: GroupId, a: Rank, b: Rank) {
        let qp = self.ensure_qp(group, a, b);
        self.fabric.break_qp(qp);
    }

    /// Registers `me`'s suspicion that current-rank `failed` is gone,
    /// spreads it epidemically, and arms a reconfiguration timer.
    fn note_suspicion(&mut self, group: GroupId, me: Rank, failed: Rank) {
        let Some(config) = self.recovery_config.clone() else {
            return;
        };
        let now = self.fabric.now();
        let me_node = self.groups[group].spec.members[me as usize];
        if self.fabric.is_crashed(NodeId(me_node as u32)) {
            return;
        }
        let orig_me = self.groups[group].orig_rank[me as usize];
        let orig_failed = self.groups[group].orig_rank[failed as usize];
        if orig_me == orig_failed {
            return;
        }
        let (payload, newly, version) = {
            let g = &mut self.groups[group];
            let Some(rec) = g.recovery.as_mut() else {
                return;
            };
            let Some(payload) = rec.trackers[orig_me].suspect(orig_failed as u32) else {
                return; // already suspected locally: nothing new to spread
            };
            rec.cycle_started.get_or_insert(now);
            let newly = rec.detected.insert(orig_failed as Rank);
            (payload, newly, rec.version)
        };
        self.recorder.record(
            trace::Scope {
                node: Some(me_node as u32),
                group: Some(group as u32),
                rank: Some(me),
            },
            || trace::EventKind::Suspected {
                failed: orig_failed as u32,
            },
        );
        if newly {
            let node = self.groups[group].orig_members[orig_failed];
            self.recovery_stats.detections.push(DetectionRecord {
                group,
                failed: orig_failed as Rank,
                node,
                suspected_at: now,
            });
        }
        self.broadcast_view(group, me, &payload);
        self.arm_reconfigure(group, me, version, 0, config.grace);
    }

    /// Handles an incoming `TAG_VIEW` write: merge it monotonically, wedge
    /// the local engine on any newly learned failure, echo growth, and arm
    /// a reconfiguration timer.
    fn view_update(&mut self, group: GroupId, me: Rank, peer: Rank, payload: &[u8]) {
        let Some(config) = self.recovery_config.clone() else {
            return;
        };
        let now = self.fabric.now();
        let me_node = self.groups[group].spec.members[me as usize];
        if self.fabric.is_crashed(NodeId(me_node as u32)) {
            return;
        }
        let orig_me = self.groups[group].orig_rank[me as usize];
        let orig_peer = self.groups[group].orig_rank[peer as usize];
        let (echo, newly_suspected, version) = {
            let g = &mut self.groups[group];
            let Some(rec) = g.recovery.as_mut() else {
                return;
            };
            let before = rec.trackers[orig_me].suspected();
            let echo = rec.trackers[orig_me].apply_remote(orig_peer as u32, payload);
            let after = rec.trackers[orig_me].suspected();
            let newly: Vec<u32> = after.difference(&before).copied().collect();
            if !newly.is_empty() {
                rec.cycle_started.get_or_insert(now);
            }
            (echo, newly, rec.version)
        };
        if !newly_suspected.is_empty() {
            let newly = newly_suspected.len() as u32;
            self.recorder.record(
                trace::Scope {
                    node: Some(me_node as u32),
                    group: Some(group as u32),
                    rank: Some(me),
                },
                || trace::EventKind::ViewMerged {
                    from: orig_peer as u32,
                    newly,
                },
            );
        }
        for &o in &newly_suspected {
            let o = o as usize;
            let newly_detected = {
                let g = &mut self.groups[group];
                g.recovery
                    .as_mut()
                    .expect("recovery on")
                    .detected
                    .insert(o as Rank)
            };
            if newly_detected {
                let node = self.groups[group].orig_members[o];
                self.recovery_stats.detections.push(DetectionRecord {
                    group,
                    failed: o as Rank,
                    node,
                    suspected_at: now,
                });
            }
            // Wedge my engine on the newly learned failure.
            if o != orig_me {
                if let Some(cur) = self.groups[group].current_of(o) {
                    self.feed(group, me, Event::PeerFailed { rank: cur });
                }
            }
        }
        if let Some(echo) = echo {
            self.broadcast_view(group, me, &echo);
        }
        if !newly_suspected.is_empty() {
            self.arm_reconfigure(group, me, version, 0, config.grace);
        }
    }

    /// Posts a view-table row update from `me` to every live current peer.
    fn broadcast_view(&mut self, group: GroupId, me: Rank, payload: &[u8]) {
        let n = self.groups[group].spec.members.len() as Rank;
        for peer in 0..n {
            if peer == me {
                continue;
            }
            let peer_node = NodeId(self.groups[group].spec.members[peer as usize] as u32);
            if self.fabric.is_crashed(peer_node) {
                continue;
            }
            let qp = self.ensure_qp(group, me, peer);
            let _ = self.fabric.post_write(
                qp,
                WrId(2),
                TAG_VIEW,
                Bytes::copy_from_slice(payload),
                None,
            );
        }
    }

    /// Schedules a reconfiguration attempt on `me`'s node after `delay`.
    fn arm_reconfigure(
        &mut self,
        group: GroupId,
        me: Rank,
        version: u64,
        attempt: u32,
        delay: SimDuration,
    ) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(
            token,
            TimerAction::Reconfigure {
                group,
                version,
                attempt,
            },
        );
        let node = self.groups[group].spec.members[me as usize];
        self.fabric
            .schedule_timer(NodeId(node as u32), delay, token);
    }

    /// One reconfiguration attempt: install the agreed view if the
    /// epidemic has converged, otherwise retry with bounded exponential
    /// backoff and force the view after `force_after` fruitless tries.
    fn try_reconfigure(&mut self, group: GroupId, version: u64, attempt: u32) {
        let Some(config) = self.recovery_config.clone() else {
            return;
        };
        if self.groups[group].recovery.as_ref().map(|r| r.version) != Some(version) {
            return; // a newer epoch was installed since this timer was armed
        }
        let live: Vec<Rank> = (0..self.groups[group].spec.members.len() as Rank)
            .filter(|&r| {
                let node = NodeId(self.groups[group].spec.members[r as usize] as u32);
                !self.fabric.is_crashed(node)
            })
            .collect();
        let Some(&coordinator) = live.first() else {
            // Group extinct: close the cycle so stale timers die.
            let g = &mut self.groups[group];
            if let Some(rec) = g.recovery.as_mut() {
                rec.version += 1;
                rec.cycle_started = None;
            }
            return;
        };
        // First live member with an agreement candidate (mutually
        // suspecting flap victims never produce one themselves).
        let candidate: Option<View> = {
            let g = &self.groups[group];
            let rec = g.recovery.as_ref().expect("recovery on");
            live.iter()
                .find_map(|&r| rec.trackers[g.orig_rank[r as usize]].agreed_view())
        };
        let agreed = candidate.filter(|view| {
            let g = &self.groups[group];
            let rec = g.recovery.as_ref().expect("recovery on");
            live.iter().all(|&r| {
                let o = g.orig_rank[r as usize];
                view.failed.contains(&(o as u32))
                    || rec.trackers[o].agreed_view().as_ref() == Some(view)
            })
        });
        if let Some(view) = agreed {
            // A would-be survivor whose node is already down means the
            // epidemic is behind the fabric: inject the suspicion at every
            // live member and come back, so the installed view never
            // contains a corpse.
            let undetected: Vec<u32> = view
                .members
                .iter()
                .copied()
                .filter(|&o| {
                    let node = NodeId(self.groups[group].orig_members[o as usize] as u32);
                    self.fabric.is_crashed(node)
                })
                .collect();
            if undetected.is_empty() {
                self.perform_reconfiguration(group, view, false);
                return;
            }
            for o in undetected {
                self.suspect_everywhere(group, o);
            }
            self.arm_reconfigure(group, coordinator, version, attempt + 1, config.grace);
            return;
        }
        if attempt + 1 >= config.force_after {
            self.force_reconfiguration(group, &live);
            return;
        }
        let backoff = SimDuration::from_nanos(
            config
                .grace
                .as_nanos()
                .saturating_mul(1u64 << attempt.min(20)),
        )
        .min(config.max_backoff);
        self.arm_reconfigure(group, coordinator, version, attempt + 1, backoff);
    }

    /// Makes every live member suspect original rank `o` directly — the
    /// simulation's stand-in for a heavyweight external failure detector.
    fn suspect_everywhere(&mut self, group: GroupId, o: u32) {
        let now = self.fabric.now();
        let n = self.groups[group].spec.members.len() as Rank;
        for r in 0..n {
            let node = NodeId(self.groups[group].spec.members[r as usize] as u32);
            if self.fabric.is_crashed(node) {
                continue;
            }
            let orig_r = self.groups[group].orig_rank[r as usize];
            if orig_r as u32 == o {
                continue;
            }
            let (payload, newly) = {
                let g = &mut self.groups[group];
                let Some(rec) = g.recovery.as_mut() else {
                    return;
                };
                rec.cycle_started.get_or_insert(now);
                let payload = rec.trackers[orig_r].suspect(o);
                let newly = rec.detected.insert(o as Rank);
                (payload, newly)
            };
            if payload.is_some() {
                self.recorder.record(
                    trace::Scope {
                        node: Some(node.0),
                        group: Some(group as u32),
                        rank: Some(r),
                    },
                    || trace::EventKind::Suspected { failed: o },
                );
            }
            if newly {
                let fnode = self.groups[group].orig_members[o as usize];
                self.recovery_stats.detections.push(DetectionRecord {
                    group,
                    failed: o as Rank,
                    node: fnode,
                    suspected_at: now,
                });
            }
            if let Some(cur) = self.groups[group].current_of(o as usize) {
                if cur != r {
                    self.feed(group, r, Event::PeerFailed { rank: cur });
                }
            }
            if let Some(p) = payload {
                self.broadcast_view(group, r, &p);
            }
        }
    }

    /// Last resort after `force_after` attempts: union every suspicion and
    /// every fabric-level crash into one view and install it.
    fn force_reconfiguration(&mut self, group: GroupId, live: &[Rank]) {
        let n_orig = self.groups[group].orig_members.len();
        let mut mask: BTreeSet<u32> = BTreeSet::new();
        {
            let g = &self.groups[group];
            let rec = g.recovery.as_ref().expect("recovery on");
            for &r in live {
                mask.extend(rec.trackers[g.orig_rank[r as usize]].suspected());
            }
            for o in 0..n_orig {
                let crashed = self.fabric.is_crashed(NodeId(g.orig_members[o] as u32));
                if crashed || g.current_of(o).is_none() {
                    mask.insert(o as u32);
                }
            }
        }
        let members: Vec<u32> = (0..n_orig as u32).filter(|o| !mask.contains(o)).collect();
        if members.is_empty() {
            let g = &mut self.groups[group];
            if let Some(rec) = g.recovery.as_mut() {
                rec.version += 1;
                rec.cycle_started = None;
            }
            return;
        }
        for &o in &mask {
            self.suspect_everywhere(group, o);
        }
        let epoch = {
            let g = &self.groups[group];
            let rec = g.recovery.as_ref().expect("recovery on");
            members
                .iter()
                .map(|&o| rec.trackers[o as usize].installed_epoch())
                .max()
                .expect("non-empty members")
                + 1
        };
        let view = View {
            epoch,
            failed: mask,
            members,
        };
        self.perform_reconfiguration(group, view, true);
    }

    /// Installs an agreed (or forced) view: evicts the failed members,
    /// plans a resume for every interrupted message from the survivors'
    /// wedge-time bitmaps, tears down the old epoch's queue pairs,
    /// renumbers the survivors, and installs the new epoch on every
    /// engine and tracker.
    fn perform_reconfiguration(&mut self, group: GroupId, view: View, forced: bool) {
        let now = self.fabric.now();
        // Members this view change actually removes (still present in the
        // current epoch's membership), in original ranks.
        let removed: Vec<Rank> = {
            let g = &self.groups[group];
            view.failed
                .iter()
                .filter(|&&o| g.current_of(o as usize).is_some())
                .map(|&o| o as Rank)
                .collect()
        };
        if removed.is_empty() {
            let g = &mut self.groups[group];
            if let Some(rec) = g.recovery.as_mut() {
                rec.version += 1;
                rec.cycle_started = None;
            }
            return;
        }
        // Evict: a suspected member with a live node (e.g. a link-flap
        // victim) leaves the fabric too — there is no rejoin path, and a
        // half-connected member must not keep acting.
        let evict: Vec<usize> = {
            let g = &self.groups[group];
            view.failed
                .iter()
                .map(|&o| g.orig_members[o as usize])
                .filter(|&node| !self.fabric.is_crashed(NodeId(node as u32)))
                .collect()
        };
        for node in evict {
            self.crash_now(node);
        }
        // Wedge every surviving engine that has not yet learned of the
        // failure (install_epoch requires a wedged engine).
        let delta_cur: Vec<Rank> = {
            let g = &self.groups[group];
            removed
                .iter()
                .filter_map(|&o| g.current_of(o as usize))
                .collect()
        };
        let n_cur = self.groups[group].spec.members.len() as Rank;
        for r in 0..n_cur {
            let node = NodeId(self.groups[group].spec.members[r as usize] as u32);
            if self.fabric.is_crashed(node) {
                continue;
            }
            if !self.groups[group].engines[r as usize].is_wedged() {
                let failed = delta_cur.first().copied().expect("non-empty removal");
                self.feed(group, r, Event::PeerFailed { rank: failed });
            }
        }
        let survivors_orig: Vec<usize> = view.members.iter().map(|&o| o as usize).collect();
        let ns = survivors_orig.len();
        let block_size = self.groups[group].spec.block_size;
        // Snapshot every survivor's wedge-time transfer state, keyed by
        // message index. An engine's undelivered transfers line up with
        // the front of that member's pending queue (both are in message
        // order, and the engine only knows about messages it has begun).
        let mut status_of: BTreeMap<(usize, usize), TransferStatus> = BTreeMap::new();
        let mut queued_at_root: BTreeSet<usize> = BTreeSet::new();
        {
            let g = &self.groups[group];
            for &o in &survivors_orig {
                let cur = g.current_of(o).expect("survivor is a current member") as usize;
                let mut pend = g.pending[o].iter();
                for s in g.engines[cur].incomplete_transfers() {
                    if s.delivered {
                        continue; // delivered pre-wedge: holdings are full
                    }
                    let idx = *pend
                        .next()
                        .expect("undelivered engine transfer has a pending slot");
                    status_of.insert((o, idx), s);
                }
                // The surviving root's queued-but-unstarted sends restart
                // naturally in the new epoch (install_epoch keeps them);
                // they need no resume plan.
                if cur == 0 {
                    let qn = g.engines[0].queued_sizes().count();
                    for &idx in g.pending[o].iter().rev().take(qn) {
                        queued_at_root.insert(idx);
                    }
                }
            }
        }
        let incomplete: BTreeSet<usize> = {
            let g = &self.groups[group];
            survivors_orig
                .iter()
                .flat_map(|&o| g.pending[o].iter().copied())
                .filter(|idx| !queued_at_root.contains(idx))
                .collect()
        };
        // Plan every interrupted message: resume block-wise, re-multicast
        // from a lone full holder, or consistently abandon.
        let mut resumes_by_rank: Vec<Vec<ResumeTransfer>> = vec![Vec::new(); ns];
        let mut abandoned: Vec<usize> = Vec::new();
        let (mut n_resumed, mut n_remulti, mut n_complete, mut n_blocks) = (0usize, 0, 0, 0);
        for &idx in &incomplete {
            let size = self.groups[group].results[idx].size;
            let k = (size.div_ceil(block_size)).max(1) as usize;
            let (holdings, delivered_flags): (Vec<Vec<bool>>, Vec<bool>) = {
                let g = &self.groups[group];
                survivors_orig
                    .iter()
                    .map(|&o| {
                        let done = g.results[idx].delivered_at[o].is_some();
                        let have = if done || g.senders.get(idx) == Some(&o) {
                            vec![true; k]
                        } else if let Some(s) = status_of.get(&(o, idx)) {
                            debug_assert_eq!(s.have.len(), k, "bitmap shape");
                            s.have.clone()
                        } else {
                            vec![false; k]
                        };
                        (have, done)
                    })
                    .unzip()
            };
            match plan_message_resume(&holdings) {
                MessagePlan::Unrecoverable => abandoned.push(idx),
                MessagePlan::Resume { schedule, strategy } => {
                    match strategy {
                        ResumeStrategy::AlreadyComplete => n_complete += 1,
                        ResumeStrategy::Remulticast => n_remulti += 1,
                        ResumeStrategy::BlockResume => n_resumed += 1,
                    }
                    n_blocks += schedule.num_transfers();
                    let rts = resume_transfers(&schedule, size, &holdings, &delivered_flags);
                    for (r, rt) in rts.into_iter().enumerate() {
                        resumes_by_rank[r].push(rt);
                    }
                }
            }
        }
        // A lost message is dropped group-wide: no survivor may sit
        // waiting for a delivery that can never happen.
        if !abandoned.is_empty() {
            let aset: BTreeSet<usize> = abandoned.iter().copied().collect();
            let g = &mut self.groups[group];
            for q in &mut g.pending {
                q.retain(|i| !aset.contains(i));
            }
        }
        // Tear down every old-epoch queue pair in rank order; completions
        // still in flight for them become ownerless and are ignored. The
        // map is ordered, so plain iteration is already run-to-run stable
        // (hash-order teardown was the PR 5 determinism regression).
        let mut old_qps: Vec<QpHandle> = self.groups[group].qps.values().copied().collect();
        if self.has_mutation(Mutation::UnsortedQpTeardown) && self.replay_nonce % 2 == 1 {
            // Seeded determinism regression: the order depends on how many
            // mutated clusters this thread built before, so two
            // back-to-back runs of the identical choice sequence tear
            // down differently — exactly what the replay-determinism
            // audit exists to catch.
            old_qps.reverse();
        }
        for qp in old_qps {
            self.qp_owner.remove(&qp);
            self.fabric.break_qp(qp);
            // Reliability state dies with the queue pair: buffered
            // not-yet-fed blocks are re-fetched by the resume plans
            // (slightly wasteful, never wrong), and outstanding
            // RelRto/RelProbe timers go stale via the owner lookup.
            self.rel_send.remove(&qp);
            self.rel_recv.remove(&qp);
        }
        self.groups[group].qps.clear();
        // Queued (never-posted) sends of this group carry old-epoch ranks;
        // drop them — the resume plans below re-issue whatever still
        // matters, in new-epoch terms.
        if let Some(p) = self.pacer.as_mut() {
            for np in p.nodes.values_mut() {
                np.queue.retain(|q| q.group != group);
            }
        }
        // Renumber: survivors in ascending original rank become the new
        // ranks 0..ns, on a fresh set of connections.
        let first_suspected;
        {
            let g = &mut self.groups[group];
            let old_cur: Vec<usize> = survivors_orig
                .iter()
                .map(|&o| g.current_of(o).expect("survivor is current") as usize)
                .collect();
            let mut old_engines: Vec<Option<GroupEngine>> = g.engines.drain(..).map(Some).collect();
            g.engines = old_cur
                .iter()
                .map(|&c| old_engines[c].take().expect("distinct current ranks"))
                .collect();
            g.spec.members = survivors_orig.iter().map(|&o| g.orig_members[o]).collect();
            g.orig_rank = survivors_orig.clone();
            let rec = g.recovery.as_mut().expect("recovery on");
            first_suspected = rec.cycle_started.take().unwrap_or(now);
            rec.version += 1;
        }
        self.recorder.record(trace::Scope::group(group as u32), || {
            trace::EventKind::ReconfigInstalled {
                epoch: view.epoch,
                survivors: survivors_orig.iter().map(|&o| o as u32).collect(),
                removed: removed.clone(),
                abandoned: abandoned.iter().map(|&i| i as u64).collect(),
                resumed_blocks: n_blocks as u64,
                forced,
            }
        });
        // Install the epoch everywhere, then let the engines act: the
        // membership maps are already in new-epoch shape, so the actions'
        // lazily created queue pairs bind the right nodes.
        let mut installs: Vec<(Rank, Vec<Action>)> = Vec::new();
        let mut payloads: Vec<(Rank, Vec<u8>)> = Vec::new();
        for (new_rank, &o) in survivors_orig.iter().enumerate() {
            let resumes = std::mem::take(&mut resumes_by_rank[new_rank]);
            let g = &mut self.groups[group];
            let actions = g.engines[new_rank].install_epoch(EpochInstall {
                epoch: view.epoch,
                rank: new_rank as Rank,
                num_nodes: ns as u32,
                resumes,
            });
            let payload = g.recovery.as_mut().expect("recovery on").trackers[o].install(view.epoch);
            installs.push((new_rank as Rank, actions));
            payloads.push((new_rank as Rank, payload));
        }
        for (r, payload) in payloads {
            self.broadcast_view(group, r, &payload);
        }
        for (r, mut actions) in installs {
            self.execute(group, r, &mut actions);
        }
        self.recovery_stats.reconfigurations.push(ReconfigRecord {
            group,
            epoch: view.epoch,
            removed,
            survivors: survivors_orig.iter().map(|&o| o as Rank).collect(),
            first_suspected_at: first_suspected,
            installed_at: now,
            resumed: n_resumed,
            remulticast: n_remulti,
            already_complete: n_complete,
            resumed_blocks: n_blocks,
            abandoned: abandoned.clone(),
            forced,
        });
        // Atomic overlay: apply the ragged trim — mark the subgroup's
        // abandoned data slots and the failed senders' unannounced nulls
        // trimmed, resync survivor frontier replicas, and re-run every
        // survivor's delivery engine.
        if self.groups[group].overlay.is_some() {
            self.atomic_on_reconfig(group, &abandoned);
        }
    }
}

/// The lossy-fabric reliability layer (see [`ReliabilityPolicy`] and
/// the `reliability` module docs). Everything here runs *between* the
/// fabric and the protocol engines: engines still see a gap-free FIFO
/// of `BlockReceived` events per peer, exactly as on a lossless fabric
/// — the shim reorders, repairs, reconstructs, or escalates underneath.
impl<T: Transport> Cluster<T> {
    /// Records a reliability-layer event under `rank`'s full scope.
    fn record_rel<F: FnOnce() -> trace::EventKind>(&self, group: GroupId, rank: Rank, f: F) {
        let node = self.groups[group].spec.members[rank as usize] as u32;
        self.recorder.record(
            trace::Scope {
                node: Some(node),
                group: Some(group as u32),
                rank: Some(rank),
            },
            f,
        );
    }

    /// A sequence-tagged data block reached the receiver (original
    /// send, retransmission, or parity reconstruction — all converge
    /// here). Feeds the engine every block that became contiguous, and
    /// starts repair for any gap this arrival revealed.
    fn rel_data_arrival(&mut self, qp: QpHandle, seq: u64, total: u64) {
        let Some(&(group, me, peer)) = self.qp_owner.get(&qp) else {
            return; // stale completion for a torn-down queue pair
        };
        let policy = self.groups[group].reliability;
        let (feeds, newly_missing) = {
            let st = self.rel_recv.entry(qp).or_default();
            if st.escalated {
                return; // the epoch recovery path owns this hole now
            }
            if seq < st.next_expected || st.buffered.contains_key(&seq) {
                // A late repair racing a re-NACK, or double reconstruction.
                self.rel_stats.duplicates += 1;
                return;
            }
            st.missing.remove(&seq);
            let mut feeds: Vec<u64> = Vec::new();
            let mut newly: Vec<u64> = Vec::new();
            if seq == st.next_expected {
                // The hole frontier advanced: feed this block and drain
                // the contiguous run of buffered successors behind it.
                feeds.push(total);
                st.next_expected += 1;
                while let Some(t) = st.buffered.remove(&st.next_expected) {
                    feeds.push(t);
                    st.next_expected += 1;
                }
                if st.missing.is_empty() {
                    st.rto_attempt = 0; // gap closed: fresh budget next time
                }
            } else {
                // Arrived past the frontier: every sequence in between
                // that is neither buffered nor already being chased is a
                // newly detected loss.
                st.buffered.insert(seq, total);
                for s in st.next_expected..seq {
                    if !st.buffered.contains_key(&s) && !st.missing.contains(&s) {
                        newly.push(s);
                    }
                }
                for &s in &newly {
                    st.missing.insert(s);
                }
            }
            (feeds, newly)
        };
        for t in feeds {
            self.feed(
                group,
                me,
                Event::BlockReceived {
                    from: peer,
                    total_size: t,
                },
            );
        }
        if newly_missing.is_empty() {
            return;
        }
        match policy {
            Some(ReliabilityPolicy::WedgeResume { .. }) => self.rel_escalate(qp),
            Some(_) => {
                self.rel_request(qp, group, me, &newly_missing);
                self.rel_arm_rto(qp, group, me);
            }
            None => {}
        }
    }

    /// Sends one NACK per contiguous missing range (tiny control writes
    /// on the reliable bypass).
    fn rel_request(&mut self, qp: QpHandle, group: GroupId, me: Rank, seqs: &[u64]) {
        let mut ranges = reliability::contiguous_ranges(seqs);
        if self.has_mutation(Mutation::NackOffByOne) {
            // Seeded bug: the first missing block of the first range is
            // never requested.
            if let Some(first) = ranges.first_mut() {
                first.0 += 1;
                first.1 -= 1;
            }
            ranges.retain(|&(_, span)| span > 0);
        }
        for (base, span) in ranges {
            self.rel_stats.nacks_sent += 1;
            self.record_rel(group, me, || trace::EventKind::NackSent {
                conn: qp.conn_id(),
                end: qp.endpoint(),
                seq: base,
                span: u64::from(span),
            });
            let _ = self.fabric.post_write(
                qp,
                WrId(3),
                TAG_NACK,
                reliability::encode_nack(base, span),
                None,
            );
        }
    }

    /// Arms the receiver's retry timer (idempotent): when it fires with
    /// blocks still missing, they are re-NACKed with exponential backoff
    /// until the budget is spent, then the connection escalates.
    fn rel_arm_rto(&mut self, qp: QpHandle, group: GroupId, me: Rank) {
        let Some(policy) = self.groups[group].reliability else {
            return;
        };
        let retry = policy.retry();
        let delay = {
            let st = self.rel_recv.entry(qp).or_default();
            if st.rto_armed || st.escalated {
                return;
            }
            st.rto_armed = true;
            SimDuration::from_nanos(
                retry
                    .rto
                    .as_nanos()
                    .saturating_mul(1u64 << st.rto_attempt.min(6)),
            )
        };
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, TimerAction::RelRto { qp });
        let node = self.groups[group].spec.members[me as usize];
        self.fabric
            .schedule_timer(NodeId(node as u32), delay, token);
    }

    /// The receiver retry timer fired.
    fn rel_rto_fired(&mut self, qp: QpHandle) {
        let Some(&(group, me, _peer)) = self.qp_owner.get(&qp) else {
            return; // old-epoch timer: the queue pair is gone
        };
        let Some(policy) = self.groups[group].reliability else {
            return;
        };
        let budget = policy.retry().budget;
        let missing: Vec<u64> = {
            let Some(st) = self.rel_recv.get_mut(&qp) else {
                return;
            };
            st.rto_armed = false;
            if st.escalated {
                return;
            }
            if st.missing.is_empty() {
                st.rto_attempt = 0;
                return; // everything healed before the timer fired
            }
            st.rto_attempt += 1;
            if st.rto_attempt > budget {
                Vec::new() // budget spent: escalate below
            } else {
                st.missing.iter().copied().collect()
            }
        };
        if missing.is_empty() {
            self.rel_escalate(qp);
            return;
        }
        self.rel_request(qp, group, me, &missing);
        self.rel_arm_rto(qp, group, me);
    }

    /// Loss beyond the policy's repair means: hand the connection to the
    /// §2.4 membership service (recovery on) or break it so both sides
    /// wedge (recovery off). Either way, no silent hang.
    fn rel_escalate(&mut self, qp: QpHandle) {
        let Some(&(group, me, peer)) = self.qp_owner.get(&qp) else {
            return;
        };
        {
            let st = self.rel_recv.entry(qp).or_default();
            if st.escalated {
                return;
            }
            st.escalated = true;
        }
        self.rel_stats.escalations += 1;
        self.record_rel(group, me, || trace::EventKind::LossEscalated {
            conn: qp.conn_id(),
        });
        if self.recovery_config.is_some() {
            // The persistently lossy sender is treated as failed: the
            // group reconfigures and interrupted messages resume from
            // the survivors' wedge-time bitmaps (or are consistently
            // abandoned when the evicted sender held the only copy).
            self.feed(group, me, Event::PeerFailed { rank: peer });
            self.note_suspicion(group, me, peer);
        } else {
            self.fabric.break_qp(qp);
        }
    }

    /// An incoming NACK at the data sender: retransmit every ledgered
    /// block of the requested range as a one-sided write (no posted
    /// receive consumed — repairs sit outside the credit flow).
    fn rel_retransmit(&mut self, qp: QpHandle, group: GroupId, me: Rank, base: u64, span: u32) {
        let repairs: Vec<(u64, u64, u64)> = {
            let Some(st) = self.rel_send.get(&qp) else {
                return;
            };
            (base..base.saturating_add(u64::from(span)))
                .filter_map(|s| st.ledger.get(&s).map(|&(len, total)| (s, len, total)))
                .collect()
        };
        for (seq, len, total) in repairs {
            self.rel_stats.repairs_sent += 1;
            self.record_rel(group, me, || trace::EventKind::RepairSent {
                conn: qp.conn_id(),
                seq,
            });
            let _ = self.fabric.post_write(
                qp,
                WrId(wire::REPAIR_WR_BASE + seq),
                TAG_RETRANS,
                reliability::encode_repair(seq, total, len),
                None,
            );
        }
    }

    /// An erasure parity write landed: if the generation's missing
    /// blocks number at most the parity received for it, reconstruct
    /// them locally (the no-round-trip repair); otherwise register the
    /// gaps so the retry timer can fall back to NACK retransmission.
    fn rel_parity_arrival(
        &mut self,
        qp: QpHandle,
        group: GroupId,
        me: Rank,
        generation: u64,
        slots: Vec<(u64, u64)>,
    ) {
        enum Outcome {
            Done,
            Repair(Vec<(u64, u64)>),
            Register(Vec<u64>),
        }
        let outcome = {
            let st = self.rel_recv.entry(qp).or_default();
            if st.escalated {
                return;
            }
            let (received, covered) = {
                let pg = st
                    .parity
                    .entry(generation)
                    .or_insert_with(|| ParityGen { received: 0, slots });
                pg.received += 1;
                (pg.received as usize, pg.slots.clone())
            };
            let missing: Vec<(u64, u64)> = covered
                .into_iter()
                .filter(|&(s, _)| s >= st.next_expected && !st.buffered.contains_key(&s))
                .collect();
            if missing.is_empty() {
                st.parity.remove(&generation);
                Outcome::Done
            } else if missing.len() <= received {
                st.parity.remove(&generation);
                Outcome::Repair(missing)
            } else {
                Outcome::Register(missing.iter().map(|&(s, _)| s).collect())
            }
        };
        match outcome {
            Outcome::Done => {}
            Outcome::Repair(missing) => {
                for (seq, total) in missing {
                    self.rel_stats.parity_repairs += 1;
                    self.record_rel(group, me, || trace::EventKind::RepairDelivered {
                        conn: qp.conn_id(),
                        seq,
                        coded: true,
                    });
                    self.rel_data_arrival(qp, seq, total);
                }
            }
            Outcome::Register(seqs) => {
                {
                    let st = self.rel_recv.entry(qp).or_default();
                    for &s in &seqs {
                        st.missing.insert(s);
                    }
                }
                self.rel_arm_rto(qp, group, me);
            }
        }
    }

    /// A sender frontier probe landed: anything below the announced
    /// frontier that never arrived is a trailing loss — the kind no
    /// later arrival would ever reveal.
    fn rel_probe_arrival(&mut self, qp: QpHandle, group: GroupId, me: Rank, frontier: u64) {
        let Some(policy) = self.groups[group].reliability else {
            return;
        };
        let newly: Vec<u64> = {
            let st = self.rel_recv.entry(qp).or_default();
            if st.escalated {
                return;
            }
            let newly: Vec<u64> = (st.next_expected..frontier)
                .filter(|s| !st.buffered.contains_key(s) && !st.missing.contains(s))
                .collect();
            for &s in &newly {
                st.missing.insert(s);
            }
            newly
        };
        if newly.is_empty() {
            return;
        }
        if matches!(policy, ReliabilityPolicy::WedgeResume { .. }) {
            self.rel_escalate(qp);
        } else {
            self.rel_request(qp, group, me, &newly);
            self.rel_arm_rto(qp, group, me);
        }
    }

    /// Emits the open erasure generation's parity writes if it is full
    /// (or `force`, for the trailing partial generation at a quiet
    /// period). Parity is block-sized — it costs honest bandwidth and
    /// is itself subject to the fault model.
    fn rel_flush_parity(&mut self, group: GroupId, rank: Rank, qp: QpHandle, force: bool) {
        let Some(ReliabilityPolicy::ErasureCode { data, parity, .. }) =
            self.groups[group].reliability
        else {
            return;
        };
        let (generation, slots) = {
            let Some(st) = self.rel_send.get_mut(&qp) else {
                return;
            };
            if st.gen_slots.is_empty() || (!force && (st.gen_slots.len() as u32) < data) {
                return;
            }
            let generation = st.next_gen;
            st.next_gen += 1;
            (generation, std::mem::take(&mut st.gen_slots))
        };
        let pad = slots.iter().map(|&(_, len, _)| len).max().unwrap_or(0);
        let covered: Vec<(u64, u64)> = slots.iter().map(|&(s, _, t)| (s, t)).collect();
        let payload = reliability::encode_parity(generation, &covered, pad);
        self.record_rel(group, rank, || trace::EventKind::ParitySent {
            conn: qp.conn_id(),
            seq: covered[0].0,
            data: covered.len() as u64,
        });
        for j in 0..u64::from(parity) {
            self.rel_stats.parity_writes_sent += 1;
            let wr = wire::PARITY_WR_BASE + generation * u64::from(parity) + j;
            let _ = self
                .fabric
                .post_write(qp, WrId(wr), TAG_PARITY, payload.clone(), None);
        }
    }

    /// Arms the sender's quiet-period probe timer (idempotent; one per
    /// connection).
    fn rel_arm_probe(&mut self, qp: QpHandle, group: GroupId, rank: Rank) {
        let Some(policy) = self.groups[group].reliability else {
            return;
        };
        {
            let st = self.rel_send.entry(qp).or_default();
            if st.probe_armed {
                return;
            }
            st.probe_armed = true;
        }
        let node = self.groups[group].spec.members[rank as usize];
        self.rel_schedule_probe(qp, node, policy.probe_delay());
    }

    fn rel_schedule_probe(&mut self, qp: QpHandle, node: usize, delay: SimDuration) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, TimerAction::RelProbe { qp });
        self.fabric
            .schedule_timer(NodeId(node as u32), delay, token);
    }

    /// The sender quiet-period timer fired: if sends are still flowing,
    /// push the timer out; if the frontier was already announced and
    /// nothing is pending, stop (termination); otherwise flush any
    /// partial parity generation and announce the frontier so the
    /// receiver can detect trailing losses.
    fn rel_probe_fired(&mut self, qp: QpHandle) {
        let Some(&(group, rank, _peer)) = self.qp_owner.get(&qp) else {
            return; // old-epoch timer
        };
        let Some(policy) = self.groups[group].reliability else {
            return;
        };
        let delay = policy.probe_delay();
        let now_ns = self.fabric.now().as_nanos();
        enum Next {
            Done,
            Rearm(SimDuration),
            Probe(u64),
        }
        let next = {
            let Some(st) = self.rel_send.get_mut(&qp) else {
                return;
            };
            st.probe_armed = false;
            let quiet_at = st.last_post_ns.saturating_add(delay.as_nanos());
            if now_ns < quiet_at {
                st.probe_armed = true;
                Next::Rearm(SimDuration::from_nanos(quiet_at - now_ns))
            } else if st.probed_upto == st.next_seq && st.gen_slots.is_empty() {
                Next::Done
            } else {
                st.probe_armed = true;
                Next::Probe(st.next_seq)
            }
        };
        let node = self.groups[group].spec.members[rank as usize];
        match next {
            Next::Done => {}
            Next::Rearm(d) => self.rel_schedule_probe(qp, node, d),
            Next::Probe(frontier) => {
                // The trailing partial erasure generation flushes now —
                // its parity would otherwise wait for blocks that are
                // never coming.
                self.rel_flush_parity(group, rank, qp, true);
                if let Some(st) = self.rel_send.get_mut(&qp) {
                    st.probed_upto = frontier;
                }
                self.rel_stats.probes_sent += 1;
                let _ = self.fabric.post_write(
                    qp,
                    WrId(4),
                    TAG_PROBE,
                    reliability::encode_probe(frontier),
                    None,
                );
                // One more firing confirms quiescence (or probes again
                // if new sends moved the frontier meanwhile).
                self.rel_schedule_probe(qp, node, delay);
            }
        }
    }
}

/// The Derecho-style **atomic multicast** overlay (see the
/// `atomic` module docs): one RDMC subgroup per sender with
/// the member list rotated so each sender roots its own subgroup,
/// per-sender received/stability frontiers in SST rows spread
/// epidemically over `TAG_FRONTIER` control writes, and a per-member
/// delivery engine that holds completed RDMC messages until the
/// live-minimum frontier makes them stable, then issues total-order
/// upcalls in global slot order.
impl<T: Transport> Cluster<T> {
    /// Creates a multi-sender **atomic** group: every node in
    /// `spec.members` becomes a sender of a Derecho-style atomic
    /// multicast. Internally this creates one RDMC subgroup per sender
    /// (the member list rotated left so that sender sits at rank 0 —
    /// the `rdmc_bw_test` rotation idiom) and message slots rotate
    /// round-robin through the members. Submit with
    /// [`SimCluster::submit_atomic`] (or
    /// [`SimCluster::submit_atomic_from`] /
    /// [`SimCluster::schedule_atomic_send_at`]) and read each member's
    /// total-order delivery log with [`SimCluster::atomic_log`]: the
    /// logs are gapless, identical prefixes at every member, even
    /// across crashes when recovery is enabled.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimCluster::create_group`],
    /// or if the group has fewer than two members.
    pub fn create_atomic_group(&mut self, spec: GroupSpec) -> AtomicGroupId {
        let n = spec.members.len();
        self.create_atomic_group_with_senders(spec, n)
    }

    /// Creates an atomic group whose first `senders` members (of
    /// `spec.members`, in order) send; the rest only receive, yet still
    /// gate stability. Only senders get an RDMC subgroup and slots
    /// rotate through them alone. `senders = 1` is the paper's §4.6
    /// single-sender atomic delivery: one unrotated RDMC group whose
    /// deliveries are held until every member's frontier row shows the
    /// message; `senders = spec.members.len()` is
    /// [`SimCluster::create_atomic_group`].
    ///
    /// # Panics
    ///
    /// Panics as [`SimCluster::create_atomic_group`] does, or if
    /// `senders` is not in `1..=spec.members.len()`.
    pub fn create_atomic_group_with_senders(
        &mut self,
        spec: GroupSpec,
        senders: usize,
    ) -> AtomicGroupId {
        let n = spec.members.len();
        assert!(n >= 2, "an atomic group needs at least two members");
        assert!(
            (1..=n).contains(&senders),
            "an atomic group of {n} needs 1..={n} senders, not {senders}"
        );
        let aid = self.atomics.len();
        let mut subgroups = Vec::with_capacity(senders);
        for j in 0..senders {
            let gid = self.create_group(GroupSpec {
                members: rotation::rotated_members(&spec.members, j),
                algorithm: spec.algorithm.clone(),
                block_size: spec.block_size,
                ready_window: spec.ready_window,
                max_outstanding_sends: spec.max_outstanding_sends,
            });
            self.groups[gid].overlay = Some((aid, j));
            subgroups.push(gid);
        }
        let members = (0..n)
            .map(|i| AtomicMember {
                tracker: ViewTracker::with_frontiers(i as u32, n as u32, senders as u32),
                next_deliver: 0,
                stable_seen: vec![0; senders],
                log: Vec::new(),
            })
            .collect();
        self.atomics.push(AtomicRuntime {
            nodes: spec.members,
            subgroups,
            slots: Vec::new(),
            owned: vec![Vec::new(); senders],
            members,
            dead: BTreeSet::new(),
            cursor: 0,
        });
        aid
    }

    /// Submits a `size`-byte message on the atomic group's next
    /// rotation slot: successive submissions rotate the sender role
    /// round-robin through the live senders.
    ///
    /// # Panics
    ///
    /// Panics if every sender of the group is dead.
    pub fn submit_atomic(&mut self, ag: AtomicGroupId, size: u64) -> MessageId {
        let owner = self.atomics[ag]
            .next_live_owner(self.atomics[ag].cursor)
            .expect("atomic group has live senders");
        self.submit_atomic_as(ag, owner, size)
    }

    /// Submits a `size`-byte message *from a specific sender*: every
    /// live slot owner between the rotation cursor and `origin`
    /// contributes a **null** slot (Spindle's null-send elision — the
    /// skip is announced through the owner's own frontier row, no data
    /// multicast at all), then `origin` takes the next data slot.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not one of the group's senders or was
    /// evicted by a view change.
    pub fn submit_atomic_from(&mut self, ag: AtomicGroupId, origin: usize, size: u64) -> MessageId {
        assert!(
            origin < self.atomics[ag].senders(),
            "origin {origin} is not a sender of the group"
        );
        assert!(
            !self.atomics[ag].dead.contains(&origin),
            "origin {origin} was evicted"
        );
        loop {
            let w = self.atomics[ag]
                .next_live_owner(self.atomics[ag].cursor)
                .expect("origin is live");
            if w == origin {
                break;
            }
            self.push_null_slot(ag, w);
        }
        self.submit_atomic_as(ag, origin, size)
    }

    /// Schedules an atomic submission at an absolute virtual time (the
    /// slot owner is resolved at fire time from the then-current
    /// rotation cursor and live set), returning its handle immediately.
    pub fn schedule_atomic_send_at(
        &mut self,
        ag: AtomicGroupId,
        at: SimTime,
        size: u64,
    ) -> MessageId {
        let message = MessageId(self.next_message);
        self.next_message += 1;
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers
            .insert(token, TimerAction::AtomicSend { ag, size, message });
        let host = self.atomics[ag]
            .next_live_owner(self.atomics[ag].cursor)
            .expect("atomic group has live senders");
        let node = self.atomics[ag].nodes[host];
        let delay = at.saturating_since(self.fabric.now());
        self.fabric
            .schedule_timer(NodeId(node as u32), delay, token);
        message
    }

    /// Member `member`'s total-order delivery log: identical `(slot,
    /// sender, seq, size)` sequences at every member (prefixes of one
    /// another while deliveries are still in flight).
    pub fn atomic_log(&self, ag: AtomicGroupId, member: usize) -> &[AtomicDelivery] {
        &self.atomics[ag].members[member].log
    }

    /// Fabric node of each member, in the unrotated declaration order
    /// (member index `i` is the identity used in slots and logs).
    pub fn atomic_nodes(&self, ag: AtomicGroupId) -> &[usize] {
        &self.atomics[ag].nodes
    }

    /// The per-sender RDMC subgroup ids: `atomic_subgroups(ag)[j]` is
    /// the subgroup rooted at member `j`; index 0 is the *anchor* whose
    /// id names the group in trace scopes.
    pub fn atomic_subgroups(&self, ag: AtomicGroupId) -> &[GroupId] {
        &self.atomics[ag].subgroups
    }

    /// Member indices still part of the group (not evicted by a view
    /// change), ascending.
    pub fn atomic_live_members(&self, ag: AtomicGroupId) -> Vec<usize> {
        self.atomics[ag]
            .live_rows()
            .into_iter()
            .map(|r| r as usize)
            .collect()
    }

    /// Total slots allocated so far (data and null, trimmed included).
    pub fn atomic_num_slots(&self, ag: AtomicGroupId) -> u64 {
        self.atomics[ag].slots.len() as u64
    }

    /// Slot numbers removed by ragged trims so far, ascending.
    pub fn atomic_trimmed_slots(&self, ag: AtomicGroupId) -> Vec<u64> {
        self.atomics[ag]
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.trimmed)
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Allocates the handle and the slot, then hands the message to the
    /// owner's subgroup.
    fn submit_atomic_as(&mut self, ag: AtomicGroupId, owner: usize, size: u64) -> MessageId {
        let message = MessageId(self.next_message);
        self.next_message += 1;
        let (gid, idx) = self.do_submit_atomic(ag, owner, size, message);
        self.message_slots.insert(message.0, (gid, idx));
        message
    }

    /// A deferred [`TimerAction::AtomicSend`] fired: resolve the owner
    /// now and submit.
    fn atomic_send_fired(&mut self, ag: AtomicGroupId, size: u64, message: MessageId) {
        let Some(owner) = self.atomics[ag].next_live_owner(self.atomics[ag].cursor) else {
            return; // group extinct: the handle never resolves
        };
        let (gid, idx) = self.do_submit_atomic(ag, owner, size, message);
        self.message_slots.insert(message.0, (gid, idx));
    }

    /// Books the data slot (before the subgroup submission, which can
    /// deliver reentrantly at the root) and submits on the owner's
    /// subgroup.
    fn do_submit_atomic(
        &mut self,
        ag: AtomicGroupId,
        owner: usize,
        size: u64,
        message: MessageId,
    ) -> (GroupId, usize) {
        assert!(size > 0, "zero-size slots are nulls, not messages");
        let gid = self.atomics[ag].subgroups[owner];
        let index = self.groups[gid].results.len();
        let scope = self.atomic_scope(ag, owner);
        let slot_no = self.atomics[ag].slots.len() as u64;
        {
            let a = &mut self.atomics[ag];
            let seq = a.owned[owner].len() as u64;
            a.owned[owner].push(a.slots.len());
            a.cursor = (owner + 1) % a.senders();
            a.slots.push(Slot {
                owner,
                seq,
                kind: SlotKind::Data {
                    index,
                    size,
                    message,
                },
                trimmed: false,
            });
        }
        self.recorder
            .record(scope, || trace::EventKind::AtomicSubmitted {
                slot: slot_no,
                sender: owner as u32,
                null: false,
                size,
            });
        let idx = self.do_submit(gid, size);
        debug_assert_eq!(idx, index, "slot bookkeeping raced the subgroup submission");
        (gid, idx)
    }

    /// Books a null slot for `owner` and resolves it at the owner
    /// immediately (the announcement is the owner's own frontier-row
    /// bump, spread by [`SimCluster::atomic_pump`]'s broadcast).
    fn push_null_slot(&mut self, ag: AtomicGroupId, owner: usize) {
        let scope = self.atomic_scope(ag, owner);
        let slot_no = self.atomics[ag].slots.len() as u64;
        {
            let a = &mut self.atomics[ag];
            let seq = a.owned[owner].len() as u64;
            a.owned[owner].push(a.slots.len());
            a.cursor = (owner + 1) % a.senders();
            a.slots.push(Slot {
                owner,
                seq,
                kind: SlotKind::Null,
                trimmed: false,
            });
        }
        self.recorder
            .record(scope, || trace::EventKind::AtomicSubmitted {
                slot: slot_no,
                sender: owner as u32,
                null: true,
                size: 0,
            });
        self.atomic_pump(ag, owner);
    }

    /// Trace scope of overlay events at `member`: the *anchor* subgroup
    /// id names the group and the rank is the member index in the
    /// unrotated list.
    fn atomic_scope(&self, ag: AtomicGroupId, member: usize) -> trace::Scope {
        trace::Scope {
            node: Some(self.atomics[ag].nodes[member] as u32),
            group: Some(self.atomics[ag].subgroups[0] as u32),
            rank: Some(member as u32),
        }
    }

    /// A subgroup delivered a message at `rank`: map the subgroup-local
    /// rank back to the member index and re-run that member's frontier
    /// recompute and delivery engine.
    fn atomic_on_rdmc_delivery(&mut self, group: GroupId, rank: Rank) {
        let Some((ag, j)) = self.groups[group].overlay else {
            return;
        };
        let o = self.groups[group].orig_rank[rank as usize];
        let n = self.atomics[ag].nodes.len();
        self.atomic_pump(ag, (j + o) % n);
    }

    /// An incoming `TAG_FRONTIER` write: merge the carried row into the
    /// receiving member's SST replica and re-run its delivery engine.
    /// The payload is `row: u32 LE` followed by the tracker's 12-byte
    /// cell update.
    fn atomic_frontier_arrival(&mut self, group: GroupId, me: Rank, payload: &[u8]) {
        let Some((ag, sj)) = self.groups[group].overlay else {
            return;
        };
        let n = self.atomics[ag].nodes.len();
        let member = (sj + self.groups[group].orig_rank[me as usize]) % n;
        if self
            .fabric
            .is_crashed(NodeId(self.atomics[ag].nodes[member] as u32))
        {
            return; // dead software runs no handlers
        }
        let row = u32::from_le_bytes(payload[..4].try_into().expect("frontier row"));
        let _ = self.atomics[ag].members[member]
            .tracker
            .apply_remote(row, &payload[4..]);
        self.atomic_pump(ag, member);
    }

    /// How many of sender `j`'s slots are *resolved* at `member`, in
    /// dense per-sender sequence order: a data slot resolves when the
    /// member's replica of `j`'s subgroup delivered it locally, a null
    /// when the owner's published frontier covers it (trivially at the
    /// owner itself), and a trimmed slot unconditionally. The walk
    /// starts at the member's published frontier, so it costs the
    /// advance, not the slot history.
    fn atomic_resolved_count(&self, ag: AtomicGroupId, member: usize, j: usize) -> u64 {
        let a = &self.atomics[ag];
        let n = a.nodes.len();
        let m = &a.members[member];
        let mut f = m.tracker.frontier(member as u32, j as u32);
        while let Some(&si) = a.owned[j].get(f as usize) {
            let slot = &a.slots[si];
            let resolved = slot.trimmed
                || match slot.kind {
                    SlotKind::Null => {
                        member == j || m.tracker.frontier(j as u32, j as u32) > slot.seq
                    }
                    SlotKind::Data { index, .. } => {
                        let o = rotation::rotated_rank(member, j, n) as usize;
                        self.groups[a.subgroups[j]].results[index].delivered_at[o].is_some()
                    }
                };
            if !resolved {
                break;
            }
            f += 1;
        }
        f
    }

    /// Recomputes `member`'s own frontier row, broadcasts any advance
    /// over the anchor subgroup's connections, and runs the delivery
    /// engine. The workhorse behind every overlay event.
    fn atomic_pump(&mut self, ag: AtomicGroupId, member: usize) {
        if self.atomics[ag].dead.contains(&member)
            || self
                .fabric
                .is_crashed(NodeId(self.atomics[ag].nodes[member] as u32))
        {
            return;
        }
        let targets: Vec<u64> = (0..self.atomics[ag].senders())
            .map(|j| self.atomic_resolved_count(ag, member, j))
            .collect();
        let scope = self.atomic_scope(ag, member);
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        {
            let a = &mut self.atomics[ag];
            let m = &mut a.members[member];
            for (j, &t) in targets.iter().enumerate() {
                if let Some(p) = m.tracker.advance_frontier(j as u32, t) {
                    self.recorder
                        .record(scope, || trace::EventKind::FrontierAdvanced {
                            sender: j as u32,
                            frontier: t,
                        });
                    payloads.push(p);
                }
            }
        }
        for p in payloads {
            self.atomic_broadcast_row(ag, member, &p);
        }
        self.atomic_deliver(ag, member);
    }

    /// Posts `member`'s own-row update to every live peer as a
    /// `TAG_FRONTIER` one-sided write on the anchor subgroup (16 bytes —
    /// under the tiny-write bypass, so the epidemic stays lossless even
    /// on faulty fabrics).
    fn atomic_broadcast_row(&mut self, ag: AtomicGroupId, from_member: usize, payload: &[u8]) {
        let anchor = self.atomics[ag].subgroups[0];
        let Some(me_cur) = self.groups[anchor].current_of(from_member) else {
            return; // evicted from the anchor: nothing to announce on
        };
        let mut buf = Vec::with_capacity(4 + payload.len());
        buf.extend_from_slice(&(from_member as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        let bytes = Bytes::from(buf);
        let n = self.atomics[ag].nodes.len();
        for peer in 0..n {
            if peer == from_member || self.atomics[ag].dead.contains(&peer) {
                continue;
            }
            if self
                .fabric
                .is_crashed(NodeId(self.atomics[ag].nodes[peer] as u32))
            {
                continue;
            }
            let Some(pc) = self.groups[anchor].current_of(peer) else {
                continue;
            };
            let qp = self.ensure_qp(anchor, me_cur, pc);
            let _ = self
                .fabric
                .post_write(qp, WrId(5), TAG_FRONTIER, bytes.clone(), None);
        }
    }

    /// `member`'s delivery engine: announce stability-frontier advances
    /// (always the *true* live minima — the [`Mutation::FrontierOffByOne`]
    /// gate bug below does not taint the trace, which is how the oracle
    /// catches it), then release slots in global order — trimmed slots
    /// skip, nulls skip once the member's own row covers them, data
    /// slots deliver once stable.
    fn atomic_deliver(&mut self, ag: AtomicGroupId, member: usize) {
        let now = self.fabric.now();
        let scope = self.atomic_scope(ag, member);
        let senders = self.atomics[ag].senders() as u32;
        let live = self.atomics[ag].live_rows();
        if live.is_empty() {
            return;
        }
        let off_by_one = self.has_mutation(Mutation::FrontierOffByOne);
        {
            let a = &mut self.atomics[ag];
            let m = &mut a.members[member];
            for j in 0..senders {
                let stable = m.tracker.stable_frontier(j, &live);
                if stable > m.stable_seen[j as usize] {
                    m.stable_seen[j as usize] = stable;
                    self.recorder
                        .record(scope, || trace::EventKind::StableFrontier {
                            sender: j,
                            frontier: stable,
                        });
                }
            }
        }
        enum Step {
            Skip,
            Deliver {
                sender: u32,
                seq: u64,
                size: u64,
                message: MessageId,
            },
        }
        loop {
            let step = {
                let a = &self.atomics[ag];
                let m = &a.members[member];
                let Some(slot) = a.slots.get(m.next_deliver) else {
                    break;
                };
                if slot.trimmed {
                    Step::Skip
                } else {
                    match slot.kind {
                        SlotKind::Null => {
                            if m.tracker.frontier(member as u32, slot.owner as u32) > slot.seq {
                                Step::Skip
                            } else {
                                break;
                            }
                        }
                        SlotKind::Data { size, message, .. } => {
                            let stable = m.stable_seen[slot.owner];
                            let gate = if off_by_one { stable + 1 } else { stable };
                            if gate > slot.seq {
                                Step::Deliver {
                                    sender: slot.owner as u32,
                                    seq: slot.seq,
                                    size,
                                    message,
                                }
                            } else {
                                break;
                            }
                        }
                    }
                }
            };
            match step {
                Step::Skip => self.atomics[ag].members[member].next_deliver += 1,
                Step::Deliver {
                    sender,
                    seq,
                    size,
                    message,
                } => {
                    let slot_no = self.atomics[ag].members[member].next_deliver as u64;
                    self.recorder
                        .record(scope, || trace::EventKind::AtomicDelivered {
                            slot: slot_no,
                            sender,
                            seq,
                            size,
                        });
                    let m = &mut self.atomics[ag].members[member];
                    m.log.push(AtomicDelivery {
                        slot: slot_no,
                        sender,
                        seq,
                        size,
                        at: now,
                        message,
                    });
                    m.next_deliver += 1;
                }
            }
        }
    }

    /// The ragged trim, run after each overlay subgroup installs a new
    /// view: refresh the dead set from fabric truth, trim the
    /// reconfiguring subgroup's *abandoned* data slots and every dead
    /// sender's unannounced nulls, pool the survivors' frontier
    /// replicas (so nulls the dead sender announced to *anyone* resolve
    /// at *everyone*), and re-run every survivor's delivery engine.
    /// Safe by stability: a slot delivered anywhere was stable, stable
    /// slots are fully replicated, and fully replicated slots are never
    /// abandoned — so trims only ever remove slots nobody delivered.
    fn atomic_on_reconfig(&mut self, group: GroupId, abandoned: &[usize]) {
        let Some((ag, j)) = self.groups[group].overlay else {
            return;
        };
        let n = self.atomics[ag].nodes.len();
        for m in 0..n {
            if self
                .fabric
                .is_crashed(NodeId(self.atomics[ag].nodes[m] as u32))
            {
                self.atomics[ag].dead.insert(m);
            }
        }
        let anchor = self.atomics[ag].subgroups[0];
        let mut trims: Vec<u64> = Vec::new();
        {
            let a = &mut self.atomics[ag];
            let aset: BTreeSet<usize> = abandoned.iter().copied().collect();
            let live: Vec<usize> = (0..n).filter(|m| !a.dead.contains(m)).collect();
            // (a) this subgroup's abandoned data slots.
            if !aset.is_empty() {
                for (si, slot) in a.slots.iter_mut().enumerate() {
                    if slot.owner == j && !slot.trimmed {
                        if let SlotKind::Data { index, .. } = slot.kind {
                            if aset.contains(&index) {
                                slot.trimmed = true;
                                trims.push(si as u64);
                            }
                        }
                    }
                }
            }
            // (b) pool survivor replicas: every row cell becomes the max
            // any survivor saw (the view-change state exchange).
            for row in 0..n as u32 {
                for s in 0..a.senders() as u32 {
                    let seen = live
                        .iter()
                        .map(|&m| a.members[m].tracker.frontier(row, s))
                        .max()
                        .unwrap_or(0);
                    if seen == 0 {
                        continue;
                    }
                    for &m in &live {
                        a.members[m].tracker.resync_frontier(row, s, seen);
                    }
                }
            }
            // (c) dead senders' nulls beyond what they ever announced:
            // no survivor can learn of them now, so they are trimmed.
            let dead: Vec<usize> = a.dead.range(..a.senders()).copied().collect();
            for w in dead {
                let reach = live
                    .iter()
                    .map(|&m| a.members[m].tracker.frontier(w as u32, w as u32))
                    .max()
                    .unwrap_or(0);
                for (si, slot) in a.slots.iter_mut().enumerate() {
                    if slot.owner == w
                        && !slot.trimmed
                        && matches!(slot.kind, SlotKind::Null)
                        && slot.seq >= reach
                    {
                        slot.trimmed = true;
                        trims.push(si as u64);
                    }
                }
            }
        }
        trims.sort_unstable();
        for slot in trims {
            self.recorder
                .record(trace::Scope::group(anchor as u32), || {
                    trace::EventKind::AtomicTrimmed { slot }
                });
        }
        for m in self.atomic_live_members(ag) {
            self.atomic_pump(ag, m);
        }
    }
}

impl<T: Transport> std::fmt::Debug for Cluster<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.fabric.now())
            .field("groups", &self.groups.len())
            .finish()
    }
}
