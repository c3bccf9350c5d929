//! The workloads: their layouts and inputs, and the runners that step a
//! cluster through one episode of each and check its outputs.

use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

use rdmc::Algorithm;
use rdmc_sim::{
    AtomicGroupId, Cluster, ClusterBuilder, ClusterSpec, GroupId, GroupSpec, MessageId,
    MessageResult,
};
use simnet::SimTime;
use verbs::perf::KernelPerf;
use verbs::Transport;
use workloads::ShardedWorkload;

use crate::procfs::ProcSample;
use crate::timed::{Backend, Counters};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// Seed used when the command line names none.
pub const DEFAULT_SEED: u64 = 1;

/// `tcp-bulk64`: nodes, message and block size.
const BULK_NODES: usize = 64;
const BULK_MESSAGE: u64 = 8 * MB;
const BULK_BLOCK: u64 = 64 * KB;

/// `tcp-atomic16`: 4 atomic groups of 4 members over 16 nodes, each with
/// one message in flight; sizes log-normal with median 16 KB and mean
/// 48 KB clamped to 1 KB–1 MB, so most messages are a single block.
const ATOMIC_NODES: usize = 16;
const ATOMIC_GROUPS: usize = 4;
const ATOMIC_BLOCK: u64 = 64 * KB;
/// Sizes drawn per episode (reused cyclically if an episode sends more).
const ATOMIC_SIZES: usize = 1 << 14;
const SIZE_MEDIAN: f64 = 16.0 * 1024.0;
const SIZE_MEAN: f64 = 48.0 * 1024.0;
const SIZE_MIN: u64 = KB;
const SIZE_MAX: u64 = MB;

/// Seconds one `tcp-bulk64` or `tcp-atomic16` episode submits messages
/// for. Each episode runs on a fresh cluster. For `tcp-atomic16` that
/// matters: the overlay's per-event cost grows with the group's
/// delivered history, so a longer episode would measure the history
/// length as much as the message path.
pub const EPISODE_S: f64 = 3.0;

/// `tcp-atomic16` latency and rate are summarised per window of due
/// times of this length, and reported as the median over windows.
pub const WINDOW_S: f64 = 0.25;

/// `sim-sierra512`: one multicast of this size to 511 receivers.
const SIERRA_NODES: usize = 512;
const SIERRA_MESSAGE: u64 = 64 * MB;
const SIERRA_BLOCK: u64 = 4 * MB;
/// Steps between scans for newly delivered members in `sim-sierra512`.
const SIERRA_SCAN_EVERY: u64 = 64;

/// The simulated outcome of the `sim-sierra512` multicast, pinned.
pub const SIERRA_PINNED: SimOutcome = SimOutcome {
    latency_ns: 40_709_793,
    events: 186_889,
    delivery_digest: 0x3b8b_caf3_7152_03b5,
};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64 nodes over loopback TCP, one binomial-pipeline group, 8 MB
    /// messages, closed loop with one message in flight.
    TcpBulk64,
    /// 4 rotated multi-sender atomic groups of 4 over TCP, open loop.
    TcpAtomic16,
    /// One 64 MB multicast to 511 receivers on the simulated
    /// Sierra-like fabric.
    SimSierra512,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TcpBulk64,
        Workload::TcpAtomic16,
        Workload::SimSierra512,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpBulk64 => "tcp-bulk64",
            Workload::TcpAtomic16 => "tcp-atomic16",
            Workload::SimSierra512 => "sim-sierra512",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nodes the workload's transport carries.
    pub fn nodes(self) -> usize {
        match self {
            Workload::TcpBulk64 => BULK_NODES,
            Workload::TcpAtomic16 => ATOMIC_NODES,
            Workload::SimSierra512 => SIERRA_NODES,
        }
    }
}

/// The `tcp-atomic16` layout for one seed: group `g` is nodes
/// `4g..4g+4`. Only its size mix is used; arrival times are not.
fn atomic_layout(seed: u64) -> ShardedWorkload {
    ShardedWorkload {
        seed,
        nodes: ATOMIC_NODES,
        shards: ATOMIC_GROUPS,
        replication_factor: ATOMIC_NODES / ATOMIC_GROUPS,
        offered_gbps: 1.0,
        median_bytes: SIZE_MEDIAN,
        mean_bytes: SIZE_MEAN,
        min_bytes: SIZE_MIN,
        max_bytes: SIZE_MAX,
    }
}

/// The message sizes of `tcp-atomic16` episode `episode` of a run seeded
/// with `seed`, generated before the episode starts.
pub fn atomic_sizes(seed: u64, episode: u64) -> Vec<u64> {
    atomic_layout(seed.wrapping_mul(1_000_003).wrapping_add(episode))
        .generate(ATOMIC_SIZES)
        .into_iter()
        .map(|a| a.size)
        .collect()
}

/// One named output check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// The virtual-time outcome of one simulated multicast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimOutcome {
    /// Virtual nanoseconds until the last member's upcall.
    pub latency_ns: u64,
    /// Events the fabric processed.
    pub events: u64,
    /// FNV-1a digest of every member's virtual delivery time.
    pub delivery_digest: u64,
}

/// The group layout of a workload.
enum Groups {
    Plain(GroupId),
    Atomic(Vec<AtomicGroupId>),
}

fn pipeline(members: Vec<usize>, block_size: u64) -> GroupSpec {
    GroupSpec {
        members,
        algorithm: Algorithm::BinomialPipeline,
        block_size,
        ready_window: 3,
        max_outstanding_sends: 3,
    }
}

fn create_groups<T: Transport>(w: Workload, c: &mut Cluster<T>) -> Groups {
    match w {
        Workload::TcpBulk64 => {
            Groups::Plain(c.create_group(pipeline((0..BULK_NODES).collect(), BULK_BLOCK)))
        }
        Workload::SimSierra512 => {
            Groups::Plain(c.create_group(pipeline((0..SIERRA_NODES).collect(), SIERRA_BLOCK)))
        }
        Workload::TcpAtomic16 => {
            let layout = atomic_layout(DEFAULT_SEED);
            Groups::Atomic(
                (0..layout.shards)
                    .map(|g| c.create_atomic_group(pipeline(layout.members(g), ATOMIC_BLOCK)))
                    .collect(),
            )
        }
    }
}

/// A set-up cluster, ready for its first submission.
pub struct Ready<T: Transport> {
    cluster: Cluster<T>,
    groups: Groups,
    setup_s: f64,
    create_group_s: f64,
}

impl<T: Backend> Ready<T> {
    /// Seconds the set-up took.
    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }

    /// Tears the cluster down unused, checking it closes cleanly.
    pub fn discard(self) -> Vec<Check> {
        let mut e = Episode::default();
        e.finish(self);
        e.checks
    }
}

fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Launches the transport, builds the cluster and creates the groups:
/// the set-up that `setup_s` times, up to the first submission.
///
/// # Errors
///
/// A socket error while launching the transport.
pub fn set_up<T: Backend>(w: Workload, make: &dyn Fn() -> io::Result<T>) -> io::Result<Ready<T>> {
    let t = Instant::now();
    let mut cluster = ClusterBuilder::from_transport(make()?).build();
    let tg = Instant::now();
    let groups = create_groups(w, &mut cluster);
    Ok(Ready {
        cluster,
        groups,
        setup_s: since(t),
        create_group_s: since(tg),
    })
}

/// Drives `Cluster::step` and, when traced, splits each step's wall time
/// into time inside the transport and the cluster's own dispatch.
pub struct Stepper {
    traced: bool,
    /// Steps taken.
    pub steps: u64,
    /// Dispatch self-time: step and submission wall time minus the
    /// transport calls made inside them (traced runs only).
    pub dispatch_s: f64,
}

impl Stepper {
    /// A stepper that times its steps when `traced`.
    pub fn new(traced: bool) -> Self {
        Stepper {
            traced,
            steps: 0,
            dispatch_s: 0.0,
        }
    }

    /// One `Cluster::step`.
    pub fn step<T: Backend>(&mut self, c: &mut Cluster<T>) -> bool {
        self.steps += 1;
        self.call(c, Cluster::step)
    }

    /// Runs a call into the cluster, charging its self-time to dispatch.
    pub fn call<T: Backend, R>(
        &mut self,
        c: &mut Cluster<T>,
        f: impl FnOnce(&mut Cluster<T>) -> R,
    ) -> R {
        if !self.traced {
            return f(c);
        }
        let inside = inside_s(c);
        let t = Instant::now();
        let r = f(c);
        let wall = since(t);
        self.dispatch_s += wall - (inside_s(c) - inside);
        r
    }
}

fn counters<T: Backend>(c: &Cluster<T>) -> Counters {
    c.transport().counters().copied().unwrap_or_default()
}

fn inside_s<T: Backend>(c: &Cluster<T>) -> f64 {
    c.transport().counters().map_or(0.0, Counters::inside_s)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Latency (ms) from `due` to each receiver's delivery upcall, the root
/// excluded; `None` unless every member delivered. Measured from when
/// the message was due, not from `MessageResult::submitted`, so a late
/// submission counts against the system.
pub fn receiver_latencies_ms(due: SimTime, r: &MessageResult) -> Option<Vec<f64>> {
    r.delivered_at
        .iter()
        .skip(1)
        .map(|d| d.map(|d| ms(d.as_nanos().saturating_sub(due.as_nanos()))))
        .collect()
}

/// A unit of measurement; a run reports the median over its units of
/// each unit's latency percentiles and delivery rate. A unit is one
/// message in `tcp-bulk64`, one [`WINDOW_S`] window of due times in
/// `tcp-atomic16`, and one multicast in `sim-sierra512`.
#[derive(Clone, Debug, Default)]
pub struct Unit {
    /// Receiver latencies from the due time, ms.
    pub lat: Vec<f64>,
    /// Payload bytes delivered, summed over receivers.
    pub bytes: u64,
    /// Seconds over which those bytes were delivered: due time to last
    /// upcall for a message or multicast, the window length for a
    /// window.
    pub span_s: f64,
}

impl Unit {
    /// Delivery rate, Gb/s.
    pub fn gbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.span_s / 1e9
    }
}

/// What one episode measured: one set-up, one measured window.
#[derive(Default)]
pub struct Episode {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Group-creation part of the set-up.
    pub create_group_s: f64,
    /// Wall seconds of the measured window.
    pub wall_s: f64,
    /// Process counters over the window.
    pub proc: ProcSample,
    /// Steps taken in the window.
    pub steps: u64,
    /// Dispatch self-time in the window (traced only).
    pub dispatch_s: f64,
    /// Transport-boundary counters over the window (traced only).
    pub counters: Counters,
    /// Connections the episode's transport established in all.
    pub connections: u64,
    /// RNR arms the transport reported.
    pub rnr_arms: u64,
    /// The episode's units of measurement.
    pub units: Vec<Unit>,
    /// Submission time minus due time, ms.
    pub late: Vec<f64>,
    /// Messages attempted.
    pub attempted: u64,
    /// Messages not delivered everywhere or failed by a check.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Simulation-kernel counters (simulated episodes only).
    pub kernel: KernelPerf,
    /// Highest root backlog of any group.
    pub peak_backlog: usize,
    /// Messages the atomic overlay delivered in total order.
    pub atomic_msgs: u64,
    /// The virtual outcome (simulated episodes only).
    pub sim: Option<SimOutcome>,
}

impl Episode {
    fn new<T: Transport>(ready: &Ready<T>, attempted: u64) -> Episode {
        Episode {
            setup_s: ready.setup_s,
            create_group_s: ready.create_group_s,
            attempted,
            ..Episode::default()
        }
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
        });
    }

    /// Checks every group's close barrier and the zero-RNR discipline,
    /// then shuts the transport down. A failed check fails every message
    /// of the episode.
    fn finish<T: Backend>(&mut self, ready: Ready<T>) {
        let Ready {
            mut cluster,
            groups,
            ..
        } = ready;
        let c = &mut cluster;
        let plain: Vec<GroupId> = match &groups {
            Groups::Plain(g) => vec![*g],
            Groups::Atomic(ags) => ags
                .iter()
                .flat_map(|&ag| c.atomic_subgroups(ag).to_vec())
                .collect(),
        };
        self.peak_backlog = plain.iter().map(|&g| c.peak_backlog(g)).max().unwrap_or(0);
        let certified = plain.iter().all(|&g| c.destroy_group(g));
        self.check("destroy_group certifies every close barrier", certified);
        self.rnr_arms = c.transport().stats().rnr_arms;
        self.check("transport rnr_arms == 0", self.rnr_arms == 0);
        self.connections = counters(c).connections;
        let closed = cluster.into_transport().close();
        self.check("transport shutdown returns Ok", closed.is_ok());
        if !(certified && self.rnr_arms == 0 && closed.is_ok()) {
            self.failed = self.attempted;
        }
    }
}

/// The measured window of an episode: wall clock, process counters and
/// transport counters between `open` and `close`.
struct Window {
    t: Instant,
    proc: ProcSample,
    counters: Counters,
}

impl Window {
    fn open<T: Backend>(c: &Cluster<T>) -> Window {
        Window {
            counters: counters(c),
            proc: ProcSample::read(),
            t: Instant::now(),
        }
    }

    fn close<T: Backend>(self, c: &Cluster<T>, e: &mut Episode, stepper: &Stepper) {
        e.wall_s = since(self.t);
        e.proc = ProcSample::read().since(&self.proc);
        e.counters = counters(c).since(&self.counters);
        e.steps = stepper.steps;
        e.dispatch_s = stepper.dispatch_s;
    }
}

/// `tcp-bulk64`: closed loop, one message in flight, submitting until
/// `budget_s` seconds have passed; each message is due when its
/// predecessor reached its last receiver.
pub fn run_bulk<T: Backend>(mut ready: Ready<T>, budget_s: f64, traced: bool) -> Episode {
    let mut e = Episode::new(&ready, 0);
    let Groups::Plain(g) = ready.groups else {
        unreachable!("bulk uses one plain group")
    };
    let c = &mut ready.cluster;
    let mut stepper = Stepper::new(traced);
    let window = Window::open(c);
    let now = c.transport().now();
    let mut inflight = Some((now, stepper.call(c, |c| c.submit_send(g, BULK_MESSAGE))));
    while let Some((due, id)) = inflight {
        if !stepper.step(c) {
            break; // quiescent with the message undelivered
        }
        let r = c.result(id).expect("submitted");
        let Some(lat) = receiver_latencies_ms(due, r) else {
            continue;
        };
        e.attempted += 1;
        e.late.push(ms(r.submitted.as_nanos() - due.as_nanos()));
        let last = r
            .delivered_at
            .iter()
            .flatten()
            .copied()
            .max()
            .expect("members");
        e.units.push(Unit {
            lat,
            bytes: r.size * (r.delivered_at.len() as u64 - 1),
            span_s: last.since(due).as_secs_f64(),
        });
        inflight = (since(window.t) < budget_s)
            .then(|| (last, stepper.call(c, |c| c.submit_send(g, BULK_MESSAGE))));
    }
    if inflight.is_some() {
        e.attempted += 1;
        e.failed += 1;
    }
    while stepper.step(c) {}
    window.close(c, &mut e, &stepper);
    e.finish(ready);
    e
}

/// `tcp-atomic16`: closed loop with one message in flight per group,
/// submitting until `budget_s` seconds have passed; each message is due
/// when its predecessor on the group reached its last member. Each
/// member's total-order upcall is a delivery, the sender's own included:
/// it waits for stability like every other member's.
pub fn run_atomic<T: Backend>(
    mut ready: Ready<T>,
    sizes: &[u64],
    budget_s: f64,
    traced: bool,
) -> Episode {
    let mut e = Episode::new(&ready, 0);
    let Groups::Atomic(ags) = &ready.groups else {
        unreachable!("atomic workload uses atomic groups")
    };
    let c = &mut ready.cluster;
    let mut stepper = Stepper::new(traced);
    let window = Window::open(c);
    let start = c.transport().now();
    let mut next_size = sizes.iter().copied().cycle();
    // Per group: messages submitted, and the one in flight (its due time
    // and handle).
    let mut sent = vec![0usize; ags.len()];
    let mut inflight: Vec<Option<(SimTime, MessageId)>> = vec![None; ags.len()];
    let mut due_of: BTreeMap<MessageId, SimTime> = BTreeMap::new();
    for (g, &ag) in ags.iter().enumerate() {
        let size = next_size.next().expect("sizes");
        let id = stepper.call(c, |c| c.submit_atomic(ag, size));
        inflight[g] = Some((start, id));
        due_of.insert(id, start);
        sent[g] = 1;
    }
    while inflight.iter().any(Option::is_some) {
        if !stepper.step(c) {
            break; // quiescent with messages undelivered
        }
        for (g, &ag) in ags.iter().enumerate() {
            if inflight[g].is_none() {
                continue;
            }
            let members = c.atomic_nodes(ag).len();
            if (0..members).any(|m| c.atomic_log(ag, m).len() < sent[g]) {
                continue;
            }
            let done = (0..members)
                .filter_map(|m| c.atomic_log(ag, m).last().map(|d| d.at))
                .max()
                .expect("members");
            inflight[g] = (since(window.t) < budget_s).then(|| {
                let size = next_size.next().expect("sizes");
                let id = stepper.call(c, |c| c.submit_atomic(ag, size));
                due_of.insert(id, done);
                sent[g] += 1;
                (done, id)
            });
        }
    }
    e.failed += inflight.iter().flatten().count() as u64;
    while stepper.step(c) {}
    window.close(c, &mut e, &stepper);

    e.attempted = sent.iter().sum::<usize>() as u64;
    for (&id, &due) in &due_of {
        if let Some(r) = c.result(id) {
            e.late
                .push(ms(r.submitted.as_nanos().saturating_sub(due.as_nanos())));
        }
    }
    let windows = ((budget_s / WINDOW_S).ceil() as usize).max(1);
    e.units = vec![
        Unit {
            span_s: WINDOW_S,
            ..Unit::default()
        };
        windows
    ];
    let window_ns = (WINDOW_S * 1e9) as u64;
    let mut logs_ok = true;
    for (g, &ag) in ags.iter().enumerate() {
        let members = c.atomic_nodes(ag).len();
        let entries = |m: usize| -> Vec<(u64, u32, u64, u64)> {
            c.atomic_log(ag, m)
                .iter()
                .map(|d| (d.slot, d.sender, d.seq, d.size))
                .collect()
        };
        // Identical at every member, slots ascending, and each sender's
        // sequence numbers dense from zero.
        let log = entries(0);
        logs_ok &= (1..members).all(|m| entries(m) == log);
        logs_ok &= log.windows(2).all(|w| w[0].0 < w[1].0);
        let mut next_seq = vec![0u64; members];
        for &(_, sender, seq, _) in &log {
            logs_ok &= seq == next_seq[sender as usize];
            next_seq[sender as usize] += 1;
        }
        let delivered = log.len().min(sent[g]) as u64;
        e.atomic_msgs += delivered;
        for m in 0..members {
            for d in c.atomic_log(ag, m) {
                let due = due_of[&d.message];
                let w = (due.since(start).as_nanos() / window_ns).min(windows as u64 - 1);
                let u = &mut e.units[w as usize];
                u.lat.push(ms(d.at.since(due).as_nanos()));
                // The sender's own upcall moves no payload.
                if m as u32 != d.sender {
                    u.bytes += d.size;
                }
            }
        }
    }
    e.check("atomic logs identical and gapless at every member", logs_ok);
    if !logs_ok {
        e.failed = e.attempted;
    }
    e.finish(ready);
    e
}

/// FNV-1a over a sequence of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `sim-sierra512`: one multicast, stepped to completion. Each
/// receiver's latency is the wall time from submission until the
/// simulator produced its upcall, found by scanning for new deliveries
/// every [`SIERRA_SCAN_EVERY`] steps.
pub fn run_sierra<T: Backend>(mut ready: Ready<T>, traced: bool) -> Episode {
    let mut e = Episode::new(&ready, 1);
    let Groups::Plain(g) = ready.groups else {
        unreachable!("sierra uses one plain group")
    };
    let c = &mut ready.cluster;
    let mut stepper = Stepper::new(traced);
    let kernel_before = verbs::perf::snapshot();
    let window = Window::open(c);
    let id = stepper.call(c, |c| c.submit_send(g, SIERRA_MESSAGE));
    let submitted = since(window.t);
    let mut seen: Vec<Option<f64>> = vec![None; SIERRA_NODES];
    loop {
        let more = stepper.step(c);
        if !more || stepper.steps.is_multiple_of(SIERRA_SCAN_EVERY) {
            let now = since(window.t);
            let r = c.result(id).expect("submitted");
            for (s, d) in seen.iter_mut().zip(&r.delivered_at) {
                if s.is_none() && d.is_some() {
                    *s = Some(now);
                }
            }
        }
        if !more {
            break;
        }
    }
    window.close(c, &mut e, &stepper);
    e.late.push(submitted * 1e3);
    let r = c.result(id).expect("submitted");
    if r.delivered_at.iter().any(Option::is_none) {
        e.failed = 1;
    }
    e.units.push(Unit {
        lat: seen
            .iter()
            .skip(1)
            .flatten()
            .map(|s| (s - submitted) * 1e3)
            .collect(),
        bytes: r.size * (SIERRA_NODES as u64 - 1),
        span_s: seen.iter().flatten().fold(0.0f64, |a, &b| a.max(b)) - submitted,
    });
    e.sim = Some(SimOutcome {
        latency_ns: r.latency().map_or(0, |l| l.as_nanos()),
        events: c.transport().stats().events,
        delivery_digest: digest(
            r.delivered_at
                .iter()
                .map(|d| d.map_or(u64::MAX, SimTime::as_nanos)),
        ),
    });
    e.finish(ready);
    // The fabric folds its kernel counters into `verbs::perf` when
    // `finish` drops it.
    e.kernel = verbs::perf::snapshot().delta_since(&kernel_before);
    e
}

/// The simulated Sierra-like fabric of `sim-sierra512`.
///
/// # Errors
///
/// Never; the signature matches the TCP launcher's.
pub fn sierra_fabric() -> io::Result<verbs::Fabric> {
    Ok(ClusterSpec::sierra(SIERRA_NODES).build())
}
