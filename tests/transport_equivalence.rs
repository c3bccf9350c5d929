//! The standing transport-equivalence gate: the same protocol
//! orchestration runs over the simulated verbs fabric and over real TCP
//! sockets, and the two must agree **bit-for-bit** on *what* happened —
//! every input fed to every engine, as the flight recorder saw it, and
//! the delivery digests — leaving only *when* to the fabric.
//!
//! The engine records one event per input it is fed (`MessageSubmitted`,
//! `BlockArrived`, `ReadyHeard`, `BlockSendCompleted`, `Wedged`, and
//! `InputIgnored` for inputs that change nothing). Raw recordings
//! interleave differently across transports (wall-clock completion
//! timing is not virtual-time completion timing), but RDMC's §4.2 design
//! makes each *channel* deterministic: per (group, rank, input class,
//! peer) the sequence of inputs is fixed by the block schedule and the
//! per-connection FIFO guarantee. Projecting the recording per channel,
//! without timestamps or fields that encode cross-channel order,
//! therefore yields a transport-independent fingerprint that any lost,
//! duplicated, reordered, or misrouted input breaks.
//!
//! On mismatch each test writes both canonical logs under
//! `target/transport_equivalence/` so CI can upload them as artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rdmc::Algorithm;
use rdmc_sim::{
    Cluster, ClusterBuilder, ClusterSpec, GroupSpec, PacerConfig, PacingPolicy, RecoveryConfig,
};
use simnet::SimDuration;
use verbs::Transport;

const KB: u64 = 1 << 10;
const BLOCK: u64 = 16 * KB;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Sequential,
    Algorithm::Chain,
    Algorithm::BinomialTree,
    Algorithm::BinomialPipeline,
];

fn spec(n: usize, algorithm: Algorithm) -> GroupSpec {
    GroupSpec {
        members: (0..n).collect(),
        algorithm,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    }
}

/// Projects a flight recording onto its per-channel canonical form:
/// one line per (group, rank, class, peer) channel listing, in
/// recording order, one entry per input that channel's engine was fed.
/// Within a channel the order is fixed by the protocol, so equal
/// canonical logs mean equal protocol executions. `BlockArrived.first`
/// is left out: whether a block announced its message depends on which
/// sender's block landed first, which is timing. (So would an ignored
/// block's place among its channel's arrivals, but these workloads fail
/// members only at quiescence, so no block meets a wedged engine.)
fn canonicalize(events: &[trace::TraceEvent]) -> String {
    use trace::EventKind as K;
    let mut channels: BTreeMap<(u32, u32, &'static str, i64), Vec<String>> = BTreeMap::new();
    for ev in events {
        let (class, peer, detail) = match ev.kind {
            K::MessageSubmitted { size } => ("start", -1, format!("{size}")),
            K::BlockArrived {
                from,
                block,
                step,
                epoch,
                ..
            } => ("block", i64::from(from), format!("b{block}s{step}e{epoch}")),
            K::InputIgnored {
                peer,
                failure: false,
            } => ("block", i64::from(peer), "ignored".to_owned()),
            K::ReadyHeard { from } => ("ready", i64::from(from), String::new()),
            K::BlockSendCompleted { to } => ("sendc", i64::from(to), String::new()),
            K::Wedged { failed } => ("fail", i64::from(failed), String::new()),
            K::InputIgnored {
                peer,
                failure: true,
            } => ("fail", i64::from(peer), String::new()),
            _ => continue,
        };
        let (Some(group), Some(rank)) = (ev.scope.group, ev.scope.rank) else {
            continue;
        };
        channels
            .entry((group, rank, class, peer))
            .or_default()
            .push(detail);
    }
    let mut out = String::new();
    for ((group, rank, class, peer), events) in channels {
        let _ = writeln!(
            out,
            "g{group} r{rank} {class} p{peer} n{} [{}]",
            events.len(),
            events.join(",")
        );
    }
    out
}

/// Time-free delivery digest: which message reached which member, per
/// group in send order — the observable the paper's reliability claims
/// are about.
fn delivery_digest<T: Transport>(cluster: &Cluster<T>) -> String {
    let mut out = String::new();
    for r in cluster.message_results() {
        let delivered: String = r
            .delivered_at
            .iter()
            .map(|d| if d.is_some() { 'y' } else { 'n' })
            .collect();
        let _ = writeln!(
            out,
            "g{} i{} size={} delivered={delivered}",
            r.group, r.index, r.size
        );
    }
    out
}

/// Asserts both fingerprints match, dumping them for CI on divergence.
fn assert_equivalent(name: &str, sim: &(String, String), tcp: &(String, String)) {
    if sim == tcp {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/transport_equivalence");
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(
        dir.join(format!("{name}.sim.log")),
        format!("{}{}", sim.0, sim.1),
    );
    let _ = std::fs::write(
        dir.join(format!("{name}.tcp.log")),
        format!("{}{}", tcp.0, tcp.1),
    );
    assert_eq!(
        sim, tcp,
        "{name}: transports diverged (canonical logs dumped to target/transport_equivalence/)"
    );
}

/// One mixed-size multicast workload, returning the canonical
/// recording and the delivery digest.
fn plain_workload<T: Transport>(mut cluster: Cluster<T>, algorithm: Algorithm) -> (String, String) {
    let group = cluster.create_group(spec(5, algorithm));
    for size in [4 * BLOCK, 1, 6 * BLOCK + 17] {
        cluster.submit_send(group, size);
    }
    cluster.run();
    assert!(cluster.all_quiescent(), "workload failed to quiesce");
    (
        canonicalize(&cluster.recorder().events()),
        delivery_digest(&cluster),
    )
}

/// All four algorithms: identical canonical recordings and delivery
/// digests over simulated verbs and over real TCP.
#[test]
fn all_algorithms_equivalent_across_transports() {
    for algorithm in ALGORITHMS {
        let sim = plain_workload(
            ClusterBuilder::new(ClusterSpec::fractus(5))
                .flight_recorder(trace::Mode::Full)
                .build(),
            algorithm.clone(),
        );
        let tcp = plain_workload(
            rdmc_tcp::builder(5)
                .expect("tcp launch")
                .flight_recorder(trace::Mode::Full)
                .build(),
            algorithm.clone(),
        );
        assert_equivalent(&format!("plain_{algorithm:?}"), &sim, &tcp);
    }
}

/// Pacer admission (FIFO, bounded inflight) composes identically with
/// both transports.
fn paced_workload<T: Transport>(mut cluster: Cluster<T>) -> (String, String) {
    let group = cluster.create_group(spec(4, Algorithm::BinomialPipeline));
    for _ in 0..3 {
        cluster.submit_send(group, 5 * BLOCK);
    }
    cluster.run();
    assert!(cluster.all_quiescent(), "paced workload failed to quiesce");
    (
        canonicalize(&cluster.recorder().events()),
        delivery_digest(&cluster),
    )
}

#[test]
fn paced_workload_equivalent_across_transports() {
    let pacing = PacerConfig::new(1, PacingPolicy::Fifo);
    let sim = paced_workload(
        ClusterBuilder::new(ClusterSpec::fractus(4))
            .flight_recorder(trace::Mode::Full)
            .pacing(pacing)
            .build(),
    );
    let tcp = paced_workload(
        rdmc_tcp::builder(4)
            .expect("tcp launch")
            .flight_recorder(trace::Mode::Full)
            .pacing(pacing)
            .build(),
    );
    assert_equivalent("paced_fifo", &sim, &tcp);
}

/// The crash/recovery case: a message completes, a non-root member
/// fail-stops at quiescence, epoch recovery reconfigures, and a second
/// message reaches the survivors — identically on both transports.
fn recovery_workload<T: Transport>(mut cluster: Cluster<T>) -> (String, String) {
    let group = cluster.create_group(spec(5, Algorithm::BinomialPipeline));
    cluster.submit_send(group, 4 * BLOCK);
    cluster.run();
    assert!(cluster.all_quiescent(), "first message failed to quiesce");

    cluster.crash_now(3);
    cluster.run(); // detection, gossip, epoch agreement, reconfiguration

    cluster.submit_send(group, 3 * BLOCK);
    cluster.run();
    assert!(cluster.live_quiescent(), "survivors failed to quiesce");
    assert_eq!(
        cluster.surviving_ranks(group),
        vec![0, 1, 2, 4],
        "recovery installed the wrong view"
    );
    (
        canonicalize(&cluster.recorder().events()),
        delivery_digest(&cluster),
    )
}

#[test]
fn crash_recovery_equivalent_across_transports() {
    // A generous grace keeps wall-clock failure detection (TCP) and
    // virtual-time detection (sim) on the same side of every protocol
    // deadline.
    let recovery = RecoveryConfig {
        grace: SimDuration::from_millis(100),
        ..RecoveryConfig::default()
    };
    let sim = recovery_workload(
        ClusterBuilder::new(ClusterSpec::fractus(5))
            .flight_recorder(trace::Mode::Full)
            .recovery(recovery.clone())
            .build(),
    );
    let tcp = recovery_workload(
        rdmc_tcp::builder(5)
            .expect("tcp launch")
            .flight_recorder(trace::Mode::Full)
            .recovery(recovery)
            .build(),
    );
    assert_equivalent("crash_recovery", &sim, &tcp);
}
