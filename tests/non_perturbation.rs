//! Watching a run must not change how it executes.
//!
//! Each case runs three times — with no flight recorder, with a
//! full-capture one, and with a 64-event ring — and the three runs must
//! agree on every member's delivery times, the protocol state digest,
//! the fabric's event counters and the flow allocator's reallocation
//! counters. The last two see the kernel path itself: a recorder that
//! switched off same-instant coalescing would leave delivery times
//! alone but change how many reallocations ran.

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};
use simnet::{ReallocStats, SimTime};
use verbs::FabricStats;

const MB: u64 = 1 << 20;

/// Everything a run must reproduce whether or not it is watched.
#[derive(Debug, PartialEq)]
struct Outcome {
    deliveries: Vec<Vec<Option<SimTime>>>,
    state_digest: u64,
    fabric: FabricStats,
    realloc: ReallocStats,
}

/// Multicasts `messages` binomial-pipeline messages of `size` bytes
/// (1 MB blocks) to every node of `spec`, with a recorder in `mode`.
fn run(spec: &ClusterSpec, messages: usize, size: u64, mode: Option<trace::Mode>) -> Outcome {
    let mut builder = ClusterBuilder::new(spec.clone());
    if let Some(mode) = mode {
        builder = builder.flight_recorder(mode);
    }
    let mut cluster = builder.build();
    let group = cluster.create_group(GroupSpec {
        members: (0..spec.topology.nodes()).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    for _ in 0..messages {
        cluster.submit_send(group, size);
    }
    cluster.run();
    assert!(cluster.all_quiescent(), "run failed to quiesce");
    assert_eq!(
        cluster.recorder().is_enabled(),
        mode.is_some(),
        "recorder attachment"
    );
    if mode.is_some() {
        assert!(!cluster.recorder().events().is_empty(), "nothing recorded");
    }
    let mut realloc = cluster.fabric().net().realloc_stats();
    realloc.nanos = 0; // wall clock, not simulation
    Outcome {
        deliveries: cluster
            .message_results()
            .into_iter()
            .map(|r| r.delivered_at)
            .collect(),
        state_digest: cluster.state_digest(),
        fabric: cluster.fabric().stats(),
        realloc,
    }
}

fn assert_unperturbed(spec: &ClusterSpec, messages: usize, size: u64) {
    let plain = run(spec, messages, size, None);
    assert!(plain.realloc.coalesced > 0, "the case never coalesces");
    for mode in [trace::Mode::Full, trace::Mode::Ring(64)] {
        assert_eq!(
            run(spec, messages, size, Some(mode)),
            plain,
            "a {mode:?} recorder changed the run"
        );
    }
}

#[test]
fn fractus16_pipeline_is_unperturbed_by_recording() {
    assert_unperturbed(&ClusterSpec::fractus(16), 3, 16 * MB);
}

#[test]
fn sierra64_pipeline_is_unperturbed_by_recording() {
    assert_unperturbed(&ClusterSpec::sierra(64), 2, 8 * MB);
}
