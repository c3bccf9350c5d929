//! Derecho-style atomic delivery (paper §4.6) as the one-sender atomic
//! overlay: RDMC deliveries are held until every member's frontier row
//! shows the message. Validates the paper's claim that the added delay
//! is small and no bandwidth is lost, and that misconfigured sender
//! sets are rejected up front.

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig, SimCluster};
use simnet::SimTime;

const MB: u64 = 1 << 20;

fn spec_group(n: usize) -> GroupSpec {
    GroupSpec {
        members: (0..n).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    }
}

/// `count` messages of `size` bytes from member 0 of an 8-node group,
/// as plain RDMC or as a one-sender atomic group (atomic group id 0).
fn run(atomic: bool, count: usize, size: u64) -> SimCluster {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(8)).build();
    if atomic {
        let ag = cluster.create_atomic_group_with_senders(spec_group(8), 1);
        for _ in 0..count {
            cluster.submit_atomic(ag, size);
        }
    } else {
        let group = cluster.create_group(spec_group(8));
        for _ in 0..count {
            cluster.submit_send(group, size);
        }
    }
    cluster.run();
    cluster
}

/// Latest atomic upcall across all members.
fn last_upcall(cluster: &SimCluster, n: usize) -> SimTime {
    (0..n)
        .flat_map(|m| cluster.atomic_log(0, m).iter().map(|d| d.at))
        .max()
        .expect("deliveries")
}

#[test]
fn every_member_stably_delivers_every_message() {
    let cluster = run(true, 5, 8 * MB);
    for m in 0..8 {
        let log = cluster.atomic_log(0, m);
        assert_eq!(log.len(), 5, "member {m}: {} delivered", log.len());
        // One sender, no nulls: slots are the submission order, and
        // upcall times are monotone.
        assert!(log.iter().enumerate().all(|(k, d)| d.slot == k as u64));
        assert!(log.windows(2).all(|w| w[0].at <= w[1].at));
    }
    assert_eq!(cluster.atomic_num_slots(0), 5);
}

#[test]
fn stability_never_precedes_local_delivery() {
    let cluster = run(true, 3, 16 * MB);
    for m in 0..8 {
        for d in cluster.atomic_log(0, m) {
            // The upcall at `m` must follow EVERY member's local RDMC
            // completion of that message.
            let result = cluster.result(d.message).expect("data slot");
            for t in result.delivered_at.iter().flatten() {
                assert!(
                    d.at >= *t,
                    "member {m} slot {}: upcall {:?} before local {t:?}",
                    d.slot,
                    d.at
                );
            }
        }
    }
}

#[test]
fn added_delay_is_small_and_bandwidth_is_kept() {
    // The paper: "No loss of bandwidth is experienced, and the added delay
    // is surprisingly small."
    let count = 6;
    let size = 32 * MB;
    let plain = run(false, count, size);
    let atomic = run(true, count, size);
    let end_plain = plain
        .message_results()
        .iter()
        .flat_map(|r| r.delivered_at.iter().flatten().copied())
        .max()
        .unwrap();
    let plain_s = end_plain.as_secs_f64();
    let stable_s = last_upcall(&atomic, 8).as_secs_f64();
    assert!(stable_s >= plain_s, "stability cannot be free");
    assert!(
        stable_s < plain_s * 1.05,
        "atomic delivery should cost <5% end-to-end: {plain_s} vs {stable_s}"
    );
}

#[test]
fn crash_stalls_stability_but_not_rdmc_bookkeeping() {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4)).build();
    let ag = cluster.create_atomic_group_with_senders(spec_group(4), 1);
    cluster.submit_atomic(ag, 64 * MB);
    cluster.schedule_crash_at(2, SimTime::from_nanos(1_000_000));
    cluster.run();
    // Without recovery the dead member's frontier row never advances, so
    // nothing becomes stable — exactly why Derecho needs its
    // leader-based cleanup (recovery's view change here).
    for m in [0, 1, 3] {
        assert!(
            cluster.atomic_log(ag, m).is_empty(),
            "member {m} must not deliver unstably after a crash"
        );
    }
    let group = cluster.atomic_subgroups(ag)[0];
    assert!(!cluster.wedged_members(group).is_empty());
}

#[test]
fn recovery_evicts_a_crashed_receiver_and_delivers_at_the_survivors() {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4))
        .recovery(RecoveryConfig::default())
        .build();
    let ag = cluster.create_atomic_group_with_senders(spec_group(4), 1);
    cluster.submit_atomic(ag, 64 * MB);
    cluster.submit_atomic(ag, 8 * MB);
    cluster.schedule_crash_at(2, SimTime::from_nanos(1_000_000));
    cluster.run();
    // The view change drops the receiver's row from the stability
    // minimum; the survivors finish and deliver identically.
    assert_eq!(cluster.atomic_live_members(ag), vec![0, 1, 3]);
    let slots =
        |m: usize| -> Vec<u64> { cluster.atomic_log(ag, m).iter().map(|d| d.slot).collect() };
    for m in [0, 1, 3] {
        assert_eq!(slots(m), vec![0, 1], "member {m}");
    }
    assert!(cluster.atomic_trimmed_slots(ag).is_empty());
}

#[test]
#[should_panic(expected = "needs 1..=4 senders, not 0")]
fn zero_senders_are_rejected() {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4)).build();
    let _ = cluster.create_atomic_group_with_senders(spec_group(4), 0);
}

#[test]
#[should_panic(expected = "needs 1..=4 senders, not 5")]
fn more_senders_than_members_are_rejected() {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4)).build();
    let _ = cluster.create_atomic_group_with_senders(spec_group(4), 5);
}

#[test]
#[should_panic(expected = "origin 2 is not a sender")]
fn submitting_from_a_receiver_is_rejected() {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4)).build();
    let ag = cluster.create_atomic_group_with_senders(spec_group(4), 2);
    cluster.submit_atomic_from(ag, 2, MB);
}
