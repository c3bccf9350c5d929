//! Pins the exact outcome of one multicast large enough to drive the
//! flow allocator into its full-recomputation mode.
//!
//! The golden traces run 4 nodes and never leave the ripple path; full
//! mode only engages once a reallocation's component holds at least 128
//! flows. This 128-node Sierra multicast does, and its end-to-end
//! latency, per-member delivery times, and reallocation count must stay
//! bit-for-bit what they were under the per-flow allocator.

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};
use simnet::SimTime;

const MB: u64 = 1 << 20;
const NODES: usize = 128;

/// FNV-1a over a sequence of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn sierra128_multicast_is_pinned_through_full_mode() {
    let mut cluster = ClusterBuilder::new(ClusterSpec::sierra(NODES)).build();
    let group = cluster.create_group(GroupSpec {
        members: (0..NODES).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: MB,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    let id = cluster.submit_send(group, 16 * MB);
    cluster.run();
    let r = cluster.result(id).expect("submitted");
    let latency_ns = r.latency().expect("delivered everywhere").as_nanos();
    let deliveries = digest(
        r.delivered_at
            .iter()
            .map(|d| d.map_or(u64::MAX, SimTime::as_nanos)),
    );
    let stats = cluster.fabric().net().realloc_stats();
    assert!(stats.full > 0, "the run never reached full mode");
    assert_eq!(latency_ns, 8_514_529);
    assert_eq!(deliveries, 0xe3c4_8875_4218_244d);
    assert_eq!(stats.count, 3_980);
}
