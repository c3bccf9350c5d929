//! The trace oracle run against real simulations: every algorithm's
//! flight recording must satisfy block causality, FIFO send/arrival
//! pairing, the analyzer's per-step port budgets, and its exact
//! completion-step bound — and the oracle must still reject tampered
//! recordings (no vacuous passes).

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};
use trace::check::{check_events, CheckConfig};
use trace::EventKind;

const BLOCK: u64 = 64 << 10;

/// Runs one `k`-block multicast over `n` members with a full-capture
/// recorder and returns the event stream.
fn traced_run(n: usize, k: u64, algorithm: Algorithm) -> Vec<trace::TraceEvent> {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(n))
        .flight_recorder(trace::Mode::Full)
        .build();
    let group = cluster.create_group(GroupSpec {
        members: (0..n).collect(),
        algorithm,
        block_size: BLOCK,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    cluster.submit_send(group, k * BLOCK);
    cluster.run();
    cluster.recorder().events()
}

/// The oracle configuration the analyzer's static model implies for
/// `algorithm` at `(n, k)`: port budgets plus the completion-step bound
/// (schedule steps are 0-indexed, so a bound of `s` steps admits
/// indices up to `s - 1`).
fn config_for(algorithm: &Algorithm, n: u32, k: u32) -> CheckConfig {
    let budget = analyzer::PortBudget::for_algorithm(algorithm, n);
    let bound = match analyzer::StepBound::for_algorithm(algorithm, n, k) {
        analyzer::StepBound::Exact(s) | analyzer::StepBound::AtMost(s) => Some(s.saturating_sub(1)),
        analyzer::StepBound::Unbounded => None,
    };
    CheckConfig {
        send_budget: Some(budget.send),
        recv_budget: Some(budget.recv),
        completion_step_bound: bound,
        forbid_rnr: true,
    }
}

#[test]
fn all_algorithms_pass_the_oracle_with_analyzer_bounds() {
    let algorithms = [
        Algorithm::Sequential,
        Algorithm::BinomialTree,
        Algorithm::Chain,
        Algorithm::BinomialPipeline,
    ];
    for algorithm in &algorithms {
        for &n in &[2usize, 4, 7] {
            let k = 4u32;
            let events = traced_run(n, u64::from(k), algorithm.clone());
            let cfg = config_for(algorithm, n as u32, k);
            let stats = check_events(&events, &cfg)
                .unwrap_or_else(|v| panic!("{algorithm:?} n={n}: oracle violations: {v:#?}"));
            // The oracle saw the whole conversation, not a fragment:
            // every non-root member delivers, and arrivals match issues.
            assert_eq!(stats.deliveries, n as u64, "{algorithm:?} n={n}");
            assert_eq!(stats.issues, stats.arrivals, "{algorithm:?} n={n}");
            // The run used the schedule's full depth and no more: its
            // highest step index + 1 satisfies the analyzer's bound.
            let bound = analyzer::StepBound::for_algorithm(algorithm, n as u32, k);
            let max_step = stats.max_step.expect("blocks moved");
            assert!(
                bound.admits(max_step + 1),
                "{algorithm:?} n={n}: max step {max_step} vs bound {bound}"
            );
        }
    }
}

#[test]
fn hybrid_algorithms_pass_the_oracle() {
    // Two racks of four on a flat fabric: the schedule shapes are what
    // the oracle vets; the topology does not need to match.
    let rack_of: Vec<u32> = vec![0, 0, 0, 0, 1, 1, 1, 1];
    for algorithm in [
        Algorithm::Hybrid {
            rack_of: rack_of.clone(),
        },
        Algorithm::HybridPipelined { rack_of },
    ] {
        let k = 4u32;
        let events = traced_run(8, u64::from(k), algorithm.clone());
        let cfg = config_for(&algorithm, 8, k);
        check_events(&events, &cfg)
            .unwrap_or_else(|v| panic!("{algorithm:?}: oracle violations: {v:#?}"));
    }
}

#[test]
fn oracle_rejects_a_tampered_recording() {
    let mut events = traced_run(4, 4, Algorithm::BinomialPipeline);
    // Erase one block send: its arrival is now uncaused.
    let idx = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::BlockSendIssued { .. }))
        .expect("sends recorded");
    events.remove(idx);
    let err = check_events(&events, &CheckConfig::default()).expect_err("tampered trace must fail");
    assert!(
        err.iter()
            .any(|v| v.contains("no matching send") || v.contains("FIFO")),
        "unexpected violations: {err:#?}"
    );
}

#[test]
fn ring_mode_drops_oldest_but_keeps_recent_window() {
    // A small ring on a real run: the recorder must report drops (so
    // oracle users know the capture is partial) and retain the tail.
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4))
        .flight_recorder(trace::Mode::Ring(64))
        .build();
    let recorder = cluster.recorder().clone();
    let group = cluster.create_group(GroupSpec {
        members: (0..4).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    cluster.submit_send(group, 16 * BLOCK);
    cluster.run();
    let events = recorder.events();
    assert_eq!(events.len(), 64, "ring stays at capacity");
    assert!(recorder.dropped() > 0, "a 16-block run overflows 64 slots");
    // The tail always ends with the final deliveries.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Delivered { .. })),
        "the last deliveries stay in the window"
    );
}
