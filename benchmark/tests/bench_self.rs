//! Tests of the benchmark itself: the transport probe leaves runs
//! unchanged, the tail-reporting rule, latency from the due time, and
//! the atomic runner's checks.

use rdmc::Algorithm;
use rdmc_benchmark::stats::{supported_tail, Dist};
use rdmc_benchmark::timed::{Backend, Timed};
use rdmc_benchmark::workload::{self, receiver_latencies_ms, Stepper, Workload};
use rdmc_sim::{Cluster, ClusterBuilder, ClusterSpec, GroupSpec, MessageResult};
use simnet::SimTime;
use verbs::Fabric;

fn small_run<T: Backend>(transport: T) -> (Vec<String>, u64, Cluster<T>) {
    let mut c = ClusterBuilder::from_transport(transport).build();
    let g = c.create_group(GroupSpec {
        members: (0..8).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: 64 << 10,
        ready_window: 3,
        max_outstanding_sends: 3,
    });
    let mut stepper = Stepper::new(true);
    stepper.call(&mut c, |c| c.submit_send(g, 1 << 20));
    for k in 1..=4u64 {
        c.schedule_send_at(g, SimTime::from_nanos(k * 50_000), (k * 100) << 10);
    }
    while stepper.step(&mut c) {}
    let results = c
        .message_results()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    (results, c.state_digest(), c)
}

#[test]
fn probed_simulation_matches_the_bare_fabric() {
    let spec = ClusterSpec::fractus(8);
    let (bare, bare_digest, _) = small_run(spec.build());
    let (probed, probed_digest, c) = small_run(Timed::new(spec.build()));
    assert_eq!(bare.len(), 5);
    assert_eq!(bare, probed, "message_results differ under the probe");
    assert_eq!(
        bare_digest, probed_digest,
        "state_digest differs under the probe"
    );
    let k = c.transport().counters().expect("probed");
    assert!(k.advance_calls > 0 && k.sends > 0 && k.connections > 0);
    assert!(
        k.completions < k.advance_calls,
        "the final advance finds nothing"
    );
}

#[test]
fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(supported_tail(19), None);
    assert_eq!(supported_tail(20), Some(50.0));
    assert_eq!(supported_tail(99), Some(50.0));
    assert_eq!(supported_tail(100), Some(90.0));
    assert_eq!(supported_tail(999), Some(90.0));
    assert_eq!(supported_tail(1_000), Some(99.0));
    assert_eq!(supported_tail(10_000), Some(99.9));
    assert_eq!(supported_tail(100_000), Some(99.99));
    let d = Dist::of((1..=1_000).map(f64::from).collect());
    assert_eq!(d.tail, Some((99.0, 990.0)));
    assert_eq!(d.p99, 990.0);
}

#[test]
fn latency_runs_from_the_due_time_not_the_submission() {
    let due = SimTime::from_nanos(1_000_000);
    let at = |ms: u64| Some(SimTime::from_nanos(1_000_000 + ms * 1_000_000));
    let late = MessageResult {
        group: 0,
        index: 0,
        size: 4096,
        submitted: at(5).expect("time"),
        delivered_at: vec![at(5), at(7), at(9)],
    };
    // The root's own completion is not a delivery; the receivers' are
    // timed from when the message was due, so the 5 ms the submission
    // ran late counts against the system.
    assert_eq!(receiver_latencies_ms(due, &late), Some(vec![7.0, 9.0]));
    let undelivered = MessageResult {
        delivered_at: vec![at(5), at(7), None],
        ..late
    };
    assert_eq!(receiver_latencies_ms(due, &undelivered), None);
}

#[test]
fn atomic_runner_delivers_and_checks_logs() {
    // The `tcp-atomic16` runner and its checks, over the simulated
    // fabric instead of sockets.
    let w = Workload::TcpAtomic16;
    let nodes = w.nodes();
    let make = move || Ok::<Fabric, std::io::Error>(ClusterSpec::fractus(nodes).build());
    let ready = workload::set_up(w, &make).expect("simulated set-up");
    let sizes = workload::atomic_sizes(7, 0);
    let e = workload::run_atomic(ready, &sizes, 0.02, false);
    assert!(e.attempted >= 4, "one message per group at least");
    assert_eq!(e.failed, 0);
    assert_eq!(e.atomic_msgs, e.attempted);
    assert!(e.checks.iter().all(|c| c.ok), "{:?}", e.checks);
    let samples: usize = e.units.iter().map(|u| u.lat.len()).sum();
    assert_eq!(samples as u64, e.attempted * 4, "every member delivers");
    assert_eq!(e.late.len() as u64, e.attempted);
}
