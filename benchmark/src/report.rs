//! One invocation: the episodes it runs, the checks it makes, and the
//! metrics it reports.

use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

use rdmc_tcp::TcpFabric;
use verbs::perf::KernelPerf;

use crate::procfs::ProcSample;
use crate::roofline;
use crate::stats::{median, Dist};
use crate::timed::{Backend, Counters, Timed};
use crate::workload::{self, Check, Episode, SimOutcome, Unit, Workload, SIERRA_PINNED};

/// Set-ups timed per run at least; `setup_s` is their median.
const SETUP_REPS: usize = 41;

/// One run's settings, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// Context for the human-readable report.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        note: String::new(),
    }
}

/// Everything one invocation prints.
#[derive(Clone, Debug)]
pub struct Report {
    /// The run's settings.
    pub config: Config,
    /// Messages attempted.
    pub attempted: u64,
    /// Messages not delivered at every receiver, plus those failed by a
    /// failed check.
    pub failed: u64,
    /// Output checks, each aggregated over every episode.
    pub checks: Vec<Check>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every check held and every message was delivered.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable report.
    pub fn text(&self) -> String {
        let c = &self.config;
        let mut out = format!(
            "workload {}  seed {}  seconds {}  trace {}\n",
            c.workload.name(),
            c.seed,
            c.seconds,
            u8::from(c.trace)
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<34} {:>16.6} {:<5} n={:<7} {}\n",
                m.name, m.value, m.unit, m.samples, m.note
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("  {n}\n"));
        }
        for ch in &self.checks {
            let verdict = if ch.ok { "ok" } else { "FAILED" };
            out.push_str(&format!("  check {:<66} {verdict}\n", ch.name));
        }
        out.push_str(&format!(
            "  attempted {}  failed {}  failed_frac {}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        out
    }
}

/// The episodes of one phase (untraced or traced) and its spare
/// set-ups.
struct Phase {
    episodes: Vec<Episode>,
    setups: Vec<f64>,
    checks: Vec<Check>,
    /// Simulation-kernel work of the whole phase.
    kernel: KernelPerf,
}

impl Phase {
    fn sum(&self, f: impl Fn(&Episode) -> f64) -> f64 {
        self.episodes.iter().map(f).sum()
    }

    fn count(&self, f: impl Fn(&Episode) -> u64) -> u64 {
        self.episodes.iter().map(f).sum()
    }

    fn attempted(&self) -> u64 {
        self.count(|e| e.attempted)
    }

    fn failed(&self) -> u64 {
        self.count(|e| e.failed)
    }

    fn counters(&self) -> Counters {
        let mut total = Counters::default();
        for e in &self.episodes {
            total += e.counters;
        }
        total
    }

    fn proc(&self) -> ProcSample {
        self.episodes
            .iter()
            .fold(ProcSample::default(), |a, e| a.plus(&e.proc))
    }

    fn units(&self) -> impl Iterator<Item = &Unit> {
        self.episodes.iter().flat_map(|e| &e.units)
    }

    /// Median over units of their delivery rate.
    fn agg_gbps(&self) -> f64 {
        median(&self.units().map(Unit::gbps).collect::<Vec<_>>())
    }

    fn delivered_bytes(&self) -> u64 {
        self.units().map(|u| u.bytes).sum()
    }

    fn cpu_per_message(&self) -> f64 {
        self.proc().cpu_s() / self.attempted().max(1) as f64
    }
}

/// Runs episodes of `cfg`'s workload over transports from `make` until
/// the next would overrun `budget_s` (at least one), then times spare
/// set-ups until `setup_reps` have been timed.
fn phase<T: Backend>(
    cfg: &Config,
    make: &dyn Fn() -> io::Result<T>,
    budget_s: f64,
    setup_reps: usize,
    traced: bool,
) -> io::Result<Phase> {
    let w = cfg.workload;
    let kernel_before = verbs::perf::snapshot();
    let start = Instant::now();
    let mut episodes = Vec::new();
    loop {
        let t = Instant::now();
        let ready = workload::set_up(w, make)?;
        let e = match w {
            Workload::TcpBulk64 => workload::run_bulk(ready, workload::EPISODE_S, traced),
            Workload::SimSierra512 => workload::run_sierra(ready, traced),
            Workload::TcpAtomic16 => {
                let sizes = workload::atomic_sizes(cfg.seed, episodes.len() as u64);
                workload::run_atomic(ready, &sizes, workload::EPISODE_S, traced)
            }
        };
        episodes.push(e);
        let took = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + took > budget_s {
            break;
        }
    }
    let mut setups = Vec::new();
    let mut checks = Vec::new();
    while episodes.len() + setups.len() < setup_reps {
        let ready = workload::set_up(w, make)?;
        setups.push(ready.setup_s());
        checks.extend(ready.discard());
    }
    Ok(Phase {
        episodes,
        setups,
        checks,
        kernel: verbs::perf::snapshot().delta_since(&kernel_before),
    })
}

fn run_phase(cfg: &Config, budget_s: f64, setup_reps: usize, traced: bool) -> io::Result<Phase> {
    let n = cfg.workload.nodes();
    let tcp = move || TcpFabric::launch(n);
    match (cfg.workload, traced) {
        (Workload::SimSierra512, false) => {
            phase(cfg, &workload::sierra_fabric, budget_s, setup_reps, false)
        }
        (Workload::SimSierra512, true) => {
            let make = || workload::sierra_fabric().map(Timed::new);
            phase(cfg, &make, budget_s, setup_reps, true)
        }
        (_, false) => phase(cfg, &tcp, budget_s, setup_reps, false),
        (_, true) => phase(cfg, &|| tcp().map(Timed::new), budget_s, setup_reps, true),
    }
}

fn end_to_end(p: &Phase) -> Vec<Metric> {
    let setups: Vec<f64> = p
        .episodes
        .iter()
        .map(|e| e.setup_s)
        .chain(p.setups.iter().copied())
        .collect();
    let dists: Vec<Dist> = p.units().map(|u| Dist::of(u.lat.clone())).collect();
    let pooled = Dist::of(p.units().flat_map(|u| u.lat.clone()).collect());
    let p50: Vec<f64> = dists.iter().map(|d| d.p50).collect();
    let p99: Vec<f64> = dists.iter().map(|d| d.p99).collect();
    let mut m = vec![
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("agg_gbps", p.agg_gbps(), "Gb/s", dists.len()),
        metric("lat_p50_ms", median(&p50), "ms", pooled.n),
        metric("lat_p99_ms", median(&p99), "ms", pooled.n),
    ];
    for x in &mut m[2..] {
        x.note = format!(
            "median over {} units; pooled p50 {:.4} p99 {:.4}{}",
            dists.len(),
            pooled.p50,
            pooled.p99,
            pooled.tail.map_or(String::new(), |(q, v)| format!(
                ", highest supported p{q} {v:.4}"
            ))
        );
    }
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(plain: &Phase, traced: &Phase, roofline_gbps: f64) -> (Vec<Metric>, String) {
    let k = traced.counters();
    let kp = traced.kernel;
    let proc = traced.proc();
    let wall = traced.sum(|e| e.wall_s);
    let dispatch = traced.sum(|e| e.dispatch_s);
    let steps = traced.count(|e| e.steps);
    let unattributed = wall - k.inside_s() - dispatch;
    let late = Dist::of(
        traced
            .episodes
            .iter()
            .flat_map(|e| e.late.clone())
            .collect(),
    );
    let creates: Vec<f64> = traced.episodes.iter().map(|e| e.create_group_s).collect();
    let msgs = traced.count(|e| e.atomic_msgs) as f64;
    let c = |v: u64| v as f64;
    let metrics = vec![
        metric("transport.advance_s", k.advance_s, "s", 1),
        metric("transport.advance_calls", c(k.advance_calls), "count", 1),
        metric("transport.completions", c(k.completions), "count", 1),
        metric(
            "transport.ns_per_completion",
            ratio(k.advance_s * 1e9, c(k.completions)),
            "ns",
            k.completions as usize,
        ),
        metric("transport.post_s", k.post_s, "s", 1),
        metric("transport.sends", c(k.sends), "count", 1),
        metric("transport.send_bytes", c(k.send_bytes), "bytes", 1),
        metric("transport.writes", c(k.writes), "count", 1),
        metric("transport.write_bytes", c(k.write_bytes), "bytes", 1),
        metric("transport.connect_s", k.connect_s, "s", 1),
        metric("transport.connections", c(k.connections), "count", 1),
        metric(
            "transport.rnr_arms",
            c(traced.count(|e| e.rnr_arms)),
            "count",
            1,
        ),
        metric("proc.user_s", proc.user_s, "s", 1),
        metric("proc.sys_s", proc.sys_s, "s", 1),
        metric("proc.write_syscalls", c(proc.write_syscalls), "count", 1),
        metric("proc.write_bytes", c(proc.write_bytes), "bytes", 1),
        metric("proc.vol_ctxsw", c(proc.vol_ctxsw), "count", 1),
        metric("proc.invol_ctxsw", c(proc.invol_ctxsw), "count", 1),
        metric("tcp.roofline_gbps", roofline_gbps, "Gb/s", 1),
        metric(
            "tcp.roofline_share",
            ratio(plain.agg_gbps(), roofline_gbps),
            "ratio",
            1,
        ),
        metric("cluster.dispatch_s", dispatch, "s", 1),
        metric("cluster.steps", c(steps), "count", 1),
        metric(
            "cluster.ns_per_step",
            ratio(dispatch * 1e9, c(steps)),
            "ns",
            steps as usize,
        ),
        metric(
            "cluster.create_group_s",
            median(&creates),
            "s",
            creates.len(),
        ),
        metric(
            "cluster.peak_backlog",
            traced
                .episodes
                .iter()
                .map(|e| e.peak_backlog)
                .max()
                .unwrap_or(0) as f64,
            "count",
            1,
        ),
        metric(
            "atomic.ctrl_writes_per_msg",
            ratio(c(k.frontier_writes), msgs),
            "count",
            msgs as usize,
        ),
        metric(
            "atomic.ctrl_write_bytes_per_msg",
            ratio(c(k.frontier_write_bytes), msgs),
            "bytes",
            msgs as usize,
        ),
        metric("sim.events", c(kp.events), "count", 1),
        metric("sim.events_per_s", ratio(c(kp.events), wall), "1/s", 1),
        metric(
            "simnet.realloc_share",
            ratio(c(kp.realloc_nanos) / 1e9, wall),
            "ratio",
            1,
        ),
        metric("simnet.reallocs", c(kp.realloc_count), "count", 1),
        metric(
            "simnet.flows_visited_per_realloc",
            ratio(c(kp.flows_visited), c(kp.realloc_count)),
            "count",
            kp.realloc_count as usize,
        ),
        metric("simnet.link_visits", c(kp.link_visits), "count", 1),
        metric("simnet.heap_pushes", c(kp.heap_pushes), "count", 1),
        metric("simnet.rate_changes", c(kp.rate_changes), "count", 1),
        metric("simnet.coalesced", c(kp.coalesced), "count", 1),
        metric("gen.late_p50_ms", late.p50, "ms", late.n),
        metric("gen.late_p99_ms", late.p99, "ms", late.n),
        metric(
            "trace.overhead_frac",
            ratio(traced.cpu_per_message(), plain.cpu_per_message()) - 1.0,
            "ratio",
            1,
        ),
        metric("trace.wall_s", wall, "s", traced.episodes.len()),
        metric("trace.unattributed_s", unattributed, "s", 1),
    ];
    let share = |s: f64| 100.0 * ratio(s, wall);
    let accounting = format!(
        "self-time over {wall:.3} s traced wall: transport.advance {:.1}% \
         (simnet realloc inside it {:.1}%), transport.post {:.1}%, \
         transport.connect {:.1}%, cluster.dispatch {:.1}%, unattributed {:.1}%",
        share(k.advance_s),
        share(c(kp.realloc_nanos) / 1e9),
        share(k.post_s),
        share(k.connect_s),
        share(dispatch),
        share(unattributed),
    );
    (metrics, accounting)
}

/// Folds same-named checks into one that holds only if all held.
fn merge(checks: impl IntoIterator<Item = Check>) -> Vec<Check> {
    let mut merged: BTreeMap<String, bool> = BTreeMap::new();
    for c in checks {
        *merged.entry(c.name).or_insert(true) &= c.ok;
    }
    merged
        .into_iter()
        .map(|(name, ok)| Check { name, ok })
        .collect()
}

fn phase_checks(p: &Phase) -> impl Iterator<Item = Check> + '_ {
    p.episodes
        .iter()
        .flat_map(|e| e.checks.iter().cloned())
        .chain(p.checks.iter().cloned())
}

/// The simulated outcomes of every episode and its kernel counters
/// without the one wall-clock field.
fn sim_fingerprints(p: &Phase) -> Vec<(Option<SimOutcome>, KernelPerf)> {
    p.episodes
        .iter()
        .map(|e| {
            let kernel = KernelPerf {
                realloc_nanos: 0,
                ..e.kernel
            };
            (e.sim, kernel)
        })
        .collect()
}

/// Runs one invocation: an end-to-end run over the bare transport, or
/// (traced) an untraced and a traced half of the same work, for the
/// per-layer metrics and the tracing overhead.
///
/// # Errors
///
/// A socket error during set-up or in the roofline pump.
pub fn run(cfg: &Config) -> io::Result<Report> {
    let sim = cfg.workload == Workload::SimSierra512;
    let mut notes = Vec::new();
    let mut extra = Vec::new();
    let (phases, metrics) = if cfg.trace {
        let plain = run_phase(cfg, cfg.seconds / 2.0, 1, false)?;
        let traced = run_phase(cfg, cfg.seconds / 2.0, 1, true)?;
        if sim {
            let (a, b) = (sim_fingerprints(&plain), sim_fingerprints(&traced));
            extra.push(Check {
                name: "traced run: bit-identical virtual results and kernel counters".into(),
                ok: a.iter().chain(&b).all(|f| *f == a[0]),
            });
        }
        let roofline = if cfg.workload == Workload::TcpBulk64 {
            let bytes = traced.delivered_bytes();
            let mesh = traced.episodes.iter().map(|e| e.connections).max();
            let connections = mesh.unwrap_or(1) as usize;
            roofline::pump_gbps(connections, bytes)?
        } else {
            0.0
        };
        let (metrics, accounting) = per_layer(&plain, &traced, roofline);
        notes.push(accounting);
        (vec![plain, traced], metrics)
    } else {
        let p = run_phase(cfg, cfg.seconds, SETUP_REPS, false)?;
        let m = end_to_end(&p);
        (vec![p], m)
    };
    if sim {
        let outcomes: Vec<Option<SimOutcome>> = phases
            .iter()
            .flat_map(|p| p.episodes.iter().map(|e| e.sim))
            .collect();
        if let Some(Some(o)) = outcomes.first() {
            notes.push(format!(
                "virtual outcome: latency {} ns, {} events, delivery digest {:#018x}",
                o.latency_ns, o.events, o.delivery_digest
            ));
        }
        extra.push(Check {
            name: "simulated multicast matches the pinned virtual outcome".into(),
            ok: outcomes.iter().all(|o| *o == Some(SIERRA_PINNED)),
        });
    }
    let mut checks = merge(phases.iter().flat_map(phase_checks).chain(extra));
    if metrics.iter().any(|m| !m.value.is_finite()) {
        checks.push(Check {
            name: "every metric is a finite number".into(),
            ok: false,
        });
    }
    let attempted: u64 = phases.iter().map(Phase::attempted).sum();
    let mut failed: u64 = phases.iter().map(Phase::failed).sum();
    if checks.iter().any(|c| !c.ok) {
        failed = attempted;
    }
    Ok(Report {
        config: *cfg,
        attempted,
        failed,
        checks,
        metrics: metrics
            .into_iter()
            .map(|m| Metric {
                value: if m.value.is_finite() { m.value } else { 0.0 },
                ..m
            })
            .collect(),
        notes,
    })
}
