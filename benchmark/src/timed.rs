//! The per-layer probe at the `verbs::Transport` boundary.
//!
//! [`Timed`] wraps any transport, forwards every call unchanged, and
//! times and counts the calls that move work across the boundary:
//! `advance` (completion polling, where the TCP event loop and the
//! simulation kernel do their work), the `post_*` family plus
//! `schedule_timer`, and `connect`. It is passed to
//! `ClusterBuilder::from_transport`, so the program runs exactly as it
//! would over the bare transport; only the bench reads the counters.

use std::io;
use std::time::Instant;

use bytes::Bytes;
use rdmc_tcp::TcpFabric;
use simnet::{HostProfile, SimDuration, SimTime};
use verbs::{
    CpuReport, Delivery, Fabric, FabricStats, NodeId, PostingSnapshot, QpHandle, Transport,
    VerbsError, WaitSpec, WrId,
};

/// One-sided-write tag `rdmc-sim` uses for atomic-multicast frontier
/// rows (the SST stability epidemic). The bench counts these writes
/// apart from the ready-for-block credits that share the write path.
pub const FRONTIER_TAG: u64 = 8;

/// Calls and time spent at the transport boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Wall seconds inside `advance`.
    pub advance_s: f64,
    /// `advance` calls.
    pub advance_calls: u64,
    /// `advance` calls that returned a completion.
    pub completions: u64,
    /// Wall seconds inside `post_send`, `post_write`, `post_recv` and
    /// `schedule_timer`.
    pub post_s: f64,
    /// Two-sided sends posted.
    pub sends: u64,
    /// Bytes of two-sided sends posted.
    pub send_bytes: u64,
    /// One-sided writes posted.
    pub writes: u64,
    /// Payload bytes of one-sided writes posted.
    pub write_bytes: u64,
    /// One-sided writes carrying atomic-multicast frontier rows.
    pub frontier_writes: u64,
    /// Payload bytes of those frontier writes.
    pub frontier_write_bytes: u64,
    /// Wall seconds inside `connect`.
    pub connect_s: f64,
    /// Connections established.
    pub connections: u64,
}

impl Counters {
    /// Wall seconds spent inside the transport, all calls together.
    pub fn inside_s(&self) -> f64 {
        self.advance_s + self.post_s + self.connect_s
    }

    /// Field-wise `self - base`, for a window between two readings.
    pub fn since(&self, base: &Counters) -> Counters {
        Counters {
            advance_s: self.advance_s - base.advance_s,
            advance_calls: self.advance_calls - base.advance_calls,
            completions: self.completions - base.completions,
            post_s: self.post_s - base.post_s,
            sends: self.sends - base.sends,
            send_bytes: self.send_bytes - base.send_bytes,
            writes: self.writes - base.writes,
            write_bytes: self.write_bytes - base.write_bytes,
            frontier_writes: self.frontier_writes - base.frontier_writes,
            frontier_write_bytes: self.frontier_write_bytes - base.frontier_write_bytes,
            connect_s: self.connect_s - base.connect_s,
            connections: self.connections - base.connections,
        }
    }
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.advance_s += o.advance_s;
        self.advance_calls += o.advance_calls;
        self.completions += o.completions;
        self.post_s += o.post_s;
        self.sends += o.sends;
        self.send_bytes += o.send_bytes;
        self.writes += o.writes;
        self.write_bytes += o.write_bytes;
        self.frontier_writes += o.frontier_writes;
        self.frontier_write_bytes += o.frontier_write_bytes;
        self.connect_s += o.connect_s;
        self.connections += o.connections;
    }
}

/// A transport wrapped in the boundary probe.
pub struct Timed<T> {
    inner: T,
    counters: Counters,
}

impl<T> Timed<T> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            counters: Counters::default(),
        }
    }
}

fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl<T: Transport> Transport for Timed<T> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)> {
        let t = Instant::now();
        let next = self.inner.advance();
        self.counters.advance_s += since(t);
        self.counters.advance_calls += 1;
        self.counters.completions += u64::from(next.is_some());
        next
    }

    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle) {
        let t = Instant::now();
        let qps = self.inner.connect(a, b);
        self.counters.connect_s += since(t);
        self.counters.connections += 1;
        qps
    }

    fn post_send(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        bytes: u64,
        imm: u64,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        let t = Instant::now();
        let r = self.inner.post_send(qp, wr_id, bytes, imm, wait_for);
        self.counters.post_s += since(t);
        self.counters.sends += 1;
        self.counters.send_bytes += bytes;
        r
    }

    fn post_write(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        tag: u64,
        payload: Bytes,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        let len = payload.len() as u64;
        let t = Instant::now();
        let r = self.inner.post_write(qp, wr_id, tag, payload, wait_for);
        self.counters.post_s += since(t);
        self.counters.writes += 1;
        self.counters.write_bytes += len;
        if tag == FRONTIER_TAG {
            self.counters.frontier_writes += 1;
            self.counters.frontier_write_bytes += len;
        }
        r
    }

    fn post_recv(&mut self, qp: QpHandle, wr_id: WrId, max_len: u64) -> Result<(), VerbsError> {
        let t = Instant::now();
        let r = self.inner.post_recv(qp, wr_id, max_len);
        self.counters.post_s += since(t);
        r
    }

    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let t = Instant::now();
        self.inner.schedule_timer(node, delay, token);
        self.counters.post_s += since(t);
    }

    fn consume_cpu(&mut self, node: NodeId, dur: SimDuration) {
        self.inner.consume_cpu(node, dur);
    }

    fn crash(&mut self, node: NodeId) {
        self.inner.crash(node);
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.inner.is_crashed(node)
    }

    fn break_qp(&mut self, qp: QpHandle) {
        self.inner.break_qp(qp);
    }

    fn profile(&self, node: NodeId) -> &HostProfile {
        self.inner.profile(node)
    }

    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        self.inner.posting_snapshot(qp)
    }

    fn set_recorder(&mut self, recorder: trace::Recorder) {
        self.inner.set_recorder(recorder);
    }

    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }

    fn cpu_report(&self, node: NodeId) -> CpuReport {
        self.inner.cpu_report(node)
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn set_scheduler(&mut self, scheduler: verbs::SharedScheduler) {
        self.inner.set_scheduler(scheduler);
    }
}

/// A transport the bench can run a workload on: bare or probed.
pub trait Backend: Transport + Sized {
    /// The boundary counters, when the transport is probed.
    fn counters(&self) -> Option<&Counters> {
        None
    }

    /// Tears the transport down, surfacing any socket error it saw.
    ///
    /// # Errors
    ///
    /// The first socket error a TCP fabric observed.
    fn close(self) -> io::Result<()>;
}

impl Backend for TcpFabric {
    fn close(self) -> io::Result<()> {
        self.shutdown()
    }
}

impl Backend for Fabric {
    fn close(self) -> io::Result<()> {
        // Dropping the fabric folds its kernel counters into
        // `verbs::perf`.
        drop(self);
        Ok(())
    }
}

impl<T: Backend> Backend for Timed<T> {
    fn counters(&self) -> Option<&Counters> {
        Some(&self.counters)
    }

    fn close(self) -> io::Result<()> {
        self.inner.close()
    }
}
