//! # rdmc-tcp — RDMC over real TCP sockets
//!
//! The paper's §5.3 observes that the binomial pipeline's slack should
//! make RDMC "work surprisingly well over high speed datacenter TCP
//! (with no RDMA)". This crate is that port, rebuilt as a
//! [`verbs::Transport`] backend: a **single nonblocking event loop**
//! (readiness-driven reads, scatter-gather `write_vectored` flushes,
//! per-connection buffer reuse — no thread per peer) that carries the
//! *entire* `rdmc-sim` orchestration stack unchanged. One public API,
//! two transports: everything built on
//! [`rdmc_sim::ClusterBuilder`] — groups, pacer
//! admission, epoch recovery, per-group reliability policies, the
//! flight recorder, the §4.6 close barrier — runs identically over the
//! simulated verbs fabric and over this backend, and the standing
//! `transport_equivalence` gate holds the two to bit-identical
//! per-channel projections of their flight recordings (one event per
//! engine input) and delivery digests.
//!
//! TCP provides what RDMC needs from RDMA's reliable connections:
//! in-order exactly-once delivery per connection and failure reporting
//! on break. The mapping:
//!
//! - a two-sided `post_send` becomes a framed write whose "hardware
//!   completion" ([`verbs::Delivery::SendDone`]) fires when the frame
//!   is fully flushed to the socket;
//! - a one-sided `post_write` becomes a framed write surfacing at the
//!   peer as [`verbs::Delivery::WriteArrived`];
//! - posted receives are a per-connection queue consumed in arrival
//!   order — a data frame that finds no posted receive is held and
//!   counted in [`verbs::FabricStats::rnr_arms`], keeping the §4.2
//!   zero-RNR discipline observable on real sockets too;
//! - a crashed node goes silent; peers detect it after the
//!   failure-detect interval and see their connections flush and break,
//!   exactly like the simulated NIC.
//!
//! All nodes live in one process (hundreds fit comfortably — the event
//! loop is O(connections) per poll with no thread switches), so tests
//! and benches launch whole clusters as a value:
//!
//! ```
//! use rdmc::Algorithm;
//! use rdmc_sim::GroupSpec;
//!
//! let mut cluster = rdmc_tcp::builder(4)?.build();
//! let group = cluster.create_group(GroupSpec {
//!     members: vec![0, 1, 2, 3],
//!     algorithm: Algorithm::BinomialPipeline,
//!     block_size: 64 << 10,
//!     ready_window: 2,
//!     max_outstanding_sends: 2,
//! });
//! cluster.submit_send(group, 256 << 10);
//! cluster.run();
//! assert!(cluster.destroy_group(group), "close barrier certifies delivery");
//! rdmc_tcp::shutdown(cluster)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rdmc_sim::{Cluster, ClusterBuilder};
use simnet::{HostProfile, SimDuration, SimTime};
use verbs::{
    CpuReport, Delivery, FabricStats, NodeId, PostingSnapshot, QpHandle, Transport, VerbsError,
    WaitSpec, WrId,
};

/// An RDMC cluster over the TCP backend (all nodes in one process).
pub type TcpCluster = Cluster<TcpFabric>;

/// Frame header: length (u32) + kind (u8) + wr_id (u64) + imm/tag (u64).
const HDR: usize = 4 + 1 + 8 + 8;
/// Two-sided send: `len` filler bytes, meta carries the immediate.
const KIND_SEND: u8 = 0;
/// One-sided write: `len` payload bytes, meta carries the region tag.
const KIND_WRITE: u8 = 1;

/// Shared zero filler for two-sided block payloads: RDMC's wire format
/// never inspects block *contents* (identity is positional, §4.2), so
/// sends stream this one reusable buffer instead of allocating per
/// block — the goodput on the wire is still real.
static FILLER: [u8; 64 << 10] = [0; 64 << 10];

/// How long a surviving endpoint takes to notice a crashed peer — the
/// TCP stand-in for the simulated fabric's failure-detect interval.
const FAILURE_DETECT: Duration = Duration::from_millis(1);

/// One queued outbound frame; header and payload flush via
/// scatter-gather writes and may be split across polls.
struct OutFrame {
    wr_id: WrId,
    two_sided: bool,
    header: [u8; HDR],
    hdr_sent: usize,
    payload: Payload,
    payload_sent: u64,
}

#[derive(Clone)]
enum Payload {
    /// A one-sided write's actual bytes.
    Bytes(Bytes),
    /// A two-sided send of this many filler bytes.
    Filler(u64),
}

impl Payload {
    fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Filler(n) => *n,
        }
    }
}

/// One endpoint of a connection: its socket half plus every per-side
/// queue (outbound frames, carry-over read bytes, posted receives,
/// held frames awaiting a receive) — all reused across messages.
struct Endpoint {
    node: usize,
    stream: TcpStream,
    out: VecDeque<OutFrame>,
    inbuf: Vec<u8>,
    recvs: VecDeque<(WrId, u64)>,
    /// Two-sided frames that arrived before a receive was posted
    /// (len, imm): held, not dropped — but counted as RNR arms.
    held: VecDeque<(u64, u64)>,
    /// Frames fully flushed into the socket.
    frames_sent: u64,
    /// Frames parsed out of the socket.
    frames_consumed: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Alive,
    /// One end crashed; the failure-detect break timer is armed. The
    /// dead end flushes nothing more; the live end still drains
    /// pre-crash data off the socket until the break fires.
    Dying,
    Broken,
}

struct Conn {
    eps: [Endpoint; 2],
    state: ConnState,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerEntry {
    /// Failure detection expired: break this connection.
    Break { conn: usize },
    /// A driver timer ([`Transport::schedule_timer`]).
    Driver { node: usize, token: u64 },
}

enum ReadStep {
    Eof,
    Got,
    Empty,
    Retry,
    Failed(io::Error),
}

enum ParseStep {
    NeedMore,
    Recv { wr_id: WrId, len: u64, imm: u64 },
    Held,
    RecvTooSmall,
    Write { tag: u64, payload: Bytes },
    Unknown(u8),
}

/// The TCP datapath: every node's sockets, one nonblocking event loop.
///
/// Implements [`Transport`], so [`rdmc_sim::ClusterBuilder`] drives it
/// exactly like the simulated fabric — see the crate docs. Create with
/// [`TcpFabric::launch`] (or [`builder`]); reclaim the sockets and
/// surface accumulated socket errors with [`TcpFabric::shutdown`].
pub struct TcpFabric {
    start: Instant,
    /// Loopback listener every connection handshakes through.
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<Conn>,
    crashed: Vec<bool>,
    ready: VecDeque<(SimTime, NodeId, Delivery)>,
    timers: BinaryHeap<Reverse<(u64, u64, TimerEntry)>>,
    timer_seq: u64,
    recorder: trace::Recorder,
    profile: HostProfile,
    rnr_arms: u64,
    /// Socket errors observed mid-run, surfaced by
    /// [`TcpFabric::shutdown`] instead of being unwrapped or leaked.
    io_errors: Vec<io::Error>,
    /// Reused read buffer (one per fabric, not per connection).
    scratch: Vec<u8>,
}

impl TcpFabric {
    /// Binds a loopback listener and readies `n` in-process nodes.
    /// Connections are established lazily as the protocol first pairs
    /// two nodes.
    ///
    /// # Errors
    ///
    /// Any socket error during bring-up.
    pub fn launch(n: usize) -> io::Result<TcpFabric> {
        assert!(n >= 1, "cluster needs at least one node");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        Ok(TcpFabric {
            start: Instant::now(),
            listener,
            addr,
            conns: Vec::new(),
            crashed: vec![false; n],
            ready: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            recorder: trace::Recorder::disabled(),
            profile: HostProfile::default(),
            rnr_arms: 0,
            io_errors: Vec::new(),
            scratch: vec![0; 256 << 10],
        })
    }

    /// Tears the fabric down: shuts down every socket and surfaces the
    /// first error observed — either mid-run (reads and writes never
    /// unwrap; errors are recorded and the connection broken) or during
    /// the shutdown itself. The listener and all streams close on drop
    /// regardless, so repeated launch/shutdown cycles in one process
    /// stay clean.
    ///
    /// # Errors
    ///
    /// The first socket error the fabric observed.
    pub fn shutdown(mut self) -> io::Result<()> {
        for conn in &mut self.conns {
            if conn.state == ConnState::Broken {
                continue;
            }
            for ep in &mut conn.eps {
                if let Err(e) = ep.stream.shutdown(Shutdown::Both) {
                    if e.kind() != io::ErrorKind::NotConnected {
                        self.io_errors.push(e);
                    }
                }
            }
        }
        match self.io_errors.into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push_delivery(&mut self, node: usize, delivery: Delivery) {
        if self.crashed[node] {
            return; // dead software observes nothing
        }
        self.ready.push_back((
            SimTime::from_nanos(self.now_ns()),
            NodeId(node as u32),
            delivery,
        ));
    }

    /// Fires every timer due at or before `now` — *all* of them, before
    /// any later socket completion surfaces. This ordering is what the
    /// [`Transport`] contract's timers-before-I/O guarantee asks for:
    /// every failure-detect break for a crashed node (all armed at the
    /// same deadline) batches ahead of relayed-failure gossip.
    fn fire_due_timers(&mut self, now: u64) {
        while let Some(Reverse((deadline, _, _))) = self.timers.peek() {
            if *deadline > now {
                break;
            }
            let Reverse((_, _, entry)) = self.timers.pop().expect("peeked");
            match entry {
                TimerEntry::Break { conn } => {
                    // Pre-crash data the dead end already flushed is
                    // genuinely on the wire; deliver it before the
                    // break, matching the simulated fabric where a
                    // completed transfer is a delivered transfer.
                    self.drain_conn(conn);
                    self.break_conn_now(conn);
                }
                TimerEntry::Driver { node, token } => {
                    self.push_delivery(node, Delivery::Timer { token });
                }
            }
        }
    }

    /// Flushes queued frames with scatter-gather writes; emits
    /// send/write completions for frames that left the host entirely.
    /// Returns whether any bytes moved.
    fn flush_all(&mut self) -> bool {
        let mut progress = false;
        for ci in 0..self.conns.len() {
            if self.conns[ci].state != ConnState::Alive {
                continue; // a dying end's queued frames die with the break
            }
            for end in 0..2 {
                progress |= self.flush_endpoint(ci, end);
            }
        }
        progress
    }

    fn flush_endpoint(&mut self, ci: usize, end: usize) -> bool {
        let mut progress = false;
        loop {
            if self.conns[ci].state == ConnState::Broken {
                return progress;
            }
            // Snapshot the head frame's unflushed pieces (the header is
            // Copy; cloning Bytes is a refcount bump) so the gather
            // list doesn't hold a borrow across the socket write.
            let Some((header, hdr_sent, payload, payload_sent)) = self.conns[ci].eps[end]
                .out
                .front()
                .map(|f| (f.header, f.hdr_sent, f.payload.clone(), f.payload_sent))
            else {
                return progress;
            };
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2);
            if hdr_sent < HDR {
                slices.push(IoSlice::new(&header[hdr_sent..]));
            }
            let chunk: &[u8] = match &payload {
                Payload::Bytes(b) => &b[usize::try_from(payload_sent).expect("payload fits")..],
                Payload::Filler(n) => {
                    let take = (n - payload_sent).min(FILLER.len() as u64);
                    &FILLER[..take as usize]
                }
            };
            if !chunk.is_empty() {
                slices.push(IoSlice::new(chunk));
            }
            let wrote = if slices.is_empty() {
                0 // zero-length frame already fully flushed: complete it
            } else {
                match self.conns[ci].eps[end].stream.write_vectored(&slices) {
                    Ok(0) => {
                        self.break_conn_now(ci);
                        return true;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progress,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        self.io_errors.push(e);
                        self.break_conn_now(ci);
                        return true;
                    }
                }
            };
            progress |= wrote > 0;
            let done = {
                let frame = self.conns[ci].eps[end]
                    .out
                    .front_mut()
                    .expect("frame still queued");
                let hdr_take = wrote.min(HDR - frame.hdr_sent);
                frame.hdr_sent += hdr_take;
                frame.payload_sent += (wrote - hdr_take) as u64;
                frame.hdr_sent == HDR && frame.payload_sent == frame.payload.len()
            };
            if !done {
                continue; // partial write; the next write_vectored resumes
            }
            let (node, wr_id, two_sided) = {
                let ep = &mut self.conns[ci].eps[end];
                let frame = ep.out.pop_front().expect("completed frame");
                ep.frames_sent += 1;
                (ep.node, frame.wr_id, frame.two_sided)
            };
            let qp = QpHandle::from_parts(ci as u32, end as u8);
            let delivery = if two_sided {
                Delivery::SendDone { qp, wr_id }
            } else {
                Delivery::WriteDone { qp, wr_id }
            };
            self.push_delivery(node, delivery);
            progress = true;
        }
    }

    /// Drains readable sockets and parses complete frames into
    /// deliveries. Returns whether any bytes moved.
    fn read_all(&mut self) -> bool {
        let mut progress = false;
        for ci in 0..self.conns.len() {
            if self.conns[ci].state == ConnState::Broken {
                continue;
            }
            for end in 0..2 {
                if self.crashed[self.conns[ci].eps[end].node] {
                    continue; // dead software reads nothing
                }
                progress |= self.read_endpoint(ci, end);
            }
        }
        progress
    }

    /// Drains both live ends of one connection (used just before a
    /// failure-detect break fires).
    fn drain_conn(&mut self, ci: usize) {
        for end in 0..2 {
            if self.conns[ci].state == ConnState::Broken {
                return;
            }
            if !self.crashed[self.conns[ci].eps[end].node] {
                self.read_endpoint(ci, end);
            }
        }
    }

    fn read_endpoint(&mut self, ci: usize, end: usize) -> bool {
        let mut progress = false;
        loop {
            if self.conns[ci].state == ConnState::Broken {
                return progress;
            }
            let step = {
                let TcpFabric { conns, scratch, .. } = self;
                let ep = &mut conns[ci].eps[end];
                match ep.stream.read(scratch) {
                    Ok(0) => ReadStep::Eof,
                    Ok(n) => {
                        ep.inbuf.extend_from_slice(&scratch[..n]);
                        ReadStep::Got
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadStep::Empty,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => ReadStep::Retry,
                    Err(e) => ReadStep::Failed(e),
                }
            };
            match step {
                ReadStep::Eof => {
                    // Orderly close without a protocol-level break: the
                    // peer's socket died under us. A dying connection's
                    // EOF just waits for its break timer.
                    if self.conns[ci].state == ConnState::Alive {
                        self.break_conn_now(ci);
                        return true;
                    }
                    return progress;
                }
                ReadStep::Got => {
                    progress = true;
                    self.parse_frames(ci, end);
                }
                ReadStep::Empty => return progress,
                ReadStep::Retry => continue,
                ReadStep::Failed(e) => {
                    self.io_errors.push(e);
                    self.break_conn_now(ci);
                    return true;
                }
            }
        }
    }

    fn parse_frames(&mut self, ci: usize, end: usize) {
        loop {
            if self.conns[ci].state == ConnState::Broken {
                return;
            }
            let step = {
                let ep = &mut self.conns[ci].eps[end];
                if ep.inbuf.len() < HDR {
                    ParseStep::NeedMore
                } else {
                    let len =
                        u32::from_le_bytes(ep.inbuf[0..4].try_into().expect("4 bytes")) as usize;
                    if ep.inbuf.len() < HDR + len {
                        ParseStep::NeedMore
                    } else {
                        let kind = ep.inbuf[4];
                        let meta =
                            u64::from_le_bytes(ep.inbuf[13..21].try_into().expect("8 bytes"));
                        match kind {
                            KIND_SEND => {
                                ep.inbuf.drain(..HDR + len);
                                ep.frames_consumed += 1;
                                match ep.recvs.pop_front() {
                                    Some((wr_id, max_len)) if len as u64 <= max_len => {
                                        ParseStep::Recv {
                                            wr_id,
                                            len: len as u64,
                                            imm: meta,
                                        }
                                    }
                                    Some(_) => ParseStep::RecvTooSmall,
                                    None => {
                                        ep.held.push_back((len as u64, meta));
                                        ParseStep::Held
                                    }
                                }
                            }
                            KIND_WRITE => {
                                let payload = Bytes::copy_from_slice(&ep.inbuf[HDR..HDR + len]);
                                ep.inbuf.drain(..HDR + len);
                                ep.frames_consumed += 1;
                                ParseStep::Write { tag: meta, payload }
                            }
                            other => ParseStep::Unknown(other),
                        }
                    }
                }
            };
            let node = self.conns[ci].eps[end].node;
            let qp = QpHandle::from_parts(ci as u32, end as u8);
            match step {
                ParseStep::NeedMore => return,
                ParseStep::Recv { wr_id, len, imm } => {
                    self.push_delivery(
                        node,
                        Delivery::RecvDone {
                            qp,
                            wr_id,
                            len,
                            imm,
                        },
                    );
                }
                ParseStep::Held => {
                    // Receiver-not-ready: a real NIC would arm an RNR
                    // retry timer; we hold the frame but make the
                    // discipline violation observable in the stats.
                    self.rnr_arms += 1;
                }
                ParseStep::RecvTooSmall => {
                    // RDMA local-length error: the posted receive was
                    // too small, which breaks the connection.
                    self.break_conn_now(ci);
                    return;
                }
                ParseStep::Write { tag, payload } => {
                    self.push_delivery(node, Delivery::WriteArrived { qp, tag, payload });
                }
                ParseStep::Unknown(k) => {
                    self.io_errors.push(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown frame kind {k} on conn {ci}"),
                    ));
                    self.break_conn_now(ci);
                    return;
                }
            }
        }
    }

    /// Breaks a connection now: every outstanding work request at each
    /// *live* end is flushed in posting order (queued sends first, then
    /// posted receives), then the `QpBroken` notice lands, then the
    /// sockets shut down.
    fn break_conn_now(&mut self, ci: usize) {
        if self.conns[ci].state == ConnState::Broken {
            return;
        }
        self.conns[ci].state = ConnState::Broken;
        for end in 0..2 {
            let (node, out, recvs) = {
                let ep = &mut self.conns[ci].eps[end];
                let out: Vec<WrId> = ep.out.drain(..).map(|f| f.wr_id).collect();
                let recvs: Vec<WrId> = ep.recvs.drain(..).map(|(wr, _)| wr).collect();
                ep.held.clear();
                ep.inbuf.clear();
                let _ = ep.stream.shutdown(Shutdown::Both);
                (ep.node, out, recvs)
            };
            let qp = QpHandle::from_parts(ci as u32, end as u8);
            for wr_id in out {
                self.push_delivery(
                    node,
                    Delivery::WrFlushed {
                        qp,
                        wr_id,
                        recv: false,
                    },
                );
            }
            for wr_id in recvs {
                self.push_delivery(
                    node,
                    Delivery::WrFlushed {
                        qp,
                        wr_id,
                        recv: true,
                    },
                );
            }
            self.push_delivery(node, Delivery::QpBroken { qp });
        }
    }

    fn check_postable(&self, qp: QpHandle) -> Result<usize, VerbsError> {
        let conn = &self.conns[qp.conn_id() as usize];
        let node = conn.eps[usize::from(qp.endpoint())].node;
        if self.crashed[node] {
            return Err(VerbsError::NodeCrashed);
        }
        if conn.state == ConnState::Broken {
            return Err(VerbsError::QpBroken);
        }
        Ok(node)
    }

    fn encode_header(len: u64, kind: u8, wr_id: WrId, meta: u64) -> [u8; HDR] {
        let mut h = [0u8; HDR];
        h[0..4].copy_from_slice(
            &u32::try_from(len)
                .expect("frame len fits u32")
                .to_le_bytes(),
        );
        h[4] = kind;
        h[5..13].copy_from_slice(&wr_id.0.to_le_bytes());
        h[13..21].copy_from_slice(&meta.to_le_bytes());
        h
    }

    /// Quiescent when nothing is queued for software, nothing is
    /// buffered for the wire on a live connection, every flushed frame
    /// has been consumed by its peer, and no timer is armed that could
    /// still matter. Dying connections are deliberately *not* examined:
    /// their pending break timer keeps the loop alive until the failure
    /// is fully reported.
    fn quiescent(&self) -> bool {
        if !self.ready.is_empty() {
            return false;
        }
        for conn in &self.conns {
            if conn.state != ConnState::Alive {
                continue;
            }
            for (tx, rx) in [(0, 1), (1, 0)] {
                let tx = &conn.eps[tx];
                let rx = &conn.eps[rx];
                if !tx.out.is_empty() || tx.frames_sent != rx.frames_consumed {
                    return false;
                }
            }
        }
        self.timers
            .iter()
            .all(|Reverse((_, _, entry))| match entry {
                TimerEntry::Break { .. } => false,
                TimerEntry::Driver { node, .. } => self.crashed[*node],
            })
    }

    fn next_timer_deadline(&self) -> Option<u64> {
        self.timers.peek().map(|Reverse((d, _, _))| *d)
    }

    fn arm_timer(&mut self, deadline: u64, entry: TimerEntry) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((deadline, seq, entry)));
    }
}

impl Transport for TcpFabric {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns())
    }

    fn advance(&mut self) -> Option<(SimTime, NodeId, Delivery)> {
        loop {
            if let Some(d) = self.ready.pop_front() {
                self.recorder.set_now(d.0.as_nanos());
                return Some(d);
            }
            let now = self.now_ns();
            self.fire_due_timers(now);
            let wrote = self.flush_all();
            let read = self.read_all();
            if !self.ready.is_empty() {
                continue;
            }
            if self.quiescent() {
                return None;
            }
            if !wrote && !read {
                // Nothing moved: park until the next timer, or just
                // yield while the kernel shuttles loopback bytes.
                match self.next_timer_deadline() {
                    Some(deadline) if deadline > self.now_ns() => {
                        let wait = (deadline - self.now_ns()).min(1_000_000);
                        std::thread::sleep(Duration::from_nanos(wait));
                    }
                    _ => std::thread::yield_now(),
                }
            }
        }
    }

    fn connect(&mut self, a: NodeId, b: NodeId) -> (QpHandle, QpHandle) {
        // Inline handshake: this loop is the only caller, so the
        // connect and its accept pair up deterministically with no
        // identification handshake on the wire.
        let client = TcpStream::connect(self.addr).expect("loopback connect");
        let (server, _) = self.listener.accept().expect("loopback accept");
        for s in [&client, &server] {
            s.set_nodelay(true).expect("set_nodelay");
            s.set_nonblocking(true).expect("set_nonblocking");
        }
        let ci = self.conns.len();
        let mk = |node: usize, stream: TcpStream| Endpoint {
            node,
            stream,
            out: VecDeque::new(),
            inbuf: Vec::new(),
            recvs: VecDeque::new(),
            held: VecDeque::new(),
            frames_sent: 0,
            frames_consumed: 0,
        };
        self.conns.push(Conn {
            eps: [mk(a.index(), client), mk(b.index(), server)],
            state: ConnState::Alive,
        });
        // Connecting to an already-crashed peer: the connection comes up
        // but the dead side never answers, so failure detection starts
        // ticking immediately, exactly as for a crash after connect.
        if self.crashed[a.index()] || self.crashed[b.index()] {
            let deadline = self
                .now_ns()
                .saturating_add(u64::try_from(FAILURE_DETECT.as_nanos()).expect("small interval"));
            self.conns[ci].state = ConnState::Dying;
            self.arm_timer(deadline, TimerEntry::Break { conn: ci });
        }
        (
            QpHandle::from_parts(ci as u32, 0),
            QpHandle::from_parts(ci as u32, 1),
        )
    }

    fn post_send(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        bytes: u64,
        imm: u64,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        debug_assert!(wait_for.is_none(), "CORE-Direct chaining is sim-only");
        self.check_postable(qp)?;
        self.conns[qp.conn_id() as usize].eps[usize::from(qp.endpoint())]
            .out
            .push_back(OutFrame {
                wr_id,
                two_sided: true,
                header: Self::encode_header(bytes, KIND_SEND, wr_id, imm),
                hdr_sent: 0,
                payload: Payload::Filler(bytes),
                payload_sent: 0,
            });
        Ok(())
    }

    fn post_write(
        &mut self,
        qp: QpHandle,
        wr_id: WrId,
        tag: u64,
        payload: Bytes,
        wait_for: Option<WaitSpec>,
    ) -> Result<(), VerbsError> {
        debug_assert!(wait_for.is_none(), "CORE-Direct chaining is sim-only");
        self.check_postable(qp)?;
        self.conns[qp.conn_id() as usize].eps[usize::from(qp.endpoint())]
            .out
            .push_back(OutFrame {
                wr_id,
                two_sided: false,
                header: Self::encode_header(payload.len() as u64, KIND_WRITE, wr_id, tag),
                hdr_sent: 0,
                payload: Payload::Bytes(payload),
                payload_sent: 0,
            });
        Ok(())
    }

    fn post_recv(&mut self, qp: QpHandle, wr_id: WrId, max_len: u64) -> Result<(), VerbsError> {
        let node = self.check_postable(qp)?;
        let ci = qp.conn_id() as usize;
        let end = usize::from(qp.endpoint());
        // A held frame (arrived before any receive was posted) consumes
        // this receive immediately, in arrival order.
        let held = self.conns[ci].eps[end].held.pop_front();
        match held {
            Some((len, imm)) if len <= max_len => {
                self.push_delivery(
                    node,
                    Delivery::RecvDone {
                        qp,
                        wr_id,
                        len,
                        imm,
                    },
                );
            }
            Some(_) => self.break_conn_now(ci),
            None => self.conns[ci].eps[end].recvs.push_back((wr_id, max_len)),
        }
        Ok(())
    }

    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let deadline = self.now_ns().saturating_add(delay.as_nanos());
        self.arm_timer(
            deadline,
            TimerEntry::Driver {
                node: node.index(),
                token,
            },
        );
    }

    fn consume_cpu(&mut self, _node: NodeId, _dur: SimDuration) {
        // Real hosts charge their own CPUs.
    }

    fn crash(&mut self, node: NodeId) {
        let idx = node.index();
        if self.crashed[idx] {
            return;
        }
        self.crashed[idx] = true;
        // Deliveries already queued for the dead node vanish: dead
        // software observes nothing, per the Transport contract.
        self.ready.retain(|(_, n, _)| n.index() != idx);
        let deadline = self
            .now_ns()
            .saturating_add(u64::try_from(FAILURE_DETECT.as_nanos()).expect("small interval"));
        for ci in 0..self.conns.len() {
            if self.conns[ci].state != ConnState::Alive {
                continue;
            }
            if self.conns[ci].eps.iter().any(|ep| ep.node == idx) {
                // The dead side posts nothing more and its unflushed
                // frames die with it; the survivor notices at the
                // failure-detect deadline.
                for ep in &mut self.conns[ci].eps {
                    if ep.node == idx {
                        ep.out.clear();
                    }
                }
                self.conns[ci].state = ConnState::Dying;
                self.arm_timer(deadline, TimerEntry::Break { conn: ci });
            }
        }
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    fn break_qp(&mut self, qp: QpHandle) {
        self.break_conn_now(qp.conn_id() as usize);
    }

    fn profile(&self, _node: NodeId) -> &HostProfile {
        &self.profile
    }

    fn posting_snapshot(&self, qp: QpHandle) -> PostingSnapshot {
        let conn = &self.conns[qp.conn_id() as usize];
        let ep = &conn.eps[usize::from(qp.endpoint())];
        PostingSnapshot {
            queued_sends: ep.out.len(),
            send_inflight: false,
            posted_recvs: ep.recvs.len(),
            rnr_armed: !ep.held.is_empty(),
            rnr_remaining: 0,
            broken: conn.state == ConnState::Broken,
        }
    }

    fn set_recorder(&mut self, recorder: trace::Recorder) {
        recorder.set_now(self.now_ns());
        self.recorder = recorder;
    }

    fn stats(&self) -> FabricStats {
        FabricStats {
            rnr_arms: self.rnr_arms,
            ..FabricStats::default()
        }
    }

    fn cpu_report(&self, _node: NodeId) -> CpuReport {
        CpuReport::default()
    }

    fn num_nodes(&self) -> usize {
        self.crashed.len()
    }
}

impl std::fmt::Debug for TcpFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpFabric")
            .field("nodes", &self.crashed.len())
            .field("conns", &self.conns.len())
            .finish()
    }
}

/// Starts a [`ClusterBuilder`] over a freshly-launched `n`-node TCP
/// fabric — the one-line entry point mirroring
/// `ClusterBuilder::new(spec)` on the simulated side.
///
/// # Errors
///
/// Any socket error during bring-up.
pub fn builder(n: usize) -> io::Result<ClusterBuilder<TcpFabric>> {
    Ok(ClusterBuilder::from_transport(TcpFabric::launch(n)?))
}

/// Cleanly shuts a TCP-backed cluster down, surfacing any socket error
/// the run observed (see [`TcpFabric::shutdown`]).
///
/// # Errors
///
/// The first socket error the fabric observed.
pub fn shutdown(cluster: TcpCluster) -> io::Result<()> {
    cluster.into_transport().shutdown()
}
