//! Flow-level network model with max-min fair bandwidth sharing.
//!
//! A [`Flow`] is a bulk transfer of a known size across a path of
//! [`Link`]s. Whenever the set of active flows changes, affected flows'
//! rates are recomputed by *progressive filling*: repeatedly find the most
//! contended link, freeze all its flows at that link's fair share, remove
//! the frozen bandwidth, and continue. This is the classical max-min fair
//! allocation, and it is exactly the behaviour the RDMC paper attributes to
//! RDMA hardware ("RDMA apportions bandwidth fairly if there are several
//! active transfers in one NIC", §3) and to the oversubscribed Apt
//! top-of-rack switch (§5.2.2).
//!
//! The model deliberately ignores packetization: RDMC moves hundreds of
//! kilobytes to megabytes per block, so per-packet effects wash out, while
//! who-shares-which-link entirely determines the results the paper reports.
//!
//! # Performance model
//!
//! Four structural properties keep per-event cost sublinear in the number
//! of active flows:
//!
//! * **Path classes.** Flows with byte-identical paths form one *class*,
//!   and the allocator's sharing graph has classes, not flows, as nodes
//!   (a flow alone on its path is a class of one). Max-min gives
//!   same-path flows one rate and freezes them at the same bottleneck,
//!   so a multicast step that launches k same-route transfers costs one
//!   class visit per traversal instead of k. The grouping is exact: the
//!   fill re-rates a bottleneck's flows in start order and subtracts the
//!   fair share once per flow, so rates, byte totals, and event order are
//!   bit-identical to filling flow by flow.
//! * **Ripple-set reallocation.** Max-min allocations decompose over
//!   connected components of the class/link sharing graph: a link either
//!   carries only component flows or none, so water-filling restricted to
//!   the component reachable from the changed flow is *exact*, not an
//!   approximation. [`FlowNet::start_flow`] / [`FlowNet::complete_flow`] /
//!   [`FlowNet::abort_flow`] therefore re-run progressive filling only over
//!   that component, switching to full recomputation while ripples keep
//!   covering most of the active flows (the traversal would not pay for
//!   itself).
//! * **Completion heap.** Projected completion times live in a lazily
//!   invalidated min-heap keyed by `(time, slot, epoch)`. A flow's
//!   projected *absolute* completion instant is invariant while its rate is
//!   unchanged, so only flows whose rate actually changed in the last
//!   reallocation get a fresh entry; stale entries are skipped by a
//!   per-slot epoch check. [`FlowNet::next_completion`] is `O(log flows)`
//!   amortized instead of a scan of every active flow.
//! * **Boundary byte accounting.** Per-flow progress and per-link byte
//!   counters are materialized only at rate-change boundaries (each flow
//!   carries a `synced_at` watermark), making [`FlowNet::advance_to`] O(1).
//!
//! [`FlowNet`] does not own a clock. The caller advances it explicitly and
//! asks for the next flow completion, which makes it easy to embed in any
//! event loop (see the `verbs` crate).

use std::cmp::Reverse;
// `FlowNet::class_ids` is a pure interning table (get-or-insert by
// path, never iterated), so hash order cannot reach behavior.
#[allow(clippy::disallowed_types)]
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Index of a link in a [`FlowNet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub(crate) u32);

/// Identifier of an active flow (slot index + generation, so stale ids
/// never alias a reused slot).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(u64);

impl FlowId {
    fn new(slot: u32, generation: u32) -> Self {
        FlowId(u64::from(generation) << 32 | u64::from(slot))
    }

    /// The raw id, for correlating with flow events in a trace.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A unidirectional link with a capacity and a propagation latency.
#[derive(Clone, Debug)]
struct Link {
    /// Capacity in bits per second.
    capacity_bps: f64,
    /// One-way propagation latency contributed by this hop.
    latency: SimDuration,
    /// Payload bytes credited to this link at materialization boundaries.
    /// [`FlowNet::bytes_carried`] adds the still-unmaterialized progress of
    /// live flows on top of this.
    bytes_carried: f64,
    /// The link is a full-bisection aggregation hop that can never be the
    /// binding bottleneck; the allocator skips it during ripple traversal
    /// and water-filling. See [`FlowNet::set_link_transparent`].
    transparent: bool,
}

/// An active transfer.
#[derive(Clone, Debug)]
struct Flow {
    path: Vec<LinkId>,
    /// Bytes left as of `synced_at` (not as of `FlowNet::last_update`;
    /// progress between the two is implied by `rate_bps`).
    remaining_bytes: f64,
    /// Current max-min fair rate in bits per second.
    rate_bps: f64,
    /// Instant `remaining_bytes` was last materialized. Always a rate
    /// boundary: flows are materialized exactly when their rate changes.
    synced_at: SimTime,
    /// Position in the network's start order; the fill re-rates a
    /// bottleneck's flows in this order.
    seq: u64,
    /// The path class the flow belongs to.
    class: u32,
}

/// The live flows sharing one byte-identical path. Classes are
/// append-only (one per distinct path ever started); a class with no
/// live member is *dead* and absent from every link's adjacency.
#[derive(Clone, Debug)]
struct PathClass {
    path: Vec<LinkId>,
    /// `(slot, generation)` of the members in start order. Entries of
    /// removed flows go stale in place and are compacted once they
    /// outnumber live ones; the list is cleared when the class dies.
    members: Vec<(u32, u32)>,
    /// Live-member count.
    live: u32,
    /// The rate every member runs at, or NaN while a member that joined
    /// since the class last froze may run at another. A fill that freezes
    /// the class at this same rate re-rates nobody, so it skips the
    /// members outright.
    rate_bps: f64,
}

/// Remaining bytes below this threshold count as "done" (absorbs float
/// rounding from rate changes).
const COMPLETION_EPSILON_BYTES: f64 = 1e-6;

/// Reallocation performance counters; see [`FlowNet::realloc_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReallocStats {
    /// Reallocations performed.
    pub count: u64,
    /// Reallocations that recomputed every flow (full mode) because
    /// recent ripple components covered most of the network.
    pub full: u64,
    /// Wall-clock nanoseconds spent reallocating.
    pub nanos: u64,
    /// Flows visited (size of each ripple component, summed).
    pub flows_visited: u64,
    /// Bottleneck-heap pushes performed while water-filling.
    pub heap_pushes: u64,
    /// Flows whose rate actually changed (each one costs a completion-heap
    /// push; the rest keep their projected completion time).
    pub rate_changes: u64,
    /// Links visited by ripple traversals and full scans, summed — the
    /// "ripple link-visits" figure the scale benchmarks track per event.
    pub link_visits: u64,
    /// Flow starts/removals that piggybacked on an already-pending
    /// deferred reallocation (same-instant coalescing): each one is a
    /// recomputation that never ran.
    pub coalesced: u64,
    /// Projection-heap compactions (sweeps of stale completion entries).
    pub heap_compactions: u64,
}

/// A set of links plus the active flows crossing them.
///
/// # Examples
///
/// ```
/// use simnet::{FlowNet, SimTime};
///
/// let mut net = FlowNet::new();
/// let l = net.add_link(10.0, simnet::SimDuration::from_micros(1)); // 10 Gb/s
/// let f = net.start_flow(SimTime::ZERO, vec![l], 1_250_000.0); // 1.25 MB
/// // Alone on a 10 Gb/s link, 1.25 MB takes 1 ms.
/// let (t, done) = net.next_completion().unwrap();
/// assert_eq!(done, f);
/// assert_eq!(t.as_nanos(), 1_000_000);
/// ```
pub struct FlowNet {
    links: Vec<Link>,
    /// Slab of flow slots; `None` = free. Slot reuse is disambiguated by
    /// the generation embedded in [`FlowId`].
    slots: Vec<Option<Flow>>,
    generations: Vec<u32>,
    free_slots: Vec<u32>,
    active_flows: usize,
    /// Flows ever started; the next flow's [`Flow::seq`].
    started: u64,
    /// Instant the network clock last advanced to.
    last_update: SimTime,
    /// Path → class id. Lookup-only (never iterated); see the import
    /// note.
    #[allow(clippy::disallowed_types)]
    class_ids: HashMap<Vec<LinkId>, u32>,
    classes: Vec<PathClass>,
    /// Per-class epoch, bumped whenever the class dies, invalidating its
    /// entries in the per-link adjacency. Dense (apart from `classes`)
    /// because adjacency scans read it for every entry.
    class_epoch: Vec<u32>,
    /// Per-link `(class, epoch)` of the live classes crossing it. A class
    /// joins when its first member starts; its entries go stale when it
    /// dies and are compacted whenever a traversal walks the link, or at
    /// class death once a list outgrows twice the link's live flows.
    link_classes: Vec<Vec<(u32, u32)>>,
    /// Per-link count of live flows, maintained incrementally at flow
    /// start/removal. Lets the full-recompute path skip adjacency
    /// traversal entirely.
    link_live: Vec<u32>,
    /// Recent recomputations rippled across (nearly) the whole network,
    /// so the traversal is skipped in favor of a linear scan over the
    /// links. Re-probed with a real traversal every 64th reallocation,
    /// which flips the mode back off if components shrank.
    full_mode: bool,
    /// The last ripple traversal covered most active flows. Full mode
    /// latches only on two such ripples in a row, so a single burst of
    /// independent same-instant starts (whose seeds alone cover the
    /// network) does not switch it on.
    wide_ripple: bool,
    /// Min-heap of projected completions `(time_ns, slot, epoch)` with
    /// lazy invalidation: an entry is live iff the slot is occupied and
    /// its epoch matches `rate_epoch[slot]`. Exactly one live entry
    /// exists per active flow.
    completions: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// Bumped whenever a slot's rate changes or the slot is freed,
    /// invalidating its completion-heap entries.
    rate_epoch: Vec<u32>,
    stats: ReallocStats,
    /// Reusable traversal + water-filling scratch (avoids re-allocating
    /// on every rate recomputation).
    scratch: ReallocScratch,
    /// A reallocation is pending for the links accumulated in
    /// `scratch.frontier`. Same-instant starts and removals coalesce into
    /// one recomputation, flushed before anything observes a rate or the
    /// clock moves (rates are exact piecewise between instants either
    /// way, since no time passes while changes are pending).
    dirty: bool,
    /// The pending changes include an added flow. Added contention can
    /// only lower rates, so stale completion projections may be too
    /// early and [`FlowNet::next_due`] must flush before answering.
    dirty_start: bool,
    /// Flight recorder for flow start/rate-change/finish events;
    /// disabled (a single branch per event) by default.
    recorder: trace::Recorder,
}

#[derive(Default)]
struct ReallocScratch {
    /// Per-link residual capacity while water-filling.
    residual: Vec<f64>,
    /// Per-link unfrozen-flow count while water-filling.
    count: Vec<u32>,
    /// Links in the current ripple component (to reset sparsely).
    touched: Vec<u32>,
    /// Recycled storage for the sorted `(share key, link)` bottleneck
    /// candidates.
    sorted_buf: Vec<(u64, u32)>,
    /// Recycled backing storage for the stale-requeue min-heap.
    requeue_buf: Vec<Reverse<(u64, u32)>>,
    /// Epoch-stamped visited marks for the ripple traversal.
    link_mark: Vec<u32>,
    class_mark: Vec<u32>,
    mark: u32,
    /// BFS frontier of link indices; callers seed it with the changed
    /// flow's path before invoking `reallocate`.
    frontier: Vec<u32>,
    /// Epoch-stamped "frozen in the current fill" marks, indexed by class.
    class_frozen: Vec<u32>,
    /// `(seq, slot)` of the flows re-rated at the current bottleneck.
    re_rated: Vec<(u64, u32)>,
    /// Slots whose rate actually changed in the current fill.
    changed: Vec<u32>,
}

impl Default for FlowNet {
    fn default() -> Self {
        Self::new()
    }
}

/// Brings `slot`'s progress current to `now`, crediting the moved bytes to
/// every link on its path. Free function over split borrows so callers can
/// hold other `FlowNet` fields.
fn materialize_slot(slots: &mut [Option<Flow>], links: &mut [Link], now: SimTime, slot: usize) {
    let f = slots[slot].as_mut().expect("materializing a free slot");
    let dt = now.since(f.synced_at).as_secs_f64();
    if dt > 0.0 {
        let moved = (f.rate_bps / 8.0 * dt).min(f.remaining_bytes);
        f.remaining_bytes -= moved;
        for l in &f.path {
            links[l.0 as usize].bytes_carried += moved;
        }
    }
    f.synced_at = now;
}

impl FlowNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        FlowNet {
            links: Vec::new(),
            slots: Vec::new(),
            generations: Vec::new(),
            free_slots: Vec::new(),
            active_flows: 0,
            started: 0,
            last_update: SimTime::ZERO,
            class_ids: Default::default(),
            classes: Vec::new(),
            class_epoch: Vec::new(),
            link_classes: Vec::new(),
            link_live: Vec::new(),
            full_mode: false,
            wide_ripple: false,
            completions: BinaryHeap::new(),
            rate_epoch: Vec::new(),
            stats: ReallocStats::default(),
            scratch: ReallocScratch::default(),
            dirty: false,
            dirty_start: false,
            recorder: trace::Recorder::disabled(),
        }
    }

    /// Attaches a flight recorder; flow starts, rate changes, and
    /// completions are recorded from then on.
    pub fn set_recorder(&mut self, recorder: trace::Recorder) {
        self.recorder = recorder;
    }

    /// Marks `link` as a *transparent* aggregation hop: the caller
    /// guarantees its capacity is at least the sum of the capacities of
    /// the edge links feeding flows into it (full bisection), so it can
    /// never be the strictly binding bottleneck of a max-min allocation.
    /// The allocator then skips it during ripple traversal and
    /// water-filling — a rate change on one edge link no longer ripples
    /// through the aggregation tier into disjoint pods. The exclusion is
    /// exact, not an approximation: a never-binding link's fair share is
    /// always at least the minimum share of its feeders, and in the tie
    /// case every involved share is equal, so progressive filling with or
    /// without the link assigns identical rates.
    ///
    /// Latency and byte accounting are unaffected: the link still
    /// contributes to [`FlowNet::path_latency`] and
    /// [`FlowNet::bytes_carried`], and the differential oracle
    /// ([`FlowNet::max_min_reference`]) keeps filling over it, so the
    /// equivalence is continuously tested.
    ///
    /// # Panics
    ///
    /// Panics if flows already cross the link (mark topology up front).
    pub fn set_link_transparent(&mut self, link: LinkId) {
        let i = link.0 as usize;
        assert_eq!(
            self.link_live[i], 0,
            "cannot make a loaded link transparent"
        );
        self.links[i].transparent = true;
    }

    /// Runs the deferred reallocation, if one is pending.
    fn flush(&mut self) {
        if self.dirty {
            self.dirty = false;
            self.dirty_start = false;
            self.reallocate();
        }
    }

    /// Adds a unidirectional link of `capacity_gbps` gigabits per second
    /// with the given one-way propagation latency, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_gbps` is not strictly positive and finite.
    pub fn add_link(&mut self, capacity_gbps: f64, latency: SimDuration) -> LinkId {
        assert!(
            capacity_gbps.is_finite() && capacity_gbps > 0.0,
            "link capacity must be positive, got {capacity_gbps}"
        );
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link {
            capacity_bps: capacity_gbps * 1e9,
            latency,
            bytes_carried: 0.0,
            transparent: false,
        });
        self.link_classes.push(Vec::new());
        self.link_live.push(0);
        id
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of active flows.
    pub fn num_flows(&self) -> usize {
        self.active_flows
    }

    fn get(&self, id: FlowId) -> Option<&Flow> {
        let slot = id.slot();
        if slot < self.slots.len() && self.generations[slot] == id.generation() {
            self.slots[slot].as_ref()
        } else {
            None
        }
    }

    /// Sum of one-way propagation latencies along `path`.
    ///
    /// # Panics
    ///
    /// Panics if any link id is out of range.
    pub fn path_latency(&self, path: &[LinkId]) -> SimDuration {
        path.iter().fold(SimDuration::ZERO, |acc, l| {
            acc + self.links[l.0 as usize].latency
        })
    }

    /// Total payload bytes carried by `link` up to the current instant,
    /// including the not-yet-materialized progress of live flows (summed
    /// in start order).
    pub fn bytes_carried(&self, link: LinkId) -> f64 {
        let i = link.0 as usize;
        let mut pending: Vec<(u64, f64)> = Vec::new();
        for &(cid, epoch) in &self.link_classes[i] {
            if self.class_epoch[cid as usize] != epoch {
                continue; // stale entry of a dead class
            }
            for &(slot, generation) in &self.classes[cid as usize].members {
                let s = slot as usize;
                if self.generations[s] != generation {
                    continue; // stale member of a removed flow
                }
                let f = self.slots[s].as_ref().expect("live member");
                let dt = self.last_update.since(f.synced_at).as_secs_f64();
                pending.push((f.seq, (f.rate_bps / 8.0 * dt).min(f.remaining_bytes)));
            }
        }
        pending.sort_unstable_by_key(|&(seq, _)| seq);
        pending
            .iter()
            .fold(self.links[i].bytes_carried, |total, &(_, moved)| {
                total + moved
            })
    }

    /// Starts a flow of `bytes` across `path` at time `now` and returns its
    /// id. Rates are recomputed for the flow's ripple component.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty, `bytes` is negative, or `now` precedes a
    /// previous update (time must move forward).
    pub fn start_flow(&mut self, now: SimTime, path: Vec<LinkId>, bytes: f64) -> FlowId {
        assert!(!path.is_empty(), "flow path must contain at least one link");
        assert!(bytes >= 0.0, "flow size must be non-negative, got {bytes}");
        for l in &path {
            assert!((l.0 as usize) < self.links.len(), "unknown link {l:?}");
        }
        assert!(
            path.iter().any(|l| !self.links[l.0 as usize].transparent),
            "flow path must cross at least one non-transparent link"
        );
        self.advance_to(now);
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.generations.push(0);
                self.rate_epoch.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        self.active_flows += 1;
        let generation = self.generations[slot as usize];
        let id = FlowId::new(slot, generation);
        if self.dirty {
            self.stats.coalesced += 1;
        }
        let mut frontier = std::mem::take(&mut self.scratch.frontier);
        for l in &path {
            let li = l.0 as usize;
            self.link_live[li] += 1;
            if !self.links[li].transparent {
                frontier.push(l.0);
            }
        }
        let cid = match self.class_ids.get(&path) {
            Some(&c) => c,
            None => {
                let c = u32::try_from(self.classes.len()).expect("too many path classes");
                self.class_ids.insert(path.clone(), c);
                self.classes.push(PathClass {
                    path: path.clone(),
                    members: Vec::new(),
                    live: 0,
                    rate_bps: f64::NAN,
                });
                self.class_epoch.push(0);
                c
            }
        };
        let class = &mut self.classes[cid as usize];
        if class.live == 0 {
            // The class comes (back) to life on every link it crosses.
            let epoch = self.class_epoch[cid as usize];
            for l in &path {
                self.link_classes[l.0 as usize].push((cid, epoch));
            }
        }
        class.live += 1;
        class.members.push((slot, generation));
        class.rate_bps = f64::NAN;
        self.slots[slot as usize] = Some(Flow {
            path,
            remaining_bytes: bytes.max(COMPLETION_EPSILON_BYTES / 2.0),
            rate_bps: 0.0,
            synced_at: now,
            seq: self.started,
            class: cid,
        });
        self.started += 1;
        self.scratch.frontier = frontier;
        // Defer the recomputation: the new flow carries nothing until the
        // flush, which happens before any rate is observed or time moves.
        self.dirty = true;
        self.dirty_start = true;
        self.recorder
            .record_at(now.as_nanos(), trace::Scope::none(), || {
                trace::EventKind::FlowStarted {
                    flow: id.as_u64(),
                    bytes: bytes as u64,
                }
            });
        id
    }

    /// Current max-min rate of `flow` in bits per second, or `None` if the
    /// flow is finished/unknown. Flushes any deferred reallocation first.
    pub fn flow_rate_bps(&mut self, flow: FlowId) -> Option<f64> {
        self.flush();
        self.get(flow).map(|f| f.rate_bps)
    }

    /// The earliest `(time, flow)` completion under current rates, if any
    /// flows are active.
    ///
    /// Peeks the projected-completion heap, discarding entries invalidated
    /// by rate changes or flow removal. The returned time is rounded up to
    /// a whole nanosecond strictly after the current instant when any
    /// bytes remain, guaranteeing forward progress.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        self.flush();
        self.peek_completion()
    }

    /// The earliest completion due at or before `now`, or `None` if no
    /// flow is due yet.
    ///
    /// Unlike [`FlowNet::next_completion`] this tolerates a deferred
    /// reallocation made up purely of removals: removals only *raise* the
    /// surviving rates, so the stale projections are upper bounds and an
    /// entry already due under them is certainly due under the exact
    /// rates. (Flows that only *became* due surface once the caller
    /// flushes, e.g. via `next_completion` — at the same instant, so
    /// nothing completes late.) Pending added flows force the flush,
    /// since extra contention could make a stale projection too early.
    pub fn next_due(&mut self, now: SimTime) -> Option<(SimTime, FlowId)> {
        if self.dirty_start {
            self.flush();
        }
        let (t, id) = self.peek_completion()?;
        (t <= now).then_some((t, id))
    }

    fn peek_completion(&mut self) -> Option<(SimTime, FlowId)> {
        loop {
            let &Reverse((time_ns, slot, epoch)) = self.completions.peek()?;
            let s = slot as usize;
            let Some(f) = self.slots[s].as_ref() else {
                self.completions.pop();
                continue;
            };
            if self.rate_epoch[s] != epoch {
                self.completions.pop();
                continue;
            }
            let id = FlowId::new(slot, self.generations[s]);
            let mut at = SimTime::from_nanos(time_ns).max(self.last_update);
            let elapsed = self.last_update.since(f.synced_at).as_secs_f64();
            let remaining_now = f.remaining_bytes - f.rate_bps / 8.0 * elapsed;
            if remaining_now > COMPLETION_EPSILON_BYTES && at == self.last_update {
                at += SimDuration::from_nanos(1);
            }
            return Some((at, id));
        }
    }

    /// Marks `flow` complete at time `now`, removes it, and recomputes the
    /// rates of its ripple component. Returns the flow's path (useful for
    /// latency lookups by the caller).
    ///
    /// # Panics
    ///
    /// Panics if the flow does not exist or if a non-negligible number of
    /// bytes would still be outstanding at `now` (i.e. the caller completed
    /// it too early — a scheduling bug).
    pub fn complete_flow(&mut self, now: SimTime, flow: FlowId) -> Vec<LinkId> {
        self.advance_to(now);
        assert!(self.get(flow).is_some(), "completing unknown flow");
        materialize_slot(&mut self.slots, &mut self.links, now, flow.slot());
        let f = self.remove(flow).expect("completing unknown flow");
        // Tolerance scales with rate: one microsecond of transfer at the
        // flow's final rate absorbs the rounding of the ns-quantized clock.
        let tolerance = (f.rate_bps / 8.0) * 1e-6 + COMPLETION_EPSILON_BYTES;
        assert!(
            f.remaining_bytes <= tolerance,
            "flow {flow:?} completed early: {} bytes remaining (tolerance {tolerance})",
            f.remaining_bytes
        );
        self.reallocate_after_removal(&f.path);
        self.recorder
            .record_at(now.as_nanos(), trace::Scope::none(), || {
                trace::EventKind::FlowFinished {
                    flow: flow.as_u64(),
                    aborted: false,
                }
            });
        f.path
    }

    /// Aborts `flow` at time `now` without requiring it to have finished
    /// (e.g. the sending endpoint crashed). Progress up to `now` still
    /// counts toward link byte totals. Unknown flows are a silent no-op so
    /// callers don't need to track completion races.
    pub fn abort_flow(&mut self, now: SimTime, flow: FlowId) {
        self.advance_to(now);
        if self.get(flow).is_none() {
            return;
        }
        materialize_slot(&mut self.slots, &mut self.links, now, flow.slot());
        let f = self.remove(flow).expect("checked above");
        self.reallocate_after_removal(&f.path);
        self.recorder
            .record_at(now.as_nanos(), trace::Scope::none(), || {
                trace::EventKind::FlowFinished {
                    flow: flow.as_u64(),
                    aborted: true,
                }
            });
    }

    fn reallocate_after_removal(&mut self, path: &[LinkId]) {
        if self.dirty {
            self.stats.coalesced += 1;
        }
        let links = &self.links;
        self.scratch.frontier.extend(
            path.iter()
                .filter(|l| !links[l.0 as usize].transparent)
                .map(|l| l.0),
        );
        self.dirty = true;
    }

    fn remove(&mut self, id: FlowId) -> Option<Flow> {
        let slot = id.slot();
        if slot >= self.slots.len() || self.generations[slot] != id.generation() {
            return None;
        }
        let f = self.slots[slot].take()?;
        self.generations[slot] = self.generations[slot].wrapping_add(1);
        self.rate_epoch[slot] = self.rate_epoch[slot].wrapping_add(1);
        self.free_slots.push(slot as u32);
        self.active_flows -= 1;
        for l in &f.path {
            self.link_live[l.0 as usize] -= 1;
        }
        // The member entry goes stale in place; compact the class once
        // stale entries outnumber live ones (amortized O(1)).
        let class = &mut self.classes[f.class as usize];
        class.live -= 1;
        if class.live > 0 {
            if class.members.len() > 2 * class.live as usize + 8 {
                let generations = &self.generations;
                class.members.retain(|&(s, g)| generations[s as usize] == g);
            }
            return Some(f);
        }
        class.members.clear();
        // The class died: its adjacency entries go stale. Lists that no
        // traversal walks (transparent links, or any link in full mode)
        // are compacted here once they outgrow twice their link's live
        // flows (amortized O(1)).
        let epochs = &mut self.class_epoch;
        epochs[f.class as usize] = epochs[f.class as usize].wrapping_add(1);
        for l in &f.path {
            let li = l.0 as usize;
            if self.link_classes[li].len() > 2 * self.link_live[li] as usize + 8 {
                self.link_classes[li].retain(|&(c, e)| epochs[c as usize] == e);
            }
        }
        Some(f)
    }

    /// Advances the network clock to `now` (monotone; `now` may equal the
    /// previous update instant). O(1) when nothing is pending: flow
    /// progress and link byte totals are implied by rates and
    /// materialized lazily at rate boundaries. A deferred reallocation is
    /// flushed at the *old* instant first, so the exact rates govern the
    /// whole interval being skipped over.
    pub fn advance_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "FlowNet time moved backwards: {now:?} < {:?}",
            self.last_update
        );
        if now > self.last_update {
            self.flush();
            self.last_update = now;
        }
    }

    /// Number of reallocations performed (performance counter).
    pub fn realloc_count(&self) -> u64 {
        self.stats.count
    }

    /// Wall-clock nanoseconds spent reallocating (performance counter).
    pub fn realloc_nanos(&self) -> u64 {
        self.stats.nanos
    }

    /// (total flows visited, total heap pushes) across reallocations.
    pub fn realloc_work(&self) -> (u64, u64) {
        (self.stats.flows_visited, self.stats.heap_pushes)
    }

    /// All reallocation performance counters.
    pub fn realloc_stats(&self) -> ReallocStats {
        self.stats
    }

    /// Reference max-min allocation, recomputed from scratch by textbook
    /// progressive filling over the whole network, in flow-slot order.
    ///
    /// This is the oracle the incremental allocator is differentially
    /// tested against; it shares no state or code with
    /// [`FlowNet::start_flow`]'s ripple reallocation. O(rounds × links ×
    /// flows) and allocating — test/diagnostic use only.
    pub fn max_min_reference(&self) -> Vec<(FlowId, f64)> {
        let n_links = self.links.len();
        let mut residual: Vec<f64> = self.links.iter().map(|l| l.capacity_bps).collect();
        let mut frozen: Vec<bool> = vec![false; self.slots.len()];
        let mut rates: Vec<f64> = vec![0.0; self.slots.len()];
        let mut unfrozen = self.active_flows;
        while unfrozen > 0 {
            // Fair share of each link over its unfrozen flows.
            let mut counts = vec![0u32; n_links];
            for (s, f) in self.slots.iter().enumerate() {
                let Some(f) = f else { continue };
                if frozen[s] {
                    continue;
                }
                for l in &f.path {
                    counts[l.0 as usize] += 1;
                }
            }
            let bottleneck = (0..n_links)
                .filter(|&i| counts[i] > 0)
                .min_by(|&a, &b| {
                    let sa = residual[a] / counts[a] as f64;
                    let sb = residual[b] / counts[b] as f64;
                    sa.partial_cmp(&sb).expect("finite shares").then(a.cmp(&b))
                })
                .expect("unfrozen flows but no loaded link");
            let share = residual[bottleneck] / counts[bottleneck] as f64;
            for (s, f) in self.slots.iter().enumerate() {
                let Some(f) = f else { continue };
                if frozen[s] || !f.path.iter().any(|l| l.0 as usize == bottleneck) {
                    continue;
                }
                frozen[s] = true;
                rates[s] = share;
                unfrozen -= 1;
                for l in &f.path {
                    let j = l.0 as usize;
                    residual[j] = (residual[j] - share).max(0.0);
                }
            }
        }
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(s, f)| {
                f.as_ref()
                    .map(|_| (FlowId::new(s as u32, self.generations[s]), rates[s]))
            })
            .collect()
    }

    /// Ripple traversal: visit every link reachable from the seed
    /// frontier through live path classes, compacting each visited link's
    /// class list and building the water-filling state (residual
    /// capacity, unfrozen flow count) as a side effect. Per-link counts
    /// are *flow* counts: fair shares divide by flows, not classes.
    /// Returns the number of live flows in the component.
    fn ripple_traversal(&mut self, scratch: &mut ReallocScratch, mark: u32) -> usize {
        let mut flows = 0;
        let mut qi = 0;
        while qi < scratch.frontier.len() {
            let li = scratch.frontier[qi] as usize;
            qi += 1;
            if scratch.link_mark[li] == mark {
                continue;
            }
            scratch.link_mark[li] = mark;
            scratch.touched.push(li as u32);
            scratch.residual[li] = self.links[li].capacity_bps;
            scratch.count[li] = 0;
            // Compact the adjacency list in place while enumerating it.
            let mut list = std::mem::take(&mut self.link_classes[li]);
            list.retain(|&(cid, epoch)| {
                let c = cid as usize;
                if self.class_epoch[c] != epoch {
                    return false; // stale: the class died since
                }
                let class = &self.classes[c];
                let live = class.live;
                scratch.count[li] += live;
                if scratch.class_mark[c] != mark {
                    scratch.class_mark[c] = mark;
                    flows += live as usize;
                    for l in &class.path {
                        let j = l.0 as usize;
                        if !self.links[j].transparent && scratch.link_mark[j] != mark {
                            scratch.frontier.push(l.0);
                        }
                    }
                }
                true
            });
            self.link_classes[li] = list;
        }
        scratch.frontier.clear();
        flows
    }

    /// Recomputes rates by progressive filling (max-min fairness) over the
    /// ripple component seeded from `scratch.frontier`, implemented as
    /// heap-based water-filling.
    ///
    /// The traversal walks the class/link sharing graph from the seed
    /// links and collects the connected component; restricting
    /// water-filling to it is exact because no bandwidth crosses
    /// component boundaries. Once two ripples in a row cover most active
    /// flows the allocator flips into full mode: the traversal is skipped
    /// outright and the fill starts from every loaded link, with counts
    /// taken from the incrementally-maintained per-link live counts
    /// (counted in [`ReallocStats::full`]). A full recomputation is
    /// always exact, so the mode switch is purely a performance decision
    /// and cannot change the allocation.
    ///
    /// Within the fill, bottleneck candidates are consumed in ascending
    /// `(fair share, link)` order from a pre-sorted array, with lazy
    /// invalidation: freezing the bottleneck's flows only *raises* the
    /// shares of the links they crossed, so a stale (too-low) entry is
    /// detected on consumption and requeued at its current share via a
    /// small overflow heap. Total work is `O(component path length +
    /// links log links)` per recomputation.
    ///
    /// Flows whose rate actually changed get a fresh projected-completion
    /// entry; unchanged flows keep theirs (their absolute completion
    /// instant is rate- and progress-invariant between rate boundaries).
    fn reallocate(&mut self) {
        let t0 = std::time::Instant::now();
        self.stats.count += 1;
        let num_links = self.links.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        if scratch.count.len() < num_links {
            scratch.residual.resize(num_links, 0.0);
            scratch.count.resize(num_links, 0);
            scratch.link_mark.resize(num_links, 0);
        }
        if scratch.class_mark.len() < self.classes.len() {
            scratch.class_mark.resize(self.classes.len(), 0);
            scratch.class_frozen.resize(self.classes.len(), 0);
        }
        if scratch.mark == u32::MAX {
            scratch.link_mark.fill(0);
            scratch.class_mark.fill(0);
            scratch.class_frozen.fill(0);
            scratch.mark = 0;
        }
        scratch.mark += 1;
        let mark = scratch.mark;
        scratch.changed.clear();
        scratch.touched.clear();

        // Phase 1: build the component and the water-filling state
        // (residual capacity, unfrozen count per link).
        //
        // In full mode the recent ripples covered (nearly) every flow, so
        // the traversal would just rediscover the whole network; instead
        // every loaded link joins the fill straight from the per-link live
        // counts, with no adjacency iteration at all. A real traversal
        // still runs every 64th reallocation to detect when components
        // shrink back below the threshold.
        let mut remaining = if self.full_mode && !self.stats.count.is_multiple_of(64) {
            self.stats.full += 1;
            scratch.frontier.clear();
            for li in 0..num_links {
                if self.link_live[li] > 0 && !self.links[li].transparent {
                    scratch.link_mark[li] = mark;
                    scratch.touched.push(li as u32);
                    scratch.residual[li] = self.links[li].capacity_bps;
                    scratch.count[li] = self.link_live[li];
                }
            }
            self.active_flows
        } else {
            let flows = self.ripple_traversal(&mut scratch, mark);
            // Enter full mode on the second wide ripple in a row, and stay
            // while probes keep finding wide ones. The absolute floor keeps
            // tiny components — which trivially cover "most" of a near-idle
            // network — from latching the mode on ahead of a ramp-up of
            // many independent small components.
            let wide = flows >= 128 && flows * 4 > self.active_flows * 3;
            self.full_mode = wide && self.wide_ripple;
            self.wide_ripple = wide;
            flows
        };
        self.stats.flows_visited += remaining as u64;
        self.stats.link_visits += scratch.touched.len() as u64;

        // Phase 2: heap-based water-filling over the component. f64 shares
        // are ordered through their bit pattern (finite, non-negative
        // values compare correctly as u64s). Freezing a bottleneck's flows
        // only *raises* the shares of the other links they crossed, so
        // every queued key is a lower bound on its link's current share:
        // instead of eagerly re-pushing each affected link per freeze
        // (O(flows x path) heap traffic), a popped entry is checked
        // against the authoritative share and lazily re-queued once if it
        // went stale.
        let share_key = |s: f64| -> u64 { s.to_bits() };
        let mut sorted = std::mem::take(&mut scratch.sorted_buf);
        sorted.clear();
        for &li in &scratch.touched {
            let i = li as usize;
            if scratch.count[i] > 0 {
                sorted.push((share_key(scratch.residual[i] / scratch.count[i] as f64), li));
            }
        }
        // One sort beats heapifying + popping: the initial candidates are
        // consumed in `(key, link)` order with O(1) advances, and only the
        // few entries that go stale pay for real heap operations. The
        // merged consumption order is identical to a single min-heap's, so
        // the freeze order (and tie-breaking) is unchanged.
        sorted.sort_unstable();
        let mut requeue_buf = std::mem::take(&mut scratch.requeue_buf);
        requeue_buf.clear();
        let mut requeue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::from(requeue_buf);
        let mut re_rated = std::mem::take(&mut scratch.re_rated);
        let mut idx = 0;
        let mut work_pushes: u64 = 0;
        while remaining > 0 {
            let (key, link) = match (sorted.get(idx), requeue.peek()) {
                (Some(&s), Some(&Reverse(r))) if s <= r => {
                    idx += 1;
                    s
                }
                (_, Some(&Reverse(r))) => {
                    requeue.pop();
                    r
                }
                (Some(&s), None) => {
                    idx += 1;
                    s
                }
                (None, None) => unreachable!("unfrozen flows but no bottleneck candidates"),
            };
            let i = link as usize;
            if scratch.count[i] == 0 {
                continue; // every flow on it froze via other bottlenecks
            }
            let share = scratch.residual[i] / scratch.count[i] as f64;
            let current = share_key(share);
            if current > key {
                // The share rose after this entry was queued; re-queue at
                // the current value and keep looking for the true minimum.
                work_pushes += 1;
                requeue.push(Reverse((current, link)));
                continue;
            }
            // Freeze every unfrozen class crossing the bottleneck (its
            // members share the path, so max-min freezes them together
            // here). The share is subtracted once per member flow, never
            // as one `share * live` product, so residuals round exactly as
            // flow-by-flow filling rounds them. Flows keep their prior
            // rate until frozen, so a flow whose allocation is unchanged
            // is never written at all: no materialization, no new
            // completion projection.
            re_rated.clear();
            for &(cid, epoch) in &self.link_classes[i] {
                let c = cid as usize;
                if self.class_epoch[c] != epoch || scratch.class_frozen[c] == mark {
                    continue; // the class died since, or froze via another link
                }
                scratch.class_frozen[c] = mark;
                let class = &mut self.classes[c];
                let live = class.live;
                remaining -= live as usize;
                if class.rate_bps.to_bits() != share.to_bits() {
                    class.rate_bps = share;
                    for &(slot, generation) in &class.members {
                        let s = slot as usize;
                        if self.generations[s] != generation {
                            continue; // stale member of a removed flow
                        }
                        let f = self.slots[s].as_ref().expect("live member");
                        if f.rate_bps.to_bits() != share.to_bits() {
                            re_rated.push((f.seq, slot));
                        }
                    }
                }
                for l in &class.path {
                    let j = l.0 as usize;
                    if self.links[j].transparent {
                        continue; // never part of the fill
                    }
                    debug_assert_eq!(
                        scratch.link_mark[j], mark,
                        "component class crosses an unvisited link"
                    );
                    scratch.count[j] -= live;
                    if scratch.count[j] == 0 {
                        continue; // the residual is never read again
                    }
                    for _ in 0..live {
                        scratch.residual[j] = (scratch.residual[j] - share).max(0.0);
                    }
                }
            }
            // Re-rate in start order, the order flow-by-flow filling
            // walks a link's flows in (each class contributed one run
            // already in that order, so one class sorts in linear time).
            // The rate switches at this boundary: bank the bytes moved at
            // the old rate before overwriting it.
            re_rated.sort_unstable();
            for &(_, slot) in &re_rated {
                let s = slot as usize;
                materialize_slot(&mut self.slots, &mut self.links, self.last_update, s);
                self.slots[s].as_mut().expect("live member").rate_bps = share;
                scratch.changed.push(slot);
            }
        }
        scratch.sorted_buf = sorted;
        scratch.requeue_buf = requeue.into_vec();
        scratch.re_rated = re_rated;
        self.stats.heap_pushes += work_pushes;

        // Phase 3: re-project completions for the flows whose rate
        // changed (materialized at the boundary during the fill, so the
        // projection runs from exact remaining bytes). Unchanged flows
        // keep their heap entry: with the same rate and linearly
        // decreasing remaining bytes, the projected absolute completion
        // instant is identical.
        for &slot in &scratch.changed {
            let s = slot as usize;
            let f = self.slots[s].as_ref().expect("live flow");
            self.stats.rate_changes += 1;
            if self.recorder.is_enabled() {
                let flow = FlowId::new(slot, self.generations[s]).as_u64();
                let gbps = f.rate_bps / 1e9;
                self.recorder
                    .record_at(self.last_update.as_nanos(), trace::Scope::none(), || {
                        trace::EventKind::FlowRateChanged { flow, gbps }
                    });
            }
            self.rate_epoch[s] = self.rate_epoch[s].wrapping_add(1);
            let secs = (f.remaining_bytes * 8.0) / f.rate_bps;
            let mut at = self.last_update + SimDuration::from_secs_f64(secs);
            if f.remaining_bytes > COMPLETION_EPSILON_BYTES && at == self.last_update {
                at += SimDuration::from_nanos(1);
            }
            self.completions
                .push(Reverse((at.as_nanos(), slot, self.rate_epoch[s])));
        }

        // Compact the projection heap once stale entries dominate. Rate
        // churn leaves one dead entry per re-projection, and popping them
        // lazily from a heap much larger than the live flow set costs a
        // cache miss per sift-down level; filtering keeps the heap
        // O(active flows) for amortized O(1) per push (a rebuild costs
        // one pass over entries that each paid for themselves on insert).
        if self.completions.len() > 4 * self.active_flows + 64 {
            self.stats.heap_compactions += 1;
            let mut entries = std::mem::take(&mut self.completions).into_vec();
            entries.retain(|&Reverse((_, slot, epoch))| {
                let s = slot as usize;
                self.rate_epoch[s] == epoch && self.slots[s].is_some()
            });
            self.completions = BinaryHeap::from(entries);
        }

        self.scratch = scratch;
        self.stats.nanos += t0.elapsed().as_nanos() as u64;
    }
}

impl fmt::Debug for FlowNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowNet")
            .field("links", &self.links.len())
            .field("flows", &self.active_flows)
            .field("last_update", &self.last_update)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(net: &mut FlowNet, cap: f64) -> LinkId {
        net.add_link(cap, SimDuration::from_micros(1))
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 100.0);
        let f = net.start_flow(SimTime::ZERO, vec![l], 125_000_000.0); // 125 MB = 1 Gb... at 100Gb/s -> 10ms
        assert_eq!(net.flow_rate_bps(f), Some(100e9));
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t.as_nanos(), 10_000_000);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let a = net.start_flow(SimTime::ZERO, vec![l], 1e6);
        let b = net.start_flow(SimTime::ZERO, vec![l], 1e6);
        assert_eq!(net.flow_rate_bps(a), Some(5e9));
        assert_eq!(net.flow_rate_bps(b), Some(5e9));
    }

    #[test]
    fn completion_frees_bandwidth_for_survivors() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let a = net.start_flow(SimTime::ZERO, vec![l], 1_250_000.0); // 1 ms at 10 Gb/s alone
        let b = net.start_flow(SimTime::ZERO, vec![l], 12_500_000.0);
        let (t1, first) = net.next_completion().unwrap();
        assert_eq!(first, a); // equal shares; a is smaller so finishes first
        net.complete_flow(t1, a);
        assert_eq!(net.flow_rate_bps(b), Some(10e9));
        let (t2, second) = net.next_completion().unwrap();
        assert_eq!(second, b);
        net.complete_flow(t2, b);
        assert_eq!(net.num_flows(), 0);
        // a: 2 ms at half rate. b: 1.25 MB moved in those 2 ms, remaining
        // 11.25 MB at full rate = 9 ms; total 11 ms.
        assert_eq!(t1.as_nanos(), 2_000_000);
        assert_eq!(t2.as_nanos(), 11_000_000);
    }

    #[test]
    fn max_min_is_not_just_equal_split() {
        // Flow A crosses a narrow link; flows B, C share a wide link with A's
        // exit. Max-min: A limited to 1 Gb/s by the narrow link; B and C
        // split the remainder of the wide link (4.5 each), not 10/3 each.
        let mut net = FlowNet::new();
        let narrow = gb(&mut net, 1.0);
        let wide = gb(&mut net, 10.0);
        let a = net.start_flow(SimTime::ZERO, vec![narrow, wide], 1e9);
        let b = net.start_flow(SimTime::ZERO, vec![wide], 1e9);
        let c = net.start_flow(SimTime::ZERO, vec![wide], 1e9);
        assert_eq!(net.flow_rate_bps(a), Some(1e9));
        assert_eq!(net.flow_rate_bps(b), Some(4.5e9));
        assert_eq!(net.flow_rate_bps(c), Some(4.5e9));
    }

    #[test]
    fn bytes_carried_accumulates() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let f = net.start_flow(SimTime::ZERO, vec![l], 1_250_000.0);
        let (t, _) = net.next_completion().unwrap();
        net.complete_flow(t, f);
        assert!((net.bytes_carried(l) - 1_250_000.0).abs() < 1.0);
    }

    #[test]
    fn bytes_carried_includes_unmaterialized_progress() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 8.0); // 1 GB/s
        let _f = net.start_flow(SimTime::ZERO, vec![l], 10_000_000.0);
        net.advance_to(SimTime::from_nanos(2_000_000)); // 2 ms -> 2 MB moved
        assert!((net.bytes_carried(l) - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn path_latency_sums_hops() {
        let mut net = FlowNet::new();
        let a = net.add_link(10.0, SimDuration::from_micros(2));
        let b = net.add_link(10.0, SimDuration::from_nanos(500));
        assert_eq!(net.path_latency(&[a, b]), SimDuration::from_nanos(2_500));
    }

    #[test]
    fn zero_byte_flow_completes_immediately_but_monotonically() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let f = net.start_flow(SimTime::from_nanos(100), vec![l], 0.0);
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!(t >= SimTime::from_nanos(100));
        net.complete_flow(t, f);
    }

    #[test]
    #[should_panic(expected = "path must contain")]
    fn empty_path_rejected() {
        let mut net = FlowNet::new();
        net.start_flow(SimTime::ZERO, vec![], 10.0);
    }

    #[test]
    #[should_panic(expected = "completed early")]
    fn early_completion_is_a_bug() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let f = net.start_flow(SimTime::ZERO, vec![l], 1e9);
        net.complete_flow(SimTime::from_nanos(10), f);
    }

    #[test]
    fn staggered_arrivals_update_progress_correctly() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 8.0); // 1 GB/s
        let a = net.start_flow(SimTime::ZERO, vec![l], 3_000_000.0); // 3 ms alone
                                                                     // After 1 ms, 1 MB moved; 2 MB left. Second flow arrives.
        let b = net.start_flow(SimTime::from_nanos(1_000_000), vec![l], 10_000_000.0);
        let _ = b;
        // a now runs at 0.5 GB/s: 2 MB takes 4 ms more -> completes at 5 ms.
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, a);
        assert_eq!(t.as_nanos(), 5_000_000);
    }

    #[test]
    fn ripple_reallocation_leaves_disjoint_flows_untouched() {
        // Two flows on link X, one on disjoint link Y. Churn on X must not
        // change Y's flow rate (nor its rate epoch, i.e. no heap churn).
        let mut net = FlowNet::new();
        let x = gb(&mut net, 10.0);
        let y = gb(&mut net, 10.0);
        let fy = net.start_flow(SimTime::ZERO, vec![y], 1e8);
        let changes_after_y = net.realloc_stats().rate_changes;
        let fx1 = net.start_flow(SimTime::ZERO, vec![x], 1e6);
        let _fx2 = net.start_flow(SimTime::ZERO, vec![x], 1e6);
        assert_eq!(net.flow_rate_bps(fy), Some(10e9));
        assert_eq!(net.flow_rate_bps(fx1), Some(5e9));
        net.abort_flow(SimTime::from_nanos(100), fx1);
        assert_eq!(net.flow_rate_bps(fy), Some(10e9));
        // Only X-side flows changed rate across the churn: fx1 alone at
        // 10e9, then fx1+fx2 at 5e9 each, then fx2 back to 10e9 on the
        // abort. fy never re-rates.
        assert_eq!(net.realloc_stats().rate_changes - changes_after_y, 4);
    }

    #[test]
    fn incremental_rates_match_reference_after_churn() {
        // Overlapping paths through a shared middle link, with staggered
        // arrivals, two same-path flows (one class), an abort, and a path
        // whose class dies and comes back: incremental rates must equal a
        // fresh full progressive filling at every step.
        let mut net = FlowNet::new();
        let l0 = gb(&mut net, 4.0);
        let mid = gb(&mut net, 10.0);
        let l2 = gb(&mut net, 6.0);
        let l3 = gb(&mut net, 3.0);
        let check = |net: &mut FlowNet| {
            for (id, want) in net.max_min_reference() {
                let got = net.flow_rate_bps(id).expect("oracle lists live flows");
                assert!(
                    (got - want).abs() <= want * 1e-9,
                    "flow {id:?}: incremental {got} vs reference {want}"
                );
            }
        };
        let mut flows = vec![
            net.start_flow(SimTime::ZERO, vec![l0, mid], 1e9),
            net.start_flow(SimTime::ZERO, vec![mid, l2], 1e9),
            net.start_flow(SimTime::ZERO, vec![mid, l2], 2e9), // same path as above
            net.start_flow(SimTime::ZERO, vec![l3], 1e9),
        ];
        check(&mut net);
        flows.push(net.start_flow(SimTime::from_nanos(50), vec![mid], 1e9));
        net.abort_flow(SimTime::from_nanos(90), flows[1]);
        check(&mut net);
        flows.push(net.start_flow(SimTime::from_nanos(120), vec![l2, mid, l0], 1e9));
        check(&mut net);
        // Path [l3] goes live -> dead -> live.
        net.abort_flow(SimTime::from_nanos(150), flows[3]);
        check(&mut net);
        flows.push(net.start_flow(SimTime::from_nanos(180), vec![l3], 1e9));
        let _ = net.start_flow(SimTime::from_nanos(180), vec![l3, mid], 1e9);
        check(&mut net);
        // Drain to empty: completions must all surface despite class
        // bookkeeping.
        while let Some((t, f)) = net.next_completion() {
            net.complete_flow(t, f);
            check(&mut net);
        }
        assert_eq!(net.num_flows(), 0);
    }

    #[test]
    fn completion_heap_survives_slot_reuse() {
        // Abort a flow, reuse its slot for a different-size flow, and make
        // sure the stale projection never surfaces.
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let a = net.start_flow(SimTime::ZERO, vec![l], 1_250_000.0); // would finish at 1 ms
        net.abort_flow(SimTime::from_nanos(10), a);
        let b = net.start_flow(SimTime::from_nanos(10), vec![l], 12_500_000.0);
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, b);
        assert_eq!(t.as_nanos(), 10_000_010);
        assert_eq!(net.flow_rate_bps(a), None);
    }

    #[test]
    fn next_completion_is_idempotent() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let _a = net.start_flow(SimTime::ZERO, vec![l], 1e6);
        let _b = net.start_flow(SimTime::ZERO, vec![l], 2e6);
        let first = net.next_completion();
        assert_eq!(first, net.next_completion());
        assert_eq!(first, net.next_completion());
    }

    #[test]
    fn transparent_uplink_is_allocation_neutral() {
        // Two hosts feed a full-bisection uplink (capacity = sum of the
        // feeders): excluding it from the fill must not change any rate,
        // including the exact-tie case where the uplink saturates.
        let rates = |transparent: bool| {
            let mut net = FlowNet::new();
            let tx0 = gb(&mut net, 10.0);
            let tx1 = gb(&mut net, 10.0);
            let up = gb(&mut net, 20.0);
            if transparent {
                net.set_link_transparent(up);
            }
            let ids = [
                net.start_flow(SimTime::ZERO, vec![tx0, up], 1e6),
                net.start_flow(SimTime::ZERO, vec![tx1, up], 2e6),
                net.start_flow(SimTime::ZERO, vec![tx1, up], 3e6),
            ];
            ids.map(|id| net.flow_rate_bps(id).unwrap())
        };
        assert_eq!(rates(true), rates(false));
    }

    #[test]
    fn transparent_link_ripple_stays_in_its_pod() {
        // Hosts a, b share an uplink but no edge link: with the uplink
        // transparent, churn on a's side must not re-rate b's flow.
        let mut net = FlowNet::new();
        let a_tx = gb(&mut net, 10.0);
        let b_tx = gb(&mut net, 10.0);
        let up = gb(&mut net, 20.0);
        net.set_link_transparent(up);
        let fb = net.start_flow(SimTime::ZERO, vec![b_tx, up], 1e8);
        let changes_after_b = net.realloc_stats().rate_changes;
        let fa1 = net.start_flow(SimTime::ZERO, vec![a_tx, up], 1e6);
        let _fa2 = net.start_flow(SimTime::ZERO, vec![a_tx, up], 1e6);
        assert_eq!(net.flow_rate_bps(fb), Some(10e9));
        assert_eq!(net.flow_rate_bps(fa1), Some(5e9));
        net.abort_flow(SimTime::from_nanos(100), fa1);
        assert_eq!(net.flow_rate_bps(fb), Some(10e9));
        // Only a's flows re-rated; b never did.
        assert_eq!(net.realloc_stats().rate_changes - changes_after_b, 4);
    }

    #[test]
    fn transparent_link_still_counts_latency_and_bytes() {
        let mut net = FlowNet::new();
        let tx = net.add_link(8.0, SimDuration::from_micros(1)); // 1 GB/s
        let up = net.add_link(16.0, SimDuration::from_micros(3));
        net.set_link_transparent(up);
        assert_eq!(
            net.path_latency(&[tx, up]),
            SimDuration::from_micros(4),
            "latency must include transparent hops"
        );
        let f = net.start_flow(SimTime::ZERO, vec![tx, up], 2_000_000.0);
        net.advance_to(SimTime::from_nanos(1_000_000)); // 1 ms -> 1 MB
        assert!((net.bytes_carried(up) - 1_000_000.0).abs() < 1.0);
        let (t, _) = net.next_completion().unwrap();
        net.complete_flow(t, f);
        assert!((net.bytes_carried(up) - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn identical_paths_share_one_class_visit() {
        // k same-path flows: each reallocation visits one class, so
        // flows_visited grows by k (members re-rated) but the traversal
        // is O(1) in k — link_visits per realloc stays at the path length.
        let mut net = FlowNet::new();
        let a = gb(&mut net, 10.0);
        let b = gb(&mut net, 10.0);
        for _ in 0..16 {
            let _ = net.start_flow(SimTime::ZERO, vec![a, b], 1e6);
        }
        let _ = net.next_completion();
        let s = net.realloc_stats();
        assert_eq!(s.count, 1, "same-instant starts coalesce into one fill");
        assert_eq!(s.coalesced, 15);
        assert_eq!(s.link_visits, 2, "one visit per path link, not per flow");
    }

    #[test]
    fn bottleneck_re_rates_flows_in_start_order() {
        // A and C share path P, B runs on Q, and all three meet at one
        // bottleneck: the rate changes must surface in start order
        // (A, B, C), not grouped by class (A, C, B).
        let mut net = FlowNet::new();
        let recorder = trace::Recorder::full();
        net.set_recorder(recorder.clone());
        let x = gb(&mut net, 10.0);
        let p = gb(&mut net, 100.0);
        let q = gb(&mut net, 100.0);
        let a = net.start_flow(SimTime::ZERO, vec![x, p], 1e6);
        let b = net.start_flow(SimTime::ZERO, vec![x, q], 1e6);
        let c = net.start_flow(SimTime::ZERO, vec![x, p], 1e6);
        let _ = net.next_completion();
        let re_rated: Vec<u64> = recorder
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                trace::EventKind::FlowRateChanged { flow, .. } => Some(flow),
                _ => None,
            })
            .collect();
        assert_eq!(re_rated, [a, b, c].map(FlowId::as_u64));
    }

    #[test]
    fn shares_are_subtracted_once_per_flow() {
        // Three same-path flows freeze at x's share of 1/3 Gb/s and the
        // flow alone on y gets what they leave. Subtracting the share
        // three times rounds differently from one `3 * share` product;
        // the allocator must round as flow-by-flow filling does.
        let mut net = FlowNet::new();
        let x = gb(&mut net, 1.0);
        let y = gb(&mut net, 2.0);
        for _ in 0..3 {
            let _ = net.start_flow(SimTime::ZERO, vec![x, y], 1e6);
        }
        let q = net.start_flow(SimTime::ZERO, vec![y], 1e6);
        let share = 1e9 / 3.0;
        let left = (0..3).fold(2e9, |r: f64, _| r - share);
        assert_ne!(left, 2e9 - 3.0 * share);
        assert_eq!(net.flow_rate_bps(q), Some(left));
    }

    #[test]
    fn same_instant_churn_coalesces_into_one_reallocation() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let _a = net.start_flow(SimTime::ZERO, vec![l], 1e6);
        let _b = net.start_flow(SimTime::ZERO, vec![l], 2e6);
        let _c = net.start_flow(SimTime::ZERO, vec![l], 3e6);
        let _ = net.next_completion();
        let s = net.realloc_stats();
        assert_eq!(s.count, 1);
        assert_eq!(s.coalesced, 2);
    }

    #[test]
    #[should_panic(expected = "non-transparent")]
    fn all_transparent_path_rejected() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        net.set_link_transparent(l);
        net.start_flow(SimTime::ZERO, vec![l], 1e6);
    }
}
