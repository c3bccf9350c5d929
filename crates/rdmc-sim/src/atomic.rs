//! Data model of the Derecho-style **atomic multicast** overlay.
//!
//! RDMC groups have one sender (rank 0). Derecho turns that into a
//! multi-sender atomic multicast by creating *one RDMC subgroup per
//! sender*, each with the member list rotated so that sender sits at
//! rank 0, and interleaving the senders' messages round-robin into a
//! single global **slot** sequence: with the first `s` members sending,
//! slot `k` belongs to member `k mod s`. Every member delivers slots in
//! slot order, which makes the delivery sequence identical at every
//! member by construction — the only question is *when* a slot may be
//! delivered. One sender (`s = 1`) is the paper's §4.6 atomic delivery:
//! a plain RDMC group whose deliveries wait for stability.
//!
//! That question is answered by per-sender **received frontiers** in
//! SST rows ([`sst::ViewTracker::with_frontiers`]): every member `i`
//! publishes, for every sender `j`, how many of `j`'s slots it has
//! resolved (received via RDMC, or learned to be *null*). The minimum
//! over live rows is the **stability frontier**: once every live member
//! holds a slot, delivering it can never be undone by a failure, so the
//! delivery engine releases it. A sender with nothing to say fills its
//! slot with a *null* that is announced purely through the sender's own
//! frontier row — no data multicast at all (Spindle's null-send
//! elision).
//!
//! On a view change the overlay applies the **ragged trim**: slots that
//! the failed sender's subgroup had to abandon (no survivor can
//! complete them) and nulls the failed sender never announced to anyone
//! are trimmed from the sequence at every survivor, so all survivors
//! converge on identical gapless delivery prefixes. Stability is what
//! makes the trim safe — a slot delivered anywhere was stable, stable
//! slots are fully replicated, and fully replicated slots are never
//! abandoned.
//!
//! This module holds the overlay's data types; the driver logic lives
//! in `cluster.rs` (the `impl SimCluster` overlay block), mirroring how
//! the reliability shim splits codec/state from orchestration.

use std::collections::BTreeSet;

use simnet::SimTime;
use sst::ViewTracker;

use crate::cluster::{GroupId, MessageId};

/// Identifies an atomic group within a
/// [`SimCluster`](crate::SimCluster), as returned by
/// [`SimCluster::create_atomic_group`](crate::SimCluster::create_atomic_group).
pub type AtomicGroupId = usize;

/// One total-order delivery upcall at one member of an atomic group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtomicDelivery {
    /// Global slot number — the message's total-order position. Every
    /// member's log carries the same `(slot, sender, seq, size)`
    /// sequence; only `at` differs.
    pub slot: u64,
    /// Member index (in the unrotated member list) that sent it.
    pub sender: u32,
    /// Index among the sender's own submissions (its per-sender
    /// sequence number).
    pub seq: u64,
    /// Message size in bytes.
    pub size: u64,
    /// Virtual time of the upcall at this member.
    pub at: SimTime,
    /// Handle of the underlying RDMC message
    /// ([`SimCluster::result`](crate::SimCluster::result) resolves it).
    pub message: MessageId,
}

/// What one slot of the global sequence carries.
pub(crate) enum SlotKind {
    /// A real message, multicast on the owner's subgroup.
    Data {
        /// Message index within the owner's subgroup (submission order).
        index: usize,
        /// Message size in bytes.
        size: u64,
        /// The handle its completion record is filed under.
        message: MessageId,
    },
    /// The owner had nothing to send: announced via the owner's own
    /// frontier row, never multicast.
    Null,
}

/// One slot of the global total-order sequence.
pub(crate) struct Slot {
    /// Sender index that owns the slot (`slot mod s` over live senders).
    pub(crate) owner: usize,
    /// Index among the owner's slots (dense per owner).
    pub(crate) seq: u64,
    pub(crate) kind: SlotKind,
    /// Ragged-trimmed on a view change: skipped by every survivor.
    pub(crate) trimmed: bool,
}

/// Per-member overlay state.
pub(crate) struct AtomicMember {
    /// This member's SST replica: row `r` is member `r`'s published
    /// per-sender received frontiers.
    pub(crate) tracker: ViewTracker,
    /// Next slot index the delivery engine will examine.
    pub(crate) next_deliver: usize,
    /// Last stability frontier announced (and traced) per sender;
    /// delivery gates on this recorded value so the `StableFrontier`
    /// trace event always precedes the `AtomicDelivered` it justifies.
    pub(crate) stable_seen: Vec<u64>,
    /// The total-order delivery log.
    pub(crate) log: Vec<AtomicDelivery>,
}

/// One atomic group's runtime state.
pub(crate) struct AtomicRuntime {
    /// Fabric node of each member, in the unrotated declaration order;
    /// member index `i` herein is the canonical identity used in slots,
    /// frontiers, and trace scopes.
    pub(crate) nodes: Vec<usize>,
    /// `subgroups[j]`: the RDMC subgroup rooted at sender `j` (its
    /// member list is `nodes` rotated left by `j`); members `0..s` send,
    /// where `s = subgroups.len()`. `subgroups[0]` is the *anchor* —
    /// frontier epidemics run on its connections and its id names the
    /// group in trace scopes.
    pub(crate) subgroups: Vec<GroupId>,
    /// The global slot sequence, in submission order.
    pub(crate) slots: Vec<Slot>,
    /// Per sender: the indices of its slots in `slots`, in `seq` order
    /// (its length is the next `seq`).
    pub(crate) owned: Vec<Vec<usize>>,
    pub(crate) members: Vec<AtomicMember>,
    /// Member indices evicted by a view change; their rows no longer
    /// count toward stability minima.
    pub(crate) dead: BTreeSet<usize>,
    /// Round-robin rotation cursor: the sender index owning the next
    /// slot (advanced past dead senders at submission time).
    pub(crate) cursor: usize,
}

impl AtomicRuntime {
    /// How many members send: members `0..senders()` of `nodes`.
    pub(crate) fn senders(&self) -> usize {
        self.subgroups.len()
    }

    /// The live member indices, ascending — the rows stability minima
    /// run over.
    pub(crate) fn live_rows(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|r| !self.dead.contains(&(*r as usize)))
            .collect()
    }

    /// First live sender at or after `from` in rotation order, or
    /// `None` if every sender is dead.
    pub(crate) fn next_live_owner(&self, from: usize) -> Option<usize> {
        let s = self.senders();
        (0..s)
            .map(|k| (from + k) % s)
            .find(|m| !self.dead.contains(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(n: usize, senders: usize) -> AtomicRuntime {
        AtomicRuntime {
            nodes: (0..n).collect(),
            subgroups: (0..senders).collect(),
            slots: Vec::new(),
            owned: vec![Vec::new(); senders],
            members: (0..n)
                .map(|i| AtomicMember {
                    tracker: ViewTracker::with_frontiers(i as u32, n as u32, senders as u32),
                    next_deliver: 0,
                    stable_seen: vec![0; senders],
                    log: Vec::new(),
                })
                .collect(),
            dead: BTreeSet::new(),
            cursor: 0,
        }
    }

    #[test]
    fn rotation_skips_dead_members() {
        let mut a = runtime(4, 4);
        assert_eq!(a.next_live_owner(2), Some(2));
        a.dead.insert(2);
        assert_eq!(a.next_live_owner(2), Some(3));
        a.dead.insert(3);
        assert_eq!(a.next_live_owner(2), Some(0), "wraps past the dead tail");
        assert_eq!(a.live_rows(), vec![0, 1]);
    }

    #[test]
    fn rotation_stays_within_the_senders() {
        let mut a = runtime(4, 2);
        assert_eq!(a.next_live_owner(1), Some(1));
        a.dead.insert(1);
        assert_eq!(a.next_live_owner(1), Some(0), "receivers never own slots");
        a.dead.insert(0);
        assert_eq!(a.next_live_owner(0), None);
        assert_eq!(a.live_rows(), vec![2, 3], "receivers still gate stability");
    }

    #[test]
    fn extinct_group_has_no_owner() {
        let mut a = runtime(2, 2);
        a.dead.insert(0);
        a.dead.insert(1);
        assert_eq!(a.next_live_owner(0), None);
        assert!(a.live_rows().is_empty());
    }
}
