//! The per-depth indices only the centralized ordered baselines read.
//!
//! On each join the relaxed bandwidth- and time-ordered trees (§5
//! algorithms 3–4) probe every layer for its weakest occupant, and fall
//! back to the shallowest attached member with a free slot.
//! [`OrderIndex`] answers both from per-depth ordered sets; it is the one
//! place that knows the eviction order keys and their encodings. A
//! [`MulticastTree`] maintains one only after
//! [`arm_order_index`](MulticastTree::arm_order_index), which the engine
//! calls exactly for the centralized algorithms.

use std::collections::{BTreeMap, BTreeSet};

use rom_sim::SimTime;

use crate::error::InvariantViolation;
use crate::id::NodeId;
use crate::member::MemberProfile;
use crate::tree::{MulticastTree, NodeIndex};

/// Encodes a non-negative bandwidth as an order-preserving `u64` key:
/// for non-negative finite doubles the raw bit pattern already sorts
/// numerically, and adding `0.0` first collapses `-0.0` onto `0.0` so
/// bitwise key equality coincides with `==` (the comparison the layer
/// scan this index replaces used).
fn bw_order_key(bw: f64) -> u64 {
    (bw + 0.0).to_bits()
}

/// Encodes a join time as a `u64` that sorts *descending* in time (and
/// therefore ascending in age at any fixed `now`): the standard
/// sign-aware total-order bit trick, complemented. `SimTime` may be
/// negative, so both halves of the mapping are exercised.
fn join_order_key(t: SimTime) -> u64 {
    let bits = t.as_secs().to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    !ascending
}

/// Recovers the exact join time a [`join_order_key`] was computed from,
/// so age probes can reproduce `MemberProfile::age` bit for bit without
/// a slot lookup.
fn join_order_key_decode(key: u64) -> f64 {
    let ascending = !key;
    if ascending >> 63 == 1 {
        f64::from_bits(ascending & !(1 << 63))
    } else {
        f64::from_bits(!ascending)
    }
}

/// A member's entries in the two eviction sets: `(bandwidth key, id)` and
/// `(join-time key, id)`.
fn set_entries(id: NodeId, profile: &MemberProfile) -> ((u64, NodeId), (u64, NodeId)) {
    let bw = bw_order_key(profile.bandwidth);
    ((bw, id), (join_order_key(profile.join_time), id))
}

/// One depth layer: its attached occupants keyed by the two order
/// criteria the relaxed ordered algorithms evict under, plus those with
/// a free forwarding slot. Both ordered sets iterate weakest-first with
/// ties to the smallest id, so the eviction search probes the first entry
/// instead of scanning the layer.
#[derive(Debug, Clone, Default)]
struct OrderLayer {
    /// `(bw_order_key(bandwidth), id)` — ascending bandwidth, then id.
    by_bandwidth: BTreeSet<(u64, NodeId)>,
    /// `(join_order_key(join_time), id)` — descending join time (i.e.
    /// ascending age at any `now`), then id. Time-invariant: age order
    /// at every `now` is exactly reverse join-time order, so the index
    /// never needs restamping as the clock advances.
    by_join: BTreeSet<(u64, NodeId)>,
    /// Occupants with at least one free forwarding slot, keyed by id so
    /// iteration within a layer is id-ordered.
    free: BTreeMap<NodeId, NodeIndex>,
}

/// Per-depth eviction and free-slot indices over a tree's attached
/// members. Read through [`MulticastTree::order_index`].
#[derive(Debug, Clone)]
pub struct OrderIndex {
    layers: Vec<OrderLayer>,
}

impl OrderIndex {
    /// Indexes every member currently attached to `tree`.
    pub(crate) fn of(tree: &MulticastTree) -> OrderIndex {
        let mut index = OrderIndex { layers: Vec::new() };
        for (id, ix) in tree.member_entries() {
            if let Some(depth) = tree.depth_ix(ix) {
                let has_free = tree.has_free_slot_ix(ix);
                index.insert(id, ix, depth, tree.profile_ix(ix), has_free);
            }
        }
        index
    }

    /// Adds an attached member at `depth`.
    pub(crate) fn insert(
        &mut self,
        id: NodeId,
        ix: NodeIndex,
        depth: usize,
        profile: &MemberProfile,
        has_free: bool,
    ) {
        if self.layers.len() <= depth {
            self.layers.resize_with(depth + 1, OrderLayer::default);
        }
        let (bw, join) = set_entries(id, profile);
        let layer = &mut self.layers[depth];
        layer.by_bandwidth.insert(bw);
        layer.by_join.insert(join);
        if has_free {
            layer.free.insert(id, ix);
        }
    }

    /// Drops an attached member from `depth`, keyed by the profile it was
    /// inserted (or last re-keyed) with.
    pub(crate) fn remove(&mut self, id: NodeId, depth: usize, profile: &MemberProfile) {
        let (bw, join) = set_entries(id, profile);
        let layer = &mut self.layers[depth];
        layer.by_bandwidth.remove(&bw);
        layer.by_join.remove(&join);
        layer.free.remove(&id);
    }

    /// Records whether the attached member at `depth` has a free slot.
    pub(crate) fn set_free(&mut self, id: NodeId, ix: NodeIndex, depth: usize, has_free: bool) {
        let free = &mut self.layers[depth].free;
        if has_free {
            free.insert(id, ix);
        } else {
            free.remove(&id);
        }
    }

    /// Re-keys an attached member's bandwidth entry (join time, and with
    /// it the age entry, is unchanged).
    pub(crate) fn rekey_bandwidth(&mut self, id: NodeId, depth: usize, old: f64, new: f64) {
        let by_bandwidth = &mut self.layers[depth].by_bandwidth;
        by_bandwidth.remove(&(bw_order_key(old), id));
        by_bandwidth.insert((bw_order_key(new), id));
    }

    /// The attached member at `depth` with the minimum (bandwidth, id) —
    /// the node the relaxed bandwidth-ordered eviction rule targets in
    /// that layer. O(log layer). The returned bandwidth is numerically
    /// equal to the member's (`-0.0` reads back as `0.0`).
    #[must_use]
    pub fn weakest_by_bandwidth(&self, depth: usize) -> Option<(f64, NodeId)> {
        let layer = self.layers.get(depth)?;
        layer
            .by_bandwidth
            .first()
            .map(|&(key, id)| (f64::from_bits(key), id))
    }

    /// The attached member at `depth` with the minimum (age at `now`, id)
    /// — the relaxed time-ordered eviction target in that layer. The
    /// index is ordered by descending join time, which equals ascending
    /// age at any `now`; distinct join times can still collapse onto one
    /// age (the clamp at zero for not-yet-joined members, f64 subtraction
    /// rounding), so the id tie-break walks the equal-age prefix. Ages
    /// are recomputed exactly as [`MemberProfile::age`] computes them,
    /// from join times recovered bit-for-bit out of the index keys.
    #[must_use]
    pub fn weakest_by_age(&self, depth: usize, now: SimTime) -> Option<(f64, NodeId)> {
        let layer = self.layers.get(depth)?;
        let age_of = |key: u64| (now.as_secs() - join_order_key_decode(key)).max(0.0);
        let mut entries = layer.by_join.iter();
        let &(first_key, first_id) = entries.next()?;
        let age = age_of(first_key);
        let mut best = first_id;
        for &(key, id) in entries {
            if age_of(key) != age {
                break;
            }
            if id < best {
                best = id;
            }
        }
        Some((age, best))
    }

    /// The weakest occupant of `depth` under `order`.
    pub(crate) fn weakest(
        &self,
        order: Order,
        depth: usize,
        now: SimTime,
    ) -> Option<(f64, NodeId)> {
        match order {
            Order::Bandwidth => self.weakest_by_bandwidth(depth),
            Order::Age => self.weakest_by_age(depth, now),
        }
    }

    /// The shallowest depth holding an attached member with at least one
    /// free forwarding slot — where the minimum-depth join rule will
    /// place the next leaf. O(max_depth) probes instead of a scan over
    /// the whole membership.
    #[must_use]
    pub fn shallowest_free_depth(&self) -> Option<usize> {
        self.layers.iter().position(|layer| !layer.free.is_empty())
    }

    /// The attached members at `depth` with at least one free forwarding
    /// slot, with their arena indices, in id order.
    pub fn free_slot_entries(
        &self,
        depth: usize,
    ) -> impl Iterator<Item = (NodeId, NodeIndex)> + '_ {
        self.layers
            .get(depth)
            .into_iter()
            .flat_map(|layer| layer.free.iter().map(|(&id, &ix)| (id, ix)))
    }

    /// Checks that the index holds exactly `tree`'s attached members,
    /// each at its depth under its documented keys, and that the free-slot
    /// entries are exactly the attached members with spare capacity.
    pub(crate) fn check(&self, tree: &MulticastTree) -> Result<(), InvariantViolation> {
        let fail = |msg: String| Err(InvariantViolation::new(msg));
        let mut attached = 0usize;
        let mut free_expected = 0usize;
        for (id, ix) in tree.member_entries() {
            let Some(depth) = tree.depth_ix(ix) else {
                continue;
            };
            attached += 1;
            let Some(layer) = self.layers.get(depth) else {
                return fail(format!("no order-index layer at depth {depth}"));
            };
            let (bw, join) = set_entries(id, tree.profile_ix(ix));
            if !layer.by_bandwidth.contains(&bw) {
                return fail(format!("{id} missing from bandwidth index at {depth}"));
            }
            if !layer.by_join.contains(&join) {
                return fail(format!("{id} missing from join-time index at {depth}"));
            }
            let has_free = tree.has_free_slot_ix(ix);
            free_expected += usize::from(has_free);
            if layer.free.get(&id).copied() != has_free.then_some(ix) {
                return fail(format!("{id} free-slot index entry wrong at {depth}"));
            }
        }
        let bw_total: usize = self.layers.iter().map(|l| l.by_bandwidth.len()).sum();
        let join_total: usize = self.layers.iter().map(|l| l.by_join.len()).sum();
        if bw_total != attached || join_total != attached {
            return fail(format!(
                "eviction index holds {bw_total}/{join_total} entries but \
                 {attached} attached members exist"
            ));
        }
        let free_total: usize = self.layers.iter().map(|l| l.free.len()).sum();
        if free_total != free_expected {
            return fail(format!(
                "free-slot index holds {free_total} entries but {free_expected} attached \
                 members have spare capacity"
            ));
        }
        Ok(())
    }
}

/// The order index of a tree a centralized algorithm is placing into.
///
/// # Panics
///
/// Panics if the tree was never armed: reading the index unarmed is a
/// programming error, not a condition any input can cause.
pub(crate) fn armed(tree: &MulticastTree) -> &OrderIndex {
    tree.order_index().expect(
        "the relaxed ordered algorithms read the tree's order index; \
         call MulticastTree::arm_order_index before placing members with them",
    )
}

/// The ordering criterion a relaxed ordered tree maintains: bandwidth
/// (§5 algorithm 3) or age (§5 algorithm 4).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Order {
    Bandwidth,
    Age,
}

impl Order {
    /// The sort key; *larger* keys deserve *higher* (shallower) positions.
    pub(crate) fn key(self, profile: &MemberProfile, now: SimTime) -> f64 {
        match self {
            Order::Bandwidth => profile.bandwidth,
            Order::Age => profile.age(now),
        }
    }
}
