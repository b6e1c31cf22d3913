//! Property-based tests: the multicast tree's structural invariants
//! survive arbitrary interleavings of every mutation the protocols
//! perform.

use proptest::prelude::*;
use rom_overlay::{Location, MemberProfile, MulticastTree, NodeId, TreeError};
use rom_sim::SimTime;

/// One randomized mutation, to be resolved against the current tree state.
#[derive(Debug, Clone)]
enum Op {
    /// Attach a fresh member (bandwidth chosen from the value) under the
    /// k-th attached member with a free slot.
    Attach { bw_tenths: u8, pick: u16 },
    /// Remove the k-th non-root member.
    Remove { pick: u16 },
    /// Reattach the k-th orphan root under the j-th attached member with a
    /// free slot.
    Reattach { pick: u16, parent_pick: u16 },
    /// Swap the k-th attached member with its parent.
    Swap { pick: u16 },
    /// A fresh member replaces the k-th attached non-root member.
    Replace { bw_tenths: u8, pick: u16 },
    /// The k-th orphan root usurps the j-th attached non-root member.
    Usurp { pick: u16, evict_pick: u16 },
    /// Re-key the k-th member (root included) to a new bandwidth,
    /// shedding children past the recomputed capacity.
    SetBandwidth { bw_tenths: u8, pick: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(bw_tenths, pick)| Op::Attach { bw_tenths, pick }),
        2 => any::<u16>().prop_map(|pick| Op::Remove { pick }),
        2 => (any::<u16>(), any::<u16>()).prop_map(|(pick, parent_pick)| Op::Reattach { pick, parent_pick }),
        2 => any::<u16>().prop_map(|pick| Op::Swap { pick }),
        1 => (any::<u8>(), any::<u16>()).prop_map(|(bw_tenths, pick)| Op::Replace { bw_tenths, pick }),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(pick, evict_pick)| Op::Usurp { pick, evict_pick }),
        2 => (any::<u8>(), any::<u16>()).prop_map(|(bw_tenths, pick)| Op::SetBandwidth { bw_tenths, pick }),
    ]
}

fn pick_from(items: &[NodeId], pick: u16) -> Option<NodeId> {
    if items.is_empty() {
        None
    } else {
        Some(items[pick as usize % items.len()])
    }
}

fn attached_with_free_slot(tree: &MulticastTree) -> Vec<NodeId> {
    tree.attached_by_depth()
        .filter(|&n| tree.has_free_slot(n))
        .collect()
}

fn attached_non_root(tree: &MulticastTree) -> Vec<NodeId> {
    tree.attached_by_depth()
        .filter(|&n| n != tree.root())
        .collect()
}

fn profile(id: u64, bw: f64) -> MemberProfile {
    MemberProfile::new(NodeId(id), bw, SimTime::ZERO, 1e6, Location(id as u32))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants hold after every single mutation in a random sequence.
    #[test]
    fn invariants_survive_random_mutation_sequences(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut tree = MulticastTree::new(profile(0, 4.0), 1.0);
        let mut next_id = 1u64;
        for op in &ops {
            apply_op(&mut tree, op, &mut next_id);
            if let Err(v) = tree.check_invariants() {
                panic!("after {:?}: {v}", tree.member_ids().count());
            }
        }
    }

    /// Membership conservation: mutations never lose or duplicate members
    /// except through explicit removal.
    #[test]
    fn membership_is_conserved(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut tree = MulticastTree::new(profile(0, 4.0), 1.0);
        let mut next_id = 1u64;
        let mut expected: std::collections::BTreeSet<u64> = [0].into_iter().collect();
        for op in ops {
            match op {
                Op::Attach { bw_tenths, pick } => {
                    let parents = attached_with_free_slot(&tree);
                    if let Some(parent) = pick_from(&parents, pick) {
                        tree.attach(profile(next_id, f64::from(bw_tenths) / 10.0), parent).unwrap();
                        expected.insert(next_id);
                        next_id += 1;
                    }
                }
                Op::Remove { pick } => {
                    let mut victims: Vec<NodeId> =
                        tree.member_ids().filter(|&n| n != tree.root()).collect();
                    victims.sort();
                    if let Some(v) = pick_from(&victims, pick) {
                        tree.remove(v).unwrap();
                        expected.remove(&v.0);
                    }
                }
                Op::Swap { pick } => {
                    let nodes = attached_non_root(&tree);
                    if let Some(n) = pick_from(&nodes, pick) {
                        let _ = tree.swap_with_parent(n, |p| p.bandwidth);
                    }
                }
                _ => {}
            }
            let actual: std::collections::BTreeSet<u64> =
                tree.member_ids().map(|n| n.0).collect();
            prop_assert_eq!(&actual, &expected);
        }
    }

    /// The O(1) cached counters (`attached_count`, `max_depth`) always
    /// match a from-scratch recomputation over the membership, no matter
    /// how mutations interleave. Guards the PR-5 arena bookkeeping: the
    /// pre-arena `attached_count` re-summed every depth layer per call, so
    /// a stale increment here would silently skew every report that reads
    /// the population size.
    #[test]
    fn cached_counters_match_recomputation(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut tree = MulticastTree::new(profile(0, 4.0), 1.0);
        let mut next_id = 1u64;
        for op in &ops {
            apply_op(&mut tree, op, &mut next_id);
            let recomputed_attached = tree
                .member_ids()
                .filter(|&n| tree.is_attached(n))
                .count();
            prop_assert_eq!(tree.attached_count(), recomputed_attached);
            let recomputed_max_depth = tree
                .member_ids()
                .filter_map(|n| tree.depth(n))
                .max()
                .unwrap_or(0);
            prop_assert_eq!(tree.max_depth(), recomputed_max_depth);
        }
    }

    /// Depths reported by the index always match the distance to the root
    /// along parent pointers.
    #[test]
    fn depth_equals_ancestor_count(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut tree = MulticastTree::new(profile(0, 4.0), 1.0);
        let mut next_id = 1u64;
        for op in &ops {
            if matches!(op, Op::Attach { .. } | Op::Swap { .. }) {
                apply_op(&mut tree, op, &mut next_id);
            }
            for id in tree.attached_by_depth() {
                let depth = tree.depth(id).unwrap();
                prop_assert_eq!(depth, tree.ancestors(id).len());
            }
        }
    }

    /// The order index's eviction and free-slot probes answer exactly
    /// what an exhaustive layer scan answers, no matter how mutations
    /// interleave — including `set_bandwidth` re-keying and slot reuse
    /// after removals (`check_invariants`, run every step, additionally
    /// proves index membership equals the attached set per depth).
    /// Join times span negative, zero, and positive seconds so the age
    /// probe's sign handling, clamp-at-zero ties, and id tie-breaks are
    /// all exercised at both probe times.
    ///
    /// An unarmed twin driven through the same ops must return the same
    /// results and keep the same shape at every step (the index is
    /// bookkeeping, never behaviour), and a third tree armed only after
    /// half the ops must end with the same probe answers as the tree
    /// armed from the start.
    #[test]
    fn eviction_probes_match_exhaustive_scans(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut armed = MulticastTree::new(profile(0, 4.0), 1.0);
        armed.arm_order_index();
        let mut unarmed = MulticastTree::new(profile(0, 4.0), 1.0);
        let mut late = unarmed.clone();
        let mut next_ids = [1u64; 3];
        for (step, op) in ops.iter().enumerate() {
            if step == ops.len() / 2 {
                late.arm_order_index();
            }
            let outcome = apply_op(&mut armed, op, &mut next_ids[0]);
            prop_assert_eq!(&apply_op(&mut unarmed, op, &mut next_ids[1]), &outcome);
            prop_assert_eq!(&apply_op(&mut late, op, &mut next_ids[2]), &outcome);
            for tree in [&armed, &unarmed, &late] {
                tree.check_invariants().unwrap();
            }
            prop_assert!(unarmed.order_index().is_none());
            prop_assert_eq!(shape(&armed), shape(&unarmed));

            let index = armed.order_index().unwrap();
            let layers = layers(&armed);
            for now in [SimTime::from_secs(0.5), SimTime::from_secs(8.0)] {
                for (depth, layer) in layers.iter().enumerate() {
                    prop_assert_eq!(
                        index.weakest_by_bandwidth(depth),
                        scan_weakest(&armed, layer, |p| p.bandwidth),
                        "bandwidth probe at depth {}", depth
                    );
                    prop_assert_eq!(
                        index.weakest_by_age(depth, now),
                        scan_weakest(&armed, layer, |p| p.age(now)),
                        "age probe at depth {} now {:?}", depth, now
                    );
                }
            }
            let scan_free_depth = layers
                .iter()
                .position(|layer| layer.iter().any(|&id| armed.has_free_slot(id)));
            prop_assert_eq!(index.shallowest_free_depth(), scan_free_depth);
            for (depth, layer) in layers.iter().enumerate() {
                let indexed: Vec<NodeId> = index.free_slot_entries(depth).map(|(id, _)| id).collect();
                let scanned: Vec<NodeId> =
                    layer.iter().copied().filter(|&id| armed.has_free_slot(id)).collect();
                prop_assert_eq!(indexed, scanned, "free-slot entries at depth {}", depth);
            }
        }
        let (early, late) = (armed.order_index().unwrap(), late.order_index().unwrap());
        for depth in 0..=armed.max_depth() {
            prop_assert_eq!(early.weakest_by_bandwidth(depth), late.weakest_by_bandwidth(depth));
            for now in [SimTime::from_secs(0.5), SimTime::from_secs(8.0)] {
                prop_assert_eq!(early.weakest_by_age(depth, now), late.weakest_by_age(depth, now));
            }
            prop_assert_eq!(
                early.free_slot_entries(depth).collect::<Vec<_>>(),
                late.free_slot_entries(depth).collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(early.shallowest_free_depth(), late.shallowest_free_depth());
    }
}

/// Resolves `op` against `tree` and applies it, with join times spread
/// over negative, zero and positive seconds. Every op but a swap must
/// succeed once resolved. Returns the operation's result in `Debug` form
/// (`None` when the op resolved to nothing), so twins driven through the
/// same ops can be compared.
fn apply_op(tree: &mut MulticastTree, op: &Op, next_id: &mut u64) -> Option<String> {
    match *op {
        Op::Attach { bw_tenths, pick } => {
            let parent = pick_from(&attached_with_free_slot(tree), pick)?;
            let join_secs = (*next_id % 13) as f64 - 6.0;
            let m = MemberProfile::new(
                NodeId(*next_id),
                f64::from(bw_tenths) / 10.0,
                SimTime::from_secs(join_secs),
                1e6,
                Location(*next_id as u32),
            );
            *next_id += 1;
            Some(format!("{:?}", tree.attach(m, parent).unwrap()))
        }
        Op::Remove { pick } => {
            let mut victims: Vec<NodeId> =
                tree.member_ids().filter(|&n| n != tree.root()).collect();
            victims.sort();
            let v = pick_from(&victims, pick)?;
            Some(format!("{:?}", tree.remove(v).unwrap()))
        }
        Op::Reattach { pick, parent_pick } => {
            let orphans: Vec<NodeId> = tree.orphan_roots().collect();
            let o = pick_from(&orphans, pick)?;
            let p = pick_from(&attached_with_free_slot(tree), parent_pick)?;
            Some(format!("{:?}", tree.reattach(o, p).unwrap()))
        }
        Op::Swap { pick } => {
            let n = pick_from(&attached_non_root(tree), pick)?;
            let outcome = tree.swap_with_parent(n, |p| p.bandwidth);
            match outcome {
                Ok(_)
                | Err(TreeError::NoSwitchableParent(_))
                | Err(TreeError::InsufficientCapacity(_)) => {}
                Err(e) => panic!("unexpected swap error: {e}"),
            }
            Some(format!("{outcome:?}"))
        }
        Op::Replace { bw_tenths, pick } => {
            let t = pick_from(&attached_non_root(tree), pick)?;
            let newcomer = profile(*next_id, f64::from(bw_tenths) / 10.0);
            *next_id += 1;
            Some(format!(
                "{:?}",
                tree.replace(t, newcomer, |p| p.bandwidth).unwrap()
            ))
        }
        Op::Usurp { pick, evict_pick } => {
            let orphans: Vec<NodeId> = tree.orphan_roots().collect();
            let o = pick_from(&orphans, pick)?;
            let t = pick_from(&attached_non_root(tree), evict_pick)?;
            Some(format!("{:?}", tree.usurp(t, o, |p| p.bandwidth).unwrap()))
        }
        Op::SetBandwidth { bw_tenths, pick } => {
            let mut members: Vec<NodeId> = tree.member_ids().collect();
            members.sort();
            let m = pick_from(&members, pick)?;
            Some(format!(
                "{:?}",
                tree.set_bandwidth(m, f64::from(bw_tenths) / 10.0).unwrap()
            ))
        }
    }
}

/// A member's id, parent, depth and children.
type MemberShape = (NodeId, Option<NodeId>, Option<usize>, Vec<NodeId>);

/// Every shape observation the order index could conceivably perturb.
fn shape(t: &MulticastTree) -> (Vec<NodeId>, usize, usize, Vec<MemberShape>) {
    let members = t.member_ids();
    let members = members.map(|id| (id, t.parent(id), t.depth(id), t.children(id).collect()));
    let order = t.attached_by_depth().collect();
    (order, t.max_depth(), t.attached_count(), members.collect())
}

/// The attached members of each depth, in id order, from the
/// breadth-first order and per-member depths.
fn layers(tree: &MulticastTree) -> Vec<Vec<NodeId>> {
    let mut layers = vec![Vec::new(); tree.max_depth() + 1];
    for id in tree.attached_by_depth() {
        layers[tree.depth(id).unwrap()].push(id);
    }
    layers
}

/// The pre-index eviction search body: an exhaustive scan of one layer
/// for the minimum (key, id), using the same `==`/`<` comparisons the old
/// `find_eviction` used.
fn scan_weakest(
    tree: &MulticastTree,
    layer: &[NodeId],
    key: impl Fn(&MemberProfile) -> f64,
) -> Option<(f64, NodeId)> {
    let mut weakest: Option<(f64, NodeId)> = None;
    for &cand in layer {
        let k = key(tree.profile(cand).unwrap());
        let better = match weakest {
            None => true,
            Some((wk, wid)) => k < wk || (k == wk && cand < wid),
        };
        if better {
            weakest = Some((k, cand));
        }
    }
    weakest
}
