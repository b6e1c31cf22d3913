//! Micro-benchmarks of the multicast-tree operations whose costs the
//! paper's protocol arguments rest on: joins under each algorithm, abrupt
//! removal, and ROST's switching operation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rom_overlay::algorithms::{
    JoinContext, LongestFirst, MinimumDepth, RelaxedBandwidthOrdered, RelaxedTimeOrdered,
    TreeAlgorithm,
};
use rom_overlay::{paper_source, Location, MemberProfile, MulticastTree, NodeId, ZeroProximity};
use rom_sim::{SimRng, SimTime};
use rom_stats::BoundedPareto;
use std::hint::black_box;

/// Builds a min-depth-shaped tree of `n` members with paper bandwidths.
fn build_tree(n: u64, seed: u64) -> MulticastTree {
    let mut rng = SimRng::seed_from(seed);
    let bw = BoundedPareto::paper_bandwidth();
    let mut tree = MulticastTree::new(paper_source(Location(0)), 1.0);
    for id in 1..=n {
        let profile = MemberProfile::new(
            NodeId(id),
            bw.sample(&mut rng),
            SimTime::from_secs(id as f64),
            1e9,
            Location(id as u32),
        );
        // Shallowest member with a free slot (the attached_by_depth order
        // guarantees we find one near the top).
        let parent = tree
            .attached_by_depth()
            .find(|&p| tree.has_free_slot(p))
            .expect("capacity available");
        tree.attach(profile, parent).expect("valid parent");
    }
    tree
}

fn bench_joins(c: &mut Criterion) {
    let mut tree = build_tree(2_000, 1);
    // The relaxed ordered algorithms read the order index.
    tree.arm_order_index();
    let candidates: Vec<NodeId> = tree.attached_by_depth().collect();
    let joiner = MemberProfile::new(
        NodeId(999_999),
        2.0,
        SimTime::from_secs(5_000.0),
        1e9,
        Location(7),
    );
    let now = SimTime::from_secs(10_000.0);

    let mut group = c.benchmark_group("join_decision_2000");
    group.bench_function("min_depth", |b| {
        b.iter(|| {
            let ctx = JoinContext {
                tree: &tree,
                joiner: &joiner,
                candidates: black_box(&candidates),
                now,
            };
            black_box(MinimumDepth.select(&ctx, &ZeroProximity))
        });
    });
    group.bench_function("longest_first", |b| {
        b.iter(|| {
            let ctx = JoinContext {
                tree: &tree,
                joiner: &joiner,
                candidates: black_box(&candidates),
                now,
            };
            black_box(LongestFirst.select(&ctx, &ZeroProximity))
        });
    });
    group.bench_function("relaxed_bw_ordered", |b| {
        b.iter(|| {
            let ctx = JoinContext {
                tree: &tree,
                joiner: &joiner,
                candidates: black_box(&candidates),
                now,
            };
            black_box(RelaxedBandwidthOrdered.select(&ctx, &ZeroProximity))
        });
    });
    group.bench_function("relaxed_time_ordered", |b| {
        b.iter(|| {
            let ctx = JoinContext {
                tree: &tree,
                joiner: &joiner,
                candidates: black_box(&candidates),
                now,
            };
            black_box(RelaxedTimeOrdered.select(&ctx, &ZeroProximity))
        });
    });
    group.finish();
}

fn bench_mutations(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_mutation_10000");
    group.bench_function("attach_detach", |b| {
        b.iter_batched(
            || build_tree(10_000, 2),
            |mut tree| {
                let parent = tree
                    .attached_by_depth()
                    .find(|&p| tree.has_free_slot(p))
                    .unwrap();
                let profile =
                    MemberProfile::new(NodeId(1_000_000), 2.0, SimTime::ZERO, 1e9, Location(1));
                tree.attach(profile, parent).unwrap();
                black_box(tree.remove(NodeId(1_000_000)).unwrap());
            },
            BatchSize::LargeInput,
        );
    });
    group.bench_function("abrupt_removal_with_subtree", |b| {
        b.iter_batched(
            || build_tree(10_000, 3),
            |mut tree| {
                // Remove a member from the shallow layers (big subtree).
                let victim = tree.children(tree.root()).next().unwrap();
                black_box(tree.remove(victim).unwrap());
            },
            BatchSize::LargeInput,
        );
    });
    group.bench_function("rost_switch", |b| {
        b.iter_batched(
            || build_tree(10_000, 4),
            |mut tree| {
                // Find any node eligible for a position swap.
                let candidate = tree
                    .attached_by_depth()
                    .find(|&n| {
                        n != tree.root()
                            && tree.parent(n).is_some_and(|p| p != tree.root())
                            && tree.capacity(n) >= 1
                    })
                    .unwrap();
                black_box(tree.swap_with_parent(candidate, |p| p.bandwidth).ok());
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Keeps `cargo bench --workspace` affordable on one core: the simulation
/// benches dominate and 10–20 samples resolve them fine.
fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3))
        .sample_size(10)
}
criterion_group! {
    name = benches;
    config = short_config();
    targets = bench_joins, bench_mutations
}
criterion_main!(benches);
