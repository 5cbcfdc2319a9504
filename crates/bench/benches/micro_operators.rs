//! Experiment M1 — microbenchmarks of every published operator.
//!
//! Times each operator named in Section II: substructure `ifOverlap` / `next` /
//! `intersect`, ontology `CI` / `CRI` / `CmRI` / `mCmRI` / `SubTree` / subtree
//! difference, and a-graph `path` / `connect`. These establish the per-operation cost
//! floor the higher-level experiments build on.
//!
//! The `M1_set_ops` group sweeps the executor's candidate-run kernels — galloping
//! intersection and union of sorted `Vec`s — across density regimes (selectivity
//! 10⁻⁴ … 0.5 over a 2²⁰ universe), over operands built once outside the timing loop.
//!
//! Two groups time the kernels of a request's fixed cost, which is all a cache hit
//! pays: `M1_crc32` checksums a 128 B request, a 2 KiB answer and a 128 KiB checkpoint
//! chunk (the one CRC-32 of every wire frame, WAL record and checkpoint), and
//! `M1_parse` parses one query of each of the end-to-end benchmark's seven template
//! shapes (`T1` … `T7`).
//!
//! `M1_collate` times what a cold miss pays past the cache: `Executor::try_run_plan`
//! (seed, verify, collate and page building) on one query of each template shape over
//! the default influenza corpus, with the plan built outside the timing loop — the
//! shapes `tests/query_cost.rs` prices in allocations.

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, Criterion};

use agraph::{EdgeLabel, MultiGraph, NodeKind};
use datagen::influenza::{self, InfluenzaConfig};
use datagen::ontology_gen;
use graphitti_core::wal::crc32;
use graphitti_query::{parse_query, setops, Executor, Plan};
use interval_index::{Interval, IntervalTree};
use ontology::RelationType;
use spatial_index::{RTree, Rect};

fn interval_tree(n: u64) -> IntervalTree {
    let mut t = IntervalTree::new();
    for i in 0..n {
        let s = (i * 37) % 1_000_000;
        t.insert(Interval::new(s, s + 40), i);
    }
    t
}

fn rtree(n: u64) -> RTree {
    let mut t = RTree::new();
    for i in 0..n {
        let x = (i as f64 * 3.0) % 10_000.0;
        t.insert(Rect::rect2(x, x, x + 20.0, x + 20.0), i);
    }
    t
}

fn star_graph(arms: usize) -> (MultiGraph, Vec<agraph::NodeId>) {
    let mut g = MultiGraph::new();
    let hub = g.add_node(NodeKind::Referent, 0);
    let contents: Vec<_> = (0..arms)
        .map(|i| {
            let c = g.add_node(NodeKind::Content, i as u64);
            g.add_edge(c, hub, EdgeLabel::annotates()).unwrap();
            c
        })
        .collect();
    (g, contents)
}

fn bench_operators(c: &mut Criterion) {
    // substructure operators
    let a = Interval::new(1000, 2000);
    let b = Interval::new(1500, 2500);
    c.bench_function("M1_ifOverlap_interval", |bch| bch.iter(|| a.if_overlap(&b)));
    c.bench_function("M1_intersect_interval", |bch| bch.iter(|| a.intersect(&b)));

    let ra = Rect::rect2(0.0, 0.0, 100.0, 100.0);
    let rb = Rect::rect2(50.0, 50.0, 150.0, 150.0);
    c.bench_function("M1_ifOverlap_rect", |bch| bch.iter(|| ra.if_overlap(&rb)));
    c.bench_function("M1_intersect_rect", |bch| bch.iter(|| ra.intersect(&rb)));

    let tree = interval_tree(10_000);
    c.bench_function("M1_next_interval_tree", |bch| {
        bch.iter(|| tree.next_after(Interval::new(500_000, 500_040)))
    });
    c.bench_function("M1_overlap_interval_tree", |bch| {
        bch.iter(|| tree.overlapping(Interval::new(500_000, 500_200)).len())
    });

    let rt = rtree(10_000);
    c.bench_function("M1_overlap_rtree", |bch| {
        bch.iter(|| rt.overlapping(Rect::rect2(5_000.0, 5_000.0, 5_200.0, 5_200.0)).len())
    });
    c.bench_function("M1_nearest_rtree", |bch| bch.iter(|| rt.nearest([5_000.0, 5_000.0, 0.0])));

    // ontology operators
    let (mut onto, _root, all) = ontology_gen::balanced_tree(4, 4);
    ontology_gen::populate_leaves(&mut onto, &all, 2);
    let root = all[0];
    let child = all[1];
    c.bench_function("M1_CI", |bch| bch.iter(|| onto.ci(root).len()));
    c.bench_function("M1_CRI", |bch| bch.iter(|| onto.cri(root, &RelationType::IsA).len()));
    c.bench_function("M1_CmRI", |bch| bch.iter(|| onto.cm_ri(&[root], &[RelationType::IsA]).len()));
    c.bench_function("M1_mCmRI", |bch| {
        bch.iter(|| onto.m_cm_ri(&[root, child], &[RelationType::IsA]).len())
    });
    c.bench_function("M1_SubTree", |bch| bch.iter(|| onto.subtree(root, &RelationType::IsA).len()));
    c.bench_function("M1_SubTree_difference", |bch| {
        bch.iter(|| onto.subtree_difference(root, child, &RelationType::IsA).len())
    });

    // a-graph operators
    let (g, contents) = star_graph(1_000);
    c.bench_function("M1_path", |bch| bch.iter(|| g.path(contents[0], contents[999])));
    c.bench_function("M1_connect", |bch| {
        bch.iter(|| g.connect(&[contents[0], contents[500], contents[999]]).map(|cs| cs.size()))
    });
}

/// Deterministic sorted id set of `universe * density` elements drawn uniformly
/// from `0..universe`.
fn random_ids(seed: u64, universe: u64, density: f64) -> Vec<u64> {
    let target = (universe as f64 * density) as usize;
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut set: BTreeSet<u64> = BTreeSet::new();
    while set.len() < target {
        set.insert(next() % universe);
    }
    set.into_iter().collect()
}

fn bench_set_ops(c: &mut Criterion) {
    const UNIVERSE: u64 = 1 << 20;
    let mut group = c.benchmark_group("M1_set_ops");
    for (label, density) in
        [("1e-4", 1e-4), ("1e-3", 1e-3), ("1e-2", 1e-2), ("1e-1", 1e-1), ("5e-1", 0.5)]
    {
        let a = random_ids(7, UNIVERSE, density);
        let b = random_ids(1009, UNIVERSE, density);
        group.bench_function(format!("intersect_vec_sel_{label}"), |bch| {
            bch.iter(|| setops::intersect_sorted(&a, &b).len())
        });
        group.bench_function(format!("union_vec_sel_{label}"), |bch| {
            bch.iter(|| setops::union_sorted(&[&a, &b]).len())
        });
    }
    group.finish();
}

fn bench_request_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("M1_crc32");
    for len in [128usize, 2_048, 131_072] {
        let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37) ^ 0xA5).collect();
        group.bench_function(len.to_string(), |bch| bch.iter(|| crc32(&bytes)));
    }
    group.finish();

    // One query of each template, as the end-to-end benchmark's generator writes it.
    let templates = [
        ("T1", "SELECT contents WHERE content keywords fojen kiban"),
        ("T2", "SELECT graphs WHERE content contains \"protein TP53\" AND ontology term 17"),
        (
            "T3",
            "SELECT graphs WHERE content contains \"protein TP53\" AND ontology term 3 \
             AND constraint regions 2 atlas2 1200 3400 1500 3800",
        ),
        (
            "T4",
            "SELECT referents WHERE content keywords protease kiban AND constraint consecutive 2 2000",
        ),
        (
            "T5",
            "SELECT graphs WHERE content contains \"protease\" AND referent interval chr3 2400 3900",
        ),
        (
            "T6",
            "SELECT referents WHERE referent region atlas1 800 1200 1150 1600 \
             AND content contains \"protein TP53\"",
        ),
        ("T7", "SELECT graphs WHERE ontology term 42"),
    ];
    let mut group = c.benchmark_group("M1_parse");
    for (template, text) in templates {
        group.bench_function(template, |bch| bch.iter(|| parse_query(text)));
    }
    group.finish();
}

fn bench_collate(c: &mut Criterion) {
    let corpus = influenza::build(&InfluenzaConfig::default()).snapshot();
    // The template shapes with their windows in the influenza corpus (as in
    // `tests/query_cost.rs`): `segment-N` domains, no regions, term 1 the cited one.
    let shapes = [
        ("T1", "SELECT contents WHERE content keywords protease motif"),
        ("T2", "SELECT graphs WHERE content contains \"protease\" AND ontology term 1"),
        (
            "T3",
            "SELECT graphs WHERE content contains \"protease\" AND ontology term 1 \
             AND constraint regions 2 atlas2 1200 3400 1500 3800",
        ),
        (
            "T4",
            "SELECT referents WHERE content keywords protease cleavage AND constraint consecutive 2 2000",
        ),
        (
            "T5",
            "SELECT graphs WHERE content contains \"protease\" AND referent interval segment-3 400 1900",
        ),
        (
            "T6",
            "SELECT referents WHERE referent interval segment-1 0 700 AND content contains \"protease\"",
        ),
        ("T7", "SELECT graphs WHERE ontology term 1"),
    ];
    let mut group = c.benchmark_group("M1_collate");
    for (template, text) in shapes {
        let query = parse_query(text).expect("a template parses").canonicalize();
        let plan = Plan::build(&query, &corpus);
        let executor = Executor::new(&corpus);
        group.bench_function(template, |bch| bch.iter(|| executor.try_run_plan(&query, &plan)));
    }
    group.finish();
}

criterion_group!(benches, bench_operators, bench_set_ops, bench_request_kernels, bench_collate);
criterion_main!(benches);
