//! Experiment B1 — Graphitti vs. the relational-annotation baseline.
//!
//! Compares answering the protease query (Q2) on Graphitti (a-graph + interval trees)
//! against the flat relational-annotation store (scans + joins, no a-graph, no
//! substructure index). Both return the same objects; the benchmark measures the cost
//! difference. Reproducible shape: Graphitti's indexed evaluation beats the
//! scan-and-join baseline, by a margin that grows with the workload.

use baseline::RelationalAnnotationStore;
use bench::{influenza_system, table_header, table_row};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphitti_core::Marker;
use graphitti_query::{Executor, GraphConstraint, Query, Target};

/// Mirror a Graphitti influenza system into the relational baseline so both answer the
/// same query over the same logical data.
fn mirror_to_relational(sys: &graphitti_core::Graphitti) -> RelationalAnnotationStore {
    let mut rel = RelationalAnnotationStore::new();
    for ann in sys.annotations() {
        let comment = ann.comment().unwrap_or("");
        let title = ann.title().unwrap_or("");
        let creator = ann.creator().unwrap_or("");
        let mut referents = Vec::new();
        for &rid in ann.referents.iter() {
            if let Some(r) = sys.referent(rid) {
                if let Marker::Interval(iv) = r.marker {
                    referents.push((r.object.0, iv.start, iv.end));
                }
            }
        }
        let terms: Vec<u64> = ann.terms.iter().map(|t| t.0 as u64).collect();
        rel.insert(title, comment, creator, &referents, &terms);
    }
    rel
}

fn bench_baseline(c: &mut Criterion) {
    let sizes = [1_000usize, 5_000];

    table_header(
        "B1: Graphitti vs. relational baseline (same answers)",
        &["annotations", "graphitti_objects", "baseline_objects", "agree"],
    );

    let mut group = c.benchmark_group("B1_protease_query");
    for &a in &sizes {
        let sys = influenza_system(a, 2008);
        let rel = mirror_to_relational(&sys);

        let query = Query::new(Target::Referents)
            .with_phrase("protease")
            .with_constraint(GraphConstraint::ConsecutiveIntervals { count: 4, max_gap: 2_000 });
        let mut g_objs: Vec<u64> =
            Executor::new(&sys).run(&query).objects.iter().map(|o| o.0).collect();
        let mut b_objs: Vec<u64> = rel.objects_with_consecutive_intervals("protease", 4, 2_000);
        g_objs.sort_unstable();
        b_objs.sort_unstable();
        table_row(&[
            a.to_string(),
            g_objs.len().to_string(),
            b_objs.len().to_string(),
            (g_objs == b_objs).to_string(),
        ]);

        group.bench_with_input(BenchmarkId::new("graphitti", a), &a, |bch, _| {
            let exec = Executor::new(&sys);
            bch.iter(|| exec.run(&query));
        });
        group.bench_with_input(BenchmarkId::new("relational_baseline", a), &a, |bch, _| {
            bch.iter(|| rel.objects_with_consecutive_intervals("protease", 4, 2_000));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_baseline);
criterion_main!(benches);
