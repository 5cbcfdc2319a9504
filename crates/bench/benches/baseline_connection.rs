//! Experiment B2 — connection discovery: Graphitti a-graph BFS vs. relational self-join.
//!
//! The complement of B1. B1 showed that on a single-type query the flat relational
//! baseline is competitive. This experiment is Graphitti's home turf: transitively
//! discovering all annotations connected through shared referents. Graphitti does one
//! breadth-first traversal of the a-graph join index; the relational baseline must run an
//! iterative self-join over the referent table. Reproducible shape: Graphitti's cost is
//! proportional to the connected component it visits, while the baseline re-scans the
//! referent table each round and grows super-linearly with the workload.

use baseline::RelationalAnnotationStore;
use bench::{influenza_system, table_header, table_row};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphitti_core::{AnnotationId, Graphitti, Marker};

fn mirror_to_relational(sys: &Graphitti) -> RelationalAnnotationStore {
    let mut rel = RelationalAnnotationStore::new();
    for ann in sys.annotations() {
        let mut referents = Vec::new();
        for &rid in ann.referents.iter() {
            if let Some(r) = sys.referent(rid) {
                if let Marker::Interval(iv) = r.marker {
                    referents.push((r.object.0, iv.start, iv.end));
                }
            }
        }
        rel.insert(
            ann.title().unwrap_or(""),
            ann.comment().unwrap_or(""),
            ann.creator().unwrap_or(""),
            &referents,
            &[],
        );
    }
    rel
}

fn bench_connection(c: &mut Criterion) {
    let sizes = [1_000usize, 3_000];

    table_header(
        "B2: transitive connection discovery (same answers)",
        &["annotations", "graphitti_reachable", "baseline_reachable", "agree"],
    );

    let mut group = c.benchmark_group("B2_connection_discovery");
    for &a in &sizes {
        let sys = influenza_system(a, 2008);
        let rel = mirror_to_relational(&sys);
        let start = AnnotationId(0);

        let g = sys.transitively_related_annotations(start);
        let b = rel.transitively_related(baseline::RelAnnotationId(0));
        table_row(&[
            a.to_string(),
            g.len().to_string(),
            b.len().to_string(),
            (g.len() == b.len()).to_string(),
        ]);

        group.bench_with_input(BenchmarkId::new("graphitti_bfs", a), &a, |bch, _| {
            bch.iter(|| sys.transitively_related_annotations(start).len());
        });
        group.bench_with_input(BenchmarkId::new("relational_selfjoin", a), &a, |bch, _| {
            bch.iter(|| rel.transitively_related(baseline::RelAnnotationId(0)).len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_connection);
criterion_main!(benches);
