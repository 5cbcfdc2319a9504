//! The paper's claims, each a committed row at two corpus sizes (N and 4 N), so a
//! ratio reads as a growth rate and not as one point:
//!
//! * **Q1** — the TP53 query (§I) on the neuroscience workload at 50 and 200 images:
//!   "annotations that contain the term 'protein TP53' and have paths to all mouse
//!   brain images having at least 2 regions annotated with 'Deep Cerebellar nuclei'";
//! * **Q2** — the protease query (§III) on the influenza study at 1 000 and 4 000
//!   annotations: objects where 4 consecutive non-overlapping intervals carry
//!   annotations with the keyword 'protease';
//! * **B1** — Q2 on the relational store ([`bench::relational`]: scans and joins) over
//!   the same data; its Graphitti side (a-graph + interval trees) is the Q2 row at the
//!   same size;
//! * **B2** — transitive connection discovery from one annotation: one a-graph BFS
//!   against the relational store's iterative self-join;
//! * **F1** — fig. 1: building the a-graph (register + annotate the whole study), and
//!   looking up the indirectly related annotations of 200 annotations;
//! * **R2** — a restart: `recover_unsharded` from an in-memory checkpoint of the
//!   influenza study at 4 000 and 16 000 annotations (`R2_recover/<n>`), beside
//!   `Checkpoint::decode` of the same bytes alone (`R2_recover/decode/<n>`); the table
//!   prints their ratio, what rebuilding the indexes costs on top of reading the file.
//!
//! B1 and B2 assert that both sides return exactly the same answer before timing.

use bench::relational::{mirror_to_relational, RelAnnotationId};
use bench::{influenza_system, neuro_workload, table_header, table_row};
use criterion::{criterion_group, criterion_main, Criterion};
use graphitti_core::wal::WalStorage;
use graphitti_core::{recover_unsharded, AnnotationId, Checkpoint, MemStorage};
use graphitti_query::{Executor, GraphConstraint, OntologyFilter, Query, Target};
use spatial_index::Rect;

const SEED: u64 = 2008;

fn bench_q1(c: &mut Criterion) {
    table_header(
        "Q1: protein TP53 with >=2 DCN regions",
        &["images", "annotations", "matching_objects", "pages"],
    );
    let mut group = c.benchmark_group("Q1_tp53");
    for images in [50usize, 200] {
        let workload = neuro_workload(images, 8, SEED);
        let sys = &workload.system;
        let query = Query::new(Target::ConnectionGraphs)
            .with_phrase("protein TP53")
            .with_ontology(OntologyFilter::CitesTerm(workload.concepts.deep_cerebellar_nuclei))
            .with_constraint(GraphConstraint::MinRegionCount {
                count: 2,
                within: Rect::rect2(0.0, 0.0, 1_000.0, 1_000.0),
                system: workload.systems[0].clone(),
            });
        let exec = Executor::new(sys);
        let result = exec.run(&query);
        table_row(&[
            images.to_string(),
            sys.annotation_count().to_string(),
            result.objects.len().to_string(),
            result.page_count().to_string(),
        ]);
        group.bench_function(images.to_string(), |b| b.iter(|| exec.run(&query)));
    }
    group.finish();
}

fn bench_influenza(c: &mut Criterion) {
    let q2 = Query::new(Target::Referents)
        .with_phrase("protease")
        .with_constraint(GraphConstraint::ConsecutiveIntervals { count: 4, max_gap: 2_000 });
    table_header(
        "Q2 / B1 / B2 / F1: influenza study (B1, B2 answers agree)",
        &["annotations", "referents", "agraph_nodes", "indirect_links", "q2_objects", "reachable"],
    );
    for a in [1_000usize, 4_000] {
        let sys = influenza_system(a, SEED);
        let (rel, ids) = mirror_to_relational(&sys);
        let exec = Executor::new(&sys);

        let mut objects: Vec<u64> = exec.run(&q2).objects.iter().map(|o| o.0).collect();
        objects.sort_unstable();
        assert_eq!(
            objects,
            rel.objects_with_consecutive_intervals("protease", 4, 2_000),
            "B1: Graphitti and the relational store answer Q2 differently at {a} annotations"
        );
        // `RelAnnotationId(i)` mirrors `ids[i]`, so the relational set maps back exactly.
        let start = ids[0];
        let reachable = sys.transitively_related_annotations(start);
        let mirrored: Vec<AnnotationId> = rel
            .transitively_related(RelAnnotationId(0))
            .into_iter()
            .map(|r| ids[r.0 as usize])
            .collect();
        assert_eq!(
            reachable, mirrored,
            "B2: the a-graph BFS and the self-join reach different sets at {a} annotations"
        );

        let indirect: usize = ids.iter().map(|&id| sys.related_annotations(id).len()).sum();
        table_row(&[
            a.to_string(),
            sys.referent_count().to_string(),
            sys.nodes().len().to_string(),
            (indirect / 2).to_string(),
            objects.len().to_string(),
            reachable.len().to_string(),
        ]);

        // B1's Graphitti side is the Q2 row itself: one timing per operation.
        c.benchmark_group("Q2_protease")
            .bench_function(a.to_string(), |b| b.iter(|| exec.run(&q2)));
        c.benchmark_group("B1_protease_query").bench_function(format!("relational/{a}"), |b| {
            b.iter(|| rel.objects_with_consecutive_intervals("protease", 4, 2_000))
        });

        let mut b2 = c.benchmark_group("B2_connection_discovery");
        b2.bench_function(format!("graphitti_bfs/{a}"), |b| {
            b.iter(|| sys.transitively_related_annotations(start).len())
        });
        b2.bench_function(format!("relational_selfjoin/{a}"), |b| {
            b.iter(|| rel.transitively_related(RelAnnotationId(0)).len())
        });
        b2.finish();

        c.benchmark_group("F1_agraph_construction")
            .bench_function(a.to_string(), |b| b.iter(|| influenza_system(a, SEED)));
        let lookup = &ids[..200];
        c.benchmark_group("F1_related_annotation_lookup").bench_function(a.to_string(), |b| {
            b.iter(|| lookup.iter().map(|&id| sys.related_annotations(id).len()).sum::<usize>())
        });
    }
}

/// The median of five timed calls of `work`, in milliseconds (the table's ratio).
fn median_ms<R>(mut work: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(work());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

fn bench_recovery(c: &mut Criterion) {
    table_header(
        "R2: recovery from a checkpoint of the influenza study",
        &["annotations", "checkpoint_bytes", "recover_ms", "decode_ms", "recover/decode"],
    );
    for a in [4_000usize, 16_000] {
        let sys = influenza_system(a, SEED);
        let bytes = Checkpoint::capture(&sys, 1).encode();
        let mut storage = MemStorage::new();
        storage.write_checkpoint(&bytes).expect("in-memory checkpoint");
        let recover = || recover_unsharded(&storage).expect("the checkpoint recovers").0;
        assert_eq!(recover().study_snapshot(), sys.study_snapshot(), "R2 at {a} annotations");
        let decode = || Checkpoint::decode(&bytes).expect("the checkpoint decodes");
        let (recover_ms, decode_ms) = (median_ms(recover), median_ms(decode));
        table_row(&[
            a.to_string(),
            bytes.len().to_string(),
            format!("{recover_ms:.2}"),
            format!("{decode_ms:.2}"),
            format!("{:.2}", recover_ms / decode_ms),
        ]);
        let mut group = c.benchmark_group("R2_recover");
        group.bench_function(a.to_string(), |b| b.iter(recover));
        group.bench_function(format!("decode/{a}"), |b| b.iter(decode));
        group.finish();
    }
}

criterion_group!(benches, bench_q1, bench_influenza, bench_recovery);
criterion_main!(benches);
