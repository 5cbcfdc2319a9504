//! Experiment F2 — Figure 2: the annotation-tab workflow.
//!
//! Measures end-to-end annotation creation per data type: search the relational store →
//! mark a substructure (interval / region / block-set) → attach an ontology reference →
//! commit the XML content. The reproducible shape is that per-annotation cost is
//! dominated by content indexing and is roughly constant across data types.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use graphitti_core::{DataType, Graphitti, Marker};

fn annotate_sequence(n: usize) -> Graphitti {
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("seq", DataType::DnaSequence, 100_000, "chr1");
    let term = sys.ontology_mut().add_concept("Motif");
    for i in 0..n {
        let start = (i as u64 * 37) % 99_000;
        let _ = sys
            .annotate()
            .title("motif")
            .comment("observed protease cleavage motif region")
            .creator("bencher")
            .mark(seq, Marker::interval(start, start + 30))
            .cite_term(term)
            .commit();
    }
    sys
}

fn annotate_image(n: usize) -> Graphitti {
    let mut sys = Graphitti::new();
    let img = sys.register_image("img", 10_000, 10_000, "confocal", "cs");
    let term = sys.ontology_mut().add_concept("Region");
    for i in 0..n {
        let x = (i as f64 * 11.0) % 9_000.0;
        let _ = sys
            .annotate()
            .comment("region of interest with elevated expression")
            .creator("bencher")
            .mark(img, Marker::region(x, x, x + 50.0, x + 50.0))
            .cite_term(term)
            .commit();
    }
    sys
}

fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("F2_annotate_workflow");
    group.bench_function("sequence_interval_1000", |b| {
        b.iter(|| annotate_sequence(1_000));
    });
    group.bench_function("image_region_1000", |b| {
        b.iter(|| annotate_image(1_000));
    });
    group.finish();

    // Post-snapshot first write: each iteration captures a snapshot (as the query
    // service's publish does) and then commits one write, so every commit pays the
    // copy-on-write cost of an outstanding snapshot: the components the write touches
    // are un-shared, and inside them only the chunks, postings and tree paths it
    // writes are copied.
    //
    // Two write kinds are measured because their footprints differ, not because
    // their costs should.  An *annotate* dirties the heavyweight components (content
    // store, a-graph, registries, inverted indexes); a *register* leaves all of those
    // shared — its dirty set is just objects/a-graph/node-maps/indexes.  With
    // chunked structural sharing inside the components both cost a handful of chunk
    // copies on this 2 000-annotation base, where a whole-component copy made the
    // annotate approach a copy of the view; the rows are the before/after record of
    // that (BENCH_query.json), and a guard against a component growing a part that a
    // clone copies in full again.
    {
        let mut group = c.benchmark_group("F2_post_snapshot_first_write");
        // Every iteration gets a freshly built base (untimed `iter_batched` setup),
        // so each sample measures the copy on a constant-size system; reusing one
        // system would accumulate every probe write and the cost would drift with
        // the iteration count.  The routine moves the system and the superseded
        // snapshot back out, so teardown (freeing the old components) lands outside
        // the timed window, as it does in the service, where the reader dropping the
        // last snapshot pays it, not the writer.
        let build = || {
            let mut sys = bench::influenza_system(2_000, 2008);
            let seq = sys.object_ids_of_type(DataType::DnaSequence)[0];
            let term = sys.ontology_mut().add_concept("StallProbe");
            (sys, seq, term)
        };
        let annotate_probe = |sys: &mut Graphitti, seq, term| {
            sys.annotate()
                .comment("post-snapshot probe")
                .mark(seq, Marker::interval(0, 20))
                .cite_term(term)
                .commit()
                .unwrap();
        };
        group.bench_function("per_component_annotate", |b| {
            b.iter_batched(
                build,
                |(mut sys, seq, term)| {
                    let snap = sys.snapshot();
                    annotate_probe(&mut sys, seq, term);
                    (snap, sys)
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function("per_component_register", |b| {
            b.iter_batched(
                build,
                |(mut sys, _, _)| {
                    let snap = sys.snapshot();
                    sys.register_sequence("probe", DataType::DnaSequence, 500, "chr1");
                    (snap, sys)
                },
                BatchSize::LargeInput,
            )
        });
        group.finish();
    }

    // single-annotation latency
    let mut sys = Graphitti::new();
    let seq = sys.register_sequence("seq", DataType::DnaSequence, 100_000, "chr1");
    let term = sys.ontology_mut().add_concept("Motif");
    let mut i = 0u64;
    c.bench_function("F2_single_annotation_commit", |b| {
        b.iter(|| {
            i += 1;
            let start = (i * 37) % 99_000;
            sys.annotate()
                .comment("protease motif")
                .creator("bencher")
                .mark(seq, Marker::interval(start, start + 30))
                .cite_term(term)
                .commit()
                .unwrap()
        })
    });
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
