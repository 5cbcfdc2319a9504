//! Experiment F3 — Figure 3: the query-tab "search, browse, explore" loop.
//!
//! Measures a graph query returning connection subgraphs, then correlated-data viewing
//! (annotations on a result object), then ontology-term expansion. The reproducible
//! shape is that query latency scales with the candidate set the driving subquery
//! produces, and exploration from a result node is cheap (local a-graph traversal).

use criterion::{criterion_group, criterion_main, Criterion};
use graphitti_query::{Executor, OntologyFilter, Query, Target};

fn bench_fig3(c: &mut Criterion) {
    let workload = bench::neuro_workload(100, 8, 2008);
    let sys = &workload.system;
    let exec = Executor::new(sys);
    let dcn = workload.concepts.deep_cerebellar_nuclei;

    let mut group = c.benchmark_group("F3_query_workflow");

    group.bench_function("connection_graph_query", |b| {
        let q = Query::new(Target::ConnectionGraphs)
            .with_phrase("protein TP53")
            .with_ontology(OntologyFilter::CitesTerm(dcn));
        b.iter(|| exec.run(&q));
    });

    // correlated-data viewing from the first result object
    let q = Query::new(Target::ConnectionGraphs).with_ontology(OntologyFilter::CitesTerm(dcn));
    let result = exec.run(&q);
    if let Some(&obj) = result.objects.first() {
        group.bench_function("correlated_data_view", |b| {
            b.iter(|| sys.annotations_of_object(obj));
        });
    }

    // ontology-term expansion
    group.bench_function("ontology_term_expansion", |b| {
        b.iter(|| sys.ontology().ci(workload.concepts.brain));
    });

    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
