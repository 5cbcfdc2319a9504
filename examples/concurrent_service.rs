//! Concurrent query serving against a live, mutating system.
//!
//! Run with `cargo run --release --example concurrent_service`.
//!
//! Builds a neuroscience workload, starts a [`QueryService`] worker pool over a
//! snapshot of it, then drives it from several client threads while the writer keeps
//! annotating and publishing new epochs. Shows the three service properties end to
//! end: parallel independent queries, snapshot isolation under a live writer, and the
//! canonical-form result cache.

use std::sync::Arc;

use graphitti::core::Marker;
use graphitti::query::{OntologyFilter, Query, QueryService, ServiceConfig, Target};
use graphitti::workloads::neuro::{self, NeuroConfig};

fn main() {
    let mut workload = neuro::build(&NeuroConfig {
        seed: 42,
        images: 60,
        regions_per_image: 6,
        coordinate_systems: 3,
        dcn_prob: 0.4,
        tp53_prob: 0.25,
        canvas: 1_000.0,
    });
    let dcn = workload.concepts.deep_cerebellar_nuclei;
    println!(
        "workload: {} images, {} annotations",
        workload.images.len(),
        workload.system.annotation_count()
    );

    let service = Arc::new(QueryService::new(
        workload.system.snapshot(),
        ServiceConfig::default().with_workers(4).with_cache_capacity(64),
    ));
    println!("service: {} workers, epoch {}", service.worker_count(), service.current_version());

    // Two semantically equal queries written differently — one cache entry.
    let tp53_a = Query::new(Target::ConnectionGraphs)
        .with_keywords(["TP53", "protein"])
        .with_ontology(OntologyFilter::CitesTerm(dcn));
    let tp53_b = Query::new(Target::ConnectionGraphs)
        .with_ontology(OntologyFilter::CitesTerm(dcn))
        .with_keywords(["protein", "tp53"]);
    let browse = Query::new(Target::ConnectionGraphs).with_ontology(OntologyFilter::CitesTerm(dcn));

    // Client threads hammer the service while the writer publishes new epochs.
    std::thread::scope(|scope| {
        for client in 0..3 {
            let service = Arc::clone(&service);
            let mix = [tp53_a.clone(), tp53_b.clone(), browse.clone()];
            scope.spawn(move || {
                for round in 0..40 {
                    let q = mix[(client + round) % mix.len()].clone();
                    let result = service.run(q).unwrap();
                    std::hint::black_box(result);
                }
            });
        }

        // The writer: annotate a fresh region citing the DCN term, publish, repeat.
        let img = workload.images[0];
        for i in 0..5 {
            let x = 10.0 * i as f64;
            workload
                .system
                .annotate()
                .comment(format!("protein TP53 follow-up {i}"))
                .mark(img, Marker::region(x, 0.0, x + 8.0, 8.0))
                .cite_term(dcn)
                .commit()
                .expect("annotation commits");
            service.publish(workload.system.snapshot()).unwrap();
        }
    });

    let final_result = service.run(tp53_a).unwrap();
    let metrics = service.metrics();
    println!(
        "served {} queries: {} cache hits, {} misses, {} publishes",
        metrics.completed, metrics.cache_hits, metrics.cache_misses, metrics.publishes
    );
    println!(
        "final epoch {}: {} matching objects across {} pages",
        service.current_version(),
        final_result.objects.len(),
        final_result.page_count()
    );
    assert_eq!(service.current_version(), workload.system.epoch());
    println!("readers observed only published epochs — snapshot isolation held.");
}
