//! Scenario tests over generated workloads: integrity, the two example queries, and
//! snapshot round-trips on realistic data.

use graphitti::core::wal::WalStorage;
use graphitti::core::{recover_unsharded, Checkpoint, MemStorage};
use graphitti::query::{Executor, GraphConstraint, OntologyFilter, Query, Target};
use graphitti::spatial::Rect;
use graphitti::workloads::influenza::{self, InfluenzaConfig};
use graphitti::workloads::neuro::{self, NeuroConfig};
use graphitti::workloads::unified::{self, UnifiedConfig};

#[test]
fn influenza_workload_is_consistent() {
    let sys = influenza::build(&InfluenzaConfig::small());
    assert!(sys.verify_integrity().is_empty(), "{:?}", sys.verify_integrity());
}

#[test]
fn neuro_workload_is_consistent() {
    let w = neuro::build(&NeuroConfig::small());
    assert!(w.system.verify_integrity().is_empty());
}

#[test]
fn unified_workload_is_consistent() {
    let w = unified::build(&UnifiedConfig::small());
    assert!(w.system.verify_integrity().is_empty());
}

#[test]
fn q2_on_generated_influenza() {
    let sys = influenza::build(&InfluenzaConfig {
        seed: 5,
        sequences: 60,
        annotations: 600,
        protease_prob: 0.5,
        ..InfluenzaConfig::default()
    });
    let q = Query::new(Target::Referents)
        .with_phrase("protease")
        .with_constraint(GraphConstraint::ConsecutiveIntervals { count: 2, max_gap: 5_000 });
    let res = Executor::new(&sys).run(&q);
    // every returned object actually has protease annotations
    for obj in &res.objects {
        let anns = sys.annotations_of_object(*obj);
        let has_protease = anns.iter().any(|&a| {
            sys.annotation(a)
                .and_then(|x| x.comment())
                .map(|c| c.contains("protease"))
                .unwrap_or(false)
        });
        assert!(has_protease);
    }
}

#[test]
fn q1_on_generated_neuro() {
    let mut cfg = NeuroConfig::small();
    cfg.images = 30;
    cfg.dcn_prob = 0.8;
    cfg.tp53_prob = 0.6;
    let w = neuro::build(&cfg);
    let canvas = Rect::rect2(0.0, 0.0, cfg.canvas, cfg.canvas);
    let q = Query::new(Target::ConnectionGraphs)
        .with_phrase("protein TP53")
        .with_ontology(OntologyFilter::CitesTerm(w.concepts.deep_cerebellar_nuclei))
        .with_constraint(GraphConstraint::MinRegionCount {
            count: 2,
            within: canvas,
            system: w.systems[0].clone(),
        });
    let res = Executor::new(&w.system).run(&q);
    // result is well-formed: every page is internally non-empty
    for page in &res.pages {
        assert!(!page.subgraph.subgraph.is_empty());
    }
}

#[test]
fn snapshot_roundtrip_on_generated_workload() {
    let sys = influenza::build(&InfluenzaConfig::small());
    let mut storage = MemStorage::new();
    storage.write_checkpoint(&Checkpoint::capture(&sys, 1).encode()).unwrap();
    let (rebuilt, _) = recover_unsharded(&storage).unwrap();
    assert_eq!(rebuilt.study_snapshot(), sys.study_snapshot());
    assert!(rebuilt.verify_integrity().is_empty());
}

#[test]
fn connection_discovery_parity_direct_vs_transitive() {
    let sys = influenza::build(&InfluenzaConfig {
        seed: 9,
        annotations: 300,
        shared_referent_prob: 0.6,
        ..InfluenzaConfig::small()
    });
    for ann in sys.annotations().iter().take(50) {
        let direct = sys.related_annotations(ann.id);
        let transitive = sys.transitively_related_annotations(ann.id);
        // transitive closure contains every directly-related annotation
        for d in &direct {
            assert!(transitive.contains(d));
        }
    }
}
