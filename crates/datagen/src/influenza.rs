//! The interdisciplinary Influenza-study workload.
//!
//! Mirrors Figure 1's scenario: a population of heterogeneous objects (sequences,
//! alignments, trees, interaction graphs, relational records) annotated by several
//! scientists, where some annotations deliberately share referents so that the a-graph
//! exhibits *indirectly related* annotations.

use graphitti_core::{DataType, Graphitti, Marker, ObjectId};
use interval_index::Interval;

use crate::ontology_gen;
use crate::rng::WorkloadRng;

/// Configuration for the Influenza workload.
#[derive(Debug, Clone)]
pub struct InfluenzaConfig {
    /// RNG seed (reproducibility).
    pub seed: u64,
    /// Number of DNA/RNA/protein sequences to register.
    pub sequences: usize,
    /// Number of annotations to create.
    pub annotations: usize,
    /// Number of multiple-sequence alignments.
    pub alignments: usize,
    /// Number of phylogenetic trees.
    pub trees: usize,
    /// Number of interaction graphs.
    pub graphs: usize,
    /// Number of relational strain records.
    pub records: usize,
    /// Number of distinct coordinate domains (influenza segments / chromosomes) to
    /// spread sequences over; controls index grouping.
    pub segments: usize,
    /// Probability that an annotation reuses an existing referent interval (creating an
    /// indirectly-related annotation).
    pub shared_referent_prob: f64,
    /// Probability that an annotation's comment mentions "protease".
    pub protease_prob: f64,
}

impl Default for InfluenzaConfig {
    fn default() -> Self {
        InfluenzaConfig {
            seed: 0xF1A3,
            sequences: 200,
            annotations: 1000,
            alignments: 10,
            trees: 5,
            graphs: 5,
            records: 20,
            segments: 8,
            shared_referent_prob: 0.3,
            protease_prob: 0.25,
        }
    }
}

impl InfluenzaConfig {
    /// A small configuration useful for tests.
    pub fn small() -> Self {
        InfluenzaConfig {
            seed: 1,
            sequences: 12,
            annotations: 40,
            alignments: 2,
            trees: 1,
            graphs: 1,
            records: 3,
            segments: 3,
            shared_referent_prob: 0.3,
            protease_prob: 0.3,
        }
    }

    /// Scale the annotation count (used by the Figure 1 sweep).
    pub fn with_annotations(mut self, annotations: usize) -> Self {
        self.annotations = annotations;
        self
    }
}

/// Build a populated Graphitti system for the Influenza study.
pub fn build(config: &InfluenzaConfig) -> Graphitti {
    let mut sys = Graphitti::new();
    let mut rng = WorkloadRng::new(config.seed);

    // Load a protein-family ontology so annotations can cite terms.
    let (onto, protease_concept) = ontology_gen::protein_families(&mut rng, 5);
    *sys.ontology_mut() = onto;

    let segments = config.segments.max(1);
    let seq_types = [DataType::DnaSequence, DataType::RnaSequence, DataType::ProteinSequence];

    // Register sequences over `segments` coordinate domains.
    let mut sequences: Vec<ObjectId> = Vec::with_capacity(config.sequences);
    for i in 0..config.sequences {
        let seg = i % segments;
        let domain = format!("segment-{seg}");
        let ty = seq_types[i % seq_types.len()];
        let length = rng.range_u64(900, 2400);
        let id = sys.register_sequence(format!("seq-{i}"), ty, length, domain);
        sequences.push(id);
    }

    // Register the other heterogeneous object types (their substructures are discrete or
    // handled out-of-band; they still populate the relational store and a-graph as whole
    // objects and can be annotated by block-set markers).
    register_alignments(&mut sys, &mut rng, config.alignments);
    let trees = register_discrete(&mut sys, &mut rng, DataType::PhylogeneticTree, config.trees);
    let graphs = register_discrete(&mut sys, &mut rng, DataType::InteractionGraph, config.graphs);
    let records = register_discrete(&mut sys, &mut rng, DataType::RelationalRecord, config.records);

    // Create annotations.
    let creators = ["sandeep", "condit", "gupta", "martone", "wong-barnum"];
    // Pool of already-committed referent ids that later annotations may reuse to become
    // indirectly related (same referent → two annotations linked).
    let mut referent_pool: Vec<graphitti_core::ReferentId> = Vec::new();

    for a in 0..config.annotations {
        if sequences.is_empty() {
            break;
        }
        let creator = *rng.choose(&creators);
        let is_protease = rng.chance(config.protease_prob);
        let comment = if is_protease {
            "observed protease cleavage motif in this region"
        } else {
            "synonymous substitution with no phenotypic effect"
        };

        // Decide whether to reuse a prior referent (shared referent → indirect relation).
        let reuse = !referent_pool.is_empty() && rng.chance(config.shared_referent_prob);

        let mut builder =
            sys.annotate().title(format!("annotation {a}")).comment(comment).creator(creator);
        let mut new_mark: Option<ObjectId> = None;
        if reuse {
            let rid = *rng.choose(&referent_pool);
            builder = builder.mark_existing(rid);
        } else {
            let object = *rng.choose(&sequences);
            let start = rng.range_u64(0, 1940);
            let interval = Interval::new(start, start + rng.range_u64(20, 60));
            builder = builder.mark(object, Marker::Interval(interval));
            new_mark = Some(object);
        }
        if is_protease {
            builder = builder.subject("protease").cite_term(protease_concept);
        }
        // occasionally also mark a discrete object (tree / graph / record) via block set
        if rng.chance(0.1) {
            let pool = [trees.as_slice(), graphs.as_slice(), records.as_slice()].concat();
            if !pool.is_empty() {
                let obj = *rng.choose(&pool);
                let block = Marker::block_set([rng.range_u64(0, 100)]);
                builder = builder.mark(obj, block);
            }
        }
        if let Ok(aid) = builder.commit() {
            // register this annotation's fresh referent for future sharing
            if new_mark.is_some() {
                if let Some(ann) = sys.annotation(aid) {
                    if let Some(&rid) = ann.referents.first() {
                        referent_pool.push(rid);
                    }
                }
            }
        }
    }

    sys
}

fn register_alignments(sys: &mut Graphitti, rng: &mut WorkloadRng, count: usize) -> Vec<ObjectId> {
    (0..count)
        .map(|i| {
            let cols = rng.range_u64(200, 2000);
            sys.register_sequence(
                format!("msa-{i}"),
                DataType::MultipleAlignment,
                cols,
                format!("alignment-{i}"),
            )
        })
        .collect()
}

fn register_discrete(
    sys: &mut Graphitti,
    rng: &mut WorkloadRng,
    ty: DataType,
    count: usize,
) -> Vec<ObjectId> {
    use relstore::Value;
    (0..count)
        .map(|i| {
            let metadata = match ty {
                DataType::PhylogeneticTree => {
                    vec![Value::Int(rng.range_u64(10, 200) as i64), Value::text("neighbor-joining")]
                }
                DataType::InteractionGraph => vec![
                    Value::Int(rng.range_u64(20, 500) as i64),
                    Value::Int(rng.range_u64(30, 2000) as i64),
                ],
                DataType::RelationalRecord => {
                    vec![Value::text("strain"), Value::Int(rng.range_u64(1, 100) as i64)]
                }
                _ => unreachable!("register_discrete only handles discrete types"),
            };
            sys.register_object(ty, format!("{}-{i}", ty.tag()), metadata, Default::default(), "")
                .expect("discrete registration")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_small_workload() {
        let cfg = InfluenzaConfig::small();
        let sys = build(&cfg);
        assert!(sys.object_count() >= cfg.sequences);
        assert!(sys.annotation_count() > 0);
        assert!(sys.annotation_count() <= cfg.annotations);
        // sequences spread over <= segments domains
        let (interval_domains, _) = sys.index_structure_count();
        assert!(interval_domains <= cfg.segments + cfg.alignments);
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = InfluenzaConfig::small();
        let a = build(&cfg);
        let b = build(&cfg);
        assert_eq!(a.object_count(), b.object_count());
        assert_eq!(a.annotation_count(), b.annotation_count());
        assert_eq!(a.referent_count(), b.referent_count());
    }

    #[test]
    fn shared_referents_create_related_annotations() {
        let mut cfg = InfluenzaConfig::small();
        cfg.annotations = 200;
        cfg.shared_referent_prob = 0.9;
        cfg.seed = 99;
        let sys = build(&cfg);
        // at least one annotation should have a related annotation via a shared referent
        let has_related =
            sys.annotations().iter().any(|a| !sys.related_annotations(a.id).is_empty());
        assert!(has_related, "expected indirectly-related annotations");
    }

    #[test]
    fn protease_annotations_are_findable() {
        let mut cfg = InfluenzaConfig::small();
        cfg.annotations = 100;
        cfg.protease_prob = 0.5;
        let sys = build(&cfg);
        let hits = sys.content_store().containing_phrase("protease");
        assert!(!hits.is_empty());
    }

    #[test]
    fn annotation_scaling() {
        let cfg = InfluenzaConfig::small().with_annotations(60);
        assert_eq!(cfg.annotations, 60);
    }
}
