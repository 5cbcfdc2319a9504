//! Shared helpers for the randomized equivalence suites: a seeded random-query
//! generator covering every subquery family and constraint kind, over the `datagen`
//! workloads.

use datagen::rng::WorkloadRng;
use graphitti_core::{DataType, Graphitti, ObjectId};
use graphitti_query::{
    ContentFilter, GraphConstraint, OntologyFilter, Query, ReferentFilter, Target,
};
use interval_index::Interval;
use ontology::{ConceptId, RelationType};
use spatial_index::Rect;
use xmlstore::PathExpr;

pub const PHRASES: &[&str] = &[
    "protease",
    "protease cleavage",
    "protein TP53",
    "strong staining",
    "background expression",
    "synonymous",
    "zebra unicorn griffin", // matches nothing
];

pub const KEYWORD_SETS: &[&[&str]] =
    &[&["protease"], &["protein", "tp53"], &["staining", "region"], &["nonexistent-token"]];

pub const PATHS: &[&str] = &["//dc:subject", "//dc:title", "/annotation/dc:description", "//nope"];

pub const TYPES: &[DataType] = &[
    DataType::DnaSequence,
    DataType::ProteinSequence,
    DataType::Image,
    DataType::MultipleAlignment,
    DataType::RelationalRecord,
];

/// Draw a random query touching any mix of subquery families and constraints.
pub fn random_query(rng: &mut WorkloadRng, sys: &Graphitti, domains: &[String]) -> Query {
    let target = match rng.range_u64(0, 3) {
        0 => Target::AnnotationContents,
        1 => Target::Referents,
        _ => Target::ConnectionGraphs,
    };
    let mut q = Query::new(target);

    for _ in 0..rng.range_u64(0, 3) {
        q = match rng.range_u64(0, 3) {
            0 => q.with_phrase(PHRASES[rng.range_usize(0, PHRASES.len())]),
            1 => {
                let ks = KEYWORD_SETS[rng.range_usize(0, KEYWORD_SETS.len())];
                q.with_keywords(ks.iter().copied())
            }
            _ => {
                let path = PATHS[rng.range_usize(0, PATHS.len())];
                q.content
                    .push(ContentFilter::Path(PathExpr::parse(path).expect("test path parses")));
                q
            }
        };
    }

    for _ in 0..rng.range_u64(0, 3) {
        let f = match rng.range_u64(0, 5) {
            0 => ReferentFilter::OfType(TYPES[rng.range_usize(0, TYPES.len())]),
            4 => {
                // The id-bearing filter (sometimes an unknown object, which must
                // match nothing).
                ReferentFilter::OnObject(ObjectId(rng.range_u64(0, sys.object_count() as u64 + 2)))
            }
            1 => {
                let domain = if rng.chance(0.6) && !domains.is_empty() {
                    Some(domains[rng.range_usize(0, domains.len())].clone())
                } else {
                    None
                };
                let start = rng.range_u64(0, 2_000);
                ReferentFilter::IntervalOverlaps {
                    domain,
                    interval: Interval::new(start, start + rng.range_u64(1, 500)),
                }
            }
            2 => {
                let system = if rng.chance(0.6) && !domains.is_empty() {
                    Some(domains[rng.range_usize(0, domains.len())].clone())
                } else {
                    None
                };
                let x = rng.range_f64(0.0, 800.0);
                let y = rng.range_f64(0.0, 800.0);
                ReferentFilter::RegionOverlaps {
                    system,
                    rect: Rect::rect2(x, y, x + 200.0, y + 200.0),
                }
            }
            _ => ReferentFilter::BlockContains(
                (0..rng.range_u64(1, 4)).map(|_| rng.range_u64(0, 50)).collect(),
            ),
        };
        q = q.with_referent(f);
    }

    let concepts = sys.ontology().concept_count() as u64;
    if concepts > 0 {
        for _ in 0..rng.range_u64(0, 3) {
            let c = ConceptId(rng.range_u64(0, concepts + 2) as u32); // may be unknown
            let f = if rng.chance(0.5) {
                OntologyFilter::CitesTerm(c)
            } else {
                OntologyFilter::InClass {
                    concept: c,
                    relations: if rng.chance(0.5) { vec![] } else { vec![RelationType::IsA] },
                }
            };
            q = q.with_ontology(f);
        }
    }

    if rng.chance(0.3) {
        let c = match rng.range_u64(0, 3) {
            0 => GraphConstraint::ConsecutiveIntervals {
                count: rng.range_usize(1, 4),
                max_gap: rng.range_u64(0, 100),
            },
            1 => GraphConstraint::MinRegionCount {
                count: rng.range_usize(1, 4),
                within: Rect::rect2(0.0, 0.0, 1_000.0, 1_000.0),
                system: domains.first().cloned().unwrap_or_else(|| "cs".to_string()),
            },
            _ => GraphConstraint::PathExists { max_len: rng.range_usize(1, 5) },
        };
        q = q.with_constraint(c);
    }
    q
}

/// The distinct, sorted coordinate domains of a system's objects.
pub fn object_domains(sys: &Graphitti) -> Vec<String> {
    let mut ds: Vec<String> =
        sys.objects().iter().map(|o| o.domain.to_string()).filter(|d| !d.is_empty()).collect();
    ds.sort();
    ds.dedup();
    ds
}
