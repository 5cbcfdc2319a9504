//! Query answers pinned byte for byte.
//!
//! The pipelined [`Executor`], the scatter-gather [`ShardedExecutor`] and the scan-all
//! reference oracle all collate through one `Collator`, so an equivalence battery
//! between them cannot see a change to collation itself.  This test pins the answers
//! instead: a generated mix of queries — the end-to-end benchmark's seven template
//! shapes (`T1` … `T7`), the path constraint and a mixed shape that visits every
//! referent filter kind and every target — runs over the influenza and neuro corpora
//! at two seeds each, on an [`Executor`] and on a 4-shard [`ShardedExecutor`], which
//! must agree on `to_json`.  Every answer is hashed (64-bit FNV-1a) in its
//! entity-named form ([`named`]): each page node as the `(kind, id)` of the entity it
//! stands for, each page edge as `(from entity, label, to entity)`, each page's lists
//! sorted and the pages sorted, then the flat lists.  So the constants pin what an
//! answer says, not how the a-graph numbers its nodes and edges or orders the pages.
//! The hashes of one shape on one corpus are folded in query order into one constant
//! of [`GOLDENS`].
//!
//! Collation picks a side twice by comparing cardinalities it already holds:
//!
//! * **referents** — with a referent filter and an annotation filter both present, it
//!   narrows the candidate referents by probing each one's annotations when there are
//!   fewer candidate referents than candidate annotations, and by scanning the
//!   candidate annotations' referents otherwise;
//! * **witness annotations** — with surviving objects, it gathers the annotations
//!   touching them through the objects' referents when those number fewer than the
//!   candidate annotations, and by scanning the candidate annotations otherwise.
//!
//! The test recomputes both cardinalities from public answers (the annotation family
//! alone, the referent family alone, `referents_of_object`) and asserts that the mix
//! lands on both sides of both choices on every corpus, so the constants cover all four
//! code paths.

use graphitti::core::agraph::NodeId;
use graphitti::core::ontology::ConceptId;
use graphitti::core::{AnnotationId, DataType, Graphitti, ObjectId, ShardedSystem};
use graphitti::intervals::Interval;
use graphitti::query::{
    Executor, GraphConstraint, OntologyFilter, Query, QueryResult, ReferentFilter, ShardedExecutor,
    Target,
};
use graphitti::spatial::Rect;
use graphitti::workloads::influenza::{self, InfluenzaConfig};
use graphitti::workloads::neuro::{self, NeuroConfig};
use graphitti::workloads::rng::WorkloadRng;

/// Queries of each shape per corpus.
const PER_SHAPE: usize = 12;

/// The shapes, in the order their constants are listed.
const SHAPES: [&str; 9] = ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "path", "mixed"];

/// `(corpus, [one folded hash per shape, in SHAPES order])`, captured before the
/// collator learnt either narrower-side choice, re-derived once when the export
/// stopped printing a page's `terminals` (until then a copy of its nodes), and once
/// more when the hash moved from `to_json` to the entity-named form; they only change
/// with a deliberate change of what a query answers.
const GOLDENS: [(&str, [u64; 9]); 4] = [
    (
        "influenza/0xF1A3",
        [
            0xaa4db8262b11624d,
            0xc804935c0b8882c2,
            0x8507436324b139d1,
            0x3e1f496761588d74,
            0x9b638d05c98a83e2,
            0xad02b49ce6626fa8,
            0x47926e131b2b05da,
            0x030f17374e3ff1e2,
            0x6ea20c954e309172,
        ],
    ),
    (
        "influenza/7",
        [
            0x88e8f66b648055ca,
            0x911e24442d0b1fac,
            0x7039523c801749a3,
            0xab4ec17e0e452595,
            0x9c014dd14614baf9,
            0xc25bd0f4321ae434,
            0xca9abe9fa211e230,
            0x30528e60f96a422d,
            0x5f780b74c9970ae4,
        ],
    ),
    (
        "neuro/0xB3A1",
        [
            0xa35a48a95b8358c8,
            0xcd57760e335ff64e,
            0xfcc008eb91005186,
            0x48465dd94cd5cd96,
            0x2b508f5b31fe1795,
            0x13949cc831b10ca2,
            0x46f2348030bb7cf6,
            0x8459ba5c9a0fceae,
            0x947bc3d19f8d4437,
        ],
    ),
    (
        "neuro/11",
        [
            0x1c23ef08ea58ac7c,
            0xcc231051c6876d1d,
            0x743d4bb8cd618c4c,
            0x8d2f33003d386323,
            0xbcdddf60a3a51129,
            0x0143af2fffa9eb31,
            0x89c030c2724729a2,
            0x2b96e59fd60a9e68,
            0x7b2500419fb5fb93,
        ],
    ),
];

/// The concepts some annotation of `sys` cites, ascending.
fn cited(sys: &Graphitti) -> Vec<ConceptId> {
    let mut terms: Vec<ConceptId> = (0..sys.annotation_count() as u64)
        .filter_map(|a| sys.annotation(AnnotationId(a)))
        .flat_map(|a| a.terms.iter().copied())
        .collect();
    terms.sort_unstable();
    terms.dedup();
    terms
}

/// 64-bit FNV-1a, continued from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `answer` with every a-graph id replaced by what it names in `sys`'s a-graph: per
/// page its nodes as `(kind, id)` and its edges as `(from, label, to)`, then its
/// entity lists, each list sorted, the pages sorted; then the flat lists.  Two answers
/// that differ only in how their graphs number nodes and edges, or in page order, are
/// equal in this form; a wrong node, edge or entity is not.
fn named(sys: &Graphitti, answer: &QueryResult) -> String {
    let graph = sys.agraph();
    let node = |id: NodeId| graph.node(id).map(|n| (n.kind.as_str(), n.key));
    let mut pages: Vec<String> = answer
        .pages
        .iter()
        .map(|p| {
            let subgraph = &p.subgraph.subgraph;
            let mut nodes: Vec<_> = subgraph.nodes.iter().map(|&n| node(n)).collect();
            nodes.sort_unstable();
            let mut edges: Vec<_> = subgraph
                .edges
                .iter()
                .map(|&e| graph.edge(e).map(|e| (node(e.from), e.label.to_string(), node(e.to))))
                .collect();
            edges.sort_unstable();
            let ids = |ids: Vec<u64>| {
                let mut ids = ids;
                ids.sort_unstable();
                ids
            };
            format!(
                "nodes {nodes:?} edges {edges:?} a {:?} r {:?} o {:?} t {:?}",
                ids(p.annotations.iter().map(|a| a.0).collect()),
                ids(p.referents.iter().map(|r| r.0).collect()),
                ids(p.objects.iter().map(|o| o.0).collect()),
                ids(p.terms.iter().map(|t| u64::from(t.0)).collect()),
            )
        })
        .collect();
    pages.sort_unstable();
    let flat = |ids: Vec<u64>| format!("{ids:?}");
    format!(
        "{pages:?} | a {} r {} o {}",
        flat(answer.annotations.iter().map(|a| a.0).collect()),
        flat(answer.referents.iter().map(|r| r.0).collect()),
        flat(answer.objects.iter().map(|o| o.0).collect()),
    )
}

/// What the mix generator draws from: the corpus' own words, domains, coordinate
/// systems, terms and objects.
struct Vocabulary {
    phrases: &'static [&'static str],
    words: &'static [&'static str],
    domains: Vec<String>,
    systems: Vec<String>,
    extent: (u64, f64),
    /// Every concept of the ontology, and the ones some annotation cites.
    terms: u32,
    cited: Vec<ConceptId>,
    objects: u64,
    types: &'static [DataType],
}

impl Vocabulary {
    fn influenza(sys: &Graphitti, segments: usize, alignments: usize) -> Vocabulary {
        let mut domains: Vec<String> = (0..segments).map(|s| format!("segment-{s}")).collect();
        domains.extend((0..alignments).map(|a| format!("alignment-{a}")));
        Vocabulary {
            phrases: &["protease", "protease cleavage", "synonymous substitution", "motif"],
            words: &["protease", "cleavage", "motif", "synonymous", "phenotypic", "region"],
            domains,
            systems: vec!["none".to_owned()],
            extent: (2_400, 1_000.0),
            terms: sys.ontology().concept_count() as u32,
            cited: cited(sys),
            objects: sys.object_count() as u64,
            types: &[
                DataType::DnaSequence,
                DataType::RnaSequence,
                DataType::ProteinSequence,
                DataType::MultipleAlignment,
                DataType::PhylogeneticTree,
            ],
        }
    }

    fn neuro(sys: &Graphitti, systems: &[String], canvas: f64) -> Vocabulary {
        Vocabulary {
            phrases: &["protein TP53", "staining", "background expression", "TP53"],
            words: &["protein", "tp53", "staining", "background", "expression", "region"],
            domains: vec!["none".to_owned()],
            systems: systems.to_vec(),
            extent: (1_000, canvas),
            terms: sys.ontology().concept_count() as u32,
            cited: cited(sys),
            objects: sys.object_count() as u64,
            types: &[DataType::Image, DataType::DnaSequence],
        }
    }

    /// A cited term four times in five, else any concept.
    fn term(&self, rng: &mut WorkloadRng) -> ConceptId {
        if !self.cited.is_empty() && rng.chance(0.8) {
            return *rng.choose(&self.cited);
        }
        ConceptId(rng.range_u64(0, u64::from(self.terms.max(1))) as u32)
    }

    fn phrase(&self, rng: &mut WorkloadRng) -> String {
        (*rng.choose(self.phrases)).to_owned()
    }

    fn keywords(&self, rng: &mut WorkloadRng) -> Vec<String> {
        let n = if rng.chance(0.4) { 2 } else { 1 };
        (0..n).map(|_| (*rng.choose(self.words)).to_owned()).collect()
    }

    /// An interval window, in a domain with probability `in_domain`.
    fn interval(&self, rng: &mut WorkloadRng, in_domain: f64) -> ReferentFilter {
        let start = rng.range_u64(0, self.extent.0);
        let interval = Interval::new(start, start + rng.range_u64(50, 1_500));
        let domain = rng.chance(in_domain).then(|| rng.choose(&self.domains).clone());
        ReferentFilter::IntervalOverlaps { domain, interval }
    }

    /// A rectangle whose sides are at most `widest` of the canvas side.
    fn rect(&self, rng: &mut WorkloadRng, widest: f64) -> Rect {
        let side = self.extent.1;
        let x = rng.range_f64(0.0, side * 0.7);
        let y = rng.range_f64(0.0, side * 0.7);
        let w = rng.range_f64(side * 0.02, side * widest);
        let h = rng.range_f64(side * 0.02, side * widest);
        Rect::rect2(x, y, x + w, y + h)
    }

    /// A region window, in a coordinate system with probability `in_system`.
    fn region(&self, rng: &mut WorkloadRng, in_system: f64, widest: f64) -> ReferentFilter {
        let system = rng.chance(in_system).then(|| rng.choose(&self.systems).clone());
        ReferentFilter::RegionOverlaps { system, rect: self.rect(rng, widest) }
    }

    fn object(&self, rng: &mut WorkloadRng) -> ReferentFilter {
        ReferentFilter::OnObject(ObjectId(rng.range_u64(0, self.objects.max(1))))
    }

    fn referent_filter(&self, rng: &mut WorkloadRng) -> ReferentFilter {
        match rng.range_u64(0, 5) {
            0 => ReferentFilter::OfType(*rng.choose(self.types)),
            1 => self.object(rng),
            2 => ReferentFilter::BlockContains(vec![rng.range_u64(0, 100), rng.range_u64(0, 100)]),
            3 => self.interval(rng, 0.8),
            _ => self.region(rng, 0.8, 0.5),
        }
    }

    /// A consecutive-intervals or a region-count constraint (a path constraint costs
    /// candidates × objects searches, so only the narrow path shape carries one).
    fn constraint(&self, rng: &mut WorkloadRng) -> GraphConstraint {
        match rng.range_u64(0, 2) {
            0 => GraphConstraint::ConsecutiveIntervals {
                count: rng.range_usize(1, 4),
                max_gap: rng.range_u64(100, 2_000),
            },
            _ => GraphConstraint::MinRegionCount {
                count: rng.range_usize(1, 3),
                within: self.rect(rng, 0.5),
                system: rng.choose(&self.systems).clone(),
            },
        }
    }

    /// One query of `shape` (an index into [`SHAPES`]).
    fn query(&self, shape: usize, rng: &mut WorkloadRng) -> Query {
        match shape {
            0 => Query::new(Target::AnnotationContents).with_keywords(self.keywords(rng)),
            1 => Query::new(Target::ConnectionGraphs)
                .with_phrase(self.phrase(rng))
                .with_ontology(OntologyFilter::CitesTerm(self.term(rng))),
            2 => Query::new(Target::ConnectionGraphs)
                .with_phrase(self.phrase(rng))
                .with_ontology(OntologyFilter::CitesTerm(self.term(rng)))
                .with_constraint(GraphConstraint::MinRegionCount {
                    count: 2,
                    within: self.rect(rng, 0.5),
                    system: rng.choose(&self.systems).clone(),
                }),
            3 => Query::new(Target::Referents).with_keywords(self.keywords(rng)).with_constraint(
                GraphConstraint::ConsecutiveIntervals { count: 2, max_gap: 2_000 },
            ),
            4 => Query::new(Target::ConnectionGraphs)
                .with_phrase(self.phrase(rng))
                .with_referent(self.interval(rng, 0.8)),
            5 => Query::new(Target::Referents)
                .with_referent(self.region(rng, 0.8, 0.5))
                .with_phrase(self.phrase(rng)),
            6 => Query::new(Target::ConnectionGraphs)
                .with_ontology(OntologyFilter::CitesTerm(self.term(rng))),
            7 => Query::new(Target::ConnectionGraphs)
                .with_phrase(self.phrase(rng))
                .with_referent(match rng.range_u64(0, 3) {
                    0 => self.object(rng),
                    1 => self.interval(rng, 1.0),
                    _ => self.region(rng, 1.0, 0.1),
                })
                .with_constraint(GraphConstraint::PathExists { max_len: rng.range_usize(1, 5) }),
            _ => {
                let target = *rng.choose(&[
                    Target::AnnotationContents,
                    Target::Referents,
                    Target::ConnectionGraphs,
                ]);
                let mut q = Query::new(target);
                if rng.chance(0.85) {
                    q = q.with_referent(self.referent_filter(rng));
                }
                match rng.range_u64(0, 4) {
                    0 => q = q.with_keywords(self.keywords(rng)),
                    1 => {
                        let concept = self.term(rng);
                        q = q.with_ontology(OntologyFilter::InClass { concept, relations: vec![] })
                    }
                    2 => q = q.with_ontology(OntologyFilter::CitesTerm(self.term(rng))),
                    _ => {}
                }
                if rng.chance(0.4) {
                    q = q.with_constraint(self.constraint(rng));
                }
                q
            }
        }
    }
}

/// Which sides of the two narrower-side choices a mix took: `[referents, witnesses]`,
/// each `[probe the narrower side, scan the candidates]`.
#[derive(Default)]
struct Sides([[usize; 2]; 2]);

impl Sides {
    /// Recompute both choices for `query`, whose answer on `sys` is `answer`, from
    /// public answers alone.
    fn note(&mut self, sys: &Graphitti, query: &Query, answer: &QueryResult) {
        let exec = Executor::new(sys);
        let has_ann_family = !query.content.is_empty() || !query.ontology.is_empty();
        let annotations = if has_ann_family {
            let mut family = Query::new(Target::AnnotationContents);
            family.content = query.content.clone();
            family.ontology = query.ontology.clone();
            exec.run(&family).annotations.len()
        } else {
            sys.annotation_count()
        };
        if has_ann_family && !query.referents.is_empty() {
            let mut family = Query::new(Target::Referents);
            family.referents = query.referents.clone();
            let referents = exec.run(&family).referents.len();
            self.0[0][usize::from(referents >= annotations)] += 1;
        }
        if !answer.objects.is_empty() {
            let held: usize =
                answer.objects.iter().map(|&o| sys.referents_of_object(o).len()).sum();
            self.0[1][usize::from(held >= annotations)] += 1;
        }
    }
}

/// Run the mix on an unsharded and on a 4-shard replay of `built` (both replayed from
/// one study snapshot, so their a-graph node ids coincide); return the folded hash of
/// each shape's entity-named answers and which sides the mix took.
fn run_mix(built: &Graphitti, vocab: &Vocabulary, seed: u64) -> ([u64; 9], Sides) {
    let study = built.study_snapshot();
    let sys = &Graphitti::from_study_snapshot(&study).expect("replays");
    let sharded = ShardedSystem::from_study_snapshot(&study, 4).expect("replays");
    let cut = sharded.capture_cut();
    let mut rng = WorkloadRng::new(seed);
    let mut sides = Sides::default();
    let mut hashes = [FNV_OFFSET; 9];
    for _ in 0..PER_SHAPE {
        for (shape, hash) in hashes.iter_mut().enumerate() {
            let query = vocab.query(shape, &mut rng);
            let answer = Executor::new(sys).run(&query);
            assert_eq!(
                ShardedExecutor::new(&cut).run(&query).to_json(),
                answer.to_json(),
                "4 shards answer {query:?} as one does"
            );
            let named = named(sys, &answer);
            *hash = fnv1a(*hash, &fnv1a(FNV_OFFSET, named.as_bytes()).to_le_bytes());
            sides.note(sys, &query, &answer);
        }
    }
    (hashes, sides)
}

/// What is wrong with the mix's answers on one corpus: shapes whose hash moved, and a
/// choice the mix took only one side of.
fn check(corpus: &str, sys: &Graphitti, vocab: &Vocabulary, seed: u64) -> Vec<String> {
    let (hashes, sides) = run_mix(sys, vocab, seed);
    let golden = GOLDENS.iter().find(|(name, _)| *name == corpus).expect("a golden row").1;
    let mut wrong: Vec<String> = SHAPES
        .iter()
        .zip(hashes.iter().zip(golden))
        .filter(|(_, (got, want))| *got != want)
        .map(|(shape, (got, want))| format!("{corpus} {shape}: {got:#018x}, pinned {want:#018x}"))
        .collect();
    let row: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
    println!("answer_goldens: (\"{corpus}\", [{}]),", row.join(", "));
    let [[narrow_refs, scan_refs], [narrow_witness, scan_witness]] = sides.0;
    println!(
        "answer_goldens: {corpus}: referents {narrow_refs} narrow / {scan_refs} scan, \
         witnesses {narrow_witness} narrow / {scan_witness} scan"
    );
    if [narrow_refs, scan_refs, narrow_witness, scan_witness].contains(&0) {
        wrong.push(format!("{corpus}: the mix takes one side of a choice only"));
    }
    wrong
}

#[test]
fn influenza_answers_match_their_goldens() {
    let mut wrong = Vec::new();
    for (name, seed) in [("influenza/0xF1A3", 0xF1A3), ("influenza/7", 7)] {
        let config = InfluenzaConfig { seed, ..InfluenzaConfig::default() };
        let sys = influenza::build(&config);
        let vocab = Vocabulary::influenza(&sys, config.segments, config.alignments);
        wrong.extend(check(name, &sys, &vocab, seed));
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

#[test]
fn neuro_answers_match_their_goldens() {
    let mut wrong = Vec::new();
    for (name, seed) in [("neuro/0xB3A1", 0xB3A1), ("neuro/11", 11)] {
        let config = NeuroConfig { seed, ..NeuroConfig::default() };
        let workload = neuro::build(&config);
        let vocab = Vocabulary::neuro(&workload.system, &workload.systems, config.canvas);
        wrong.extend(check(name, &workload.system, &vocab, seed));
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
