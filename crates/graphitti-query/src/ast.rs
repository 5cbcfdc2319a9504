//! The query model.
//!
//! A [`Query`] bundles three families of subqueries — over annotation *content*, over
//! *referents* (type-specific substructure predicates) and over the *ontology* — plus
//! graph constraints that the different partial results must jointly satisfy, and a
//! target describing what to return.

use std::sync::Arc;

use graphitti_core::{DataType, ObjectId};
use interval_index::Interval;
use ontology::{ConceptId, RelationType};
use spatial_index::Rect;
use xmlstore::{NameTest, PathExpr, Predicate, Selector};

/// What a query returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Annotation contents (XML documents / fragments).
    AnnotationContents,
    /// Annotation referents (heterogeneous substructures).
    Referents,
    /// Connection subgraphs of the a-graph (one result page per connected subgraph).
    ConnectionGraphs,
}

/// A subquery over annotation content.
#[derive(Debug, Clone, PartialEq)]
pub enum ContentFilter {
    /// The content's full text contains this phrase (case-insensitive substring).
    Phrase(String),
    /// The content's text contains every one of these keywords.
    Keywords(Vec<String>),
    /// A path/XQuery-lite expression matches the content document.
    Path(PathExpr),
}

/// A subquery over referents — the paper's "type-specific predicates".
#[derive(Debug, Clone, PartialEq)]
pub enum ReferentFilter {
    /// Referents of objects of this data type.
    OfType(DataType),
    /// Referents of one specific registered object ("everything marked on this
    /// sequence / image").  The only **id-bearing** referent filter: because objects
    /// are the sharding key, a scatter-gather executor can prune this filter's
    /// evaluation to exactly the shards holding the object's referents.
    OnObject(ObjectId),
    /// Interval referents within a coordinate domain overlapping the query interval.
    IntervalOverlaps {
        /// Coordinate domain (chromosome, alignment id, …); `None` searches all.
        domain: Option<String>,
        /// The query interval.
        interval: Interval,
    },
    /// Region referents within a coordinate system overlapping the query rectangle.
    RegionOverlaps {
        /// Coordinate system; `None` searches all.
        system: Option<String>,
        /// The query rectangle / box.
        rect: Rect,
    },
    /// Referents marked by a block-set containing any of these ids.
    BlockContains(Vec<u64>),
}

/// A subquery over the ontology.
#[derive(Debug, Clone, PartialEq)]
pub enum OntologyFilter {
    /// Annotations citing a term that is an instance of this concept, reached by the
    /// given relations (defaults to is-a / part-of when empty).
    InClass {
        /// The ontology concept whose instances qualify.
        concept: ConceptId,
        /// Relations to follow when expanding the class (empty → is-a + part-of).
        relations: Vec<RelationType>,
    },
    /// Annotations citing exactly this term.
    CitesTerm(ConceptId),
}

/// Graph-level constraints a result must satisfy.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphConstraint {
    /// The result must contain at least `count` referents that form a chain of
    /// *consecutive, non-overlapping* intervals (within `max_gap`), each annotated —
    /// the protease example query's "4 consecutive non-overlapping intervals".
    ConsecutiveIntervals {
        /// Required number of intervals in the chain.
        count: usize,
        /// Maximum gap allowed between consecutive intervals.
        max_gap: u64,
    },
    /// The result's object must carry at least `count` region referents overlapping
    /// `within` — the TP53 query's "≥ 2 regions annotated".
    MinRegionCount {
        /// Minimum number of qualifying regions.
        count: usize,
        /// The region they must fall within (use a very large rect for "anywhere").
        within: Rect,
        /// The coordinate system to search.
        system: String,
    },
    /// Every pair of terminal subquery results must be connected in the a-graph within
    /// `max_len` hops (the path-expression backbone of the TP53 query).
    PathExists {
        /// Maximum path length (edges).
        max_len: usize,
    },
}

/// A complete query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// What to return.
    pub target: Target,
    /// Content subqueries (ANDed).
    pub content: Vec<ContentFilter>,
    /// Referent subqueries (ANDed).
    pub referents: Vec<ReferentFilter>,
    /// Ontology subqueries (ANDed).
    pub ontology: Vec<OntologyFilter>,
    /// Graph constraints (ANDed).
    pub constraints: Vec<GraphConstraint>,
}

impl Query {
    /// Start building a query with the given target.
    pub fn new(target: Target) -> Self {
        Query {
            target,
            content: Vec::new(),
            referents: Vec::new(),
            ontology: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Builder: require an annotation-content phrase.
    pub fn with_phrase(mut self, phrase: impl Into<String>) -> Self {
        self.content.push(ContentFilter::Phrase(phrase.into()));
        self
    }

    /// Builder: require all keywords.
    pub fn with_keywords<I, S>(mut self, keywords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.content.push(ContentFilter::Keywords(keywords.into_iter().map(Into::into).collect()));
        self
    }

    /// Builder: require a content path expression match.
    pub fn with_path(mut self, expr: PathExpr) -> Self {
        self.content.push(ContentFilter::Path(expr));
        self
    }

    /// Builder: add a referent filter.
    pub fn with_referent(mut self, filter: ReferentFilter) -> Self {
        self.referents.push(filter);
        self
    }

    /// Builder: add an ontology filter.
    pub fn with_ontology(mut self, filter: OntologyFilter) -> Self {
        self.ontology.push(filter);
        self
    }

    /// Builder: add a graph constraint.
    pub fn with_constraint(mut self, constraint: GraphConstraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Total number of subqueries (content + referent + ontology).
    pub fn subquery_count(&self) -> usize {
        self.content.len() + self.referents.len() + self.ontology.len()
    }

    /// Rewrite the query into its canonical form: each conjunct is normalised
    /// (phrases and keywords lowercased — matching is case-insensitive anyway —
    /// keyword lists and block-id lists sorted and deduplicated, the default
    /// `InClass` relation set made explicit), and every commutative conjunct list
    /// (content, referents, ontology, constraints — all ANDed) is sorted and
    /// deduplicated.
    ///
    /// Canonicalization preserves semantics, so semantically equal queries written in
    /// different orders or cases produce one canonical query.  That makes plan
    /// selection order-stable and gives the query service's result cache a single key
    /// per equivalence class (see [`Query::cache_key`]).
    pub fn canonicalize(&self) -> Query {
        // Conjunct order is sorted by the same stable rendering the cache key uses
        // (see [`CacheKey`]) — one ordering contract end to end, independent of how
        // `#[derive(Debug)]` happens to format a filter.
        fn rendering<T>(render: impl Fn(&T, &mut String)) -> impl Fn(&T) -> String {
            move |f| {
                let mut s = String::new();
                render(f, &mut s);
                s
            }
        }

        let mut content: Vec<ContentFilter> =
            self.content.iter().map(|f| f.clone().canonicalized()).collect();
        content.sort_by_cached_key(rendering(render_content));
        content.dedup();

        let mut referents: Vec<ReferentFilter> =
            self.referents.iter().map(|f| f.clone().canonicalized()).collect();
        referents.sort_by_cached_key(rendering(render_referent));
        referents.dedup();

        let mut ontology: Vec<OntologyFilter> =
            self.ontology.iter().map(|f| f.clone().canonicalized()).collect();
        ontology.sort_by_cached_key(rendering(render_ontology));
        ontology.dedup();

        let mut constraints = self.constraints.clone();
        constraints.sort_by_cached_key(rendering(render_constraint));
        constraints.dedup();

        Query { target: self.target, content, referents, ontology, constraints }
    }

    /// The key identifying this query's semantic equivalence class: the stable
    /// rendering ([`CacheKey`]) of its canonical form.  Two queries that
    /// [`Query::canonicalize`] to the same query share one key — this is what the
    /// query service's result cache keys on (together with the snapshot's
    /// per-component epochs).
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::of_canonical(&self.canonicalize())
    }
}

/// The result cache's identity key for one query equivalence class.
///
/// Built by an explicit renderer over the query's **canonical form** (see
/// [`Query::canonicalize`]) — every variant is tagged by hand and every string is
/// length-prefixed, so key identity is a contract of this module, not of `#[derive
/// (Debug)]` output (which rustc may legally reformat, and which would make equal
/// queries miss — or in the worst case, distinct queries collide — across a toolchain
/// change).  Clone is an `Arc` bump, so an LRU cache can hold the key in both its map
/// and its recency structure without re-allocating per touch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(Arc<str>);

impl CacheKey {
    /// Render the key of a query **already in canonical form** (the service
    /// canonicalizes once and reuses the canonical query for planning).
    pub(crate) fn of_canonical(canonical: &Query) -> CacheKey {
        let mut out = String::with_capacity(64);
        out.push_str(match canonical.target {
            Target::AnnotationContents => "contents",
            Target::Referents => "referents",
            Target::ConnectionGraphs => "graphs",
        });
        for f in &canonical.content {
            out.push_str("|c:");
            render_content(f, &mut out);
        }
        for f in &canonical.referents {
            out.push_str("|r:");
            render_referent(f, &mut out);
        }
        for f in &canonical.ontology {
            out.push_str("|o:");
            render_ontology(f, &mut out);
        }
        for c in &canonical.constraints {
            out.push_str("|g:");
            render_constraint(c, &mut out);
        }
        CacheKey(out.into())
    }

    /// The rendered key text (stable; useful for logging and tests).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Append a free-form string unambiguously: length-prefixed, so no content can mimic
/// the renderer's own delimiters.
fn atom(out: &mut String, s: &str) {
    use std::fmt::Write;
    let _ = write!(out, "{}:{s}", s.len());
}

fn num(out: &mut String, n: u64) {
    use std::fmt::Write;
    let _ = write!(out, "{n}");
}

/// Floats render as their IEEE-754 bit pattern: exact (no shortest-representation
/// rounding), and distinct payloads stay distinct.
fn float(out: &mut String, f: f64) {
    use std::fmt::Write;
    let _ = write!(out, "{:016x}", f.to_bits());
}

fn render_content(f: &ContentFilter, out: &mut String) {
    match f {
        ContentFilter::Phrase(p) => {
            out.push_str("phrase ");
            atom(out, p);
        }
        ContentFilter::Keywords(ks) => {
            out.push_str("kw");
            for k in ks {
                out.push(' ');
                atom(out, k);
            }
        }
        ContentFilter::Path(expr) => {
            out.push_str("path");
            for step in &expr.steps {
                out.push_str(if step.descendant { "//" } else { "/" });
                match &step.name {
                    NameTest::Any => out.push('*'),
                    NameTest::Named(n) => atom(out, n),
                }
                for p in &step.predicates {
                    out.push('[');
                    match p {
                        Predicate::Position(n) => {
                            out.push_str("pos ");
                            num(out, *n as u64);
                        }
                        Predicate::Last => out.push_str("last"),
                        Predicate::AttrEquals { name, value } => {
                            out.push_str("attr= ");
                            atom(out, name);
                            out.push(' ');
                            atom(out, value);
                        }
                        Predicate::HasAttr(name) => {
                            out.push_str("attr? ");
                            atom(out, name);
                        }
                        Predicate::ContainsText(s) => {
                            out.push_str("text~ ");
                            atom(out, s);
                        }
                        Predicate::ContainsDeep(s) => {
                            out.push_str("deep~ ");
                            atom(out, s);
                        }
                        Predicate::StartsWith(s) => {
                            out.push_str("text^ ");
                            atom(out, s);
                        }
                        Predicate::EndsWith(s) => {
                            out.push_str("text$ ");
                            atom(out, s);
                        }
                    }
                    out.push(']');
                }
            }
            match &expr.selector {
                Selector::Elements => out.push_str("!elems"),
                Selector::Text => out.push_str("!text"),
                Selector::Attribute(a) => {
                    out.push_str("!attr ");
                    atom(out, a);
                }
            }
        }
    }
}

fn render_referent(f: &ReferentFilter, out: &mut String) {
    match f {
        ReferentFilter::OfType(t) => {
            out.push_str("type ");
            out.push_str(match t {
                DataType::DnaSequence => "dna",
                DataType::RnaSequence => "rna",
                DataType::ProteinSequence => "protein",
                DataType::MultipleAlignment => "alignment",
                DataType::PhylogeneticTree => "tree",
                DataType::InteractionGraph => "interaction",
                DataType::RelationalRecord => "record",
                DataType::Image => "image",
                DataType::ProteinModel => "model",
            });
        }
        ReferentFilter::OnObject(id) => {
            out.push_str("onobj ");
            num(out, id.0);
        }
        ReferentFilter::IntervalOverlaps { domain, interval } => {
            out.push_str("ival ");
            match domain {
                None => out.push('*'),
                Some(d) => atom(out, d),
            }
            out.push(' ');
            num(out, interval.start);
            out.push(' ');
            num(out, interval.end);
        }
        ReferentFilter::RegionOverlaps { system, rect } => {
            out.push_str("region ");
            match system {
                None => out.push('*'),
                Some(s) => atom(out, s),
            }
            for v in rect.min.iter().chain(rect.max.iter()) {
                out.push(' ');
                float(out, *v);
            }
        }
        ReferentFilter::BlockContains(ids) => {
            out.push_str("blocks");
            for id in ids {
                out.push(' ');
                num(out, *id);
            }
        }
    }
}

fn render_relation(r: &RelationType, out: &mut String) {
    match r {
        RelationType::IsA => out.push_str("isa"),
        RelationType::PartOf => out.push_str("part"),
        RelationType::DevelopsFrom => out.push_str("dev"),
        RelationType::Regulates => out.push_str("reg"),
        RelationType::Named(n) => {
            out.push_str("named ");
            atom(out, n);
        }
    }
}

fn render_ontology(f: &OntologyFilter, out: &mut String) {
    match f {
        OntologyFilter::InClass { concept, relations } => {
            out.push_str("class ");
            num(out, concept.0 as u64);
            for r in relations {
                out.push(' ');
                render_relation(r, out);
            }
        }
        OntologyFilter::CitesTerm(c) => {
            out.push_str("cites ");
            num(out, c.0 as u64);
        }
    }
}

fn render_constraint(c: &GraphConstraint, out: &mut String) {
    match c {
        GraphConstraint::ConsecutiveIntervals { count, max_gap } => {
            out.push_str("consec ");
            num(out, *count as u64);
            out.push(' ');
            num(out, *max_gap);
        }
        GraphConstraint::MinRegionCount { count, within, system } => {
            out.push_str("minregions ");
            num(out, *count as u64);
            out.push(' ');
            atom(out, system);
            for v in within.min.iter().chain(within.max.iter()) {
                out.push(' ');
                float(out, *v);
            }
        }
        GraphConstraint::PathExists { max_len } => {
            out.push_str("pathlen ");
            num(out, *max_len as u64);
        }
    }
}

impl ContentFilter {
    /// Normalise one content conjunct (lowercase text, sort + dedupe keywords).
    fn canonicalized(self) -> ContentFilter {
        match self {
            ContentFilter::Phrase(p) => ContentFilter::Phrase(p.to_lowercase()),
            ContentFilter::Keywords(ks) => {
                let mut ks: Vec<String> = ks.into_iter().map(|k| k.to_lowercase()).collect();
                ks.sort_unstable();
                ks.dedup();
                ContentFilter::Keywords(ks)
            }
            path @ ContentFilter::Path(_) => path,
        }
    }
}

impl ReferentFilter {
    /// Normalise one referent conjunct (sort + dedupe block ids).
    fn canonicalized(self) -> ReferentFilter {
        match self {
            ReferentFilter::BlockContains(mut ids) => {
                ids.sort_unstable();
                ids.dedup();
                ReferentFilter::BlockContains(ids)
            }
            other => other,
        }
    }
}

impl OntologyFilter {
    /// Normalise one ontology conjunct: make the default relation set explicit and
    /// order-independent (class expansion unions the relations' subtrees, so their
    /// order never matters).
    fn canonicalized(self) -> OntologyFilter {
        match self {
            OntologyFilter::InClass { concept, relations } => {
                let mut relations = if relations.is_empty() {
                    vec![RelationType::IsA, RelationType::PartOf]
                } else {
                    relations
                };
                relations.sort_unstable();
                relations.dedup();
                OntologyFilter::InClass { concept, relations }
            }
            cites @ OntologyFilter::CitesTerm(_) => cites,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_query() {
        let q = Query::new(Target::ConnectionGraphs)
            .with_phrase("protein TP53")
            .with_referent(ReferentFilter::OfType(DataType::Image))
            .with_ontology(OntologyFilter::CitesTerm(ConceptId(3)))
            .with_constraint(GraphConstraint::PathExists { max_len: 4 });
        assert_eq!(q.target, Target::ConnectionGraphs);
        assert_eq!(q.subquery_count(), 3);
        assert_eq!(q.content.len(), 1);
        assert_eq!(q.referents.len(), 1);
        assert_eq!(q.ontology.len(), 1);
        assert_eq!(q.constraints.len(), 1);
    }

    #[test]
    fn unconstrained_query() {
        let q = Query::new(Target::Referents);
        assert!(q.constraints.is_empty());
        assert_eq!(q.subquery_count(), 0);
    }

    #[test]
    fn canonicalize_sorts_conjuncts_and_normalizes_keywords() {
        let a = Query::new(Target::AnnotationContents)
            .with_keywords(["TP53", "Protein", "tp53"])
            .with_phrase("Cleavage Site")
            .with_ontology(OntologyFilter::CitesTerm(ConceptId(3)))
            .with_ontology(OntologyFilter::CitesTerm(ConceptId(1)));
        let b = Query::new(Target::AnnotationContents)
            .with_ontology(OntologyFilter::CitesTerm(ConceptId(1)))
            .with_phrase("cleavage site")
            .with_ontology(OntologyFilter::CitesTerm(ConceptId(3)))
            .with_keywords(["protein", "tp53"]);
        assert_eq!(a.canonicalize(), b.canonicalize());
        assert_eq!(a.cache_key(), b.cache_key());
        let canon = a.canonicalize();
        assert!(canon
            .content
            .iter()
            .any(|f| matches!(f, ContentFilter::Keywords(ks) if ks == &["protein", "tp53"])));
        assert!(canon
            .content
            .iter()
            .any(|f| matches!(f, ContentFilter::Phrase(p) if p == "cleavage site")));
    }

    #[test]
    fn canonicalize_dedupes_identical_conjuncts_and_block_ids() {
        let q = Query::new(Target::Referents)
            .with_referent(ReferentFilter::BlockContains(vec![9, 2, 2, 5]))
            .with_referent(ReferentFilter::BlockContains(vec![2, 5, 9]))
            .with_constraint(GraphConstraint::PathExists { max_len: 4 })
            .with_constraint(GraphConstraint::PathExists { max_len: 4 });
        let canon = q.canonicalize();
        assert_eq!(canon.referents, vec![ReferentFilter::BlockContains(vec![2, 5, 9])]);
        assert_eq!(canon.constraints.len(), 1);
    }

    #[test]
    fn canonicalize_makes_default_class_relations_explicit() {
        let implicit = Query::new(Target::AnnotationContents)
            .with_ontology(OntologyFilter::InClass { concept: ConceptId(7), relations: vec![] });
        let explicit =
            Query::new(Target::AnnotationContents).with_ontology(OntologyFilter::InClass {
                concept: ConceptId(7),
                relations: vec![RelationType::PartOf, RelationType::IsA],
            });
        assert_eq!(implicit.cache_key(), explicit.cache_key());
    }

    #[test]
    fn cache_keys_separate_inequivalent_queries() {
        // Same words, different filter structure: a phrase is not a keyword pair, and
        // content that mimics the renderer's own delimiters must not collide either.
        let phrase = Query::new(Target::AnnotationContents).with_phrase("protease motif");
        let keywords = Query::new(Target::AnnotationContents).with_keywords(["protease", "motif"]);
        assert_ne!(phrase.cache_key(), keywords.cache_key());
        let tricky_one = Query::new(Target::AnnotationContents).with_keywords(["a b", "c"]);
        let tricky_two = Query::new(Target::AnnotationContents).with_keywords(["a", "b c"]);
        assert_ne!(tricky_one.cache_key(), tricky_two.cache_key());
        // different targets never share a key
        assert_ne!(
            Query::new(Target::Referents).cache_key(),
            Query::new(Target::ConnectionGraphs).cache_key()
        );
        // and the key is a value: equal queries render equal keys with equal hashes
        assert_eq!(phrase.cache_key().as_str(), phrase.clone().cache_key().as_str());
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let q = Query::new(Target::ConnectionGraphs)
            .with_keywords(["B", "a"])
            .with_referent(ReferentFilter::OfType(DataType::Image))
            .with_ontology(OntologyFilter::CitesTerm(ConceptId(2)));
        let once = q.canonicalize();
        assert_eq!(once.canonicalize(), once);
    }

    #[test]
    fn with_marker_helpers() {
        let q = Query::new(Target::Referents).with_referent(ReferentFilter::IntervalOverlaps {
            domain: Some("chr7".into()),
            interval: Interval::new(0, 100),
        });
        assert_eq!(q.referents.len(), 1);
        // Markers are built via graphitti_core; ensure they are available to callers.
        let _ = graphitti_core::Marker::interval(0, 100);
    }
}
