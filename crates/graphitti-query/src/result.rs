//! The query result model.
//!
//! Results are organised the way the demo's query tab organises them: "in cases where
//! subgraphs of the a-graph are returned as a result, each connected subgraph forms a
//! result page".  A [`QueryResult`] therefore holds a list of [`ResultPage`]s, each a
//! connection subgraph together with the decoded entities it contains, plus flat
//! convenience lists for the content- and referent-targeted queries.

use agraph::{ConnectionSubgraph, NodeId};
use graphitti_core::{AnnotationId, ObjectId, ReferentId};
use jsonlite::Json;
use ontology::ConceptId;

/// One result page: a connected witness subgraph and the entities it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultPage {
    /// The connection subgraph for this page.
    pub subgraph: ConnectionSubgraph,
    /// Annotation contents in the page.
    pub annotations: Vec<AnnotationId>,
    /// Referents in the page.
    pub referents: Vec<ReferentId>,
    /// Objects in the page.
    pub objects: Vec<ObjectId>,
    /// Ontology terms in the page.
    pub terms: Vec<ConceptId>,
}

impl ResultPage {
    /// Total number of nodes in the page's subgraph.
    pub fn size(&self) -> usize {
        self.subgraph.size()
    }

    /// Whether the page contains a given annotation.
    pub fn contains_annotation(&self, id: AnnotationId) -> bool {
        self.annotations.contains(&id)
    }

    /// Whether the page contains a given object.
    pub fn contains_object(&self, id: ObjectId) -> bool {
        self.objects.contains(&id)
    }
}

/// Whether a result is the complete answer or a marked shard-degraded subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completeness {
    /// Every shard contributed: the result is the full answer.
    Complete,
    /// The listed shards were unresponsive and contributed nothing; the result is
    /// byte-identical to the answer computed without their candidate
    /// contributions — an exact, marked subset of the complete answer.
    Degraded {
        /// The shards that did not contribute, ascending.
        missing_shards: Vec<usize>,
    },
}

/// The non-page remainder of a [`QueryResult`], for streaming transports: what a
/// server sends *after* the page frames so a client can reassemble the exact
/// result without either side ever materialising a second whole-result buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultTail {
    /// Flat annotation list (for `AnnotationContents` target).
    pub annotations: Vec<AnnotationId>,
    /// Flat referent list (for `Referents` target).
    pub referents: Vec<ReferentId>,
    /// Flat object list (objects selected by the query).
    pub objects: Vec<ObjectId>,
    /// Shards that failed to contribute (ascending; empty = complete answer).
    pub missing_shards: Vec<usize>,
}

/// The result of running a query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Result pages (connection subgraphs), one per connected witness component.
    pub pages: Vec<ResultPage>,
    /// Flat annotation list (for `AnnotationContents` target).
    pub annotations: Vec<AnnotationId>,
    /// Flat referent list (for `Referents` target).
    pub referents: Vec<ReferentId>,
    /// Flat object list (objects selected by the query).
    pub objects: Vec<ObjectId>,
    /// Shards that failed to contribute (ascending; empty = complete answer).
    /// Only the sharded path under `allow_partial` ever populates this — see
    /// [`Completeness`] for the exact-subset contract.
    pub missing_shards: Vec<usize>,
}

impl QueryResult {
    /// An empty result.
    pub fn empty() -> Self {
        QueryResult::default()
    }

    /// Number of result pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Whether this is a shard-degraded partial answer.
    pub fn is_degraded(&self) -> bool {
        !self.missing_shards.is_empty()
    }

    /// The result's completeness tag.
    pub fn completeness(&self) -> Completeness {
        if self.missing_shards.is_empty() {
            Completeness::Complete
        } else {
            Completeness::Degraded { missing_shards: self.missing_shards.clone() }
        }
    }

    /// Whether the result is empty (no pages and no flat results).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
            && self.annotations.is_empty()
            && self.referents.is_empty()
            && self.objects.is_empty()
    }

    /// The total node footprint across all pages.
    pub fn total_nodes(&self) -> usize {
        self.pages.iter().map(ResultPage::size).sum()
    }

    /// Serialise the result to JSON (the query tab's result export): every struct an
    /// object keyed by field name in declaration order, every id a bare number.  The
    /// equivalence batteries compare answers as these bytes.
    pub fn to_json(&self) -> String {
        fn ids<T>(items: &[T], id: impl Fn(&T) -> u64) -> Json {
            Json::arr(items, |item| Json::u64(id(item)))
        }
        let page = |p: &ResultPage| {
            let ConnectionSubgraph { terminals, subgraph } = &p.subgraph;
            Json::obj([
                (
                    "subgraph",
                    Json::obj([
                        ("terminals", ids(terminals, |n| n.0)),
                        (
                            "subgraph",
                            Json::obj([
                                ("nodes", ids(&subgraph.nodes, |n| n.0)),
                                ("edges", ids(&subgraph.edges, |e| e.0)),
                            ]),
                        ),
                    ]),
                ),
                ("annotations", ids(&p.annotations, |a| a.0)),
                ("referents", ids(&p.referents, |r| r.0)),
                ("objects", ids(&p.objects, |o| o.0)),
                ("terms", ids(&p.terms, |t| t.0.into())),
            ])
        };
        Json::obj([
            ("pages", Json::arr(&self.pages, page)),
            ("annotations", ids(&self.annotations, |a| a.0)),
            ("referents", ids(&self.referents, |r| r.0)),
            ("objects", ids(&self.objects, |o| o.0)),
            ("missing_shards", ids(&self.missing_shards, |&s| s as u64)),
        ])
        .pretty()
    }

    /// Decompose the result for page-at-a-time streaming: an iterator over the
    /// result pages (sent first, one frame each) and the flat [`ResultTail`]
    /// (sent last).  [`from_stream`](Self::from_stream) is the exact inverse —
    /// `from_stream(pages, tail)` rebuilds a result equal to the original, so a
    /// streamed transfer reassembles byte-identical under
    /// [`to_json`](Self::to_json).
    pub fn into_stream(self) -> (std::vec::IntoIter<ResultPage>, ResultTail) {
        let QueryResult { pages, annotations, referents, objects, missing_shards } = self;
        (pages.into_iter(), ResultTail { annotations, referents, objects, missing_shards })
    }

    /// Reassemble a result from a page stream and its tail — the inverse of
    /// [`into_stream`](Self::into_stream).
    pub fn from_stream(pages: impl IntoIterator<Item = ResultPage>, tail: ResultTail) -> Self {
        let ResultTail { annotations, referents, objects, missing_shards } = tail;
        QueryResult {
            pages: pages.into_iter().collect(),
            annotations,
            referents,
            objects,
            missing_shards,
        }
    }

    /// All node ids appearing anywhere in the result pages (deduplicated).
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> =
            self.pages.iter().flat_map(|p| p.subgraph.subgraph.nodes.iter().copied()).collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agraph::Subgraph;

    fn page(objs: Vec<ObjectId>) -> ResultPage {
        ResultPage {
            subgraph: ConnectionSubgraph {
                terminals: vec![NodeId(0), NodeId(1)],
                subgraph: Subgraph { nodes: vec![NodeId(0), NodeId(1)], edges: vec![] },
            },
            annotations: vec![AnnotationId(0)],
            referents: vec![],
            objects: objs,
            terms: vec![],
        }
    }

    #[test]
    fn empty_result() {
        let r = QueryResult::empty();
        assert!(r.is_empty());
        assert_eq!(r.page_count(), 0);
        assert_eq!(r.total_nodes(), 0);
        assert!(r.all_nodes().is_empty());
    }

    #[test]
    fn result_aggregates() {
        let mut r = QueryResult::empty();
        r.pages.push(page(vec![ObjectId(5)]));
        r.objects.push(ObjectId(5));
        assert!(!r.is_empty());
        assert_eq!(r.page_count(), 1);
        assert_eq!(r.total_nodes(), 2);
        assert_eq!(r.all_nodes(), vec![NodeId(0), NodeId(1)]);
        assert!(r.pages[0].contains_object(ObjectId(5)));
        assert!(r.pages[0].contains_annotation(AnnotationId(0)));
        assert_eq!(r.pages[0].size(), 2);
    }

    #[test]
    fn completeness_tag_tracks_missing_shards() {
        let mut r = QueryResult::empty();
        assert!(!r.is_degraded());
        assert_eq!(r.completeness(), Completeness::Complete);
        r.missing_shards = vec![1, 3];
        assert!(r.is_degraded());
        assert_eq!(r.completeness(), Completeness::Degraded { missing_shards: vec![1, 3] });
        assert!(r.to_json().contains("missing_shards"));
    }

    #[test]
    fn stream_decomposition_roundtrips_byte_identical() {
        let mut r = QueryResult::empty();
        r.pages.push(page(vec![ObjectId(5)]));
        r.pages.push(page(vec![ObjectId(7), ObjectId(9)]));
        r.objects = vec![ObjectId(5), ObjectId(7), ObjectId(9)];
        r.annotations = vec![AnnotationId(0), AnnotationId(3)];
        r.missing_shards = vec![2];
        let expected = r.to_json();
        let (pages, tail) = r.into_stream();
        assert_eq!(tail.missing_shards, vec![2]);
        let rebuilt = QueryResult::from_stream(pages, tail);
        assert_eq!(rebuilt.to_json(), expected);
        assert_eq!(rebuilt.page_count(), 2);
    }

    /// The export's bytes are the equivalence batteries' oracle, so they are pinned: this
    /// text was printed by the `serde`-derived exporter `to_json` replaced.
    #[test]
    fn to_json_equals_its_golden_text() {
        let page = |base: u64, edges: Vec<u64>, terms: Vec<u32>| ResultPage {
            subgraph: ConnectionSubgraph {
                terminals: vec![NodeId(base), NodeId(base + 2)],
                subgraph: Subgraph {
                    nodes: vec![NodeId(base), NodeId(base + 1), NodeId(base + 2)],
                    edges: edges.into_iter().map(agraph::EdgeId).collect(),
                },
            },
            annotations: vec![AnnotationId(base)],
            referents: vec![ReferentId(base + 7)],
            objects: vec![ObjectId(base + 1), ObjectId(base + 3)],
            terms: terms.into_iter().map(ConceptId).collect(),
        };
        let degraded = QueryResult {
            pages: vec![page(0, vec![4, 9], vec![2]), page(10, vec![], vec![])],
            annotations: vec![AnnotationId(0), AnnotationId(10)],
            referents: vec![],
            objects: vec![ObjectId(1), ObjectId(3), ObjectId(11), ObjectId(13)],
            missing_shards: vec![1, 3],
        };
        assert_eq!(degraded.to_json(), GOLDEN);
    }

    const GOLDEN: &str = r#"{
  "pages": [
    {
      "subgraph": {
        "terminals": [
          0,
          2
        ],
        "subgraph": {
          "nodes": [
            0,
            1,
            2
          ],
          "edges": [
            4,
            9
          ]
        }
      },
      "annotations": [
        0
      ],
      "referents": [
        7
      ],
      "objects": [
        1,
        3
      ],
      "terms": [
        2
      ]
    },
    {
      "subgraph": {
        "terminals": [
          10,
          12
        ],
        "subgraph": {
          "nodes": [
            10,
            11,
            12
          ],
          "edges": []
        }
      },
      "annotations": [
        10
      ],
      "referents": [
        17
      ],
      "objects": [
        11,
        13
      ],
      "terms": []
    }
  ],
  "annotations": [
    0,
    10
  ],
  "referents": [],
  "objects": [
    1,
    3,
    11,
    13
  ],
  "missing_shards": [
    1,
    3
  ]
}"#;
}
