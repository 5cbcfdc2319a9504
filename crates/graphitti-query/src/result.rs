//! The query result model.
//!
//! Results are organised the way the demo's query tab organises them: "in cases where
//! subgraphs of the a-graph are returned as a result, each connected subgraph forms a
//! result page".  A [`QueryResult`] therefore holds a list of [`ResultPage`]s, each a
//! connection subgraph together with the decoded entities it contains, plus flat
//! convenience lists for the content- and referent-targeted queries.

use agraph::ConnectionSubgraph;
use graphitti_core::{AnnotationId, ObjectId, ReferentId};
use jsonlite::Json;
use ontology::ConceptId;

/// One result page: a connected witness subgraph and the entities it contains.  Every
/// node of the page is a witness, so the page says its nodes once, in
/// `subgraph.subgraph.nodes`, and has no separate terminal set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultPage {
    /// The page's nodes and the edges between them.  Its `terminals` is always empty:
    /// a terminal set means something only for `connect`'s search, and a page's would
    /// be a copy of its nodes.  Nothing sets it, and neither
    /// [`QueryResult::to_json`] nor the wire carries it.  It stays only because the
    /// end-to-end benchmark's adapter (`benchmark/src/sut.rs`) reads it; the
    /// `benchmark` PR of ROADMAP item 1 deletes it.
    pub subgraph: ConnectionSubgraph,
    /// Annotation contents in the page.
    pub annotations: PageList<AnnotationId, 2>,
    /// Referents in the page.
    pub referents: PageList<ReferentId, 2>,
    /// Objects in the page.
    pub objects: PageList<ObjectId, 2>,
    /// Ontology terms in the page.
    pub terms: PageList<ConceptId, 4>,
}

/// A page's entities of one kind, in node order, in a `Vec`'s 24 bytes: up to `N` held
/// inline, a longer list in a heap buffer.  A page holds a handful of nodes, so
/// building, decoding and dropping one costs a heap block for its nodes and one for its
/// edges, not one more for each kind it holds.
#[derive(Clone)]
pub struct PageList<T, const N: usize>(Slots<T, N>);

/// The first `len` slots hold the list; a heap buffer's length is its capacity.
#[derive(Clone)]
enum Slots<T, const N: usize> {
    Inline { len: u32, items: [T; N] },
    Heap { len: u32, items: Box<[T]> },
}

impl<T: Copy + Default, const N: usize> Default for PageList<T, N> {
    fn default() -> Self {
        PageList(Slots::Inline { len: 0, items: [T::default(); N] })
    }
}

impl<T: Copy + Default, const N: usize> PageList<T, N> {
    /// Append a value.  A full list moves to a buffer of twice its length — once on
    /// the heap, in place where the allocator can, as a `Vec` grows.
    pub fn push(&mut self, value: T) {
        let full = match &mut self.0 {
            Slots::Inline { len, items } if *len as usize == N => {
                let mut heap = Vec::with_capacity(2 * N);
                heap.extend_from_slice(items);
                Some(heap)
            }
            Slots::Heap { len, items } if *len as usize == items.len() => {
                Some(std::mem::take(items).into_vec())
            }
            _ => None,
        };
        if let Some(mut heap) = full {
            let len = heap.len();
            heap.resize(2 * len.max(1), T::default());
            self.0 = Slots::Heap { len: len as u32, items: heap.into_boxed_slice() };
        }
        let (len, items) = match &mut self.0 {
            Slots::Inline { len, items } => (len, &mut items[..]),
            Slots::Heap { len, items } => (len, &mut items[..]),
        };
        if let Some(slot) = items.get_mut(*len as usize) {
            *slot = value;
            *len += 1;
        }
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for PageList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        let (len, items): (u32, &[T]) = match &self.0 {
            Slots::Inline { len, items } => (*len, items),
            Slots::Heap { len, items } => (*len, items),
        };
        items.get(..len as usize).unwrap_or(&[])
    }
}

/// A list that fits stays inline; a longer one is collected into a buffer of its length.
impl<T: Copy + Default, const N: usize> FromIterator<T> for PageList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        if iter.size_hint().0 > N {
            let items: Box<[T]> = iter.collect();
            return PageList(Slots::Heap { len: items.len() as u32, items });
        }
        let mut list = PageList::default();
        iter.for_each(|value| list.push(value));
        list
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for PageList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for PageList<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl ResultPage {
    /// Total number of nodes in the page's subgraph.
    pub fn size(&self) -> usize {
        self.subgraph.size()
    }
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
    /// Always empty: every answer is complete, because a shard of a cut is a
    /// snapshot in the serving process and cannot fail on its own.  Nothing sets
    /// it, and neither [`to_json`](Self::to_json) nor the wire carries it.  It
    /// stays only because the end-to-end benchmark's adapter
    /// (`benchmark/src/sut.rs`) reads it; the `benchmark` PR of ROADMAP item 1
    /// deletes it.
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
    /// two always-empty fields are omitted: a page's `subgraph.terminals` and
    /// `missing_shards`.  The equivalence batteries compare answers as these bytes.
    pub fn to_json(&self) -> String {
        fn ids<T>(items: &[T], id: impl Fn(&T) -> u64) -> Json {
            Json::arr(items, |item| Json::u64(id(item)))
        }
        let page = |p: &ResultPage| {
            let subgraph = &p.subgraph.subgraph;
            Json::obj([
                (
                    "subgraph",
                    Json::obj([(
                        "subgraph",
                        Json::obj([
                            ("nodes", ids(&subgraph.nodes, |n| n.0)),
                            ("edges", ids(&subgraph.edges, |e| e.0)),
                        ]),
                    )]),
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
        let QueryResult { pages, annotations, referents, objects, missing_shards: _ } = self;
        (pages.into_iter(), ResultTail { annotations, referents, objects })
    }

    /// Reassemble a result from a page stream and its tail — the inverse of
    /// [`into_stream`](Self::into_stream).
    pub fn from_stream(pages: impl IntoIterator<Item = ResultPage>, tail: ResultTail) -> Self {
        let ResultTail { annotations, referents, objects } = tail;
        QueryResult {
            pages: pages.into_iter().collect(),
            annotations,
            referents,
            objects,
            missing_shards: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agraph::{NodeId, Subgraph};

    fn page(objs: Vec<ObjectId>) -> ResultPage {
        ResultPage {
            subgraph: ConnectionSubgraph {
                terminals: Vec::new(),
                subgraph: Subgraph { nodes: vec![NodeId(0), NodeId(1)], edges: vec![] },
            },
            annotations: [AnnotationId(0)].into_iter().collect(),
            referents: PageList::default(),
            objects: objs.into_iter().collect(),
            terms: PageList::default(),
        }
    }

    #[test]
    fn a_page_list_holds_n_inline_and_spills_the_rest_to_a_vec() {
        let mut list = PageList::<u64, 2>::default();
        list.push(1);
        list.push(2);
        assert!(matches!(list.0, Slots::Inline { len: 2, .. }));
        list.push(3);
        assert!(matches!(&list.0, Slots::Heap { len: 3, items } if items.len() == 4));
        (4..=9).for_each(|value| list.push(value));
        assert!(matches!(&list.0, Slots::Heap { len: 9, items } if items.len() == 16));
        assert_eq!(&list[..], &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let collected: PageList<u64, 2> = (1..=9).collect();
        assert_eq!(collected, list, "equal by value, however each was built");
        let short: PageList<u64, 2> = [7].into_iter().collect();
        assert!(matches!(short.0, Slots::Inline { len: 1, .. }));
        assert_eq!(
            format!("{short:?} {list:?}"),
            "[7] [1, 2, 3, 4, 5, 6, 7, 8, 9]",
            "printed as a Vec is"
        );
        assert_eq!(std::mem::size_of::<PageList<u64, 2>>(), std::mem::size_of::<Vec<u64>>());
        assert_eq!(std::mem::size_of::<PageList<u32, 4>>(), std::mem::size_of::<Vec<u32>>());
    }

    #[test]
    fn empty_result() {
        let r = QueryResult::empty();
        assert!(r.is_empty());
        assert_eq!(r.page_count(), 0);
        assert_eq!(r.total_nodes(), 0);
    }

    #[test]
    fn result_aggregates() {
        let mut r = QueryResult::empty();
        r.pages.push(page(vec![ObjectId(5)]));
        r.objects.push(ObjectId(5));
        assert!(!r.is_empty());
        assert_eq!(r.page_count(), 1);
        assert_eq!(r.total_nodes(), 2);
        assert_eq!(r.pages[0].size(), 2);
    }

    #[test]
    fn stream_decomposition_roundtrips_byte_identical() {
        let mut r = QueryResult::empty();
        r.pages.push(page(vec![ObjectId(5)]));
        r.pages.push(page(vec![ObjectId(7), ObjectId(9)]));
        r.objects = vec![ObjectId(5), ObjectId(7), ObjectId(9)];
        r.annotations = vec![AnnotationId(0), AnnotationId(3)];
        let expected = r.to_json();
        let (pages, tail) = r.into_stream();
        let rebuilt = QueryResult::from_stream(pages, tail);
        assert_eq!(rebuilt.to_json(), expected);
        assert_eq!(rebuilt.page_count(), 2);
    }

    /// The export's bytes are the equivalence batteries' oracle, so they are pinned: this
    /// text was printed by the `serde`-derived exporter `to_json` replaced, less the keys
    /// the export no longer carries: each page's `terminals` (set here, to show it is not
    /// printed) and the last, `missing_shards`.
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
            annotations: [AnnotationId(base)].into_iter().collect(),
            referents: [ReferentId(base + 7)].into_iter().collect(),
            objects: [ObjectId(base + 1), ObjectId(base + 3)].into_iter().collect(),
            terms: terms.into_iter().map(ConceptId).collect(),
        };
        let result = QueryResult {
            pages: vec![page(0, vec![4, 9], vec![2]), page(10, vec![], vec![])],
            annotations: vec![AnnotationId(0), AnnotationId(10)],
            referents: vec![],
            objects: vec![ObjectId(1), ObjectId(3), ObjectId(11), ObjectId(13)],
            missing_shards: vec![],
        };
        assert_eq!(result.to_json(), GOLDEN);
    }

    const GOLDEN: &str = r#"{
  "pages": [
    {
      "subgraph": {
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
  ]
}"#;
}
