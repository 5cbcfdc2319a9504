//! Traversal utilities over the a-graph.
//!
//! The query processor needs breadth-first traversal that ignores edge direction, and
//! the weakly connected components that become result pages.

use std::collections::{HashSet, VecDeque};

use crate::links::{steps, Links, NodeId};

/// An iterative breadth-first traversal that follows edges both ways.
///
/// Yields `(node, depth)` pairs in BFS order starting from the seed at depth 0.
#[derive(Debug)]
pub struct Bfs<'g, L> {
    links: &'g L,
    queue: VecDeque<(NodeId, usize)>,
    visited: HashSet<NodeId>,
}

impl<'g, L: Links> Bfs<'g, L> {
    /// Start a BFS from a seed node.
    pub fn new(links: &'g L, seed: NodeId) -> Self {
        Bfs { links, queue: VecDeque::from([(seed, 0)]), visited: HashSet::from([seed]) }
    }
}

impl<L: Links> Iterator for Bfs<'_, L> {
    type Item = (NodeId, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let (node, depth) = self.queue.pop_front()?;
        let Bfs { links, queue, visited } = self;
        steps(*links, node, |_, next| {
            if visited.insert(next) {
                queue.push_back((next, depth + 1));
            }
        });
        Some((node, depth))
    }
}

/// Partition `nodes` into weakly connected components, each sorted, in the order of
/// their first node in `nodes`.
///
/// Each connected subgraph of a query result becomes one "result page" in the demo's
/// query tab, so the executor needs component decomposition.
pub(crate) fn connected_components<L: Links>(
    links: &L,
    nodes: impl IntoIterator<Item = NodeId>,
) -> Vec<Vec<NodeId>> {
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut components = Vec::new();
    for node in nodes {
        if seen.contains(&node) {
            continue;
        }
        let mut component: Vec<NodeId> = Bfs::new(links, node).map(|(n, _)| n).collect();
        component.sort();
        seen.extend(component.iter().copied());
        components.push(component);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{EdgeLabel, NodeKind};
    use crate::MultiGraph;

    /// Content 0 — referent 1 — content 2 — referent 3 — content 4: each content
    /// annotates the referents on either side of it.
    fn chain() -> (MultiGraph, Vec<NodeId>) {
        let mut g = MultiGraph::new();
        let ids: Vec<NodeId> = (0..5u64)
            .map(|i| {
                let kind = if i % 2 == 0 { NodeKind::Content } else { NodeKind::Referent };
                g.add_node(kind, i)
            })
            .collect();
        for w in ids.windows(2) {
            let (content, referent) = if w[0] < w[1] { (w[0], w[1]) } else { (w[1], w[0]) };
            g.add_edge(content, referent, EdgeLabel::Annotates).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn bfs_visits_in_depth_order_both_ways() {
        let (g, ids) = chain();
        let order: Vec<(NodeId, usize)> = Bfs::new(&g, ids[2]).collect();
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], (ids[2], 0));
        let depths: Vec<usize> = order.iter().map(|&(_, d)| d).collect();
        assert_eq!(depths, vec![0, 1, 1, 2, 2]);
        assert_eq!(Bfs::new(&g, ids[1]).count(), 5);
    }

    #[test]
    fn connected_components_split_result_pages() {
        let mut g = MultiGraph::new();
        let a1 = g.add_node(NodeKind::Content, 1);
        let r1 = g.add_node(NodeKind::Referent, 2);
        let a2 = g.add_node(NodeKind::Content, 3);
        let r2 = g.add_node(NodeKind::Referent, 4);
        g.add_edge(a1, r1, EdgeLabel::Annotates).unwrap();
        g.add_edge(a2, r2, EdgeLabel::Annotates).unwrap();
        let comps = connected_components(&g, g.nodes());
        assert_eq!(comps, [vec![a1, r1], vec![a2, r2]]);
    }

    #[test]
    fn connected_components_empty_graph() {
        let g = MultiGraph::new();
        assert!(connected_components(&g, g.nodes()).is_empty());
    }
}
