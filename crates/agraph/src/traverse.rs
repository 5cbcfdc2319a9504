//! Traversal utilities over the a-graph.
//!
//! The query processor needs breadth-first traversal that ignores edge direction, and
//! the weakly connected components that become result pages.

use std::collections::{HashSet, VecDeque};

use crate::graph::{MultiGraph, NodeId};

/// An iterative breadth-first traversal that follows edges both ways.
///
/// Yields `(node, depth)` pairs in BFS order starting from the seed at depth 0.
#[derive(Debug)]
pub struct Bfs<'g> {
    graph: &'g MultiGraph,
    queue: VecDeque<(NodeId, usize)>,
    visited: HashSet<NodeId>,
}

impl<'g> Bfs<'g> {
    /// Start a BFS from a seed node.
    pub fn new(graph: &'g MultiGraph, seed: NodeId) -> Self {
        Bfs { graph, queue: VecDeque::from([(seed, 0)]), visited: HashSet::from([seed]) }
    }
}

impl<'g> Iterator for Bfs<'g> {
    type Item = (NodeId, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let (node, depth) = self.queue.pop_front()?;
        for next in self.graph.neighbors_undirected(node) {
            if self.visited.insert(next) {
                self.queue.push_back((next, depth + 1));
            }
        }
        Some((node, depth))
    }
}

/// Partition the nodes of the graph into weakly connected components.
///
/// Each connected subgraph of a query result becomes one "result page" in the demo's
/// query tab, so the executor needs component decomposition.
pub(crate) fn connected_components(graph: &MultiGraph) -> Vec<Vec<NodeId>> {
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut components = Vec::new();
    for node in graph.nodes() {
        if seen.contains(&node) {
            continue;
        }
        let mut component: Vec<NodeId> = Bfs::new(graph, node).map(|(n, _)| n).collect();
        component.sort();
        for &n in &component {
            seen.insert(n);
        }
        components.push(component);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{EdgeLabel, NodeKind};

    fn chain(n: usize) -> (MultiGraph, Vec<NodeId>) {
        let mut g = MultiGraph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(NodeKind::Object, i as u64)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], EdgeLabel::new("next")).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn bfs_visits_in_depth_order_both_ways() {
        let (g, ids) = chain(5);
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
        g.add_edge(a1, r1, EdgeLabel::annotates()).unwrap();
        g.add_edge(a2, r2, EdgeLabel::annotates()).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn connected_components_empty_graph() {
        let g = MultiGraph::new();
        assert!(connected_components(&g).is_empty());
    }
}
