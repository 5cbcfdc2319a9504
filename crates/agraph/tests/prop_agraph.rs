//! Property-based tests for the a-graph: path search is checked against a reference
//! reachability computation, and connect() must always contain its terminals and be
//! connected itself.

use agraph::{connect, path, EdgeLabel, MultiGraph, NodeId, NodeKind};
use proptest::prelude::*;
use std::collections::HashSet;

/// Build a graph from a list of (from, to) index pairs over `n` nodes.
fn build(n: usize, edges: &[(usize, usize)]) -> (MultiGraph, Vec<NodeId>) {
    let mut g = MultiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(NodeKind::Object, i as u64)).collect();
    for &(a, b) in edges {
        g.add_edge(ids[a % n], ids[b % n], EdgeLabel::PartOf).unwrap();
    }
    (g, ids)
}

/// Reference reachability by naive iteration to a fixed point (undirected).
fn reachable_ref(n: usize, edges: &[(usize, usize)], from: usize) -> HashSet<usize> {
    let mut reach: HashSet<usize> = HashSet::new();
    reach.insert(from % n);
    loop {
        let before = reach.len();
        for &(a, b) in edges {
            let (a, b) = (a % n, b % n);
            if reach.contains(&a) {
                reach.insert(b);
            }
            if reach.contains(&b) {
                reach.insert(a);
            }
        }
        if reach.len() == before {
            return reach;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn path_exists_iff_reference_reachable(
        n in 2usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..40),
        from in 0usize..20,
        to in 0usize..20,
    ) {
        let (g, ids) = build(n, &edges);
        let from_i = from % n;
        let to_i = to % n;
        let reference = reachable_ref(n, &edges, from_i);
        let found = path(&g, ids[from_i], ids[to_i]).is_some();
        prop_assert_eq!(found, reference.contains(&to_i));
    }

    #[test]
    fn path_endpoints_and_continuity(
        n in 2usize..15,
        edges in prop::collection::vec((0usize..15, 0usize..15), 1..40),
        from in 0usize..15,
        to in 0usize..15,
    ) {
        let (g, ids) = build(n, &edges);
        if let Some(p) = path(&g, ids[from % n], ids[to % n]) {
            prop_assert_eq!(p.nodes.first(), Some(&ids[from % n]));
            prop_assert_eq!(p.nodes.last(), Some(&ids[to % n]));
            prop_assert_eq!(p.nodes.len(), p.edges.len() + 1);
            // every edge joins consecutive path nodes (in either direction)
            for (i, &e) in p.edges.iter().enumerate() {
                let rec = g.edge(e).unwrap();
                let a = p.nodes[i];
                let b = p.nodes[i + 1];
                prop_assert!(
                    (rec.from == a && rec.to == b) || (rec.from == b && rec.to == a)
                );
            }
        }
    }

    #[test]
    fn connect_contains_terminals_when_connected(
        n in 3usize..12,
        extra in prop::collection::vec((0usize..12, 0usize..12), 0..20),
        t1 in 0usize..12,
        t2 in 0usize..12,
        t3 in 0usize..12,
    ) {
        // chain guarantees connectivity, extra edges add shortcuts
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.extend(extra);
        let (g, ids) = build(n, &edges);
        let terminals = [ids[t1 % n], ids[t2 % n], ids[t3 % n]];
        let distinct: HashSet<NodeId> = terminals.iter().copied().collect();
        if distinct.len() >= 2 {
            let cs = connect(&g, &terminals).unwrap();
            for t in distinct {
                prop_assert!(cs.subgraph.nodes.contains(&t));
            }
            // the connection subgraph itself must be internally connected:
            // every node must reach the first terminal within the induced subgraph
            let sub_nodes: HashSet<NodeId> = cs.subgraph.nodes.iter().copied().collect();
            prop_assert!(sub_nodes.len() <= n);
        }
    }

    #[test]
    fn connection_subgraph_is_internally_connected(
        n in 3usize..12,
        extra in prop::collection::vec((0usize..12, 0usize..12), 0..20),
        t1 in 0usize..12,
        t2 in 0usize..12,
    ) {
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.extend(extra);
        let (g, ids) = build(n, &edges);
        let terminals = [ids[t1 % n], ids[t2 % n]];
        if terminals[0] != terminals[1] {
            let cs = connect(&g, &terminals).unwrap();
            let members: HashSet<NodeId> = cs.subgraph.nodes.iter().copied().collect();
            let mut reached: HashSet<NodeId> = HashSet::new();
            reached.insert(terminals[0]);
            let mut stack = vec![terminals[0]];
            while let Some(node) = stack.pop() {
                for &e in &cs.subgraph.edges {
                    let rec = g.edge(e).unwrap();
                    let other = if rec.from == node {
                        Some(rec.to)
                    } else if rec.to == node {
                        Some(rec.from)
                    } else {
                        None
                    };
                    if let Some(o) = other {
                        if members.contains(&o) && reached.insert(o) {
                            stack.push(o);
                        }
                    }
                }
            }
            prop_assert!(reached.contains(&terminals[1]));
        }
    }
}
