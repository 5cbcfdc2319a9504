//! Property-based tests for the a-graph: path search is checked against a reference
//! reachability computation, connect() must always contain its terminals, and a clone
//! of the graph is isolated from every later mutation of the original.

use agraph::{EdgeId, EdgeLabel, MultiGraph, NodeId, NodeKind};
use proptest::prelude::*;
use std::collections::HashSet;

/// Build a graph from a list of (from, to) index pairs over `n` nodes.
fn build(n: usize, edges: &[(usize, usize)]) -> (MultiGraph, Vec<NodeId>) {
    let mut g = MultiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(NodeKind::Object, i as u64)).collect();
    for &(a, b) in edges {
        g.add_edge(ids[a % n], ids[b % n], EdgeLabel::new("e")).unwrap();
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

/// One mutation of a random history: `(kind, a, b)` — add a node, add an edge between
/// two existing slots, remove a node, or remove an edge.  Failures (an endpoint or
/// target already removed) are part of the history: they must fail identically on a
/// replay.
type Mutation = (u8, usize, usize);

/// Node and edge slots allocated so far (ids are dense and never reused, so these are
/// also the next ids).
#[derive(Debug, Clone, Copy, Default)]
struct Slots {
    nodes: usize,
    edges: usize,
}

fn apply(g: &mut MultiGraph, slots: &mut Slots, history: &[Mutation]) {
    for &(kind, a, b) in history {
        match kind {
            0..=2 => {
                let node_kind = [NodeKind::Content, NodeKind::Referent, NodeKind::Object][a % 3];
                let id = g.add_node(node_kind, (b % 7) as u64);
                assert_eq!(id, NodeId(slots.nodes as u64));
                slots.nodes += 1;
            }
            3..=5 if slots.nodes > 0 => {
                let from = NodeId((a % slots.nodes) as u64);
                let to = NodeId((b % slots.nodes) as u64);
                if let Ok(id) = g.add_edge(from, to, EdgeLabel::new("e")) {
                    assert_eq!(id, EdgeId(slots.edges as u64));
                    slots.edges += 1;
                }
            }
            6 if slots.nodes > 0 => {
                let _ = g.remove_node(NodeId((a % slots.nodes) as u64));
            }
            7 if slots.edges > 0 => {
                let _ = g.remove_edge(EdgeId((a % slots.edges) as u64));
            }
            _ => {}
        }
    }
}

/// Everything observable about a graph whose ids range below the given bounds.
fn observe(g: &MultiGraph, nodes: u64, edges: u64) -> String {
    let mut out = format!("{} live nodes, {} live edges\n", g.node_count(), g.edge_count());
    for id in (0..nodes).map(NodeId) {
        let (rec, outs, ins) = (g.node(id), g.out_edges(id), g.in_edges(id));
        out.push_str(&format!("{id:?} {rec:?} out {outs:?} in {ins:?}\n"));
    }
    for id in (0..edges).map(EdgeId) {
        out.push_str(&format!("{id:?} {:?}\n", g.edge(id)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_clone_is_isolated_and_the_mutated_copy_equals_a_rebuild(
        before in prop::collection::vec((0u8..8, 0usize..1_000, 0usize..1_000), 0..300),
        after in prop::collection::vec((0u8..8, 0usize..1_000, 0usize..1_000), 1..300),
    ) {
        // Ids never exceed the history length, so this bounds every id ever allocated.
        let bound = (before.len() + after.len()) as u64;

        let (mut g, mut slots) = (MultiGraph::new(), Slots::default());
        apply(&mut g, &mut slots, &before);
        let (held, held_slots) = (g.clone(), slots);
        let held_then = observe(&held, bound, bound);

        // Mutate the original: new slots in the tail chunks, edits and removals in
        // chunks the clone still shares.
        apply(&mut g, &mut slots, &after);
        prop_assert_eq!(observe(&held, bound, bound), held_then);

        // The mutated copy is what building the whole history from scratch gives ...
        let (mut rebuilt, mut rebuilt_slots) = (MultiGraph::new(), Slots::default());
        apply(&mut rebuilt, &mut rebuilt_slots, &before);
        apply(&mut rebuilt, &mut rebuilt_slots, &after);
        prop_assert_eq!(observe(&g, bound, bound), observe(&rebuilt, bound, bound));

        // ... and the clone can itself be taken forward, independently.
        let (mut fork, mut fork_slots) = (held, held_slots);
        apply(&mut fork, &mut fork_slots, &after);
        prop_assert_eq!(observe(&fork, bound, bound), observe(&rebuilt, bound, bound));
    }

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
        let found = g.path(ids[from_i], ids[to_i]).is_some();
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
        if let Some(p) = g.path(ids[from % n], ids[to % n]) {
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
            let cs = g.connect(&terminals).unwrap();
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
            let cs = g.connect(&terminals).unwrap();
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
