//! The admin tab: structural metrics over the a-graph.
//!
//! Run with `cargo run --example admin_metrics`.
//!
//! The demo's third tab is system administration. This example reports the kind of
//! aggregate health metrics an administrator would inspect: a-graph size, component
//! structure, degree distribution, the busiest referents (hubs), and the index grouping.

use graphitti::agraph;
use graphitti::workloads::influenza::{self, InfluenzaConfig};

fn main() {
    let sys = influenza::build(&InfluenzaConfig {
        seed: 2008,
        sequences: 80,
        annotations: 600,
        shared_referent_prob: 0.4,
        ..InfluenzaConfig::default()
    });

    // The a-graph is the system's own links; `nodes()` lists its every node.
    let nodes = sys.nodes();
    let m = agraph::metrics(sys.view(), &nodes);
    println!("a-graph metrics:");
    println!("  nodes              : {}", m.nodes);
    println!("  edges              : {}", m.edges);
    println!("  components         : {}", m.components);
    println!("  largest component  : {}", m.largest_component);
    println!("  max degree         : {}", m.max_degree);
    println!("  content nodes      : {}", m.kind_counts[&agraph::NodeKind::Content]);
    println!("  referent nodes     : {}", m.kind_counts[&agraph::NodeKind::Referent]);
    println!("  object nodes       : {}", m.kind_counts[&agraph::NodeKind::Object]);

    let (intervals, spatial) = sys.index_structure_count();
    println!("\nindex structures: {intervals} interval tree(s), {spatial} R-tree(s)");

    println!("\ndegree distribution (degree: count):");
    let mut dist: Vec<(usize, usize)> =
        agraph::degree_distribution(sys.view(), &nodes).into_iter().collect();
    dist.sort();
    for (deg, count) in dist.iter().take(8) {
        println!("  {deg}: {count}");
    }

    println!("\ntop referent hubs (most-annotated substructures):");
    for (node, degree) in agraph::top_hubs(sys.view(), &nodes, 5) {
        let entity = node.record();
        println!("  {} {} (degree {degree})", entity.kind, entity.key);
    }

    println!("\nadmin metrics example complete.");
}
