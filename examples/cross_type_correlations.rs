//! Heterogeneous cross-type annotations (the scenario the paper's intro motivates).
//!
//! Run with `cargo run --example cross_type_correlations`.
//!
//! Builds a unified system containing protein sequences and expression images, with
//! annotations that link a sequence interval to an image region. It then follows the
//! a-graph from a correlation annotation to both referents and their objects — the
//! "newly discovered correlation between two different pieces of data".

use graphitti::core::DataType;
use graphitti::workloads::unified::{self, UnifiedConfig};

fn main() {
    let workload = unified::build(&UnifiedConfig {
        seed: 2008,
        sequences: 30,
        images: 30,
        annotations: 150,
        cross_annotations: 30,
    });
    let sys = &workload.system;

    println!("Unified heterogeneous workload:");
    println!("  sequences    : {}", workload.sequences.len());
    println!("  images       : {}", workload.images.len());
    println!("  annotations  : {}", sys.annotation_count());
    let (intervals, spatial) = sys.index_structure_count();
    println!("  interval trees: {intervals}, R-trees: {spatial}");

    // Find a correlation annotation and walk its heterogeneous referents.
    let correlation = sys
        .annotations()
        .iter()
        .find(|a| a.terms.contains(&workload.correlation_concept))
        .expect("at least one correlation annotation");

    println!("\ncorrelation annotation {:?}:", correlation.id);
    println!("  comment: {}", correlation.comment().unwrap_or(""));
    for &rid in correlation.referents.iter() {
        if let Some(r) = sys.referent(rid) {
            if let Some(obj) = sys.object(r.object) {
                let kind = match obj.data_type {
                    DataType::ProteinSequence => "protein sequence",
                    DataType::Image => "expression image",
                    other => return println!("unexpected type {other:?}"),
                };
                println!("  links {kind} '{}' at {}", obj.name, r.marker);
            }
        }
    }

    // The two objects are now indirectly related through this annotation.
    let related = sys.transitively_related_annotations(correlation.id);
    println!("\nannotations transitively connected to this correlation: {}", related.len());

    println!("\ncross-type correlation example complete.");
}
