//! # ontology — an OntoQuest-style ontology store
//!
//! "In Graphitti we use OntoQuest where ontologies are modeled as graphs whose nodes
//! correspond to terms and edges are domain-specific quantified binary relationships
//! between term pairs.  An annotation only points to ontology nodes."
//!
//! This crate reimplements the OntoQuest operations the system calls over an in-memory
//! labelled graph of concepts, instances and relations:
//!
//! * `CI(c)` — all instances of a concept;
//! * `SubTree(X, R)` — the subtree under `X` restricted to relation `R`.
//!
//! ```
//! use ontology::{Ontology, RelationType};
//!
//! let mut o = Ontology::new();
//! let anatomy = o.add_concept("BrainRegion");
//! let cerebellum = o.add_concept("Cerebellum");
//! o.add_relation(anatomy, cerebellum, RelationType::IsA);
//! let img = o.add_instance(cerebellum, "image-42");
//! assert_eq!(o.ci(anatomy), vec![img]); // instances flow up the is-a hierarchy
//! ```

pub mod graph;
pub mod ops;

pub use graph::{ConceptId, InstanceId, Ontology, RelationType};
