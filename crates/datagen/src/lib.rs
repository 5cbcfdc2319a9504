//! # datagen — synthetic scientific workloads
//!
//! The demo runs on real Avian-Influenza and neuroscience data that we do not have, so
//! this crate generates deterministic synthetic equivalents that exercise the same code
//! paths: the same object types, marker kinds, shared referents and ontology terms, at
//! sizes the benches choose.  Everything is seeded so runs are reproducible.
//!
//! * [`influenza`] — the interdisciplinary Influenza study: DNA / RNA / protein
//!   sequences, multiple-sequence alignments, phylogenetic trees, interaction graphs and
//!   relational strain records, plus an annotation driver that builds a realistic
//!   a-graph (shared referents creating indirectly-related annotations).
//! * [`neuro`] — the neuroscience application: brain images sharing a coordinate system,
//!   region annotations, and a small neuro-anatomy ontology.
//! * [`ontology_gen`] — synthetic ontology generators (balanced trees, random DAGs).

pub mod influenza;
pub mod neuro;
pub mod ontology_gen;
pub mod rng;
pub mod unified;

pub use influenza::InfluenzaConfig;
pub use neuro::NeuroConfig;
pub use unified::{UnifiedConfig, UnifiedWorkload};
