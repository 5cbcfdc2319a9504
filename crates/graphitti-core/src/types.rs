//! The heterogeneous data-type taxonomy.
//!
//! The demo registers "DNA sequences, RNA sequences, multiple sequence alignment
//! structures, phylogenetic trees, interaction graphs and relational records — a
//! representative subset of the types of data used in the study", plus the neuroscience
//! application's images and 3-D protein models.  Each type has a *dimensionality* that
//! determines which substructure index it uses (interval tree vs. R-tree) and a fixed
//! list of relational metadata columns.

use relstore::{Column, ColumnType, Value};

/// Whether a data type's substructures live on a 1-D line, a 2-D plane or in a 3-D
/// volume — or are non-spatial (block-set of relational records / graph nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimensionality {
    /// 1-D: sequences, alignment columns — indexed by interval trees.
    Linear,
    /// 2-D: image regions — indexed by R-trees.
    Planar,
    /// 3-D: protein models, brain volumes — indexed by R-trees.
    Volumetric,
    /// Non-spatial: relational records, graph nodes — marked by a set of identifiers.
    Discrete,
}

/// A registered heterogeneous data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// A DNA sequence (1-D over nucleotides).
    DnaSequence,
    /// An RNA sequence (1-D over nucleotides).
    RnaSequence,
    /// A protein sequence (1-D over residues).
    ProteinSequence,
    /// A multiple-sequence alignment (1-D over alignment columns).
    MultipleAlignment,
    /// A phylogenetic tree (discrete: its nodes / clades are marked).
    PhylogeneticTree,
    /// A molecular-interaction graph (discrete: nodes / edges are marked).
    InteractionGraph,
    /// A relational record set (discrete: a block-set of rows is marked).
    RelationalRecord,
    /// A 2-D image (e.g. protein-expression image; regions are marked).
    Image,
    /// A 3-D protein structure model (sub-volumes are marked).
    ProteinModel,
}

impl DataType {
    /// All data types in a stable order.
    pub const ALL: [DataType; 9] = [
        DataType::DnaSequence,
        DataType::RnaSequence,
        DataType::ProteinSequence,
        DataType::MultipleAlignment,
        DataType::PhylogeneticTree,
        DataType::InteractionGraph,
        DataType::RelationalRecord,
        DataType::Image,
        DataType::ProteinModel,
    ];

    /// The dimensionality of this type's substructures.
    pub(crate) fn dimensionality(self) -> Dimensionality {
        match self {
            DataType::DnaSequence
            | DataType::RnaSequence
            | DataType::ProteinSequence
            | DataType::MultipleAlignment => Dimensionality::Linear,
            DataType::Image => Dimensionality::Planar,
            DataType::ProteinModel => Dimensionality::Volumetric,
            DataType::PhylogeneticTree
            | DataType::InteractionGraph
            | DataType::RelationalRecord => Dimensionality::Discrete,
        }
    }

    /// A short lowercase tag used as the a-graph node-key prefix and in query syntax.
    pub fn tag(self) -> &'static str {
        match self {
            DataType::DnaSequence => "dna",
            DataType::RnaSequence => "rna",
            DataType::ProteinSequence => "protein",
            DataType::MultipleAlignment => "msa",
            DataType::PhylogeneticTree => "tree",
            DataType::InteractionGraph => "graph",
            DataType::RelationalRecord => "record",
            DataType::Image => "image",
            DataType::ProteinModel => "model",
        }
    }

    /// Parse a data type from its [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<DataType> {
        DataType::ALL.into_iter().find(|t| t.tag() == tag)
    }

    /// The metadata row (the columns between `name` and `payload`) of a linear object
    /// of this type, of which only the length and coordinate domain are known — what
    /// `register_sequence` registers and what `LogOp::register_sequence` logs, built in
    /// one place so a logged registration replays to the identical registry entry.
    pub(crate) fn sequence_row(self, length: u64, domain: &str) -> Vec<Value> {
        match self {
            DataType::DnaSequence | DataType::RnaSequence => vec![
                Value::Int(length as i64),
                Value::text("unknown"),
                Value::Float(0.5),
                Value::text(domain),
            ],
            DataType::ProteinSequence => vec![
                Value::Int(length as i64),
                Value::text("unknown"),
                Value::text("unknown"),
                Value::text(domain),
            ],
            DataType::MultipleAlignment => {
                vec![Value::Int(length as i64), Value::Int(1), Value::text(domain)]
            }
            _ => panic!("{self:?} is not a linear type"),
        }
    }

    /// The metadata columns of this type's relation: what an object's metadata row
    /// must hold, checked before its registration writes anything.  The object's name
    /// and its raw payload ("in its native format") sit beside the row in its registry
    /// entry.
    pub(crate) fn columns(self) -> &'static [Column] {
        use ColumnType::{Float, Int, Text};
        match self {
            DataType::DnaSequence | DataType::RnaSequence => &[
                ("length", Int),
                ("organism", Text),
                ("gc_content", Float),
                ("coordinate_domain", Text),
            ],
            DataType::ProteinSequence => {
                &[("length", Int), ("organism", Text), ("gene", Text), ("coordinate_domain", Text)]
            }
            DataType::MultipleAlignment => {
                &[("columns", Int), ("rows", Int), ("coordinate_domain", Text)]
            }
            DataType::PhylogeneticTree => &[("leaves", Int), ("method", Text)],
            DataType::InteractionGraph => &[("nodes", Int), ("edges", Int)],
            DataType::RelationalRecord => &[("relation", Text), ("rows", Int)],
            DataType::Image => {
                &[("width", Int), ("height", Int), ("modality", Text), ("coordinate_system", Text)]
            }
            DataType::ProteinModel => {
                &[("residues", Int), ("resolution", Float), ("coordinate_system", Text)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensionality_mapping() {
        assert_eq!(DataType::DnaSequence.dimensionality(), Dimensionality::Linear);
        assert_eq!(DataType::Image.dimensionality(), Dimensionality::Planar);
        assert_eq!(DataType::ProteinModel.dimensionality(), Dimensionality::Volumetric);
        assert_eq!(DataType::PhylogeneticTree.dimensionality(), Dimensionality::Discrete);
    }

    #[test]
    fn tags_roundtrip() {
        for t in DataType::ALL {
            assert_eq!(DataType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(DataType::from_tag("bogus"), None);
    }

    #[test]
    fn a_sequence_row_fits_its_columns() {
        for t in DataType::ALL.into_iter().filter(|t| t.dimensionality() == Dimensionality::Linear)
        {
            assert_eq!(relstore::check_row(t.columns(), &t.sequence_row(10, "chr1")), Ok(()));
        }
    }

    #[test]
    fn located_types_name_their_coordinates() {
        let has = |t: DataType, name: &str| t.columns().iter().any(|&(c, _)| c == name);
        assert!(has(DataType::DnaSequence, "coordinate_domain"));
        assert!(has(DataType::DnaSequence, "gc_content"));
        assert!(has(DataType::Image, "coordinate_system"));
        assert!(has(DataType::Image, "modality"));
    }
}
