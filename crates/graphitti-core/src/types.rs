//! The heterogeneous data-type taxonomy.
//!
//! The demo registers "DNA sequences, RNA sequences, multiple sequence alignment
//! structures, phylogenetic trees, interaction graphs and relational records — a
//! representative subset of the types of data used in the study", plus the neuroscience
//! application's images and 3-D protein models.  Each type has a *dimensionality* that
//! determines which substructure index it uses (interval tree vs. R-tree) and a default
//! relational schema for its metadata.

use relstore::{Column, ColumnType, Schema, Value};

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
    pub fn dimensionality(self) -> Dimensionality {
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

    /// The relational table name used for this type's metadata.
    pub fn table_name(self) -> &'static str {
        match self {
            DataType::DnaSequence => "dna_sequence",
            DataType::RnaSequence => "rna_sequence",
            DataType::ProteinSequence => "protein_sequence",
            DataType::MultipleAlignment => "multiple_alignment",
            DataType::PhylogeneticTree => "phylogenetic_tree",
            DataType::InteractionGraph => "interaction_graph",
            DataType::RelationalRecord => "relational_record",
            DataType::Image => "image",
            DataType::ProteinModel => "protein_model",
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

    /// True when this type's substructures are spatial (use an R-tree).
    pub fn is_spatial(self) -> bool {
        matches!(self.dimensionality(), Dimensionality::Planar | Dimensionality::Volumetric)
    }

    /// True when this type's substructures are linear (use an interval tree).
    pub fn is_linear(self) -> bool {
        self.dimensionality() == Dimensionality::Linear
    }

    /// The metadata row (the columns between `name` and `payload`) of a linear object
    /// of this type, of which only the length and coordinate domain are known — what
    /// `register_sequence` registers and what `LogOp::register_sequence` logs, built in
    /// one place so a logged registration replays to the identical catalog entry.
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

    /// The default metadata schema for this type's relational table.  Every schema
    /// shares a leading `name` identifier and a trailing `payload` blob holding the raw
    /// data "in its native format", with type-specific columns between.
    pub fn default_schema(self) -> Schema {
        let mut columns = vec![Column::new("name", ColumnType::Text)];
        match self {
            DataType::DnaSequence | DataType::RnaSequence => {
                columns.push(Column::new("length", ColumnType::Int));
                columns.push(Column::new("organism", ColumnType::Text));
                columns.push(Column::new("gc_content", ColumnType::Float));
                columns.push(Column::new("coordinate_domain", ColumnType::Text));
            }
            DataType::ProteinSequence => {
                columns.push(Column::new("length", ColumnType::Int));
                columns.push(Column::new("organism", ColumnType::Text));
                columns.push(Column::new("gene", ColumnType::Text));
                columns.push(Column::new("coordinate_domain", ColumnType::Text));
            }
            DataType::MultipleAlignment => {
                columns.push(Column::new("columns", ColumnType::Int));
                columns.push(Column::new("rows", ColumnType::Int));
                columns.push(Column::new("coordinate_domain", ColumnType::Text));
            }
            DataType::PhylogeneticTree => {
                columns.push(Column::new("leaves", ColumnType::Int));
                columns.push(Column::new("method", ColumnType::Text));
            }
            DataType::InteractionGraph => {
                columns.push(Column::new("nodes", ColumnType::Int));
                columns.push(Column::new("edges", ColumnType::Int));
            }
            DataType::RelationalRecord => {
                columns.push(Column::new("relation", ColumnType::Text));
                columns.push(Column::new("rows", ColumnType::Int));
            }
            DataType::Image => {
                columns.push(Column::new("width", ColumnType::Int));
                columns.push(Column::new("height", ColumnType::Int));
                columns.push(Column::new("modality", ColumnType::Text));
                columns.push(Column::new("coordinate_system", ColumnType::Text));
            }
            DataType::ProteinModel => {
                columns.push(Column::new("residues", ColumnType::Int));
                columns.push(Column::new("resolution", ColumnType::Float));
                columns.push(Column::new("coordinate_system", ColumnType::Text));
            }
        }
        columns.push(Column::new("payload", ColumnType::Blob));
        Schema::new(columns)
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
        assert!(DataType::DnaSequence.is_linear());
        assert!(DataType::Image.is_spatial());
        assert!(!DataType::RelationalRecord.is_spatial());
        assert!(!DataType::RelationalRecord.is_linear());
    }

    #[test]
    fn tags_roundtrip() {
        for t in DataType::ALL {
            assert_eq!(DataType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(DataType::from_tag("bogus"), None);
    }

    #[test]
    fn table_names_unique() {
        let mut names: Vec<&str> = DataType::ALL.iter().map(|t| t.table_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), DataType::ALL.len());
    }

    #[test]
    fn schemas_have_name_and_payload() {
        for t in DataType::ALL {
            let s = t.default_schema();
            assert_eq!(s.columns.first().unwrap().name, "name");
            assert_eq!(s.columns.last().unwrap().name, "payload");
            assert_eq!(s.columns.last().unwrap().ty, ColumnType::Blob);
        }
    }

    #[test]
    fn sequence_schema_has_coordinate_domain() {
        let s = DataType::DnaSequence.default_schema();
        assert!(s.column_index("coordinate_domain").is_some());
        assert!(s.column_index("gc_content").is_some());
    }

    #[test]
    fn image_schema_has_coordinate_system() {
        let s = DataType::Image.default_schema();
        assert!(s.column_index("coordinate_system").is_some());
        assert!(s.column_index("modality").is_some());
    }
}
