//! Error type for a-graph operations.

use std::fmt;

use crate::links::NodeId;

/// Errors raised by a-graph operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id the graph never issued.
    NodeNotFound(NodeId),
    /// A connection subgraph was requested for fewer than two terminal nodes.
    TooFewTerminals(usize),
    /// The requested terminals are not mutually connected (ignoring direction).
    Disconnected {
        /// A terminal that could not be reached from the first terminal.
        unreachable: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeNotFound(id) => write!(f, "node {id:?} not found"),
            GraphError::TooFewTerminals(n) => {
                write!(f, "connection subgraph needs at least 2 terminals, got {n}")
            }
            GraphError::Disconnected { unreachable } => {
                write!(f, "terminal {unreachable:?} is not connected to the other terminals")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = GraphError::TooFewTerminals(1);
        assert!(e.to_string().contains("at least 2"));
        let e = GraphError::NodeNotFound(NodeId(7 << 62));
        assert!(e.to_string().contains("not found"));
    }
}
