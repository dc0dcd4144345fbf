//! Error types for fallible object construction.
//!
//! The panicking constructors (`new`, `uniform`, `from_weighted`) stay the
//! ergonomic default for programmatic data; the `try_*` variants return
//! these errors for data arriving from files or user input.

use std::fmt;

/// Why a multi-instance object (or distribution) could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectError {
    /// No instances were supplied.
    Empty,
    /// Instances disagree on dimensionality.
    DimensionMismatch {
        /// Dimensionality of the first instance.
        expected: usize,
        /// Dimensionality of the offending instance.
        found: usize,
    },
    /// A probability was outside `(0, 1]` or non-finite.
    BadProbability(f64),
    /// A weight was non-positive or non-finite.
    BadWeight(f64),
    /// Probabilities do not sum to 1 (within tolerance).
    BadMass(f64),
    /// A coordinate was non-finite or beyond [`osd_geom::MAX_COORD`] in
    /// magnitude.
    BadCoordinate(f64),
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::Empty => write!(f, "an object needs at least one instance"),
            ObjectError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "instance dimensionality mismatch: expected {expected}, found {found}"
                )
            }
            ObjectError::BadProbability(p) => {
                write!(f, "instance probability must be in (0, 1], got {p}")
            }
            ObjectError::BadWeight(w) => {
                write!(f, "instance weight must be positive and finite, got {w}")
            }
            ObjectError::BadMass(s) => {
                write!(f, "instance probabilities must sum to 1, got {s}")
            }
            ObjectError::BadCoordinate(c) => {
                write!(f, "instance coordinate {c} {}", osd_geom::CoordError(*c))
            }
        }
    }
}

impl std::error::Error for ObjectError {}
