//! # datawa-geo
//!
//! Spatial substrate for the DATA-WA reproduction: a uniform grid partition of
//! the study area (the paper's grid-based prediction regions, §III).
//!
//! ```
//! use datawa_core::prelude::*;
//! use datawa_geo::{GridSpec, UniformGrid};
//!
//! let area = BoundingBox::new(Location::new(0.0, 0.0), Location::new(10.0, 10.0));
//! let grid = UniformGrid::new(GridSpec::new(area, 5, 5));
//! let cell = grid.cell_of(&Location::new(2.4, 7.9));
//! assert!(cell.index() < grid.cell_count());
//! ```

pub mod grid;

pub use grid::{CellId, GridSpec, UniformGrid};
