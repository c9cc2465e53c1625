//! Uniform grid partition of the study area.
//!
//! The prediction component of the paper partitions the study area into
//! disjoint, uniform grid cells and treats each cell as one node of the grid
//! graph (§III). The same grid doubles as the bucketing scheme of the spatial
//! index used by the assignment component.

use datawa_core::location::BoundingBox;
use datawa_core::Location;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one grid cell, in row-major order (`row * cols + col`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CellId(pub u32);

impl CellId {
    /// Index form for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Parameters of a uniform grid: the study area bounding box and the number
/// of rows and columns it is divided into.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Study area.
    pub area: BoundingBox,
    /// Number of rows (y divisions).
    pub rows: u32,
    /// Number of columns (x divisions).
    pub cols: u32,
}

impl GridSpec {
    /// Creates a grid specification. Both dimensions must be at least 1.
    pub fn new(area: BoundingBox, rows: u32, cols: u32) -> GridSpec {
        assert!(rows >= 1 && cols >= 1, "grid must have at least one cell");
        assert!(
            area.width() > 0.0 && area.height() > 0.0,
            "study area must have positive extent"
        );
        GridSpec { area, rows, cols }
    }

    /// Total number of cells `M = rows × cols`.
    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.rows as usize) * (self.cols as usize)
    }
}

/// A uniform grid over the study area with O(1) point-to-cell mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniformGrid {
    spec: GridSpec,
    cell_width: f64,
    cell_height: f64,
}

impl UniformGrid {
    /// Builds the grid from its specification.
    pub fn new(spec: GridSpec) -> UniformGrid {
        let cell_width = spec.area.width() / spec.cols as f64;
        let cell_height = spec.area.height() / spec.rows as f64;
        UniformGrid {
            spec,
            cell_width,
            cell_height,
        }
    }

    /// The grid specification.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.spec.cell_count()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.spec.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.spec.cols
    }

    /// Width of one cell.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.cell_width
    }

    /// Height of one cell.
    #[inline]
    pub fn cell_height(&self) -> f64 {
        self.cell_height
    }

    /// Maps a `(row, col)` pair to a cell id.
    #[inline]
    pub fn cell_at(&self, row: u32, col: u32) -> CellId {
        debug_assert!(row < self.spec.rows && col < self.spec.cols);
        CellId(row * self.spec.cols + col)
    }

    /// Decomposes a cell id into its `(row, col)` pair.
    #[inline]
    pub fn row_col(&self, cell: CellId) -> (u32, u32) {
        (cell.0 / self.spec.cols, cell.0 % self.spec.cols)
    }

    /// The cell containing `p`. Points outside the study area are clamped to
    /// the nearest boundary cell, which matches how city-boundary GPS noise is
    /// usually handled in trace preprocessing.
    pub fn cell_of(&self, p: &Location) -> CellId {
        let clamped = self.spec.area.clamp(p);
        let col = ((clamped.x - self.spec.area.min.x) / self.cell_width) as u32;
        let row = ((clamped.y - self.spec.area.min.y) / self.cell_height) as u32;
        let col = col.min(self.spec.cols - 1);
        let row = row.min(self.spec.rows - 1);
        self.cell_at(row, col)
    }

    /// Centre point of a cell.
    pub fn cell_center(&self, cell: CellId) -> Location {
        let (row, col) = self.row_col(cell);
        Location::new(
            self.spec.area.min.x + (col as f64 + 0.5) * self.cell_width,
            self.spec.area.min.y + (row as f64 + 0.5) * self.cell_height,
        )
    }

    /// Bounding box of a cell.
    pub fn cell_bounds(&self, cell: CellId) -> BoundingBox {
        let (row, col) = self.row_col(cell);
        let min = Location::new(
            self.spec.area.min.x + col as f64 * self.cell_width,
            self.spec.area.min.y + row as f64 * self.cell_height,
        );
        let max = Location::new(min.x + self.cell_width, min.y + self.cell_height);
        BoundingBox::new(min, max)
    }

    /// The 4-neighbourhood (up/down/left/right) of a cell, clipped to the grid.
    pub fn neighbors4(&self, cell: CellId) -> Vec<CellId> {
        let (row, col) = self.row_col(cell);
        let mut out = Vec::with_capacity(4);
        if row > 0 {
            out.push(self.cell_at(row - 1, col));
        }
        if row + 1 < self.spec.rows {
            out.push(self.cell_at(row + 1, col));
        }
        if col > 0 {
            out.push(self.cell_at(row, col - 1));
        }
        if col + 1 < self.spec.cols {
            out.push(self.cell_at(row, col + 1));
        }
        out
    }

    /// The 8-neighbourhood (including diagonals) of a cell, clipped to the grid.
    pub fn neighbors8(&self, cell: CellId) -> Vec<CellId> {
        let (row, col) = self.row_col(cell);
        let mut out = Vec::with_capacity(8);
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let r = row as i64 + dr;
                let c = col as i64 + dc;
                if r >= 0 && c >= 0 && (r as u32) < self.spec.rows && (c as u32) < self.spec.cols {
                    out.push(self.cell_at(r as u32, c as u32));
                }
            }
        }
        out
    }

    /// All cell ids in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.cell_count() as u32).map(CellId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> UniformGrid {
        let area = BoundingBox::new(Location::new(0.0, 0.0), Location::new(10.0, 10.0));
        UniformGrid::new(GridSpec::new(area, 5, 5))
    }

    #[test]
    fn cell_of_maps_points_to_expected_cells() {
        let g = grid();
        assert_eq!(g.cell_of(&Location::new(0.1, 0.1)), g.cell_at(0, 0));
        assert_eq!(g.cell_of(&Location::new(9.9, 9.9)), g.cell_at(4, 4));
        assert_eq!(g.cell_of(&Location::new(5.0, 1.0)), g.cell_at(0, 2));
    }

    #[test]
    fn out_of_area_points_are_clamped() {
        let g = grid();
        assert_eq!(g.cell_of(&Location::new(-5.0, -5.0)), g.cell_at(0, 0));
        assert_eq!(g.cell_of(&Location::new(50.0, 50.0)), g.cell_at(4, 4));
    }

    #[test]
    fn boundary_points_fall_in_last_cell() {
        let g = grid();
        // x = 10.0 is the right edge of the area; it must map to column 4, not 5.
        assert_eq!(g.cell_of(&Location::new(10.0, 10.0)), g.cell_at(4, 4));
    }

    #[test]
    fn row_col_roundtrip() {
        let g = grid();
        for cell in g.cells() {
            let (r, c) = g.row_col(cell);
            assert_eq!(g.cell_at(r, c), cell);
        }
    }

    #[test]
    fn cell_center_lies_inside_cell_bounds() {
        let g = grid();
        for cell in g.cells() {
            let center = g.cell_center(cell);
            assert!(g.cell_bounds(cell).contains(&center));
            assert_eq!(g.cell_of(&center), cell);
        }
    }

    #[test]
    fn neighbors4_counts() {
        let g = grid();
        assert_eq!(g.neighbors4(g.cell_at(0, 0)).len(), 2); // corner
        assert_eq!(g.neighbors4(g.cell_at(0, 2)).len(), 3); // edge
        assert_eq!(g.neighbors4(g.cell_at(2, 2)).len(), 4); // interior
    }

    #[test]
    fn neighbors8_counts() {
        let g = grid();
        assert_eq!(g.neighbors8(g.cell_at(0, 0)).len(), 3);
        assert_eq!(g.neighbors8(g.cell_at(0, 2)).len(), 5);
        assert_eq!(g.neighbors8(g.cell_at(2, 2)).len(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_rows_rejected() {
        let area = BoundingBox::new(Location::new(0.0, 0.0), Location::new(1.0, 1.0));
        let _ = GridSpec::new(area, 0, 3);
    }
}
