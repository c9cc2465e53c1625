//! Planar locations and distance metrics.
//!
//! The paper works over a city-scale study area (Chengdu) which it partitions
//! into uniform grid cells; workers have a reachable distance expressed in
//! kilometres. We model locations as points in a planar coordinate system
//! whose unit is the kilometre (the running example of Fig. 1 uses abstract
//! units, which is also fine — all algorithms are unit-agnostic as long as
//! locations, reachable distances and travel speeds agree).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in the planar study area. Coordinates are kilometres by convention.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Location {
    /// East–west coordinate.
    pub x: f64,
    /// North–south coordinate.
    pub y: f64,
}

impl Location {
    /// The origin of the study area.
    pub const ORIGIN: Location = Location { x: 0.0, y: 0.0 };

    /// Creates a location from its two coordinates.
    #[inline]
    pub fn new(x: f64, y: f64) -> Location {
        Location { x, y }
    }

    /// Euclidean (L2) distance to `other`.
    #[inline]
    pub fn euclidean(&self, other: &Location) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Manhattan (L1) distance to `other`. Useful as a crude road-network
    /// proxy for grid-like street layouts.
    #[inline]
    pub fn manhattan(&self, other: &Location) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Whether both coordinates are finite (not NaN / infinite).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// An axis-aligned rectangle describing the study area.
///
/// The grid substrate (`datawa-geo`) partitions a bounding box into uniform
/// cells; workload generators sample task and worker locations inside one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Minimum corner (south-west).
    pub min: Location,
    /// Maximum corner (north-east).
    pub max: Location,
}

impl BoundingBox {
    /// Creates a bounding box from two opposite corners, normalising the
    /// corner order.
    pub fn new(a: Location, b: Location) -> BoundingBox {
        BoundingBox {
            min: Location::new(a.x.min(b.x), a.y.min(b.y)),
            max: Location::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Width (x extent) of the box.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent) of the box.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the box.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Whether the point lies inside the box (inclusive on all edges).
    #[inline]
    pub fn contains(&self, p: &Location) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps a point into the box.
    pub fn clamp(&self, p: &Location) -> Location {
        Location::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_distance_matches_hand_computation() {
        let a = Location::new(0.0, 0.0);
        let b = Location::new(3.0, 4.0);
        assert!((a.euclidean(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_distance_matches_hand_computation() {
        let a = Location::new(1.0, 2.0);
        let b = Location::new(4.0, -2.0);
        assert!((a.manhattan(&b) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_normalises_corners_and_contains() {
        let bb = BoundingBox::new(Location::new(5.0, 1.0), Location::new(1.0, 5.0));
        assert_eq!(bb.min, Location::new(1.0, 1.0));
        assert_eq!(bb.max, Location::new(5.0, 5.0));
        assert!(bb.contains(&Location::new(3.0, 3.0)));
        assert!(!bb.contains(&Location::new(0.0, 3.0)));
        assert_eq!(bb.clamp(&Location::new(0.0, 10.0)), Location::new(1.0, 5.0));
        assert!((bb.area() - 16.0).abs() < 1e-12);
    }
}
