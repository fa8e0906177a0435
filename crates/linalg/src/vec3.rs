//! Three-dimensional vector type used throughout the simulation.
//!
//! Kept deliberately small and `Copy`; all geometric quantities (points,
//! velocities, forces, normals) are `Vec3`. Arithmetic is implemented via
//! operator overloading so numerical code reads like the formulas in the
//! paper.

use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A vector (or point) in `R^3` with `f64` components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `s`.
    #[inline]
    pub const fn splat(s: f64) -> Self {
        Vec3 { x: s, y: s, z: s }
    }

    /// Euclidean dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product `self × rhs`.
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Returns the unit vector in the direction of `self`.
    ///
    /// Returns the zero vector when `self` is (numerically) zero, which is
    /// the convention most convenient for degenerate normals.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Vec3::ZERO
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// Largest component.
    #[inline]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Returns `true` when all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Components as a fixed-size array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Returns an arbitrary unit vector orthogonal to `self`.
    ///
    /// Useful for constructing local frames around normals. `self` need not
    /// be normalized but must be nonzero.
    pub fn any_orthogonal(self) -> Vec3 {
        let a = if self.x.abs() <= self.y.abs() && self.x.abs() <= self.z.abs() {
            Vec3::new(1.0, 0.0, 0.0)
        } else if self.y.abs() <= self.z.abs() {
            Vec3::new(0.0, 1.0, 0.0)
        } else {
            Vec3::new(0.0, 0.0, 1.0)
        };
        self.cross(a).normalized()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of bounds: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of bounds: {i}"),
        }
    }
}

impl std::iter::Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

/// An axis-aligned bounding box in `R^3`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub lo: Vec3,
    /// Maximum corner.
    pub hi: Vec3,
}

impl Aabb {
    /// An empty box (inverted bounds) suitable as a fold identity.
    pub const EMPTY: Aabb = Aabb {
        lo: Vec3::splat(f64::INFINITY),
        hi: Vec3::splat(f64::NEG_INFINITY),
    };

    /// Builds a box from explicit corners.
    pub fn new(lo: Vec3, hi: Vec3) -> Aabb {
        Aabb { lo, hi }
    }

    /// Smallest box containing all points of the iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(pts: I) -> Aabb {
        pts.into_iter().fold(Aabb::EMPTY, |b, p| b.expanded_to(p))
    }

    /// Returns the box grown to contain `p`.
    #[inline]
    pub fn expanded_to(self, p: Vec3) -> Aabb {
        Aabb {
            lo: self.lo.min(p),
            hi: self.hi.max(p),
        }
    }

    /// Returns the union of two boxes.
    #[inline]
    pub fn union(self, other: Aabb) -> Aabb {
        Aabb {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Returns the box inflated by `d` in every direction.
    #[inline]
    pub fn inflated(self, d: f64) -> Aabb {
        Aabb {
            lo: self.lo - Vec3::splat(d),
            hi: self.hi + Vec3::splat(d),
        }
    }

    /// Center point.
    #[inline]
    pub fn center(self) -> Vec3 {
        (self.lo + self.hi) * 0.5
    }

    /// Edge lengths.
    #[inline]
    pub fn extent(self) -> Vec3 {
        self.hi - self.lo
    }

    /// Length of the box diagonal.
    #[inline]
    pub fn diagonal(self) -> f64 {
        self.extent().norm()
    }

    /// Whether the point lies inside (inclusive).
    #[inline]
    pub fn contains(self, p: Vec3) -> bool {
        p.x >= self.lo.x
            && p.x <= self.hi.x
            && p.y >= self.lo.y
            && p.y <= self.hi.y
            && p.z >= self.lo.z
            && p.z <= self.hi.z
    }

    /// Euclidean distance from `p` to the box (0 inside).
    #[inline]
    pub fn distance_to(self, p: Vec3) -> f64 {
        (p - p.max(self.lo).min(self.hi)).norm()
    }

    /// Whether two boxes overlap (inclusive of touching).
    #[inline]
    pub fn intersects(self, o: Aabb) -> bool {
        self.lo.x <= o.hi.x
            && o.lo.x <= self.hi.x
            && self.lo.y <= o.hi.y
            && o.lo.y <= self.hi.y
            && self.lo.z <= o.hi.z
            && o.lo.z <= self.hi.z
    }

    /// Whether the box is empty (any inverted axis).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y || self.lo.z > self.hi.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_cross_identities() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        // cross product is orthogonal to both arguments
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-14);
        assert!(c.dot(b).abs() < 1e-14);
        // Lagrange identity |a×b|² = |a|²|b|² − (a·b)²
        let lhs = c.norm_sq();
        let rhs = a.norm_sq() * b.norm_sq() - a.dot(b) * a.dot(b);
        assert!((lhs - rhs).abs() < 1e-12 * rhs.abs().max(1.0));
    }

    #[test]
    fn normalized_handles_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let v = Vec3::new(3.0, 0.0, 4.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn any_orthogonal_is_orthogonal_unit() {
        for v in [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1e-9, 5.0),
            Vec3::new(-3.0, 2.0, 1.0),
        ] {
            let o = v.any_orthogonal();
            assert!(o.dot(v).abs() < 1e-12 * v.norm());
            assert!((o.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn aabb_basics() {
        let b = Aabb::from_points([Vec3::new(0.0, 1.0, 2.0), Vec3::new(-1.0, 3.0, 0.0)]);
        assert_eq!(b.lo, Vec3::new(-1.0, 1.0, 0.0));
        assert_eq!(b.hi, Vec3::new(0.0, 3.0, 2.0));
        assert!(b.contains(b.center()));
        assert!(!b.contains(Vec3::new(10.0, 0.0, 0.0)));
        let c = b.inflated(1.0);
        assert!(c.contains(Vec3::new(0.5, 0.5, -0.5)));
        assert!(b.intersects(c));
        assert_eq!(b.distance_to(b.center()), 0.0);
        assert_eq!(b.distance_to(Vec3::new(3.0, 7.0, 1.0)), 5.0); // (3, 4, 0) off the corner edge
        assert!(Aabb::EMPTY.is_empty());
        assert!(!b.is_empty());
    }

    #[test]
    fn indexing_round_trip() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        for i in 0..3 {
            v[i] += i as f64;
        }
        assert_eq!(v, Vec3::new(1.0, 3.0, 5.0));
    }
}
