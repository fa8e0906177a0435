//! Process-wide shared immutable caches for scenario building.
//!
//! The driver's batch farm runs many scenario builds in one process, and
//! most of what a build computes is immutable and reusable:
//!
//! - **FMM translation operators** are geometry-independent per
//!   (kernel, order) and already cached process-wide in [`fmm::ops`]
//!   (telemetry via [`fmm::ops_cache_stats`]);
//! - **refined wall surfaces** are deterministic functions of the coarse
//!   surface and the refinement level — `BoundarySurface::refine` re-fits
//!   `4^levels` polynomial patches, which jobs sharing a vessel geometry
//!   would otherwise redo from scratch. That cache lives here.
//!
//! [`refined_surface`] keys on an FNV digest of the coarse surface's exact
//! coefficient bits plus the level count, so two configs share an entry iff
//! they describe bit-identical geometry — a cached build is byte-for-byte
//! the clone of a cold one, which keeps vessel digests (and therefore
//! checkpoint compatibility and trajectory bit-identity) unchanged.
//! Counters are cumulative; per-window consumers (the farm's telemetry
//! report) snapshot before/after and subtract.

use linalg::{fnv1a64, ByteWriter};
use parking_lot::Mutex;
use patch::{BoundarySurface, PatchKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache key: (digest of the coarse surface's defining bits, refine levels).
type SurfaceKey = (u64, u32);
static SURFACE_CACHE: Mutex<Option<HashMap<SurfaceKey, Arc<BoundarySurface>>>> = Mutex::new(None);
static SURFACE_BUILDS: AtomicU64 = AtomicU64::new(0);
static SURFACE_HITS: AtomicU64 = AtomicU64::new(0);

/// Cumulative counters of the shared refined-surface cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SurfaceCacheStats {
    /// Cold refinements (`BoundarySurface::refine` actually ran).
    pub builds: u64,
    /// Refinements served from the shared cache.
    pub hits: u64,
}

/// Snapshot of the [`refined_surface`] hit/build counters.
pub fn surface_cache_stats() -> SurfaceCacheStats {
    SurfaceCacheStats {
        builds: SURFACE_BUILDS.load(Ordering::Relaxed),
        hits: SURFACE_HITS.load(Ordering::Relaxed),
    }
}

/// Exact-bit digest of a surface: quadrature order, patch kinds, and every
/// patch's Chebyshev coefficient bits.
fn surface_digest(s: &BoundarySurface) -> u64 {
    let mut w = ByteWriter::new();
    w.put_usize(s.q);
    w.put_usize(s.patches.len());
    for (patch, kind) in s.patches.iter().zip(&s.kinds) {
        match kind {
            PatchKind::Wall => w.put_u32(u32::MAX),
            PatchKind::Inlet(id) => {
                w.put_u8(0);
                w.put_u32(*id);
            }
            PatchKind::Outlet(id) => {
                w.put_u8(1);
                w.put_u32(*id);
            }
        }
        w.put_usize(patch.q);
        for c in 0..3 {
            w.put_f64_slice(&patch.component_coefs(c));
        }
    }
    fnv1a64(w.bytes())
}

/// `coarse.refine(levels)` through the process-wide cache: the first call
/// for a given (geometry, levels) pair pays the `4^levels` patch re-fits,
/// every later call (another job of the same vessel geometry, a rebuild
/// for a checkpoint restore) gets the shared immutable copy.
///
/// `levels == 0` is an identity clone — too cheap to be worth hashing the
/// surface for, so it bypasses the cache and touches no counter.
pub fn refined_surface(coarse: &BoundarySurface, levels: u32) -> Arc<BoundarySurface> {
    if levels == 0 {
        return Arc::new(coarse.clone());
    }
    let key = (surface_digest(coarse), levels);
    let mut guard = SURFACE_CACHE.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(s) = map.get(&key) {
        SURFACE_HITS.fetch_add(1, Ordering::Relaxed);
        return s.clone();
    }
    // built inside the lock: refines are rare, and duplicating one on a
    // race would skew the build telemetry the farm asserts on
    let s = Arc::new(coarse.refine(levels));
    SURFACE_BUILDS.fetch_add(1, Ordering::Relaxed);
    map.insert(key, s.clone());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Vec3;
    use patch::{capsule_tube, StraightLine};

    fn tiny_tube() -> BoundarySurface {
        let line = StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(0.0, 0.0, 2.0),
        };
        capsule_tube(&line, 0.8, 1, 4)
    }

    #[test]
    fn cached_refinement_is_bit_identical_and_counts_hits() {
        let coarse = tiny_tube();
        let before = surface_cache_stats();
        let a = refined_surface(&coarse, 1);
        let b = refined_surface(&coarse, 1);
        assert!(Arc::ptr_eq(&a, &b), "repeat refine not served from cache");
        let after = surface_cache_stats();
        assert!(after.hits >= before.hits + 1);
        assert!(after.builds >= before.builds + 1);
        // cached result is exactly what a cold refine produces
        let cold = coarse.refine(1);
        assert_eq!(cold.patches.len(), a.patches.len());
        for (pa, pc) in a.patches.iter().zip(&cold.patches) {
            for c in 0..3 {
                let x: Vec<u64> = pa.component_coefs(c).iter().map(|v| v.to_bits()).collect();
                let y: Vec<u64> = pc.component_coefs(c).iter().map(|v| v.to_bits()).collect();
                assert_eq!(x, y, "cached refine differs from cold refine");
            }
        }
    }

    #[test]
    fn distinct_geometry_and_levels_do_not_collide() {
        let coarse = tiny_tube();
        let one = refined_surface(&coarse, 1);
        let two = refined_surface(&coarse, 2);
        assert_eq!(two.patches.len(), 4 * one.patches.len());
        let line = StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(0.0, 0.0, 3.0),
        };
        let other = capsule_tube(&line, 0.8, 1, 4);
        let o1 = refined_surface(&other, 1);
        assert!(!Arc::ptr_eq(&one, &o1));
        assert_ne!(
            surface_digest(&coarse),
            surface_digest(&other),
            "different geometries digested identically"
        );
    }

    #[test]
    fn level_zero_bypasses_the_cache() {
        let coarse = tiny_tube();
        let before = surface_cache_stats();
        let same = refined_surface(&coarse, 0);
        assert_eq!(same.patches.len(), coarse.patches.len());
        assert_eq!(surface_cache_stats(), before);
    }
}
