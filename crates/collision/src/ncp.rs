//! The outer NCP loop of §4: iterate contact detection and linearized LCP
//! solves until the configuration is interference-free (items 1–3 of the
//! collision algorithm; the paper reports ~7 LCP solves per NCP).
//!
//! The coupling matrix `B` — "the change in the jth contact volume induced
//! by the kth contact force" — is assembled per linearization into a
//! [`CsrMatrix`]: contributions are generated per *mesh* (two contacts
//! couple exactly when they share a movable mesh), stably sorted into
//! `(j, k)` order, and summed in ascending-mesh order, so every entry's
//! floating-point accumulation order is canonical — bit-identical across
//! runs and instances, which the checkpoint/restart guarantee requires.
//! The LCP's Newton/GMRES inner iterations then run on the CSR matvec; the
//! matrix (and the mobility response columns below) are computed once per
//! linearization and reused across all inner iterations.
//!
//! Mobility responses are *batched*: instead of one call per (contact,
//! mesh) probe, all contact-force columns touching a mesh are handed to
//! [`Mobility::apply_many`] in one call, so an implementation can pack them
//! into matrices and run its linear stages as GEMMs (the simulation's cell
//! mobility does exactly that).
//!
//! The loop exits at its fixed point: a linearization whose LCP returns
//! `λ ≡ 0` moves nothing, so the next one would see the same positions and
//! repeat it bit for bit; the verdict is then read off that iteration's own
//! detection (positions have not changed since), which is exactly what the
//! final check after running on to `max_outer` would have returned. Such a
//! stall — the LCP's line search rejecting every step with contacts still
//! open — reads in a run's `trajectory.csv` as an `ncp_iters` below the cap
//! on a contact step whose `StepStats::contact_free` is false. Between
//! iterations only the meshes the previous one moved are re-formed.

use crate::detect::{detect_contacts, Contact, DetectOptions};
use crate::lcp::{solve_lcp, LcpOptions};
use crate::mesh::TriMesh;
use linalg::{CsrMatrix, Vec3};
use std::collections::BTreeMap;

/// Maps contact forces on a mesh's vertices to vertex displacements over
/// one time step (`Δt ×` the object's mobility). The simulation supplies
/// the cell self-interaction mobility (Eq. 2.12); rigid vessel meshes
/// report [`Mobility::is_rigid`] and are never moved.
pub trait Mobility: Sync {
    /// Whether this mesh belongs to a rigid (immovable) object.
    fn is_rigid(&self, mesh: u32) -> bool;
    /// Applies the (time-step-scaled) mobility of mesh `mesh` to a batch of
    /// sparse vertex force columns at the same linearization point,
    /// returning one dense per-vertex displacement field per column. A
    /// column's result must not depend on its batch-mates: one call over
    /// `K` columns returns, bit for bit, what `K` one-column calls would.
    fn apply_many(&self, mesh: u32, forces: &[&[(u32, Vec3)]], nverts: usize) -> Vec<Vec<Vec3>>;
}

/// Free-particle mobility: displacement = `scale ×` force at each vertex.
/// Used in tests and as a fallback penalty-like response.
pub struct IdentityMobility {
    /// Displacement per unit force.
    pub scale: f64,
    /// Meshes flagged rigid.
    pub rigid: Vec<bool>,
}

impl Mobility for IdentityMobility {
    fn is_rigid(&self, mesh: u32) -> bool {
        self.rigid.get(mesh as usize).copied().unwrap_or(false)
    }
    fn apply_many(&self, _mesh: u32, forces: &[&[(u32, Vec3)]], nverts: usize) -> Vec<Vec<Vec3>> {
        let mut out = vec![vec![Vec3::ZERO; nverts]; forces.len()];
        for (col, force) in out.iter_mut().zip(forces) {
            for &(v, f) in *force {
                col[v as usize] = f * self.scale;
            }
        }
        out
    }
}

/// Options for the NCP solve.
#[derive(Clone, Copy, Debug)]
pub struct NcpOptions {
    /// Contact detection threshold δ.
    pub detect: DetectOptions,
    /// Inner LCP controls.
    pub lcp: LcpOptions,
    /// Maximum outer (re-linearization) iterations.
    pub max_outer: usize,
}

impl Default for NcpOptions {
    fn default() -> Self {
        NcpOptions {
            detect: DetectOptions::new(1e-2),
            lcp: LcpOptions::default(),
            max_outer: 10,
        }
    }
}

/// Outcome of the NCP solve.
#[derive(Clone, Debug)]
pub struct NcpResult {
    /// Accumulated contact displacement per mesh vertex.
    pub displacements: Vec<Vec<Vec3>>,
    /// Sum of multipliers per outer iteration (diagnostic).
    pub lambda_total: f64,
    /// Contacts active at the first detection (collision statistics for the
    /// scaling tables: "#collision/#RBCs").
    pub initial_contacts: usize,
    /// Outer iterations run (the loop stops early at a fixed point).
    pub outer_iters: usize,
    /// Whether a contact-free state was reached.
    pub resolved: bool,
}

/// One linearized contact: the movable meshes it touches, its interference
/// gradient restricted to each, and (once the batched mobility applies have
/// run) the dense displacement response per mesh.
struct ContactData {
    meshes: Vec<u32>,
    grads: Vec<Vec<(u32, Vec3)>>,
    disps: Vec<Vec<Vec3>>, // dense per mesh, filled by the batched applies
}

/// Mesh id → the `(contact, slot)` probes that touch it, in ascending
/// contact order; the map itself iterates in ascending mesh order. Both
/// orders are what makes the downstream accumulation canonical.
type MeshProbes = BTreeMap<u32, Vec<(usize, usize)>>;

/// Builds the per-contact linearization data and the mesh → probes index.
fn contact_linearization(
    contacts: &[Contact],
    current: &[TriMesh],
    mobility: &impl Mobility,
) -> (Vec<ContactData>, MeshProbes) {
    // one slot per contact, committed in contact order — the parallel
    // split cannot perturb the canonical ordering the assembly relies on
    let mut data: Vec<ContactData> = rayon::par::map_indexed(contacts.len(), |k| {
        let c = &contacts[k];
        // meshes involved in this contact (movable only)
        let mut involved: Vec<u32> = c
            .pairs
            .iter()
            .flat_map(|p| [p.vert_mesh, p.tri_mesh])
            .filter(|&mi| !mobility.is_rigid(mi))
            .collect();
        involved.sort_unstable();
        involved.dedup();
        let grads: Vec<Vec<(u32, Vec3)>> =
            involved.iter().map(|&mi| c.gradient(mi, current)).collect();
        ContactData {
            meshes: involved,
            grads,
            disps: Vec::new(),
        }
    });

    let mut by_mesh: BTreeMap<u32, Vec<(usize, usize)>> = BTreeMap::new();
    for (k, d) in data.iter().enumerate() {
        for (slot, &mi) in d.meshes.iter().enumerate() {
            by_mesh.entry(mi).or_default().push((k, slot));
        }
    }
    for d in &mut data {
        d.disps = vec![Vec::new(); d.meshes.len()];
    }
    (data, by_mesh)
}

/// Runs one batched [`Mobility::apply_many`] per mesh and scatters the
/// displacement columns back into each contact's slot.
fn batched_mobility_responses(
    data: &mut [ContactData],
    by_mesh: &MeshProbes,
    meshes: &[TriMesh],
    mobility: &impl Mobility,
) {
    let groups: Vec<(&u32, &Vec<(usize, usize)>)> = by_mesh.iter().collect();
    // meshes are independent batches; results land in ascending-mesh order
    let data_ref = &data[..];
    let results: Vec<Vec<Vec<Vec3>>> = rayon::par::map_indexed(groups.len(), |gi| {
        let (&mi, probes) = groups[gi];
        let cols: Vec<&[(u32, Vec3)]> = probes
            .iter()
            .map(|&(k, slot)| data_ref[k].grads[slot].as_slice())
            .collect();
        mobility.apply_many(mi, &cols, meshes[mi as usize].verts.len())
    });
    for ((_, probes), res) in groups.into_iter().zip(results) {
        assert_eq!(
            res.len(),
            probes.len(),
            "apply_many returned a wrong column count"
        );
        for (&(k, slot), d) in probes.iter().zip(res) {
            data[k].disps[slot] = d;
        }
    }
}

/// Assembles `B_jk = Σ_mesh ∇V_j(mesh) · Δx_k(mesh)` over the meshes each
/// contact pair shares. Contributions are generated per mesh in ascending
/// mesh order, stably sorted to `(j, k)`, and summed in that order by the
/// CSR build — a fixed accumulation order regardless of parallel split.
fn assemble_b(m: usize, data: &[ContactData], by_mesh: &MeshProbes) -> CsrMatrix {
    // per-mesh triplet batches computed in parallel, concatenated in
    // ascending-mesh order (the BTreeMap's iteration order), so the stable
    // sort below sees the same sequence at any thread count
    let groups: Vec<&Vec<(usize, usize)>> = by_mesh.values().collect();
    let batches: Vec<Vec<(usize, usize, f64)>> = rayon::par::map_indexed(groups.len(), |gi| {
        let probes = groups[gi];
        let mut out = Vec::with_capacity(probes.len() * probes.len());
        for &(j, slot_j) in probes {
            for &(k, slot_k) in probes {
                // B_jk += ∇V_j(mesh) · Δx_k(mesh)
                let mut acc = 0.0;
                for &(v, g) in &data[j].grads[slot_j] {
                    acc += g.dot(data[k].disps[slot_k][v as usize]);
                }
                out.push((j, k, acc));
            }
        }
        out
    });
    let mut triplets: Vec<(usize, usize, f64)> = batches.into_iter().flatten().collect();
    // stable: duplicates keep ascending-mesh order
    triplets.sort_by_key(|&(j, k, _)| (j, k));
    CsrMatrix::from_sorted_triplets(m, m, &triplets)
}

/// The contact-free verdict on one detection: no contact interferes beyond
/// roundoff.
fn contact_free(detected: &[Contact]) -> bool {
    detected.iter().all(|c| c.value >= -1e-12)
}

/// Re-forms the current end-of-step mesh of every mesh flagged in `moved`
/// (clearing the flag) from `end_positions`; the others are kept as they
/// are, since their positions did not change.
fn refresh_moved(
    meshes: &[TriMesh],
    end_positions: &[Vec<Vec3>],
    current: &mut [TriMesh],
    moved: &mut [bool],
) {
    let ids: Vec<usize> = (0..moved.len()).filter(|&mi| moved[mi]).collect();
    let fresh = rayon::par::map_indexed(ids.len(), |k| {
        meshes[ids[k]].with_positions(end_positions[ids[k]].clone())
    });
    for (mi, mesh) in ids.into_iter().zip(fresh) {
        current[mi] = mesh;
        moved[mi] = false;
    }
}

/// Resolves interference: updates `end_positions` (one `Vec<Vec3>` per
/// mesh) in place so that all meshes are separated by at least δ, moving
/// only non-rigid meshes through their mobility.
///
/// The loop ends at the first of: no contact left (resolved), a
/// linearization whose LCP returns `λ ≡ 0` (a fixed point: nothing moved,
/// so every further iteration would repeat this one bit for bit, and the
/// verdict is read off this iteration's own detection), or `max_outer`
/// iterations (then one final detection gives the verdict).
pub fn resolve_contacts(
    meshes: &[TriMesh],
    end_positions: &mut [Vec<Vec3>],
    start_positions: &[Vec<Vec3>],
    obj_of: &[u32],
    mobility: &impl Mobility,
    opts: &NcpOptions,
) -> NcpResult {
    let nm = meshes.len();
    assert_eq!(end_positions.len(), nm);
    assert_eq!(start_positions.len(), nm);
    let mut displacements: Vec<Vec<Vec3>> = meshes
        .iter()
        .map(|m| vec![Vec3::ZERO; m.verts.len()])
        .collect();
    let mut lambda_total = 0.0;
    let mut initial_contacts = 0;
    let mut verdict = None;
    let mut outer = 0;
    // current end-of-step meshes (one slot per mesh, index order); an
    // iteration re-forms only the meshes the previous one moved
    let end_ref = &end_positions[..];
    let mut current: Vec<TriMesh> =
        rayon::par::map_indexed(nm, |mi| meshes[mi].with_positions(end_ref[mi].clone()));
    let mut moved = vec![false; nm];

    for it in 0..opts.max_outer {
        outer = it + 1;
        refresh_moved(meshes, end_positions, &mut current, &mut moved);
        let detected = detect_contacts(&current, Some(start_positions), obj_of, opts.detect);
        let clear = contact_free(&detected);
        let contacts: Vec<Contact> = detected.into_iter().filter(|c| c.value < 0.0).collect();
        if it == 0 {
            initial_contacts = contacts.len();
        }
        if contacts.is_empty() {
            verdict = Some(true);
            break;
        }
        let m = contacts.len();

        // linearize: gradients, then one batched mobility apply per mesh
        let (mut data, by_mesh) = contact_linearization(&contacts, &current, mobility);
        batched_mobility_responses(&mut data, &by_mesh, meshes, mobility);

        // sparse B in CSR; the LCP's inner iterations reuse the matrix and
        // the cached displacement columns across the whole linearization
        let b = assemble_b(m, &data, &by_mesh);
        let q: Vec<f64> = contacts.iter().map(|c| c.value).collect();
        let apply_b = |x: &[f64], y: &mut [f64]| b.matvec_into(x, y);
        let res = solve_lcp(m, apply_b, &q, &opts.lcp);
        lambda_total += res.lambda.iter().sum::<f64>();
        if res.lambda.iter().all(|&lam| lam == 0.0) {
            // fixed point: positions stay as this iteration detected them
            verdict = Some(clear);
            break;
        }

        // apply Δx = Σ_k λ_k M ∇V_k to the end positions
        for (k, d) in data.iter().enumerate() {
            let lam = res.lambda[k];
            if lam == 0.0 {
                continue;
            }
            for (slot, &mi) in d.meshes.iter().enumerate() {
                moved[mi as usize] = true;
                let pos = &mut end_positions[mi as usize];
                let disp = &d.disps[slot];
                let dtot = &mut displacements[mi as usize];
                for (v, p) in pos.iter_mut().enumerate() {
                    *p += disp[v] * lam;
                    dtot[v] += disp[v] * lam;
                }
            }
        }
    }

    let resolved = verdict.unwrap_or_else(|| {
        // cap reached while still moving: final check
        refresh_moved(meshes, end_positions, &mut current, &mut moved);
        contact_free(&detect_contacts(
            &current,
            Some(start_positions),
            obj_of,
            opts.detect,
        ))
    });

    NcpResult {
        displacements,
        lambda_total,
        initial_contacts,
        outer_iters: outer,
        resolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::triangulate_grid;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn flat_square(z: f64) -> TriMesh {
        let m = 5;
        let mut grid = Vec::new();
        for j in 0..m {
            for i in 0..m {
                grid.push(Vec3::new(i as f64 * 0.25, j as f64 * 0.25, z));
            }
        }
        triangulate_grid(&grid, m)
    }

    #[test]
    fn separates_two_sheets() {
        let a = flat_square(0.0);
        let b = flat_square(0.04);
        let meshes = vec![a.clone(), b.clone()];
        let start = vec![a.verts.clone(), b.verts.clone()];
        let mut end = start.clone();
        let mobility = IdentityMobility {
            scale: 1.0,
            rigid: vec![false, false],
        };
        let opts = NcpOptions {
            detect: DetectOptions::new(0.1),
            ..Default::default()
        };
        let res = resolve_contacts(&meshes, &mut end, &start, &[0, 1], &mobility, &opts);
        assert!(
            res.resolved,
            "not resolved after {} iterations",
            res.outer_iters
        );
        assert!(res.initial_contacts == 1);
        // sheets now separated by ≥ δ (within LCP tolerance)
        let zmax_a = end[0].iter().map(|p| p.z).fold(f64::MIN, f64::max);
        let zmin_b = end[1].iter().map(|p| p.z).fold(f64::MAX, f64::min);
        assert!(
            zmin_b - zmax_a > 0.1 - 1e-6,
            "separation {} < delta",
            zmin_b - zmax_a
        );
        // symmetric: both sheets moved by equal and opposite amounts
        let da: Vec3 = res.displacements[0].iter().copied().sum();
        let db: Vec3 = res.displacements[1].iter().copied().sum();
        assert!((da + db).norm() < 1e-8 * (da.norm() + db.norm()).max(1e-30));
    }

    #[test]
    fn rigid_wall_moves_only_the_cell() {
        let wall = flat_square(0.0);
        let sheet = flat_square(0.05);
        let meshes = vec![wall.clone(), sheet.clone()];
        let start = vec![wall.verts.clone(), sheet.verts.clone()];
        let mut end = start.clone();
        let mobility = IdentityMobility {
            scale: 1.0,
            rigid: vec![true, false],
        };
        let opts = NcpOptions {
            detect: DetectOptions::new(0.1),
            ..Default::default()
        };
        let res = resolve_contacts(&meshes, &mut end, &start, &[0, 1], &mobility, &opts);
        assert!(res.resolved);
        // wall untouched
        for (p, q) in end[0].iter().zip(&wall.verts) {
            assert_eq!(p, q);
        }
        // sheet lifted to z ≥ 0.1
        let zmin = end[1].iter().map(|p| p.z).fold(f64::MAX, f64::min);
        assert!(zmin > 0.1 - 1e-6, "zmin {zmin}");
    }

    #[test]
    fn no_contacts_is_noop() {
        let a = flat_square(0.0);
        let b = flat_square(5.0);
        let meshes = vec![a.clone(), b.clone()];
        let start = vec![a.verts.clone(), b.verts.clone()];
        let mut end = start.clone();
        let mobility = IdentityMobility {
            scale: 1.0,
            rigid: vec![false, false],
        };
        let res = resolve_contacts(
            &meshes,
            &mut end,
            &start,
            &[0, 1],
            &mobility,
            &NcpOptions::default(),
        );
        assert!(res.resolved);
        assert_eq!(res.initial_contacts, 0);
        assert_eq!(res.lambda_total, 0.0);
        assert_eq!(end, start);
    }

    #[test]
    fn three_body_pileup_resolves() {
        let a = flat_square(0.0);
        let b = flat_square(0.05);
        let c = flat_square(0.10);
        let meshes = vec![a.clone(), b.clone(), c.clone()];
        let start: Vec<Vec<Vec3>> = meshes.iter().map(|m| m.verts.clone()).collect();
        let mut end = start.clone();
        let mobility = IdentityMobility {
            scale: 1.0,
            rigid: vec![false, false, false],
        };
        let opts = NcpOptions {
            detect: DetectOptions::new(0.08),
            max_outer: 20,
            ..Default::default()
        };
        let res = resolve_contacts(&meshes, &mut end, &start, &[0, 1, 2], &mobility, &opts);
        assert!(res.resolved, "unresolved after {}", res.outer_iters);
        let z0 = end[0].iter().map(|p| p.z).fold(f64::MIN, f64::max);
        let z1min = end[1].iter().map(|p| p.z).fold(f64::MAX, f64::min);
        let z1max = end[1].iter().map(|p| p.z).fold(f64::MIN, f64::max);
        let z2 = end[2].iter().map(|p| p.z).fold(f64::MAX, f64::min);
        assert!(z1min - z0 > 0.08 - 1e-6);
        assert!(z2 - z1max > 0.08 - 1e-6);
    }

    /// The CSR assembly must match a straightforward hash-map reference
    /// (the representation the pre-CSR implementation used) on a
    /// multi-contact fixture with shared meshes — including the diagonal
    /// entries that accumulate one contribution per involved mesh.
    #[test]
    fn csr_assembly_matches_hashmap_reference() {
        // four-sheet pileup: contacts (0,1), (1,2), (2,3); neighbours
        // couple through the shared middle sheets
        let meshes: Vec<TriMesh> = (0..4).map(|i| flat_square(0.05 * i as f64)).collect();
        let start: Vec<Vec<Vec3>> = meshes.iter().map(|m| m.verts.clone()).collect();
        let mobility = IdentityMobility {
            scale: 0.7,
            rigid: vec![false; 4],
        };
        let current: Vec<TriMesh> = meshes.clone();
        let contacts: Vec<Contact> = detect_contacts(
            &current,
            Some(&start),
            &[0, 1, 2, 3],
            DetectOptions::new(0.08),
        )
        .into_iter()
        .filter(|c| c.value < 0.0)
        .collect();
        let m = contacts.len();
        assert!(m >= 3, "fixture lost its contacts ({m})");

        let (mut data, by_mesh) = contact_linearization(&contacts, &current, &mobility);
        batched_mobility_responses(&mut data, &by_mesh, &meshes, &mobility);
        let csr = assemble_b(m, &data, &by_mesh);

        // reference: hash-map accumulation from the same linearization,
        // summed in the same ascending-mesh order (bit-exact match)
        let mut reference: HashMap<(usize, usize), f64> = HashMap::new();
        for probes in by_mesh.values() {
            for &(j, slot_j) in probes {
                for &(k, slot_k) in probes {
                    let mut acc = 0.0;
                    for &(v, g) in &data[j].grads[slot_j] {
                        acc += g.dot(data[k].disps[slot_k][v as usize]);
                    }
                    *reference.entry((j, k)).or_insert(0.0) += acc;
                }
            }
        }
        assert!(
            reference.keys().any(|&(j, k)| j != k),
            "fixture has no off-diagonal coupling"
        );
        let dense = csr.to_dense();
        assert_eq!(csr.nnz(), reference.len());
        for (&(j, k), &v) in &reference {
            assert_eq!(
                dense[j * m + k].to_bits(),
                v.to_bits(),
                "B[{j},{k}] differs: csr {} vs reference {v}",
                dense[j * m + k]
            );
        }
    }

    /// A linearization whose LCP returns `λ ≡ 0` ends the loop. The result
    /// is bit-equal to a run capped at that iteration, and — positions,
    /// displacements, multiplier sum, verdict — to a run capped one
    /// iteration earlier, whose verdict comes from the final detection.
    #[test]
    fn fixed_point_exit_matches_running_on() {
        /// Moves each mesh like `IdentityMobility` on its first
        /// `apply_many`, and not at all afterwards.
        struct MovesOnce {
            inner: IdentityMobility,
            spent: Vec<AtomicBool>,
        }
        impl Mobility for MovesOnce {
            fn is_rigid(&self, mesh: u32) -> bool {
                self.inner.is_rigid(mesh)
            }
            fn apply_many(
                &self,
                mesh: u32,
                forces: &[&[(u32, Vec3)]],
                nverts: usize,
            ) -> Vec<Vec<Vec3>> {
                if self.spent[mesh as usize].swap(true, Ordering::SeqCst) {
                    return vec![vec![Vec3::ZERO; nverts]; forces.len()];
                }
                self.inner.apply_many(mesh, forces, nverts)
            }
        }

        let meshes: Vec<TriMesh> = (0..3).map(|i| flat_square(0.05 * i as f64)).collect();
        let start: Vec<Vec<Vec3>> = meshes.iter().map(|m| m.verts.clone()).collect();
        let identity = |scale| IdentityMobility {
            scale,
            rigid: vec![false; 3],
        };
        fn resolve(
            meshes: &[TriMesh],
            start: &[Vec<Vec3>],
            mobility: &impl Mobility,
            max_outer: usize,
        ) -> (Vec<Vec<Vec3>>, NcpResult) {
            let opts = NcpOptions {
                detect: DetectOptions::new(0.08),
                max_outer,
                ..Default::default()
            };
            let mut end = start.to_vec();
            let res = resolve_contacts(meshes, &mut end, start, &[0, 1, 2], mobility, &opts);
            (end, res)
        }
        let bits = |v: &[Vec<Vec3>]| -> Vec<[u64; 3]> {
            v.iter()
                .flatten()
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        };
        let same_outcome = |a: &(Vec<Vec<Vec3>>, NcpResult), b: &(Vec<Vec<Vec3>>, NcpResult)| {
            assert_eq!(bits(&a.0), bits(&b.0), "end positions");
            assert_eq!(bits(&a.1.displacements), bits(&b.1.displacements));
            assert_eq!(a.1.lambda_total.to_bits(), b.1.lambda_total.to_bits());
            assert_eq!(a.1.resolved, b.1.resolved);
        };

        // (stall iteration, one run per cap: default, at the stall, before it)
        for stall in [1, 2] {
            let runs: Vec<(Vec<Vec<Vec3>>, NcpResult)> = [10, stall, stall - 1]
                .into_iter()
                .map(|max_outer| {
                    if stall == 1 {
                        resolve(&meshes, &start, &identity(0.0), max_outer)
                    } else {
                        let moves_once = MovesOnce {
                            inner: identity(1.0),
                            spent: (0..3).map(|_| AtomicBool::new(false)).collect(),
                        };
                        resolve(&meshes, &start, &moves_once, max_outer)
                    }
                })
                .collect();
            let (stalled, at_cap, before) = (&runs[0], &runs[1], &runs[2]);
            assert_eq!(stalled.1.outer_iters, stall, "stall {stall}: exit");
            assert_eq!(at_cap.1.outer_iters, stall);
            assert_eq!(before.1.outer_iters, stall - 1);
            assert!(!stalled.1.resolved, "stall {stall}: contacts must remain");
            assert_eq!(
                stalled.1.lambda_total > 0.0,
                stall > 1,
                "moved iff stall > 1"
            );
            same_outcome(stalled, at_cap);
            assert_eq!(stalled.1.initial_contacts, at_cap.1.initial_contacts);
            same_outcome(stalled, before);
        }
    }

    /// Batched = unbatched: a mobility that answers one column per call
    /// and the same mobility answering every column at once must be
    /// interchangeable inside the resolve loop, bit for bit.
    #[test]
    fn batched_mobility_matches_per_column_calls() {
        struct PerColumn(IdentityMobility);
        impl Mobility for PerColumn {
            fn is_rigid(&self, mesh: u32) -> bool {
                self.0.is_rigid(mesh)
            }
            fn apply_many(
                &self,
                mesh: u32,
                forces: &[&[(u32, Vec3)]],
                nverts: usize,
            ) -> Vec<Vec<Vec3>> {
                forces
                    .iter()
                    .flat_map(|f| self.0.apply_many(mesh, &[f], nverts))
                    .collect()
            }
        }

        let a = flat_square(0.0);
        let b = flat_square(0.04);
        let c = flat_square(0.08);
        let meshes = vec![a, b, c];
        let start: Vec<Vec<Vec3>> = meshes.iter().map(|m| m.verts.clone()).collect();
        let opts = NcpOptions {
            detect: DetectOptions::new(0.06),
            max_outer: 20,
            ..Default::default()
        };
        let batched = IdentityMobility {
            scale: 1.0,
            rigid: vec![false; 3],
        };
        let per_column = PerColumn(IdentityMobility {
            scale: 1.0,
            rigid: vec![false; 3],
        });

        let mut end_batched = start.clone();
        let res_batched = resolve_contacts(
            &meshes,
            &mut end_batched,
            &start,
            &[0, 1, 2],
            &batched,
            &opts,
        );
        let mut end_per_column = start.clone();
        let res_per_column = resolve_contacts(
            &meshes,
            &mut end_per_column,
            &start,
            &[0, 1, 2],
            &per_column,
            &opts,
        );

        assert_eq!(res_batched.resolved, res_per_column.resolved);
        assert_eq!(res_batched.outer_iters, res_per_column.outer_iters);
        for (pa, pb) in end_batched.iter().zip(&end_per_column) {
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!(x.x.to_bits(), y.x.to_bits());
                assert_eq!(x.y.to_bits(), y.y.to_bits());
                assert_eq!(x.z.to_bits(), y.z.to_bits());
            }
        }
    }
}
