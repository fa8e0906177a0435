//! Real spherical-harmonic basis on Gauss–Legendre × uniform grids.
//!
//! RBC surfaces in the paper are "discretized using a spherical harmonic
//! representation, with surfaces sampled uniformly in the standard
//! latitude-longitude sphere parametrization" (§2.2); order p = 16 gives the
//! paper's 544 quadrature points per cell ((p+1) Gauss–Legendre latitudes ×
//! 2p uniform longitudes).
//!
//! We use orthonormal *real* spherical harmonics
//! `Y_n^0 = Q_n^0`, `Y_n^{m,c} = √2 Q_n^m cos mφ`, `Y_n^{m,s} = √2 Q_n^m sin mφ`
//! where `Q_n^m` are the fully normalized associated Legendre functions
//! computed with the standard stable three-term recurrence. Analysis uses
//! Gauss–Legendre quadrature in latitude (exact for band-limited data) and
//! the trapezoidal rule in longitude.

use linalg::quad::gauss_legendre;
use std::f64::consts::PI;

/// Which derivative of the basis to synthesize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deriv {
    /// Function values.
    None,
    /// ∂/∂θ.
    Dtheta,
    /// ∂/∂φ.
    Dphi,
    /// ∂²/∂θ².
    Dtheta2,
    /// ∂²/∂φ².
    Dphi2,
    /// ∂²/∂θ∂φ.
    DthetaDphi,
}

/// Spectral coefficients of a scalar field at order `p`.
///
/// Layout: the `m = 0` block holds `a_{n,0}` for `n = 0..=p`; each `m ≥ 1`
/// block holds `a_{n,m}` for `n = m..=p` followed by `b_{n,m}` — `(p+1)²`
/// values in total.
#[derive(Clone, Debug, PartialEq)]
pub struct SphCoeffs {
    /// Basis order.
    pub p: usize,
    /// Packed coefficients.
    pub data: Vec<f64>,
}

impl SphCoeffs {
    /// All-zero coefficients at order `p`.
    pub fn zeros(p: usize) -> SphCoeffs {
        SphCoeffs {
            p,
            data: vec![0.0; (p + 1) * (p + 1)],
        }
    }

    /// Offset of the `m` block inside `data`.
    fn block_start(p: usize, m: usize) -> usize {
        if m == 0 {
            0
        } else {
            // m = 0 block: p+1; blocks 1..m: 2(p+1-k) each
            (p + 1) + (1..m).map(|k| 2 * (p + 1 - k)).sum::<usize>()
        }
    }

    /// Cosine coefficient `a_{n,m}` (for `m = 0` the only kind).
    pub fn a(&self, n: usize, m: usize) -> f64 {
        debug_assert!(m <= n && n <= self.p);
        let s = Self::block_start(self.p, m);
        if m == 0 {
            self.data[s + n]
        } else {
            self.data[s + (n - m)]
        }
    }

    /// Sine coefficient `b_{n,m}` (`m ≥ 1`).
    pub fn b(&self, n: usize, m: usize) -> f64 {
        debug_assert!(m >= 1 && m <= n && n <= self.p);
        let s = Self::block_start(self.p, m);
        self.data[s + (self.p + 1 - m) + (n - m)]
    }

    /// Sets the cosine coefficient `a_{n,m}`.
    pub fn set_a(&mut self, n: usize, m: usize, v: f64) {
        *self.a_mut(n, m) = v;
    }

    /// Sets the sine coefficient `b_{n,m}` (`m ≥ 1`).
    pub fn set_b(&mut self, n: usize, m: usize, v: f64) {
        *self.b_mut(n, m) = v;
    }

    fn a_mut(&mut self, n: usize, m: usize) -> &mut f64 {
        let s = Self::block_start(self.p, m);
        if m == 0 {
            &mut self.data[s + n]
        } else {
            &mut self.data[s + (n - m)]
        }
    }

    fn b_mut(&mut self, n: usize, m: usize) -> &mut f64 {
        let s = Self::block_start(self.p, m);
        let off = self.p + 1 - m;
        &mut self.data[s + off + (n - m)]
    }

    /// Re-expands the coefficients at a different order: truncation when
    /// `q < p`, zero-padding when `q > p` (the spectrally exact up/down
    /// sampling used for the fine collision grids).
    pub fn resampled(&self, q: usize) -> SphCoeffs {
        let mut out = SphCoeffs::zeros(q);
        let nmax = self.p.min(q);
        for m in 0..=nmax {
            for n in m..=nmax {
                if m == 0 {
                    *out.a_mut(n, 0) = self.a(n, 0);
                } else {
                    *out.a_mut(n, m) = self.a(n, m);
                    *out.b_mut(n, m) = self.b(n, m);
                }
            }
        }
        out
    }
}

/// Precomputed tables for one order `p` (grid, Legendre values and
/// θ-derivatives at the grid latitudes, Fourier tables).
pub struct SphBasis {
    /// Basis order.
    pub p: usize,
    /// Number of latitudes `p + 1`.
    pub nlat: usize,
    /// Number of longitudes `2p` (at least 4).
    pub nlon: usize,
    /// Latitude angles θ_i (from the Gauss–Legendre nodes, θ = acos x).
    pub theta: Vec<f64>,
    /// Gauss–Legendre weights (w.r.t. x = cos θ).
    pub glw: Vec<f64>,
    /// Longitude angles φ_j = 2π j / nlon.
    pub phi: Vec<f64>,
    /// `cos_mphi[m·nlon + j]` = cos(m·φ_j), `m = 0..=p`.
    cos_mphi: Vec<f64>,
    /// Matching table of sin(m·φ_j).
    sin_mphi: Vec<f64>,
    /// `q[m][(n−m)·nlat + i]` = Q_n^m(cos θ_i).
    q: Vec<Vec<f64>>,
    /// Matching table of dQ_n^m/dθ.
    dq: Vec<Vec<f64>>,
    /// Matching table of d²Q_n^m/dθ².
    d2q: Vec<Vec<f64>>,
}

/// `Q_n^m`, `dQ_n^m/dθ` and `d²Q_n^m/dθ²`, each indexed like [`SphBasis::q`].
type LegendreTables = (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Computes `Q_n^m(x)` for fixed `x` and all `m ≤ n ≤ p`, plus first and
/// second θ-derivatives.
fn legendre_tables(p: usize, xs: &[f64]) -> LegendreTables {
    let nlat = xs.len();
    let mut q: Vec<Vec<f64>> = (0..=p).map(|m| vec![0.0; (p + 1 - m) * nlat]).collect();
    for (i, &x) in xs.iter().enumerate() {
        let s = (1.0 - x * x).sqrt(); // sin θ > 0 at interior GL nodes
                                      // diagonal terms Q_m^m
        let mut qmm = (1.0 / (4.0 * PI)).sqrt();
        for m in 0..=p {
            if m > 0 {
                qmm *= s * ((2.0 * m as f64 + 1.0) / (2.0 * m as f64)).sqrt();
            }
            q[m][i] = qmm; // n = m entry
            if m < p {
                q[m][nlat + i] = x * (2.0 * m as f64 + 3.0).sqrt() * qmm; // n = m+1
            }
            for n in (m + 2)..=p {
                let nf = n as f64;
                let mf = m as f64;
                let anm = ((4.0 * nf * nf - 1.0) / (nf * nf - mf * mf)).sqrt();
                let bnm = (((nf - 1.0) * (nf - 1.0) - mf * mf)
                    / (4.0 * (nf - 1.0) * (nf - 1.0) - 1.0))
                    .sqrt();
                q[m][(n - m) * nlat + i] =
                    anm * (x * q[m][(n - 1 - m) * nlat + i] - bnm * q[m][(n - 2 - m) * nlat + i]);
            }
        }
    }
    // first derivative: dQ_n^m/dθ = [n x Q_n^m − c_nm Q_{n−1}^m] / sin θ
    let mut dq: Vec<Vec<f64>> = (0..=p).map(|m| vec![0.0; (p + 1 - m) * nlat]).collect();
    for m in 0..=p {
        for n in m..=p {
            let nf = n as f64;
            let mf = m as f64;
            let c = if n > m {
                ((2.0 * nf + 1.0) * (nf * nf - mf * mf) / (2.0 * nf - 1.0)).sqrt()
            } else {
                0.0
            };
            for (i, &x) in xs.iter().enumerate() {
                let s = (1.0 - x * x).sqrt();
                let qn = q[m][(n - m) * nlat + i];
                let qn1 = if n > m {
                    q[m][(n - 1 - m) * nlat + i]
                } else {
                    0.0
                };
                dq[m][(n - m) * nlat + i] = (nf * x * qn - c * qn1) / s;
            }
        }
    }
    // second derivative from the ODE of associated Legendre functions:
    // d²Q/dθ² = −cot θ · dQ/dθ + (m²/sin²θ − n(n+1)) Q
    let mut d2q: Vec<Vec<f64>> = (0..=p).map(|m| vec![0.0; (p + 1 - m) * nlat]).collect();
    for m in 0..=p {
        for n in m..=p {
            let nf = n as f64;
            let mf = m as f64;
            for (i, &x) in xs.iter().enumerate() {
                let s2 = 1.0 - x * x;
                let s = s2.sqrt();
                let qn = q[m][(n - m) * nlat + i];
                let dqn = dq[m][(n - m) * nlat + i];
                d2q[m][(n - m) * nlat + i] = -(x / s) * dqn + (mf * mf / s2 - nf * (nf + 1.0)) * qn;
            }
        }
    }
    (q, dq, d2q)
}

impl SphBasis {
    /// Builds the basis tables for order `p ≥ 1`.
    pub fn new(p: usize) -> SphBasis {
        assert!(p >= 1, "spherical harmonic order must be >= 1");
        let nlat = p + 1;
        let nlon = (2 * p).max(4);
        let gl = gauss_legendre(nlat);
        // θ decreasing in x; keep natural order θ_0 < θ_1 < ... by reversing
        let theta: Vec<f64> = gl.nodes.iter().rev().map(|&x| x.acos()).collect();
        let xs: Vec<f64> = theta.iter().map(|t| t.cos()).collect();
        let glw: Vec<f64> = gl.weights.iter().rev().copied().collect();
        let phi: Vec<f64> = (0..nlon)
            .map(|j| 2.0 * PI * j as f64 / nlon as f64)
            .collect();
        let (q, dq, d2q) = legendre_tables(p, &xs);
        // `(m as f64 * φ_j).cos()` / `.sin()`: the exact expression, so a
        // table entry is bitwise the value an inline evaluation would give
        let fourier = |f: fn(f64) -> f64| -> Vec<f64> {
            (0..=p)
                .flat_map(|m| phi.iter().map(move |&ph| f(m as f64 * ph)))
                .collect()
        };
        let cos_mphi = fourier(f64::cos);
        let sin_mphi = fourier(f64::sin);
        SphBasis {
            p,
            nlat,
            nlon,
            theta,
            glw,
            phi,
            cos_mphi,
            sin_mphi,
            q,
            dq,
            d2q,
        }
    }

    /// Total number of grid points `(p+1)·2p`.
    pub fn grid_size(&self) -> usize {
        self.nlat * self.nlon
    }

    /// Flat grid index of latitude `i`, longitude `j` (latitude-major).
    #[inline]
    pub fn grid_index(&self, i: usize, j: usize) -> usize {
        i * self.nlon + j
    }

    /// Quadrature weight for surface integration *in parameter space*:
    /// `∫ f dΩ = Σ_ij w_ij f_ij` on the unit sphere (the `sin θ` Jacobian is
    /// absorbed in the Gauss–Legendre weights over `x = cos θ`).
    pub fn sphere_weight(&self, i: usize) -> f64 {
        self.glw[i] * 2.0 * PI / self.nlon as f64
    }

    /// Analysis: grid samples (latitude-major) → coefficients.
    pub fn analyze(&self, f: &[f64]) -> SphCoeffs {
        assert_eq!(f.len(), self.grid_size(), "analyze: grid size mismatch");
        let mut out = SphCoeffs::zeros(self.p);
        // longitude DFT per latitude: A_m(i), B_m(i)
        let nlon = self.nlon;
        let mut am = vec![0.0; (self.p + 1) * self.nlat];
        let mut bm = vec![0.0; (self.p + 1) * self.nlat];
        for i in 0..self.nlat {
            let row = &f[i * nlon..(i + 1) * nlon];
            for m in 0..=self.p {
                let cos_m = &self.cos_mphi[m * nlon..(m + 1) * nlon];
                let sin_m = &self.sin_mphi[m * nlon..(m + 1) * nlon];
                let mut ca = 0.0;
                let mut cb = 0.0;
                for ((&v, &cm), &sm) in row.iter().zip(cos_m).zip(sin_m) {
                    ca += v * cm;
                    cb += v * sm;
                }
                am[m * self.nlat + i] = ca * 2.0 * PI / nlon as f64;
                bm[m * self.nlat + i] = cb * 2.0 * PI / nlon as f64;
            }
        }
        // Legendre transform per (n, m) with GL weights
        for m in 0..=self.p {
            let norm = if m == 0 {
                1.0
            } else {
                std::f64::consts::SQRT_2
            };
            for n in m..=self.p {
                let mut ac = 0.0;
                let mut bc = 0.0;
                for i in 0..self.nlat {
                    let qv = self.q[m][(n - m) * self.nlat + i] * self.glw[i];
                    ac += qv * am[m * self.nlat + i];
                    bc += qv * bm[m * self.nlat + i];
                }
                if m == 0 {
                    *out.a_mut(n, 0) = ac * norm;
                } else if 2 * m == self.nlon {
                    // Nyquist longitude mode: cos(mφ_j) = ±1 at every grid
                    // point, so its discrete norm is doubled, and sin(mφ_j)
                    // vanishes identically — the sine coefficient is not
                    // representable on this grid and is pinned to zero.
                    *out.a_mut(n, m) = 0.5 * ac * norm;
                    *out.b_mut(n, m) = 0.0;
                } else {
                    *out.a_mut(n, m) = ac * norm;
                    *out.b_mut(n, m) = bc * norm;
                }
            }
        }
        out
    }

    /// Synthesis of the field (or a derivative) on this basis' grid.
    pub fn synthesize(&self, c: &SphCoeffs, d: Deriv) -> Vec<f64> {
        assert_eq!(c.p, self.p, "synthesize: order mismatch");
        let nlat = self.nlat;
        let nlon = self.nlon;
        let mut out = vec![0.0; self.grid_size()];
        // per-latitude Fourier coefficients of the result
        // gm_a[m][i], gm_b[m][i]
        let table = |m: usize| -> &Vec<f64> {
            match d {
                Deriv::None | Deriv::Dphi | Deriv::Dphi2 => &self.q[m],
                Deriv::Dtheta | Deriv::DthetaDphi => &self.dq[m],
                Deriv::Dtheta2 => &self.d2q[m],
            }
        };
        let mut ga = vec![0.0; (self.p + 1) * nlat];
        let mut gb = vec![0.0; (self.p + 1) * nlat];
        for m in 0..=self.p {
            let norm = if m == 0 {
                1.0
            } else {
                std::f64::consts::SQRT_2
            };
            let tab = table(m);
            for n in m..=self.p {
                let (an, bn) = if m == 0 {
                    (c.a(n, 0), 0.0)
                } else {
                    (c.a(n, m), c.b(n, m))
                };
                if an == 0.0 && bn == 0.0 {
                    continue;
                }
                for i in 0..nlat {
                    let qv = tab[(n - m) * nlat + i] * norm;
                    ga[m * nlat + i] += qv * an;
                    gb[m * nlat + i] += qv * bn;
                }
            }
        }
        // apply the φ part with derivative factors
        for i in 0..nlat {
            for j in 0..nlon {
                let mut v = 0.0;
                for m in 0..=self.p {
                    let a = ga[m * nlat + i];
                    let b = gb[m * nlat + i];
                    if a == 0.0 && b == 0.0 {
                        continue;
                    }
                    let (cm, sm) = (self.cos_mphi[m * nlon + j], self.sin_mphi[m * nlon + j]);
                    let mf = m as f64;
                    v += match d {
                        Deriv::None | Deriv::Dtheta | Deriv::Dtheta2 => a * cm + b * sm,
                        Deriv::Dphi | Deriv::DthetaDphi => mf * (-a * sm + b * cm),
                        Deriv::Dphi2 => -mf * mf * (a * cm + b * sm),
                    };
                }
                out[self.grid_index(i, j)] = v;
            }
        }
        out
    }

    /// Point synthesis at arbitrary `(θ, φ)` (used for resampling onto
    /// rotated or refined grids, and by the closest-point machinery).
    pub fn synthesize_at(&self, c: &SphCoeffs, theta: f64, phi: f64) -> f64 {
        assert_eq!(c.p, self.p);
        let x = theta.cos();
        let (q, _, _) = legendre_tables(self.p, &[x]);
        let mut v = 0.0;
        for m in 0..=self.p {
            let norm = if m == 0 {
                1.0
            } else {
                std::f64::consts::SQRT_2
            };
            let ang = m as f64 * phi;
            let (cm, sm) = (ang.cos(), ang.sin());
            for n in m..=self.p {
                let qv = q[m][n - m] * norm;
                if m == 0 {
                    v += qv * c.a(n, 0) * cm;
                } else {
                    v += qv * (c.a(n, m) * cm + c.b(n, m) * sm);
                }
            }
        }
        v
    }

    /// Analyzes a 3-component (xyz-interleaved) vector field; returns one
    /// coefficient set per component.
    pub fn analyze_vec3(&self, f: &[f64]) -> [SphCoeffs; 3] {
        assert_eq!(f.len(), 3 * self.grid_size());
        std::array::from_fn(|k| {
            let scalar: Vec<f64> = (0..self.grid_size()).map(|i| f[3 * i + k]).collect();
            self.analyze(&scalar)
        })
    }
}

/// Fields and rows per register block of [`RingProjection`]'s sums.
const LANES: usize = 16;
const MODES: usize = 4;

/// The adjoint `Bᵀ` of the value synthesis `B` of order-`q` coefficients
/// (`q ≤ p`, zero-padded to the basis' order `p`, as
/// `synthesize(&c.resampled(p), Deriv::None)` runs it), applied to `width`
/// grid fields `X` (grid × `width`) that arrive one latitude ring at a time:
/// [`RingProjection::set_ring`] reduces a ring to its longitude DFT,
/// [`RingProjection::project`] writes `Bᵀ X` — without `X` ever existing
/// whole.
///
/// The DFT folds each ring twice, about `φ = 0` and about `φ = π/2`: with
/// `L = nlon`, `H = L/2`, the values `x_j` of a field pair up as
/// `e_j = x_j + x_{L−j}`, `o_j = x_j − x_{L−j}` (`e_0 = x_0`,
/// `e_H = x_H`), since `cos(mφ_{L−j}) = cos(mφ_j)` and
/// `sin(mφ_{L−j}) = −sin(mφ_j)`; then `e_j ± e_{H−j}`, `o_j ± o_{H−j}` for
/// `j < H/2`, since `φ_{H−j} = π − φ_j` flips the sign of `cos(mφ)` for odd
/// `m` and of `sin(mφ)` for even `m`. So
/// `C_m = Σ_{j<H/2} (e_j + (−1)^m e_{H−j}) cos(mφ_j) [+ e_{H/2} cos(mφ_{H/2})]`
/// and `S_m = Σ_{0<j<H/2} (o_j − (−1)^m o_{H−j}) sin(mφ_j) [+ o_{H/2} sin(mφ_{H/2})]`,
/// the bracketed term for even `H` and only where it does not vanish
/// (`m` even for `C`, odd for `S`): each mode reads a quarter of the ring,
/// its Fourier factors at `φ ≤ π/2` only.
///
/// Fixed order, per field: the folds as written (`x_j + x_{L−j}` first),
/// each DFT sum over ascending `j` from `0.0` with the middle term last,
/// then each coefficient's sum of `(Q_n^m(θ_i)·norm_m)·C_m(i)` (or
/// `·S_m(i)`) over ascending rings `i` from `0.0`. Every sum is a chain of
/// separately rounded products and additions.
pub struct RingProjection {
    q: usize,
    nlon: usize,
    width: usize,
    /// The four DFT products: cosines of even and of odd modes, sines of
    /// odd and of even modes.
    parts: [DftPart; 4],
    /// Per run of coefficients sharing a DFT row (`a_{n,m}` or `b_{n,m}`
    /// for `n = m..=q`): that row, the first packed coefficient and the
    /// run's length.
    runs: Vec<(usize, usize, usize)>,
    /// `Q_n^m(θ_i)·norm_m` for `i = 0..nlat`, per run and block of `MODES`
    /// degrees `n` (degrees past `q` are zero).
    legendre_t: Vec<[f64; MODES]>,
    /// One ring folded, per part its rows of `width` (`L` rows in all).
    fold: [Vec<f64>; 4],
    /// Per ring, its DFT: `2q + 1` rows of `width`, the modes of each part
    /// in turn.
    dft: Vec<f64>,
}

/// One of the DFT's four products: its folded rows, its modes, and their
/// Fourier factors.
struct DftPart {
    /// Rows of the folded ring.
    rows: usize,
    /// DFT row of the first mode; the modes follow in order.
    dft0: usize,
    /// The modes, ascending.
    modes: Vec<usize>,
    /// Per block of `MODES` modes (zero past the last), the factor of each
    /// row.
    factors: Vec<[f64; MODES]>,
}

/// Per block of `MODES` values of `ks` (zero past its end), `f(k, j)` for
/// every `j` of `js`.
fn factor_blocks(ks: &[usize], js: &[usize], f: impl Fn(usize, usize) -> f64) -> Vec<[f64; MODES]> {
    let mut out = Vec::new();
    for block in ks.chunks(MODES) {
        for &j in js {
            out.push(std::array::from_fn(|d| {
                block.get(d).map_or(0.0, |&k| f(k, j))
            }));
        }
    }
    out
}

impl RingProjection {
    /// The projection onto order-`q` coefficients of `width` fields on
    /// `basis`' grid.
    pub fn new(basis: &SphBasis, q: usize, width: usize) -> RingProjection {
        assert!(
            q <= basis.p,
            "ring projection: order {q} above the basis order"
        );
        let (nlat, nlon) = (basis.nlat, basis.nlon);
        let half = nlon / 2;
        // j < H/2, then the middle longitude H/2 where H is even
        let lower: Vec<usize> = (0..half.div_ceil(2)).collect();
        let mid: Vec<usize> = half
            .is_multiple_of(2)
            .then_some(half / 2)
            .into_iter()
            .collect();
        let cos = |m: usize, j: usize| basis.cos_mphi[m * nlon + j];
        let sin = |m: usize, j: usize| basis.sin_mphi[m * nlon + j];
        let modes = |first: usize| (first..=q).step_by(2).collect::<Vec<_>>();
        let mut parts = Vec::with_capacity(4);
        let mut dft0 = 0;
        for (js, modes, f) in [
            (
                [&lower[..], &mid].concat(),
                modes(0),
                &cos as &dyn Fn(usize, usize) -> f64,
            ),
            (lower.clone(), modes(1), &cos),
            ([&lower[1..], &mid].concat(), modes(1), &sin),
            (lower[1..].to_vec(), modes(2), &sin),
        ] {
            parts.push(DftPart {
                rows: js.len(),
                dft0,
                factors: factor_blocks(&modes, &js, f),
                modes,
            });
            dft0 += parts.last().unwrap().modes.len();
        }
        let parts: [DftPart; 4] = parts.try_into().ok().unwrap();
        let dft_row = |sine: bool, m: usize| {
            let part = &parts[match (sine, m.is_multiple_of(2)) {
                (false, true) => 0,
                (false, false) => 1,
                (true, false) => 2,
                (true, true) => 3,
            }];
            part.dft0 + part.modes.iter().position(|&k| k == m).unwrap()
        };
        let mut runs = Vec::new();
        let mut legendre_t = Vec::new();
        let mut c0 = 0;
        let rings: Vec<usize> = (0..nlat).collect();
        for m in 0..=q {
            let norm = if m == 0 {
                1.0
            } else {
                std::f64::consts::SQRT_2
            };
            let degrees: Vec<usize> = (m..=q).collect();
            for sine in [false, true].into_iter().take(if m == 0 { 1 } else { 2 }) {
                runs.push((dft_row(sine, m), c0, degrees.len()));
                c0 += degrees.len();
                legendre_t.extend(factor_blocks(&degrees, &rings, |n, i| {
                    basis.q[m][(n - m) * nlat + i] * norm
                }));
            }
        }
        RingProjection {
            q,
            nlon,
            width,
            fold: parts.each_ref().map(|p| vec![0.0; p.rows * width]),
            parts,
            runs,
            legendre_t,
            dft: vec![0.0; nlat * (2 * q + 1) * width],
        }
    }

    /// Takes ring `i` of the fields: `ring` holds `nlon` rows of `width`
    /// values (row `j`: longitude `j`, every field). Replaces what an
    /// earlier call gave for ring `i`.
    pub fn set_ring(&mut self, i: usize, ring: &[f64]) {
        let (q, nlon, width) = (self.q, self.nlon, self.width);
        let half = nlon / 2;
        assert_eq!(ring.len(), nlon * width, "ring projection: ring size");
        let x = |j: usize| &ring[j * width..][..width];
        // the folds, rows j < H/2 of each part, then the middle longitude
        let [ce, co, so, se] = &mut self.fold;
        for j in 0..half.div_ceil(2) {
            let (a, c) = (x(j), x(half - j));
            let pe = &mut ce[j * width..][..width];
            let po = &mut co[j * width..][..width];
            if j == 0 {
                // e_0 = x_0, e_H = x_H, no sines
                for f in 0..width {
                    pe[f] = a[f] + c[f];
                    po[f] = a[f] - c[f];
                }
                continue;
            }
            let (b, d) = (x(nlon - j), x(half + j));
            let qo = &mut so[(j - 1) * width..][..width];
            let qe = &mut se[(j - 1) * width..][..width];
            for f in 0..width {
                let (e, o) = (a[f] + b[f], a[f] - b[f]);
                let (e2, o2) = (c[f] + d[f], c[f] - d[f]);
                pe[f] = e + e2;
                po[f] = e - e2;
                qo[f] = o + o2;
                qe[f] = o - o2;
            }
        }
        if half.is_multiple_of(2) {
            let (a, b) = (x(half / 2), x(nlon - half / 2));
            let pe = ce.rchunks_exact_mut(width).next().unwrap();
            let qo = so.rchunks_exact_mut(width).next().unwrap();
            for f in 0..width {
                pe[f] = a[f] + b[f];
                qo[f] = a[f] - b[f];
            }
        }
        let dft = &mut self.dft[i * (2 * q + 1) * width..][..(2 * q + 1) * width];
        for (part, folded) in self.parts.iter().zip(&self.fold) {
            let out = &mut dft[part.dft0 * width..][..part.modes.len() * width];
            for (b, out) in out.chunks_mut(MODES * width).enumerate() {
                let n = part.rows;
                lanes_gemm(folded, width, &part.factors[b * n..][..n], out, width);
            }
        }
    }

    /// Writes `Bᵀ X` over the rings set so far (every ring, once each, for
    /// the full product) into `out`: `(q+1)²` rows of `width` in
    /// [`SphCoeffs`]' packed order.
    pub fn project(&self, out: &mut [f64]) {
        let (q, width) = (self.q, self.width);
        assert_eq!(
            out.len(),
            (q + 1) * (q + 1) * width,
            "ring projection: output size"
        );
        let nlat = self.dft.len() / ((2 * q + 1) * width);
        let mut legendre = self.legendre_t.chunks_exact(nlat);
        for &(row, c0, len) in &self.runs {
            let run = &mut out[c0 * width..][..len * width];
            for out in run.chunks_mut(MODES * width) {
                let factors = legendre.next().unwrap();
                lanes_gemm(
                    &self.dft[row * width..],
                    (2 * q + 1) * width,
                    factors,
                    out,
                    width,
                );
            }
        }
    }
}

/// Writes `out[d][f] = Σ_j x_j[f]·t_j[d]` for the rows `d` of `out` (at
/// most `MODES`, `width` each), over `x_j` = the `width` values from
/// `rows[j·stride]` on and the factors `t_j` of `factors`: per block of
/// `LANES` fields, ascending `j` from `0.0`, in registers.
fn lanes_gemm(
    rows: &[f64],
    stride: usize,
    factors: &[[f64; MODES]],
    out: &mut [f64],
    width: usize,
) {
    // the accumulators are this function's own, stored once at the end
    // (returned by value they would live in the caller's memory and be
    // stored on every iteration)
    #[inline(always)]
    fn block(
        rows: &[f64],
        stride: usize,
        factors: &[[f64; MODES]],
        out: &mut [f64],
        width: usize,
        f0: usize,
        load: impl Fn(&[f64]) -> [f64; LANES],
    ) {
        let mut acc = [[0.0; LANES]; MODES];
        for (j, t) in factors.iter().enumerate() {
            let x = load(&rows[j * stride..]);
            for d in 0..MODES {
                for l in 0..LANES {
                    acc[d][l] += x[l] * t[d];
                }
            }
        }
        let len = LANES.min(width - f0);
        for (out, lanes) in out.chunks_exact_mut(width).zip(&acc) {
            out[f0..f0 + len].copy_from_slice(&lanes[..len]);
        }
    }
    for f0 in (0..width).step_by(LANES) {
        if f0 + LANES <= width {
            block(rows, stride, factors, out, width, f0, |x| {
                x[f0..f0 + LANES].try_into().unwrap()
            });
        } else {
            block(rows, stride, factors, out, width, f0, |x| {
                std::array::from_fn(|l| if f0 + l < width { x[f0 + l] } else { 0.0 })
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    const ALL_DERIVS: [Deriv; 6] = [
        Deriv::None,
        Deriv::Dtheta,
        Deriv::Dphi,
        Deriv::Dtheta2,
        Deriv::Dphi2,
        Deriv::DthetaDphi,
    ];

    /// [`SphBasis::analyze`] with `cos(mφ_j)` / `sin(mφ_j)` evaluated in the
    /// inner loop instead of read from the tables: the bit-for-bit oracle.
    fn analyze_inline_trig(b: &SphBasis, f: &[f64]) -> SphCoeffs {
        let mut out = SphCoeffs::zeros(b.p);
        let nlon = b.nlon;
        let mut am = vec![0.0; (b.p + 1) * b.nlat];
        let mut bm = vec![0.0; (b.p + 1) * b.nlat];
        for i in 0..b.nlat {
            let row = &f[i * nlon..(i + 1) * nlon];
            for m in 0..=b.p {
                let mut ca = 0.0;
                let mut cb = 0.0;
                for (j, &v) in row.iter().enumerate() {
                    let ang = m as f64 * b.phi[j];
                    ca += v * ang.cos();
                    cb += v * ang.sin();
                }
                am[m * b.nlat + i] = ca * 2.0 * PI / nlon as f64;
                bm[m * b.nlat + i] = cb * 2.0 * PI / nlon as f64;
            }
        }
        for m in 0..=b.p {
            let norm = if m == 0 {
                1.0
            } else {
                std::f64::consts::SQRT_2
            };
            for n in m..=b.p {
                let mut ac = 0.0;
                let mut bc = 0.0;
                for i in 0..b.nlat {
                    let qv = b.q[m][(n - m) * b.nlat + i] * b.glw[i];
                    ac += qv * am[m * b.nlat + i];
                    bc += qv * bm[m * b.nlat + i];
                }
                if m == 0 {
                    *out.a_mut(n, 0) = ac * norm;
                } else if 2 * m == b.nlon {
                    *out.a_mut(n, m) = 0.5 * ac * norm;
                    *out.b_mut(n, m) = 0.0;
                } else {
                    *out.a_mut(n, m) = ac * norm;
                    *out.b_mut(n, m) = bc * norm;
                }
            }
        }
        out
    }

    /// [`SphBasis::synthesize`] with the trigonometric factors evaluated in
    /// the inner loop: the bit-for-bit oracle.
    fn synthesize_inline_trig(b: &SphBasis, c: &SphCoeffs, d: Deriv) -> Vec<f64> {
        let (nlat, nlon) = (b.nlat, b.nlon);
        let mut out = vec![0.0; b.grid_size()];
        let table = |m: usize| -> &Vec<f64> {
            match d {
                Deriv::None | Deriv::Dphi | Deriv::Dphi2 => &b.q[m],
                Deriv::Dtheta | Deriv::DthetaDphi => &b.dq[m],
                Deriv::Dtheta2 => &b.d2q[m],
            }
        };
        let mut ga = vec![0.0; (b.p + 1) * nlat];
        let mut gb = vec![0.0; (b.p + 1) * nlat];
        for m in 0..=b.p {
            let norm = if m == 0 {
                1.0
            } else {
                std::f64::consts::SQRT_2
            };
            let tab = table(m);
            for n in m..=b.p {
                let (an, bn) = if m == 0 {
                    (c.a(n, 0), 0.0)
                } else {
                    (c.a(n, m), c.b(n, m))
                };
                if an == 0.0 && bn == 0.0 {
                    continue;
                }
                for i in 0..nlat {
                    let qv = tab[(n - m) * nlat + i] * norm;
                    ga[m * nlat + i] += qv * an;
                    gb[m * nlat + i] += qv * bn;
                }
            }
        }
        for i in 0..nlat {
            for j in 0..nlon {
                let mut v = 0.0;
                for m in 0..=b.p {
                    let (a, bb) = (ga[m * nlat + i], gb[m * nlat + i]);
                    if a == 0.0 && bb == 0.0 {
                        continue;
                    }
                    let ang = m as f64 * b.phi[j];
                    let mf = m as f64;
                    v += match d {
                        Deriv::None | Deriv::Dtheta | Deriv::Dtheta2 => {
                            a * ang.cos() + bb * ang.sin()
                        }
                        Deriv::Dphi | Deriv::DthetaDphi => mf * (-a * ang.sin() + bb * ang.cos()),
                        Deriv::Dphi2 => -mf * mf * (a * ang.cos() + bb * ang.sin()),
                    };
                }
                out[b.grid_index(i, j)] = v;
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The Fourier tables hold exactly what the inline `cos`/`sin` calls
    /// return, so every transform is unchanged to the bit — including
    /// p = 1 (the `nlon = max(2p, 4)` clamp) and the Nyquist mode m = nlon/2
    /// of every p ≥ 2.
    #[test]
    fn tabulated_transforms_match_inline_trig_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for p in [1, 2, 6, 8, 16] {
            let basis = SphBasis::new(p);
            for _ in 0..3 {
                let grid: Vec<f64> = (0..basis.grid_size())
                    .map(|_| rng.random_range(-1.0..1.0))
                    .collect();
                assert_eq!(
                    bits(&basis.analyze(&grid).data),
                    bits(&analyze_inline_trig(&basis, &grid).data),
                    "p = {p}: analyze"
                );
                let mut c = SphCoeffs::zeros(p);
                for v in &mut c.data {
                    *v = rng.random_range(-1.0..1.0);
                }
                // a zero (n, m) block exercises the skip of empty modes
                if p >= 2 {
                    c.set_a(2, 1, 0.0);
                    c.set_b(2, 1, 0.0);
                }
                for d in ALL_DERIVS {
                    assert_eq!(
                        bits(&basis.synthesize(&c, d)),
                        bits(&synthesize_inline_trig(&basis, &c, d)),
                        "p = {p}: synthesize {d:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_bandlimited_random() {
        let p = 8;
        let basis = SphBasis::new(p);
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = SphCoeffs::zeros(p);
        for v in &mut c.data {
            *v = rng.random_range(-1.0..1.0);
        }
        // the sine Nyquist modes (m = nlon/2) are invisible on the grid;
        // exclude them from the representable subspace
        if 2 * p == basis.nlon {
            for n in p..=p {
                c.set_b(n, p, 0.0);
            }
        }
        let grid = basis.synthesize(&c, Deriv::None);
        let c2 = basis.analyze(&grid);
        for (u, v) in c.data.iter().zip(&c2.data) {
            assert!((u - v).abs() < 1e-11, "{u} vs {v}");
        }
    }

    #[test]
    fn analyze_constant_gives_y00_only() {
        let basis = SphBasis::new(6);
        let grid = vec![3.0; basis.grid_size()];
        let c = basis.analyze(&grid);
        // a_{0,0} = 3·√(4π), everything else ~ 0
        let expect = 3.0 * (4.0 * PI).sqrt();
        assert!((c.a(0, 0) - expect).abs() < 1e-10);
        let energy: f64 = c.data.iter().skip(1).map(|v| v * v).sum();
        assert!(energy < 1e-20);
    }

    #[test]
    fn known_harmonic_z_is_degree_one() {
        // f = cos θ = √(4π/3) Y_1^0
        let basis = SphBasis::new(5);
        let mut grid = vec![0.0; basis.grid_size()];
        for i in 0..basis.nlat {
            for j in 0..basis.nlon {
                grid[basis.grid_index(i, j)] = basis.theta[i].cos();
            }
        }
        let c = basis.analyze(&grid);
        assert!((c.a(1, 0) - (4.0 * PI / 3.0).sqrt()).abs() < 1e-12);
        for n in [0usize, 2, 3, 4, 5] {
            assert!(c.a(n, 0).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn theta_derivative_matches_finite_difference() {
        let p = 10;
        let basis = SphBasis::new(p);
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = SphCoeffs::zeros(p);
        for v in &mut c.data {
            *v = rng.random_range(-1.0..1.0);
        }
        let dth = basis.synthesize(&c, Deriv::Dtheta);
        let h = 1e-6;
        for &(i, j) in &[(2usize, 3usize), (5, 10), (8, 0)] {
            let t = basis.theta[i];
            let ph = basis.phi[j];
            let fd = (basis.synthesize_at(&c, t + h, ph) - basis.synthesize_at(&c, t - h, ph))
                / (2.0 * h);
            assert!(
                (dth[basis.grid_index(i, j)] - fd).abs() < 1e-6,
                "({i},{j}): {} vs {fd}",
                dth[basis.grid_index(i, j)]
            );
        }
    }

    #[test]
    fn phi_derivatives_match_finite_difference() {
        let p = 9;
        let basis = SphBasis::new(p);
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = SphCoeffs::zeros(p);
        for v in &mut c.data {
            *v = rng.random_range(-1.0..1.0);
        }
        let dph = basis.synthesize(&c, Deriv::Dphi);
        let dph2 = basis.synthesize(&c, Deriv::Dphi2);
        let h = 1e-5;
        let (i, j) = (4usize, 7usize);
        let t = basis.theta[i];
        let ph = basis.phi[j];
        let f = |x: f64| basis.synthesize_at(&c, t, x);
        let fd1 = (f(ph + h) - f(ph - h)) / (2.0 * h);
        let fd2 = (f(ph + h) - 2.0 * f(ph) + f(ph - h)) / (h * h);
        assert!((dph[basis.grid_index(i, j)] - fd1).abs() < 1e-7);
        assert!((dph2[basis.grid_index(i, j)] - fd2).abs() < 1e-4);
    }

    #[test]
    fn second_theta_derivative_matches_finite_difference() {
        let p = 8;
        let basis = SphBasis::new(p);
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = SphCoeffs::zeros(p);
        for v in &mut c.data {
            *v = rng.random_range(-1.0..1.0);
        }
        let d2 = basis.synthesize(&c, Deriv::Dtheta2);
        let h = 1e-4;
        let (i, j) = (3usize, 5usize);
        let t = basis.theta[i];
        let ph = basis.phi[j];
        let f = |x: f64| basis.synthesize_at(&c, x, ph);
        let fd = (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h);
        assert!(
            (d2[basis.grid_index(i, j)] - fd).abs() < 1e-4 * fd.abs().max(1.0),
            "{} vs {fd}",
            d2[basis.grid_index(i, j)]
        );
    }

    #[test]
    fn mixed_derivative_consistent() {
        let p = 7;
        let basis = SphBasis::new(p);
        let mut rng = StdRng::seed_from_u64(6);
        let mut c = SphCoeffs::zeros(p);
        for v in &mut c.data {
            *v = rng.random_range(-1.0..1.0);
        }
        let dtp = basis.synthesize(&c, Deriv::DthetaDphi);
        let h = 1e-5;
        let (i, j) = (2usize, 9usize);
        let t = basis.theta[i];
        let ph = basis.phi[j];
        let fd = (basis.synthesize_at(&c, t + h, ph + h)
            - basis.synthesize_at(&c, t + h, ph - h)
            - basis.synthesize_at(&c, t - h, ph + h)
            + basis.synthesize_at(&c, t - h, ph - h))
            / (4.0 * h * h);
        assert!((dtp[basis.grid_index(i, j)] - fd).abs() < 1e-4);
    }

    #[test]
    fn resampling_preserves_low_modes() {
        let p = 6;
        let q = 12;
        let bp = SphBasis::new(p);
        let bq = SphBasis::new(q);
        let mut rng = StdRng::seed_from_u64(7);
        let mut c = SphCoeffs::zeros(p);
        for v in &mut c.data {
            *v = rng.random_range(-1.0..1.0);
        }
        let up = c.resampled(q);
        // synthesize on the fine grid and analyze back: low modes intact
        let fine = bq.synthesize(&up, Deriv::None);
        let back = bq.analyze(&fine).resampled(p);
        for (u, v) in c.data.iter().zip(&back.data) {
            assert!((u - v).abs() < 1e-10);
        }
        // evaluating the coarse and fine representations at a point agrees
        let v1 = bp.synthesize_at(&c, 1.1, 2.2);
        let v2 = bq.synthesize_at(&up, 1.1, 2.2);
        assert!((v1 - v2).abs() < 1e-11);
    }

    #[test]
    fn sphere_quadrature_weights_integrate_area() {
        let basis = SphBasis::new(8);
        let mut area = 0.0;
        for i in 0..basis.nlat {
            area += basis.sphere_weight(i) * basis.nlon as f64;
        }
        assert!((area - 4.0 * PI).abs() < 1e-10);
    }
}
