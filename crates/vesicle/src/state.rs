//! Cell state (de)serialization hooks for the checkpoint/restart system.
//!
//! A [`Cell`] is fully determined by its spectral position coefficients,
//! the captured reference area element, and its parameters; everything else
//! (geometry, self-interaction operators) is recomputed per step. All
//! floats round-trip bit-exactly through [`linalg::bytes`], so a restored
//! cell continues the trajectory bit-identically.

use crate::cell::{Cell, CellParams};
use linalg::{ByteReader, ByteWriter, CodecError};
use sphharm::SphCoeffs;

/// Format tag guarding against layout drift. Version history: 1 — the
/// parameters carried the four self-interaction quadrature options; 2 —
/// they are constants of `selfop`, and the parameters are `κ_b`, `k_a`, `μ`.
const CELL_STATE_VERSION: u8 = 2;

fn write_coeffs(w: &mut ByteWriter, c: &SphCoeffs) {
    w.put_usize(c.p);
    w.put_f64_slice(&c.data);
}

fn read_coeffs(r: &mut ByteReader) -> Result<SphCoeffs, CodecError> {
    let p = r.get_usize()?;
    let data = r.get_f64_vec()?;
    // `p` comes from the file: (p + 1)² must neither overflow nor wrap
    let len = p.checked_add(1).and_then(|q| q.checked_mul(q));
    if len != Some(data.len()) {
        return Err(CodecError(format!(
            "coefficient length {} does not match order {p}",
            data.len()
        )));
    }
    Ok(SphCoeffs { p, data })
}

impl Cell {
    /// Serializes the full cell state (coefficients, reference area
    /// element, parameters) into `w`.
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_u8(CELL_STATE_VERSION);
        for c in &self.coeffs {
            write_coeffs(w, c);
        }
        w.put_f64_slice(&self.ref_w);
        let p = &self.params;
        w.put_f64(p.kappa_b);
        w.put_f64(p.k_area);
        w.put_f64(p.mu);
    }

    /// Reconstructs a cell from bytes written by [`Cell::write_state`].
    ///
    /// Unlike [`Cell::new`] this does **not** recapture the reference
    /// geometry: the stored `ref_w` (the unstretched state the tension
    /// penalty measures against) is restored verbatim. Parameters outside
    /// their range ([`CellParams::validate`]) are an error naming the field.
    pub fn read_state(r: &mut ByteReader) -> Result<Cell, CodecError> {
        let version = r.get_u8()?;
        if version != CELL_STATE_VERSION {
            return Err(CodecError(format!(
                "unsupported cell state version {version}"
            )));
        }
        let coeffs = [read_coeffs(r)?, read_coeffs(r)?, read_coeffs(r)?];
        let ref_w = r.get_f64_vec()?;
        let params = CellParams {
            kappa_b: r.get_f64()?,
            k_area: r.get_f64()?,
            mu: r.get_f64()?,
        };
        params.validate()?;
        Ok(Cell {
            coeffs,
            ref_w,
            params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::bumpy_sphere_coeffs;
    use linalg::Vec3;
    use sphharm::SphBasis;

    #[test]
    fn cell_state_round_trips_bit_exactly() {
        let basis = SphBasis::new(8);
        let params = CellParams {
            kappa_b: 0.037,
            k_area: 2.5,
            mu: 1.25,
        };
        let mut cell = Cell::new(
            &basis,
            bumpy_sphere_coeffs(&basis, 1.0, Vec3::new(0.3, -0.7, 2.0), 0.05),
            params,
        );
        // deform away from the reference so ref_w ≠ current geometry
        let pos: Vec<Vec3> = cell
            .positions(&basis)
            .iter()
            .map(|p| *p * 1.1 + Vec3::new(0.0, 0.0, 0.01))
            .collect();
        cell.set_positions(&basis, &pos);

        let mut w = ByteWriter::new();
        cell.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = Cell::read_state(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);

        for c in 0..3 {
            assert_eq!(back.coeffs[c].p, cell.coeffs[c].p);
            let a: Vec<u64> = cell.coeffs[c].data.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = back.coeffs[c].data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "component {c} coefficients differ");
        }
        let a: Vec<u64> = cell.ref_w.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = back.ref_w.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "reference area element differs");
        assert_eq!(back.params.kappa_b.to_bits(), cell.params.kappa_b.to_bits());
        assert_eq!(back.params.k_area.to_bits(), cell.params.k_area.to_bits());
        assert_eq!(back.params.mu.to_bits(), cell.params.mu.to_bits());
    }

    #[test]
    fn corrupt_version_is_rejected() {
        let basis = SphBasis::new(6);
        let cell = Cell::new(
            &basis,
            bumpy_sphere_coeffs(&basis, 1.0, Vec3::ZERO, 0.02),
            CellParams::default(),
        );
        let mut w = ByteWriter::new();
        cell.write_state(&mut w);
        let mut bytes = w.into_bytes();
        bytes[0] = 99;
        assert!(Cell::read_state(&mut ByteReader::new(&bytes)).is_err());
        // a coefficient order whose (p + 1)² overflows (u64::MAX) or wraps
        // to the length of an empty vector (2³² − 1) is an error, not a panic
        for p in [u64::MAX as usize, (1usize << 32) - 1] {
            let mut w = ByteWriter::new();
            w.put_u8(CELL_STATE_VERSION);
            w.put_usize(p);
            w.put_f64_slice(&[]);
            let bytes = w.into_bytes();
            let e = Cell::read_state(&mut ByteReader::new(&bytes)).unwrap_err();
            assert!(e.0.contains("does not match order"), "{e}");
        }
        // the version-1 layout (four self-operator fields after mu) is
        // refused by its version byte
        let mut w = ByteWriter::new();
        cell.write_state(&mut w);
        let mut v1 = w.into_bytes();
        v1[0] = 1;
        let e = Cell::read_state(&mut ByteReader::new(&v1)).unwrap_err();
        assert!(e.0.contains("version 1"), "{e}");
        // cell parameters out of range are errors that name the field
        let corrupt = |f: fn(&mut CellParams)| {
            let mut p = cell.params;
            f(&mut p);
            p
        };
        for (params, field) in [
            (corrupt(|p| p.kappa_b = -0.01), "kappa_b"),
            (corrupt(|p| p.kappa_b = f64::NAN), "kappa_b"),
            (corrupt(|p| p.k_area = -1.0), "k_area"),
            (corrupt(|p| p.k_area = f64::INFINITY), "k_area"),
            (corrupt(|p| p.mu = 0.0), "mu"),
            (corrupt(|p| p.mu = -1.0), "mu"),
            (corrupt(|p| p.mu = f64::NAN), "mu"),
        ] {
            let mut bad_cell = cell.clone();
            bad_cell.params = params;
            let mut w = ByteWriter::new();
            bad_cell.write_state(&mut w);
            let bytes = w.into_bytes();
            let e = Cell::read_state(&mut ByteReader::new(&bytes)).unwrap_err();
            assert!(e.0.contains(field), "{field}: {e}");
        }
    }
}
