//! Cell state (de)serialization hooks for the checkpoint/restart system.
//!
//! A [`Cell`] is fully determined by its spectral position coefficients,
//! the captured reference area element, and its parameters; everything else
//! (geometry, self-interaction operators) is recomputed per step. All
//! floats round-trip bit-exactly through [`linalg::bytes`], so a restored
//! cell continues the trajectory bit-identically.

use crate::cell::{Cell, CellParams};
use crate::selfop::SelfOpOptions;
use linalg::{ByteReader, ByteWriter, CodecError};
use sphharm::SphCoeffs;

/// Format tag guarding against layout drift between PRs.
const CELL_STATE_VERSION: u8 = 1;

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
        w.put_usize(p.selfop.upsample);
        w.put_usize(p.selfop.p_extrap);
        w.put_f64(p.selfop.big_r);
        w.put_f64(p.selfop.small_r);
    }

    /// Reconstructs a cell from bytes written by [`Cell::write_state`].
    ///
    /// Unlike [`Cell::new`] this does **not** recapture the reference
    /// geometry: the stored `ref_w` (the unstretched state the tension
    /// penalty measures against) is restored verbatim.
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
            selfop: SelfOpOptions {
                upsample: r.get_usize()?,
                p_extrap: r.get_usize()?,
                big_r: r.get_f64()?,
                small_r: r.get_f64()?,
            },
        };
        // the operator's shape comes from the file: reject what would panic
        // or exhaust memory at the first step
        let p = coeffs.iter().map(|c| c.p).max().unwrap_or(0);
        params.selfop.validate(p)?;
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
            ..Default::default()
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
        assert_eq!(back.params.kappa_b, cell.params.kappa_b);
        assert_eq!(back.params.selfop.p_extrap, cell.params.selfop.p_extrap);
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
        // self-operator options that would panic (upsample 0) or exhaust
        // memory (a huge upsample or p_extrap) at the first step, or give a
        // meaningless check-point family, are errors that name the field
        let corrupt = |f: fn(&mut SelfOpOptions)| {
            let mut o = cell.params.selfop;
            f(&mut o);
            o
        };
        for (selfop, field) in [
            (corrupt(|o| o.upsample = 0), "upsample 0"),
            (corrupt(|o| o.upsample = 22), "upsample 22"),
            (corrupt(|o| o.upsample = usize::MAX), "upsample"),
            (corrupt(|o| o.p_extrap = 1 << 40), "p_extrap"),
            (corrupt(|o| o.big_r = f64::NAN), "big_r"),
            (corrupt(|o| o.small_r = 0.0), "small_r"),
            (corrupt(|o| o.small_r = f64::INFINITY), "small_r"),
        ] {
            let mut bad_cell = cell.clone();
            bad_cell.params.selfop = selfop;
            let mut w = ByteWriter::new();
            bad_cell.write_state(&mut w);
            let bytes = w.into_bytes();
            let e = Cell::read_state(&mut ByteReader::new(&bytes)).unwrap_err();
            assert!(e.0.contains(field), "{field}: {e}");
        }
    }
}
