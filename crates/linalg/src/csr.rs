//! Compressed-sparse-row matrices for the contact coupling system.
//!
//! The collision NCP assembles the coupling matrix `B` ("the change in the
//! jth contact volume induced by the kth contact force") from per-mesh
//! contributions. At dense packings the hash-map-of-triplets it used to
//! live in dominates the LCP matvec; this module provides the replacement:
//! a deterministic CSR build from *sorted* triplets plus a row-parallel
//! matvec whose per-row accumulation order is fixed by the stored column
//! order — so the result is bit-identical across runs and instances
//! (the restart/determinism guarantee the driver tests pin).

/// A sparse matrix in compressed-sparse-row layout.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries (len `rows+1`).
    row_ptr: Vec<usize>,
    /// Column of each stored entry, ascending within each row.
    col_idx: Vec<usize>,
    /// Value of each stored entry.
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// An empty `rows × cols` matrix (no stored entries).
    pub fn zeros(rows: usize, cols: usize) -> CsrMatrix {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Builds from triplets `(row, col, value)` that are already sorted by
    /// `(row, col)`. Duplicate coordinates are summed **in slice order**,
    /// which is what makes the assembly deterministic: the caller fixes a
    /// canonical contribution order (e.g. ascending mesh id) and the sum
    /// for every entry is evaluated in exactly that order.
    ///
    /// # Panics
    /// Panics if the triplets are not sorted by `(row, col)` or an index is
    /// out of range.
    pub fn from_sorted_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> CsrMatrix {
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut vals: Vec<f64> = Vec::with_capacity(triplets.len());
        let mut last: Option<(usize, usize)> = None;
        for &(r, c, v) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of {rows}×{cols}"
            );
            if let Some(prev) = last {
                assert!(prev <= (r, c), "triplets not sorted by (row, col)");
                if prev == (r, c) {
                    *vals.last_mut().unwrap() += v;
                    continue;
                }
            }
            last = Some((r, c));
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            vals.push(v);
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The stored entries of row `i` as `(columns, values)` slices.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.vals[span])
    }

    /// `y = A x`. Rows are independent, so the fill is row-parallel; within
    /// a row the accumulation runs in stored (ascending-column) order,
    /// keeping the floating-point result independent of thread count.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        // row blocks amortize the dispatch; every output row is written by
        // exactly one dispatched block, so the fill is deterministic at any
        // thread count
        const BLK: usize = 64;
        rayon::par::chunks_mut(y, BLK, |bi, block| {
            for (r, yi) in block.iter_mut().enumerate() {
                let i = bi * BLK + r;
                let (cols, vals) = (
                    &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]],
                    &self.vals[self.row_ptr[i]..self.row_ptr[i + 1]],
                );
                let mut acc = 0.0;
                for (c, v) in cols.iter().zip(vals) {
                    acc += v * x[*c];
                }
                *yi = acc;
            }
        });
    }

    /// `A x` as a fresh vector.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Densifies into a row-major `rows × cols` buffer (tests/debugging).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.rows * self.cols];
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                out[i * self.cols + c] = *v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn builds_from_sorted_triplets_and_sums_duplicates() {
        // duplicate (0,1) entries sum in slice order; (1,2) single
        let t = [(0, 1, 1.0), (0, 1, 2.0), (1, 0, -1.0), (1, 2, 4.0)];
        let a = CsrMatrix::from_sorted_triplets(2, 3, &t);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.to_dense(), vec![0.0, 3.0, 0.0, -1.0, 0.0, 4.0]);
        let (cols, vals) = a.row(1);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[-1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn rejects_unsorted_triplets() {
        let t = [(1, 0, 1.0), (0, 0, 1.0)];
        CsrMatrix::from_sorted_triplets(2, 2, &t);
    }

    #[test]
    fn matvec_matches_dense_on_random_matrices() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let rows = rng.random_range(1..30);
            let cols = rng.random_range(1..30);
            let mut triplets: Vec<(usize, usize, f64)> = (0..rng.random_range(0..120))
                .map(|_| {
                    (
                        rng.random_range(0..rows),
                        rng.random_range(0..cols),
                        rng.random_range(-1.0..1.0),
                    )
                })
                .collect();
            triplets.sort_by_key(|t| (t.0, t.1));
            let a = CsrMatrix::from_sorted_triplets(rows, cols, &triplets);
            let x: Vec<f64> = (0..cols).map(|_| rng.random_range(-1.0..1.0)).collect();
            let y = a.matvec(&x);
            let dense = a.to_dense();
            for i in 0..rows {
                let want: f64 = (0..cols).map(|j| dense[i * cols + j] * x[j]).sum();
                assert!((y[i] - want).abs() < 1e-12, "row {i}: {} vs {want}", y[i]);
            }
        }
    }

    #[test]
    fn empty_and_zero_row_shapes() {
        let a = CsrMatrix::zeros(3, 4);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.matvec(&[1.0; 4]), vec![0.0; 3]);
        // a matrix whose middle row is empty
        let t = [(0, 0, 1.0), (2, 3, 2.0)];
        let a = CsrMatrix::from_sorted_triplets(3, 4, &t);
        assert_eq!(a.matvec(&[1.0; 4]), vec![1.0, 0.0, 2.0]);
    }
}
