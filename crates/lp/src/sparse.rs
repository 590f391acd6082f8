//! Compressed sparse storage shared by the engine's two views of the
//! standard-form matrix.
//!
//! One [`Compressed`] is a sequence of *lanes*, each a run of
//! `(index, value)` entries, stored as three flat arrays (`ptr`, `idx`,
//! `val`: 12 bytes per entry and 4 per lane, no per-lane allocation).
//! Read column-major it is the column store every FTRAN, reduced cost
//! and factorization walks (lane = column, index = row); read row-major
//! it is the pivot-row kernel's input (lane = row, index = column).
//! A matrix is filled once and then only read.

/// A compressed sparse matrix: lane `k` holds the entries
/// `idx[ptr[k]..ptr[k + 1]]` / `val[ptr[k]..ptr[k + 1]]`.
pub(crate) struct Compressed {
    ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl Compressed {
    /// An empty matrix with room for `lanes` lanes and `nnz` entries;
    /// fill it lane by lane with [`Self::push`] / [`Self::close_lane`].
    pub(crate) fn with_capacity(lanes: usize, nnz: usize) -> Self {
        let mut ptr = Vec::with_capacity(lanes + 1);
        ptr.push(0);
        Self {
            ptr,
            idx: Vec::with_capacity(nnz),
            val: Vec::with_capacity(nnz),
        }
    }

    /// Append one entry to the lane being built.
    pub(crate) fn push(&mut self, index: usize, value: f64) {
        self.idx
            .push(u32::try_from(index).expect("fewer than 2^32 rows and columns"));
        self.val.push(value);
    }

    /// End the lane being built (possibly empty) and start the next.
    pub(crate) fn close_lane(&mut self) {
        let end = u32::try_from(self.idx.len()).expect("fewer than 2^32 stored nonzeros");
        self.ptr.push(end);
    }

    /// Number of lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Number of entries in lane `k`.
    pub(crate) fn lane_len(&self, k: usize) -> usize {
        (self.ptr[k + 1] - self.ptr[k]) as usize
    }

    /// The `(index, value)` entries of lane `k`, in stored order.
    #[inline]
    pub(crate) fn lane(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.ptr[k] as usize, self.ptr[k + 1] as usize);
        self.idx[lo..hi]
            .iter()
            .zip(&self.val[lo..hi])
            .map(|(&i, &v)| (i as usize, v))
    }

    /// The flat position of lane `k`'s next unclaimed entry. `ptr[k]`
    /// itself is the cursor, so a sweep that claims every entry of lanes
    /// `..lanes` exactly once needs no side array; it leaves each
    /// `ptr[k]` at the start of lane `k + 1`, and [`Self::rewind`] puts
    /// them back. Between the first `claim` and the `rewind` the lane
    /// readers above are invalid.
    fn claim(&mut self, k: usize) -> usize {
        let at = self.ptr[k];
        self.ptr[k] += 1;
        at as usize
    }

    /// Undo a full [`Self::claim`] sweep over lanes `..lanes`.
    fn rewind(&mut self, lanes: usize) {
        self.ptr.copy_within(0..lanes, 1);
        self.ptr[0] = 0;
    }

    /// The transpose, with `minor` lanes (one per distinct index).
    /// Lanes are walked in ascending order, so each lane of the result
    /// lists its entries by ascending index — the order every
    /// column-wise dot product in the engine accumulates in.
    pub(crate) fn transpose(&self, minor: usize) -> Self {
        let mut out = Self {
            ptr: vec![0; minor + 1],
            idx: vec![0; self.idx.len()],
            val: vec![0.0; self.val.len()],
        };
        for &j in &self.idx {
            out.ptr[j as usize + 1] += 1;
        }
        for j in 0..minor {
            out.ptr[j + 1] += out.ptr[j];
        }
        for k in 0..self.lanes() {
            for (j, v) in self.lane(k) {
                let at = out.claim(j);
                out.idx[at] = k as u32;
                out.val[at] = v;
            }
        }
        out.rewind(minor);
        out
    }
}

#[cfg(test)]
impl Compressed {
    /// Build from explicit lanes (test fixtures).
    pub(crate) fn from_lanes(lanes: &[Vec<(usize, f64)>]) -> Self {
        let nnz = lanes.iter().map(Vec::len).sum();
        let mut out = Self::with_capacity(lanes.len(), nnz);
        for lane in lanes {
            for &(i, v) in lane {
                out.push(i, v);
            }
            out.close_lane();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_lists_each_lane_by_ascending_index() {
        // Rows of a 3x4 matrix, columns deliberately out of order.
        let rows = Compressed::from_lanes(&[
            vec![(2, 1.0), (0, 2.0)],
            vec![],
            vec![(0, 3.0), (3, 4.0), (2, 5.0)],
        ]);
        let cols = rows.transpose(4);
        assert_eq!(cols.lanes(), 4);
        let lane = |k| cols.lane(k).collect::<Vec<_>>();
        assert_eq!(lane(0), vec![(0, 2.0), (2, 3.0)]);
        assert_eq!(lane(1), vec![]);
        assert_eq!(lane(2), vec![(0, 1.0), (2, 5.0)]);
        assert_eq!(lane(3), vec![(2, 4.0)]);
        assert_eq!(cols.lane_len(2), 2);
    }

    #[test]
    fn claim_sweep_then_rewind_restores_the_lanes() {
        let mut cols = Compressed::from_lanes(&[vec![(0, 1.0), (1, 2.0)], vec![], vec![(1, 3.0)]]);
        // Claim every entry of lanes 0..2 (lane 2 is left alone).
        assert_eq!(cols.claim(0), 0);
        assert_eq!(cols.claim(0), 1);
        cols.rewind(2);
        assert_eq!(cols.lane(0).collect::<Vec<_>>(), vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(cols.lane(1).count(), 0);
        assert_eq!(cols.lane(2).collect::<Vec<_>>(), vec![(1, 3.0)]);
    }
}
