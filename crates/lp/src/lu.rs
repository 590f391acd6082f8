//! Sparse LU factorization of a simplex basis.
//!
//! Replaces the dense `O(m^3)` basis factorization the revised simplex
//! used through PR 5. The bases these LPs produce are **hyper-sparse**:
//! most basic columns are unit slack/artificial columns, and the
//! structural columns (flow splits, capacity rows) carry a handful of
//! entries each. A dense LU pays `m^3` flops and `m^2` per solve
//! regardless; this factorization pays only for stored nonzeros:
//!
//! * **left-looking column elimination** (Gilbert–Peierls style): each
//!   basis column is scattered sparsely, eliminated against the already
//!   computed part of `L`, and appended to column-compressed `L`/`U`
//!   factors — total work proportional to the factor flops, not `m^3`,
//! * **triangular part first** (Suhl & Suhl, ORSA J. Computing 1990):
//!   a column singleton of the active submatrix pivots on its one
//!   un-pivoted row and leaves `L` empty, so it adds **zero fill-in**;
//!   singletons are taken in the order they appear. A min-max start
//!   basis is all triangular: slacks, then the dense `t`, then each
//!   flow on its own row,
//! * **threshold Markowitz on the nucleus**: the rest is eliminated
//!   sparsest column first, and within a column every candidate row
//!   whose magnitude is within [`PIVOT_TAU`] of the column maximum is
//!   acceptable; among those the row with the smallest static Markowitz
//!   count (nonzeros in that row of the basis) wins,
//! * **sparse triangular solves**: FTRAN runs column-oriented with
//!   zero-skips (a hyper-sparse right-hand side touches only the columns
//!   it reaches), BTRAN runs as contiguous per-column dot products —
//!   both `O(nnz(L) + nnz(U) + m)` worst case and far less for sparse
//!   inputs.
//!
//! The factorization is `B = L' U' P_c^T` with `L'` unit lower
//! triangular over (original row × elimination step) and `U'` upper
//! triangular over (step × step); `P_c` maps elimination steps back to
//! basis positions. [`SparseLu::solve`] and [`SparseLu::solve_transpose`]
//! hide the permutations: both take and return vectors indexed the way
//! the engine indexes them (basis rows / basis positions).

use crate::sparse::Compressed;

/// Threshold-partial-pivoting relaxation: any candidate row whose
/// magnitude is within this factor of the column's largest candidate is
/// numerically acceptable, and the sparsest acceptable row becomes the
/// pivot. 0.1 is the textbook compromise between stability (1.0 =
/// partial pivoting) and fill-in (0 = pure Markowitz).
const PIVOT_TAU: f64 = 0.1;

/// Absolute floor for an acceptable pivot; a column whose best candidate
/// is below this is treated as singular and the caller falls back.
pub(crate) const PIVOT_MIN: f64 = 1e-11;

/// Sparse LU factors of one basis. See the module docs for the layout.
pub(crate) struct SparseLu {
    m: usize,
    /// Unit-lower factor `L`: column `t` holds the multipliers created
    /// at elimination step `t`, indexed by **original row** (the unit
    /// diagonal at `row_perm[t]` is implicit).
    l_ptr: Vec<u32>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// Strictly-upper entries of `U`: column `k` holds
    /// `(elimination step t < k, value)` pairs.
    u_ptr: Vec<u32>,
    u_steps: Vec<u32>,
    u_vals: Vec<f64>,
    /// `U`'s diagonal (the pivots), in elimination order.
    u_diag: Vec<f64>,
    /// `row_perm[t]` = original row chosen as pivot at step `t`.
    row_perm: Vec<u32>,
    /// `col_perm[t]` = basis position eliminated at step `t`.
    col_perm: Vec<u32>,
}

impl SparseLu {
    /// A factorization of the 0×0 basis (placeholder before the first
    /// [`SparseLu::factor`] call).
    pub(crate) fn empty() -> Self {
        Self {
            m: 0,
            l_ptr: vec![0],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_ptr: vec![0],
            u_steps: Vec::new(),
            u_vals: Vec::new(),
            u_diag: Vec::new(),
            row_perm: Vec::new(),
            col_perm: Vec::new(),
        }
    }

    /// Stored nonzeros across both factors (including the `m` implicit
    /// unit / stored diagonal entries) — the fill-in figure reported
    /// through the engine counters.
    pub(crate) fn fill_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.m
    }

    /// Factor the basis whose column at position `j` is lane
    /// `basis[j]` of `cols` (entries `(row, value)`, rows ascending).
    /// `None` when some elimination column has no candidate pivot above
    /// [`PIVOT_MIN`] (singular basis).
    pub(crate) fn factor(cols: &Compressed, basis: &[usize]) -> Option<Self> {
        let m = basis.len();
        // Row -> basis-position incidence, row-compressed: filled back to
        // front so each row lists its positions ascending. A row's length
        // is its static Markowitz count (how many basic columns touch it).
        let mut row_ptr = vec![0u32; m + 1];
        for &var in basis {
            for (r, _) in cols.lane(var) {
                row_ptr[r] += 1;
            }
        }
        for r in 1..=m {
            row_ptr[r] += row_ptr[r - 1];
        }
        let mut row_cols = vec![0u32; row_ptr[m] as usize];
        for (j, &var) in basis.iter().enumerate().rev() {
            for (r, _) in cols.lane(var) {
                row_ptr[r] -= 1;
                row_cols[row_ptr[r] as usize] = j as u32;
            }
        }
        let row_count = |r: usize| row_ptr[r + 1] - row_ptr[r];

        // Triangular pass (module docs): `order[..done]` holds the column
        // singletons taken, `order[head..]` the queue of those found, and
        // one whose entry is below PIVOT_MIN stays for the nucleus.
        const TAKEN: u32 = u32::MAX;
        let mut active: Vec<u32> = basis.iter().map(|&var| cols.lane_len(var) as u32).collect();
        let mut pinv = vec![u32::MAX; m];
        let mut order: Vec<u32> = Vec::with_capacity(m);
        order.extend((0..m as u32).filter(|&j| active[j as usize] == 1));
        let (mut done, mut head) = (0, 0);
        while head < order.len() {
            let j = order[head] as usize;
            head += 1;
            // Its one row may have gone to an earlier singleton since.
            if active[j] != 1 {
                continue;
            }
            let (r, v) = cols
                .lane(basis[j])
                .find(|&(r, _)| pinv[r] == u32::MAX)
                .expect("an active count of 1 is one un-pivoted row");
            if v.abs() < PIVOT_MIN {
                continue;
            }
            pinv[r] = done as u32;
            order[done] = j as u32;
            done += 1;
            active[j] = TAKEN;
            for &c in &row_cols[row_ptr[r] as usize..row_ptr[r + 1] as usize] {
                let c = c as usize;
                if active[c] != TAKEN {
                    active[c] -= 1;
                    if active[c] == 1 {
                        order.push(c as u32);
                    }
                }
            }
        }
        order.truncate(done);
        // The nucleus, sparsest first (stable: deterministic). The loop
        // below re-derives the triangular pivots: each such column has
        // one un-pivoted row when its step comes.
        let triangular = done;
        order.extend((0..m as u32).filter(|&j| active[j as usize] != TAKEN));
        order[triangular..].sort_by_key(|&j| (cols.lane_len(basis[j as usize]), j));
        pinv.fill(u32::MAX);
        let mut row_perm = vec![0u32; m];
        // Dense scatter workspace: `x[r]` is live iff `mark[r] == k`.
        let mut x = vec![0.0f64; m];
        let mut mark = vec![u32::MAX; m];
        let mut touched: Vec<u32> = Vec::with_capacity(m);
        // Elimination steps reached by the current column, processed in
        // ascending step order (a min-heap over `Reverse`d steps): only
        // the steps the column actually touches cost anything, which is
        // what keeps a hyper-sparse column's elimination near-free.
        let mut steps: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
            std::collections::BinaryHeap::with_capacity(m);
        let mut l_ptr = Vec::with_capacity(m + 1);
        let mut l_rows: Vec<u32> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_ptr = Vec::with_capacity(m + 1);
        let mut u_steps: Vec<u32> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        let mut u_diag = Vec::with_capacity(m);
        l_ptr.push(0u32);
        u_ptr.push(0u32);

        for (k, &pos) in order.iter().enumerate() {
            let stamp = k as u32;
            touched.clear();
            debug_assert!(steps.is_empty());
            for (ri, v) in cols.lane(basis[pos as usize]) {
                x[ri] = v;
                mark[ri] = stamp;
                touched.push(ri as u32);
                if pinv[ri] != u32::MAX {
                    steps.push(std::cmp::Reverse(pinv[ri]));
                }
            }
            // Left-looking elimination in ascending step order over only
            // the touched steps. Ascending order is a valid topological
            // order: fill created at step `t` lands only on rows
            // un-pivoted at `t`, whose pivot step (if any) is > t — so
            // every step enters the heap before it is popped, and each
            // row (hence each step) is pushed at most once per column
            // (`mark`-gated).
            while let Some(std::cmp::Reverse(t)) = steps.pop() {
                let t = t as usize;
                let xt = x[row_perm[t] as usize];
                if xt == 0.0 {
                    continue;
                }
                // Final value: no later step touches a pivoted row.
                u_steps.push(t as u32);
                u_vals.push(xt);
                let lo = l_ptr[t] as usize;
                let hi = l_ptr[t + 1] as usize;
                for (&r, &lv) in l_rows[lo..hi].iter().zip(&l_vals[lo..hi]) {
                    let ri = r as usize;
                    if mark[ri] != stamp {
                        mark[ri] = stamp;
                        x[ri] = 0.0;
                        touched.push(r);
                        if pinv[ri] != u32::MAX {
                            steps.push(std::cmp::Reverse(pinv[ri]));
                        }
                    }
                    x[ri] -= lv * xt;
                }
            }
            u_ptr.push(u_steps.len() as u32);
            // Pivot selection among un-pivoted rows: numerically
            // acceptable (within PIVOT_TAU of the column max), then
            // sparsest static row count, then lowest row (determinism).
            let mut amax = 0.0f64;
            for &r in &touched {
                if pinv[r as usize] == u32::MAX {
                    amax = amax.max(x[r as usize].abs());
                }
            }
            if amax < PIVOT_MIN {
                return None;
            }
            let accept = PIVOT_TAU * amax;
            let mut best: Option<(u32, u32)> = None;
            for &r in &touched {
                let ri = r as usize;
                if pinv[ri] != u32::MAX || x[ri].abs() < accept {
                    continue;
                }
                let key = (row_count(ri), r);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let (_, pr) = best.expect("amax >= PIVOT_MIN guarantees a candidate");
            let pri = pr as usize;
            let pivot = x[pri];
            pinv[pri] = stamp;
            row_perm[k] = pr;
            u_diag.push(pivot);
            // L column k: remaining un-pivoted rows, as multipliers.
            for &r in &touched {
                let ri = r as usize;
                if pinv[ri] != u32::MAX {
                    continue;
                }
                let xv = x[ri];
                if xv != 0.0 {
                    l_rows.push(r);
                    l_vals.push(xv / pivot);
                }
            }
            debug_assert!(k >= triangular || l_ptr[k] as usize == l_rows.len());
            l_ptr.push(l_rows.len() as u32);
            // No explicit clearing of `x`: `mark` gates every read.
        }

        Some(Self {
            m,
            l_ptr,
            l_rows,
            l_vals,
            u_ptr,
            u_steps,
            u_vals,
            u_diag,
            row_perm,
            col_perm: order,
        })
    }

    /// Test hook: `row_perm` and `col_perm` are permutations, `L` holds
    /// only rows pivoted after its step, `U` only earlier steps, and
    /// `L' U'` rebuilds the factored basis, each column of `P_r B P_c`
    /// to 1e-9 of its largest entry.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self, cols: &Compressed, basis: &[usize]) {
        let m = self.m;
        assert_eq!(basis.len(), m);
        for perm in [&self.row_perm, &self.col_perm] {
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert!(
                sorted.into_iter().eq(0..m as u32),
                "not a permutation: {perm:?}"
            );
        }
        let mut pinv = vec![0; m];
        for (t, &r) in self.row_perm.iter().enumerate() {
            pinv[r as usize] = t;
        }
        for t in 0..m {
            assert!(self.l_column(t).all(|(r, _)| pinv[r] > t), "L column {t}");
        }
        let mut product = vec![0.0; m];
        for k in 0..m {
            // Column k of L' U': each L' column t <= k scaled by U'[t][k].
            product.fill(0.0);
            let (lo, hi) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
            let above = self.u_steps[lo..hi].iter().zip(&self.u_vals[lo..hi]);
            let u_col = above.map(|(&t, &u)| (t as usize, u));
            for (t, u) in u_col.chain([(k, self.u_diag[k])]) {
                assert!(t <= k, "U entry at step {t} in column {k}");
                product[self.row_perm[t] as usize] += u;
                for (r, lv) in self.l_column(t) {
                    product[r] += lv * u;
                }
            }
            let lane = basis[self.col_perm[k] as usize];
            let scale = cols.lane(lane).fold(0.0f64, |a, (_, v)| a.max(v.abs()));
            for (r, v) in cols.lane(lane) {
                product[r] -= v;
            }
            for (r, err) in product.iter().enumerate() {
                assert!(
                    err.abs() <= 1e-9 * scale,
                    "column {k} row {r} off by {err:e}"
                );
            }
        }
    }

    /// The multipliers of `L` column `t`, by original row.
    #[cfg(test)]
    fn l_column(&self, t: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.l_ptr[t] as usize, self.l_ptr[t + 1] as usize);
        let rows = self.l_rows[lo..hi].iter().map(|&r| r as usize);
        rows.zip(self.l_vals[lo..hi].iter().copied())
    }

    /// FTRAN base: overwrite `v` (indexed by basis row) with `B^{-1} v`
    /// (indexed by basis position). Both triangular passes run
    /// column-oriented with zero-skips, so a hyper-sparse `v` touches
    /// only the factor columns it reaches. `tmp` is caller-provided
    /// scratch of length `m` (permutation staging).
    pub(crate) fn solve(&self, v: &mut [f64], tmp: &mut [f64]) {
        let m = self.m;
        // Lower: L' z = v, forward over elimination steps.
        for t in 0..m {
            let c = v[self.row_perm[t] as usize];
            if c != 0.0 {
                let lo = self.l_ptr[t] as usize;
                let hi = self.l_ptr[t + 1] as usize;
                for (&r, &lv) in self.l_rows[lo..hi].iter().zip(&self.l_vals[lo..hi]) {
                    v[r as usize] -= lv * c;
                }
            }
        }
        // Upper: U' y = z, backward.
        for k in (0..m).rev() {
            let pk = self.row_perm[k] as usize;
            let val = v[pk] / self.u_diag[k];
            v[pk] = val;
            if val != 0.0 {
                let lo = self.u_ptr[k] as usize;
                let hi = self.u_ptr[k + 1] as usize;
                for (&t, &uv) in self.u_steps[lo..hi].iter().zip(&self.u_vals[lo..hi]) {
                    v[self.row_perm[t as usize] as usize] -= uv * val;
                }
            }
        }
        // Un-permute: basis position col_perm[k] takes the step-k value.
        for k in 0..m {
            tmp[self.col_perm[k] as usize] = v[self.row_perm[k] as usize];
        }
        v[..m].copy_from_slice(&tmp[..m]);
    }

    /// BTRAN base: overwrite `v` (indexed by basis position) with
    /// `B^{-T} v` (indexed by basis row). Both passes are contiguous
    /// per-column dot products over the stored factors. `tmp` is
    /// caller-provided scratch of length `m`.
    pub(crate) fn solve_transpose(&self, v: &mut [f64], tmp: &mut [f64]) {
        let m = self.m;
        // Gather into elimination-step space: rhs_k = v[col_perm[k]].
        for k in 0..m {
            tmp[k] = v[self.col_perm[k] as usize];
        }
        // U'^T s = rhs: forward; column k of U is the dot pattern.
        for k in 0..m {
            let lo = self.u_ptr[k] as usize;
            let hi = self.u_ptr[k + 1] as usize;
            let mut s = tmp[k];
            for (&t, &uv) in self.u_steps[lo..hi].iter().zip(&self.u_vals[lo..hi]) {
                s -= uv * tmp[t as usize];
            }
            tmp[k] = s / self.u_diag[k];
        }
        // L'^T y = s: backward; results land at original rows. Rows read
        // from `v` were all written at later steps (pinv > t), so the
        // input values of `v` are fully consumed by the gather above.
        for t in (0..m).rev() {
            let lo = self.l_ptr[t] as usize;
            let hi = self.l_ptr[t + 1] as usize;
            let mut s = tmp[t];
            for (&r, &lv) in self.l_rows[lo..hi].iter().zip(&self.l_vals[lo..hi]) {
                s -= lv * v[r as usize];
            }
            v[self.row_perm[t] as usize] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Factor a small dense matrix given row-major and check both solves
    /// against hand-multiplied products.
    fn check_roundtrip(dense: &[f64], m: usize) {
        // Column-sparse form, one "variable" per basis position.
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| dense[i * m + j] != 0.0)
                    .map(|i| (i, dense[i * m + j]))
                    .collect()
            })
            .collect();
        let cols = Compressed::from_lanes(&cols);
        let basis: Vec<usize> = (0..m).collect();
        let lu = SparseLu::factor(&cols, &basis).expect("nonsingular");
        lu.check_invariants(&cols, &basis);
        let mut tmp = vec![0.0; m];
        // FTRAN: B w = v  =>  dense * w == v.
        for rhs in 0..m {
            let mut v = vec![0.0; m];
            v[rhs] = 1.0;
            let mut w = v.clone();
            lu.solve(&mut w, &mut tmp);
            for i in 0..m {
                let prod: f64 = (0..m).map(|j| dense[i * m + j] * w[j]).sum();
                assert!(
                    (prod - v[i]).abs() < 1e-9,
                    "FTRAN rhs e{rhs}: row {i} product {prod} != {}",
                    v[i]
                );
            }
        }
        // BTRAN: B^T y = v  =>  dense^T * y == v.
        for rhs in 0..m {
            let mut v = vec![0.0; m];
            v[rhs] = 1.0;
            let mut y = v.clone();
            lu.solve_transpose(&mut y, &mut tmp);
            for j in 0..m {
                let prod: f64 = (0..m).map(|i| dense[i * m + j] * y[i]).sum();
                assert!(
                    (prod - v[j]).abs() < 1e-9,
                    "BTRAN rhs e{rhs}: col {j} product {prod} != {}",
                    v[j]
                );
            }
        }
    }

    /// The min-max start basis of the bandwidth optimum: flow rows with
    /// coefficient 1, capacity rows with volume coefficients far above
    /// 1 / [`PIVOT_TAU`], the dense `t` column basic in the bottleneck
    /// row and slacks in every other capacity row. Slacks, then `t`, then
    /// each flow on its own row are column singletons, so nothing fills;
    /// eliminating `t` last chained every flow through the bottleneck
    /// row and filled quadratically.
    #[test]
    fn min_max_start_basis_factors_fill_free() {
        let (flows, links) = (40usize, 12usize);
        let m = flows + links;
        // Lanes: `t`, one default route per flow, one slack per link.
        let mut lanes: Vec<Vec<(usize, f64)>> = Vec::new();
        lanes.push((flows..m).map(|l| (l, -100.0 - l as f64)).collect());
        for f in 0..flows {
            // Each route crosses the bottleneck (`flows`) and one more link.
            let other = flows + 1 + f % (links - 1);
            lanes.push(vec![(f, 1.0), (flows, 20.0 + f as f64), (other, 15.0)]);
        }
        lanes.extend((flows + 1..m).map(|l| vec![(l, 1.0)]));
        let cols = Compressed::from_lanes(&lanes);
        let basis: Vec<usize> = (0..m).collect();
        let lu = SparseLu::factor(&cols, &basis).expect("nonsingular");
        lu.check_invariants(&cols, &basis);
        let nnz: usize = basis.iter().map(|&j| cols.lane_len(j)).sum();
        assert_eq!(lu.fill_nnz(), nnz);
    }

    /// A column singleton below [`PIVOT_MIN`] is not pivoted by the
    /// triangular pass; the nucleus meets it and finds the basis
    /// singular. Column 1 is a singleton on row 0 once column 0 pivots
    /// row 1.
    #[test]
    fn a_tiny_singleton_falls_through_to_the_nucleus() {
        let lanes = |tiny: f64| {
            Compressed::from_lanes(&[
                vec![(1, 1.0)],
                vec![(0, tiny), (1, 1.0)],
                vec![(0, 1.0), (2, 1.0)],
            ])
        };
        let basis = [0usize, 1, 2];
        assert!(SparseLu::factor(&lanes(PIVOT_MIN / 10.0), &basis).is_none());
        let cols = lanes(PIVOT_MIN * 10.0);
        let lu = SparseLu::factor(&cols, &basis).expect("above the floor");
        lu.check_invariants(&cols, &basis);
    }

    #[test]
    fn permuted_identity_is_fill_free() {
        let m = 4;
        // Columns are unit vectors in scrambled order.
        let perm = [2usize, 0, 3, 1];
        let mut dense = vec![0.0; m * m];
        for (j, &i) in perm.iter().enumerate() {
            dense[i * m + j] = 1.0;
        }
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|j| vec![(perm[j], 1.0)]).collect();
        let cols = Compressed::from_lanes(&cols);
        let basis: Vec<usize> = (0..m).collect();
        let lu = SparseLu::factor(&cols, &basis).unwrap();
        lu.check_invariants(&cols, &basis);
        assert_eq!(lu.fill_nnz(), m, "unit basis must factor fill-free");
        check_roundtrip(&dense, m);
    }

    #[test]
    fn small_dense_roundtrip() {
        let dense = [
            2.0, 1.0, 0.0, //
            1.0, 3.0, 1.0, //
            0.0, 1.0, 4.0,
        ];
        check_roundtrip(&dense, 3);
    }

    #[test]
    fn needs_row_pivoting() {
        // Leading entry zero: plain no-pivot elimination would divide
        // by zero.
        let dense = [
            0.0, 1.0, //
            1.0, 0.5,
        ];
        check_roundtrip(&dense, 2);
    }

    #[test]
    fn singular_detected() {
        let cols = Compressed::from_lanes(&[vec![(0, 1.0), (1, 1.0)], vec![(0, 2.0), (1, 2.0)]]);
        let basis = vec![0usize, 1];
        assert!(SparseLu::factor(&cols, &basis).is_none());
    }

    #[test]
    fn empty_basis() {
        let cols = Compressed::from_lanes(&[]);
        let lu = SparseLu::factor(&cols, &[]).unwrap();
        lu.check_invariants(&cols, &[]);
        assert_eq!(lu.fill_nnz(), 0);
        let mut v: Vec<f64> = Vec::new();
        let mut tmp: Vec<f64> = Vec::new();
        lu.solve(&mut v, &mut tmp);
        lu.solve_transpose(&mut v, &mut tmp);
    }
}
