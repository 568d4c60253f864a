//! Product-form basis inverse: a file of eta matrices over the unit basis.
//!
//! Each pivot that brings column `a` into basis position `r` appends one
//! eta `E` (the identity except for column `r`, which holds
//! `1/α_r` and `−α_i/α_r`, where `α = B⁻¹a`), so `B⁻¹ = E_k ⋯ E_1`.
//! [`EtaFile::ftran`] applies the file forwards (`B⁻¹v`),
//! [`EtaFile::btran`] backwards (`vᵀB⁻¹`). Both skip the zero work the
//! 0/±1 Phase I programs leave everywhere.

/// Entries below this magnitude are dropped when an eta is stored.
const DROP_TOL: f64 = 1e-12;

/// The eta matrices since the last rebuild, stored back to back.
#[derive(Clone, Debug, Default)]
pub(crate) struct EtaFile {
    /// Pivot row of each eta.
    row: Vec<usize>,
    /// Pivot value `α_r` of each eta.
    pivot: Vec<f64>,
    /// `start[k]..start[k + 1]` indexes eta `k`'s off-pivot entries.
    start: Vec<usize>,
    index: Vec<usize>,
    value: Vec<f64>,
}

impl EtaFile {
    /// Forgets every eta (the basis inverse becomes the identity).
    pub(crate) fn clear(&mut self) {
        self.row.clear();
        self.pivot.clear();
        self.start.clear();
        self.index.clear();
        self.value.clear();
    }

    /// Appends the eta of pivoting the transformed column `alpha` (dense,
    /// one entry per row) into row `r`.
    pub(crate) fn push(&mut self, r: usize, alpha: &[f64]) {
        self.start.push(self.index.len());
        self.row.push(r);
        self.pivot.push(alpha[r]);
        for (i, &a) in alpha.iter().enumerate() {
            if i != r && a.abs() > DROP_TOL {
                self.index.push(i);
                self.value.push(a);
            }
        }
    }

    fn entries(&self, k: usize) -> std::ops::Range<usize> {
        let end = self.start.get(k + 1).copied().unwrap_or(self.index.len());
        self.start[k]..end
    }

    /// `v ← B⁻¹v`.
    pub(crate) fn ftran(&self, v: &mut [f64]) {
        for k in 0..self.row.len() {
            let r = self.row[k];
            if v[r] == 0.0 {
                continue;
            }
            let xr = v[r] / self.pivot[k];
            v[r] = xr;
            for e in self.entries(k) {
                v[self.index[e]] -= self.value[e] * xr;
            }
        }
    }

    /// `vᵀ ← vᵀB⁻¹`.
    pub(crate) fn btran(&self, v: &mut [f64]) {
        for k in (0..self.row.len()).rev() {
            let r = self.row[k];
            let mut s = v[r];
            for e in self.entries(k) {
                s -= self.value[e] * v[self.index[e]];
            }
            v[r] = s / self.pivot[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `B = [[2, 1], [0, 1]]` built by pivoting `(2, 0)` into row 0 and
    /// then `(1, 1)` into row 1.
    fn two_pivots() -> EtaFile {
        let mut f = EtaFile::default();
        let mut a = vec![2.0, 0.0];
        f.ftran(&mut a);
        f.push(0, &a);
        let mut b = vec![1.0, 1.0];
        f.ftran(&mut b);
        f.push(1, &b);
        f
    }

    #[test]
    fn ftran_solves_b_x_equals_v() {
        let f = two_pivots();
        // B x = (3, 1)  ⇒  x = (1, 1).
        let mut v = vec![3.0, 1.0];
        f.ftran(&mut v);
        assert_eq!(v, vec![1.0, 1.0]);
    }

    #[test]
    fn btran_solves_yt_b_equals_vt() {
        let f = two_pivots();
        // yᵀB = (2, 3)  ⇒  y = (1, 2).
        let mut v = vec![2.0, 3.0];
        f.btran(&mut v);
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn an_empty_file_is_the_identity() {
        let mut f = two_pivots();
        f.clear();
        let mut v = vec![5.0, -1.0];
        f.ftran(&mut v);
        f.btran(&mut v);
        assert_eq!(v, vec![5.0, -1.0]);
    }
}
