//! Memory-footprint accounting.
//!
//! The paper's §5.2 counts the persistent arrays of the IGR scheme:
//! `17 N + o(N)` scalars for a single-species run (5 state + 5 RK sub-step +
//! 5 RHS + Σ + elliptic RHS), plus one more Σ copy under Jacobi. The WENO
//! baseline stores reconstruction/flux intermediates and is ~25× larger.
//! [`MemoryReport`] makes that accounting auditable: every solver lists its
//! persistent arrays here, and the Table 3 / Fig. 8 harnesses derive maximum
//! problem sizes from it.

use crate::state::Fields;
use igr_prec::{Real, Storage};

/// One persistent array.
#[derive(Clone, Debug, PartialEq)]
pub struct MemEntry {
    pub name: String,
    /// Scalars stored (usually `n_total` of the grid, ghosts included).
    pub scalars: usize,
    /// Bytes actually occupied (scalars × storage width).
    pub bytes: usize,
}

/// Persistent-memory inventory of a solver configuration.
#[derive(Clone, Debug, Default)]
pub struct MemoryReport {
    pub entries: Vec<MemEntry>,
    /// Interior cells of the block the report was taken on.
    pub interior_cells: usize,
}

impl MemoryReport {
    pub fn new(interior_cells: usize) -> Self {
        MemoryReport {
            entries: Vec::new(),
            interior_cells,
        }
    }

    pub fn push(&mut self, name: impl Into<String>, scalars: usize, bytes: usize) {
        self.entries.push(MemEntry {
            name: name.into(),
            scalars,
            bytes,
        });
    }

    /// One row per field of a solver's three state buffers, named
    /// `q[v]`, `q_rk[v]` and `rhs[v]`.
    pub fn push_state_buffers<R: Real, S: Storage<R>, const NF: usize>(
        &mut self,
        [q, q_rk, rhs]: [&impl Fields<R, S, NF>; 3],
    ) {
        for (name, st) in [("q", q), ("q_rk", q_rk), ("rhs", rhs)] {
            for (v, f) in st.fields().into_iter().enumerate() {
                self.push(
                    format!("{name}[{v}]"),
                    f.shape().n_total(),
                    f.storage_bytes(),
                );
            }
        }
    }

    pub fn total_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    pub fn total_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.scalars).sum()
    }

    /// Persistent scalars per interior cell — the paper's "17" for IGR with
    /// Gauss–Seidel (18 with Jacobi). Ghost layers make this slightly larger
    /// on small blocks; it converges to the nominal count as blocks grow.
    pub fn scalars_per_cell(&self) -> f64 {
        self.total_scalars() as f64 / self.interior_cells as f64
    }

    pub fn bytes_per_cell(&self) -> f64 {
        self.total_bytes() as f64 / self.interior_cells as f64
    }

    /// Largest cell count fitting in `capacity_bytes` at this footprint.
    pub fn max_cells_in(&self, capacity_bytes: usize) -> usize {
        (capacity_bytes as f64 / self.bytes_per_cell()) as usize
    }

    /// Render as an aligned text table (used by the bench harnesses).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .max()
            .unwrap_or(4)
            .max(5);
        out.push_str(&format!(
            "{:width$}  {:>14}  {:>14}\n",
            "array", "scalars", "bytes"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{:width$}  {:>14}  {:>14}\n",
                e.name, e.scalars, e.bytes
            ));
        }
        out.push_str(&format!(
            "{:width$}  {:>14}  {:>14}  ({:.2} scalars/cell, {:.2} B/cell)\n",
            "TOTAL",
            self.total_scalars(),
            self.total_bytes(),
            self.scalars_per_cell(),
            self.bytes_per_cell()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_17n(n: usize) -> MemoryReport {
        let mut r = MemoryReport::new(n);
        for name in ["q", "q_rk", "rhs"] {
            for v in 0..5 {
                r.push(format!("{name}[{v}]"), n, n * 8);
            }
        }
        r.push("sigma", n, n * 8);
        r.push("igr_rhs", n, n * 8);
        r
    }

    #[test]
    fn seventeen_scalars_per_cell() {
        let r = report_17n(1000);
        assert_eq!(r.total_scalars(), 17_000);
        assert!((r.scalars_per_cell() - 17.0).abs() < 1e-12);
        assert!((r.bytes_per_cell() - 136.0).abs() < 1e-12);
    }

    #[test]
    fn max_cells_inverts_bytes_per_cell() {
        let r = report_17n(1000);
        // 136 B/cell -> 1 GiB holds ~7.9M cells.
        let cells = r.max_cells_in(1 << 30);
        assert_eq!(cells, ((1u64 << 30) / 136) as usize);
    }

    #[test]
    fn table_rendering_contains_totals() {
        let r = report_17n(10);
        let t = r.to_table();
        assert!(t.contains("TOTAL"));
        assert!(t.contains("sigma"));
        assert!(t.contains("17.00 scalars/cell"));
    }
}
