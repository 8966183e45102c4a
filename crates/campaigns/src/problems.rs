//! The evaluation problems of §VII-A.

use sdc_gmres::precond::{BuiltPrecond, PrecondKind};
use sdc_sparse::gallery::{self, CircuitMnaConfig};
use sdc_sparse::{CsrMatrix, SellMatrix, SparseFormat};
use std::sync::OnceLock;

/// A named linear system `A x = b`.
pub struct Problem {
    /// Display name.
    pub name: String,
    /// The operator.
    pub a: CsrMatrix,
    /// Right-hand side. The paper does not state its choice; we use
    /// `b = A·1` so the exact solution is the ones vector and solution
    /// error is directly interpretable.
    pub b: Vec<f64>,
    /// Lazily-built SELL-C-σ engine; shared by every unit that solves
    /// this problem with `format = sell` (or `auto` resolving to SELL),
    /// so the conversion happens once per problem, not once per solve.
    sell: OnceLock<SellMatrix>,
    /// Cached `auto_format` verdict — the heuristic scans every row
    /// length, which must not re-run on each of a campaign's thousands
    /// of solves.
    auto: OnceLock<SparseFormat>,
    /// Lazily-built preconditioners, one slot per non-trivial
    /// [`PrecondKind`] (jacobi / ilu0 / chebyshev). A campaign's
    /// thousands of solves share one factorization; the setup cost
    /// (ILU elimination, Chebyshev eigenvalue estimate) is paid once.
    precond: [OnceLock<Result<BuiltPrecond, String>>; 3],
}

impl Problem {
    /// Builds a problem with `b = A·1`.
    pub fn with_ones_solution(name: impl Into<String>, a: CsrMatrix) -> Self {
        let ones = vec![1.0; a.ncols()];
        let mut b = vec![0.0; a.nrows()];
        a.par_spmv(&ones, &mut b);
        Self {
            name: name.into(),
            a,
            b,
            sell: OnceLock::new(),
            auto: OnceLock::new(),
            precond: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
        }
    }

    /// The preconditioner of `kind` for this problem, built on first use
    /// and cached. `PrecondKind::None` never fails and allocates nothing.
    pub fn precond(&self, kind: PrecondKind) -> Result<&BuiltPrecond, String> {
        static NONE: BuiltPrecond = BuiltPrecond::None;
        let slot = match kind {
            PrecondKind::None => return Ok(&NONE),
            PrecondKind::Jacobi => 0,
            PrecondKind::Ilu0 => 1,
            PrecondKind::Chebyshev => 2,
        };
        self.precond[slot]
            .get_or_init(|| BuiltPrecond::build(kind, &self.a))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The operator in the requested storage format (`Auto` resolves via
    /// [`sdc_sparse::auto_format`], computed once per problem). SELL
    /// SpMV is bitwise identical to CSR, so the choice can never change
    /// a solve result or an artifact byte — it is purely a performance
    /// knob.
    pub fn operator(&self, format: SparseFormat) -> &dyn sdc_gmres::operator::LinearOperator {
        match self.resolved_format(format) {
            SparseFormat::Sell => self.sell.get_or_init(|| SellMatrix::from_csr(&self.a)),
            _ => &self.a,
        }
    }

    /// The concrete engine [`Problem::operator`] picks for `format`.
    pub fn resolved_format(&self, format: SparseFormat) -> SparseFormat {
        match format {
            SparseFormat::Auto => *self.auto.get_or_init(|| sdc_sparse::auto_format(&self.a)),
            concrete => concrete,
        }
    }
}

/// The paper's first problem: `gallery('poisson',m)`. `m = 100` gives the
/// Table-I matrix (10,000 rows, 49,600 nnz).
pub fn poisson(m: usize) -> Problem {
    Problem::with_ones_solution(format!("Poisson {m}x{m}"), gallery::poisson2d(m))
}

/// The paper's second problem: the synthetic `mult_dcop_03` stand-in
/// (`crates/sparse/src/gallery/circuit.rs`). The real `mult_dcop_03.mtx`
/// loads as [`crate::ProblemSpec::MatrixMarket`] with `equilibrate`.
///
/// The matrix is symmetrically equilibrated
/// (`D^{-1/2} A D^{-1/2}` with `D = diag(max(|a_ii|, ε))`): the raw
/// operator's 10+-decade diagonal dynamic range stalls *any*
/// unpreconditioned Krylov method, and the paper itself frames scaling
/// the system as part of making detection effective (§V). Equilibration
/// preserves nonsymmetry and leaves the matrix very ill-conditioned.
///
/// # Panics
/// Panics if `nodes < 2`.
pub fn dcop(nodes: usize, seed: u64) -> Problem {
    let mut a = gallery::circuit_mna(&CircuitMnaConfig { nodes, seed, ..Default::default() });
    equilibrate(&mut a);
    Problem::with_ones_solution(format!("synthetic circuit (n={nodes}, seed={seed})"), a)
}

/// Symmetric diagonal equilibration in place.
pub fn equilibrate(a: &mut CsrMatrix) {
    let d: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|&v| {
            let m = v.abs().max(1e-300);
            1.0 / m.sqrt()
        })
        .collect();
    a.scale_rows(&d);
    a.scale_cols(&d);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_problem_shape() {
        let p = poisson(10);
        assert_eq!(p.a.nrows(), 100);
        assert_eq!(p.b.len(), 100);
        // b = A*1: interior rows sum to 0, boundary rows positive.
        assert!(p.b.iter().all(|&v| v >= -1e-14));
    }

    #[test]
    fn dcop_problem_is_equilibrated_and_nonsymmetric() {
        let p = dcop(800, 7);
        let d = p.a.diagonal();
        for (i, &v) in d.iter().enumerate() {
            assert!((v.abs() - 1.0).abs() < 1e-9, "diag[{i}] = {v} not ±1 after equilibration");
        }
        assert!(!p.a.is_numerically_symmetric(1e-12));
    }

    #[test]
    fn operator_formats_agree_bitwise() {
        let p = poisson(20);
        let x: Vec<f64> = (0..p.a.ncols()).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut y_csr = vec![0.0; p.a.nrows()];
        p.operator(SparseFormat::Csr).apply(&x, &mut y_csr);
        for fmt in [SparseFormat::Sell, SparseFormat::Auto] {
            let mut y = vec![0.0; p.a.nrows()];
            p.operator(fmt).apply(&x, &mut y);
            assert!(
                y.iter().zip(&y_csr).all(|(a, b)| a.to_bits() == b.to_bits()),
                "format {fmt} diverged"
            );
        }
        assert_ne!(p.resolved_format(SparseFormat::Auto), SparseFormat::Auto);
    }

    #[test]
    fn precond_cache_builds_once_per_kind() {
        let p = poisson(10);
        for kind in PrecondKind::all() {
            let pc = p.precond(kind).expect("build must succeed on poisson");
            assert_eq!(pc.kind(), kind);
            let again = p.precond(kind).expect("cached");
            assert!(std::ptr::eq(pc, again), "{kind}: second call must hit the cache");
        }
    }

    #[test]
    fn equilibration_preserves_pattern() {
        let mut a = sdc_sparse::gallery::circuit_mna(&CircuitMnaConfig {
            nodes: 300,
            seed: 3,
            ..Default::default()
        });
        let nnz = a.nnz();
        equilibrate(&mut a);
        assert_eq!(a.nnz(), nnz);
        assert!(a.all_finite());
    }
}
