//! Preconditioners.
//!
//! Standard GMRES (the inner solver) is unpreconditioned in the paper's
//! experiments; the flexible machinery, however, is *about*
//! preconditioning — FT-GMRES treats the entire inner solve as a
//! (changing) preconditioner. This module provides the concrete
//! preconditioners of the sequel paper's opaque-preconditioner model
//! (Jacobi, ILU(0), Chebyshev), the [`PrecondKind`] axis threaded
//! through campaigns and the solve service, and the fault surface for
//! injecting SDC into preconditioner *application*.
//!
//! # Why right/flexible preconditioning preserves the residual-bound detector
//!
//! All solvers here precondition from the **right**: they run the Krylov
//! iteration on `B = A·M⁻¹`, solve `B u = b`, and recover `x = M⁻¹ u`.
//! The residual is invariant under this substitution —
//! `b − A x = b − A M⁻¹ u = b − B u` — so the *true* residual the
//! reliable outer layer checks is exactly the quantity the inner
//! iteration drives down; no preconditioned-norm translation is needed
//! (unlike left preconditioning, which reports `‖M⁻¹r‖`). The
//! Hessenberg-entry detector survives for the same reason: the inner
//! orthogonalization coefficients are now entries of the Arnoldi
//! projection of `B`, bounded by `‖B‖₂ ≤ ‖A‖₂·‖M⁻¹‖₂`, so
//! [`crate::detector::SdcDetector::with_preconditioned_bound`] scales
//! the paper's `‖A‖_F` bound by a deterministic power-iteration estimate
//! of `‖M⁻¹‖₂` (times a safety factor) and the detection story — any
//! orthogonalization value above the operator-norm bound must be
//! corrupt — carries over verbatim to the preconditioned operator.

use crate::fgmres::{FlexiblePreconditioner, PrecondReport};
use crate::operator::{FnOperator, LinearOperator};
use sdc_faults::{FaultInjector, Kernel, Site};
use sdc_sparse::ilu::Ilu0Factor;
use sdc_sparse::norm_est::norm2_est;
use sdc_sparse::CsrMatrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// One unreliable preconditioner application inside an inner solve.
/// Deterministic channel: the apply ordinals are a pure function of the
/// solve trajectory (the inner GMRES applies its operator sequentially).
static EV_APPLY: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "precond.apply", channel: sdc_obs::Channel::Det };

/// The right-preconditioned operator `B = A·M⁻¹`: `m_inv(u, z, k)`
/// computes `z = M⁻¹u` for the `k`-th apply of `B` (1-based). The
/// solvers apply their operator strictly sequentially, so the ordinals
/// are deterministic and the one `M⁻¹u` buffer's lock is uncontended
/// (atomic and locked only because [`FnOperator`] must be `Sync`).
pub(crate) fn right_preconditioned<'a, A, M>(a: &'a A, m_inv: M) -> impl LinearOperator + 'a
where
    A: LinearOperator + ?Sized,
    M: Fn(&[f64], &mut [f64], usize) + Sync + 'a,
{
    let n = a.nrows();
    let applies = AtomicUsize::new(0);
    let m_u = Mutex::new(vec![0.0; n]);
    FnOperator::square(n, move |u: &[f64], y: &mut [f64]| {
        let ordinal = applies.fetch_add(1, Ordering::Relaxed) + 1;
        let mut m_u = m_u.lock().unwrap_or_else(|e| e.into_inner());
        m_inv(u, &mut m_u, ordinal);
        a.apply(&m_u, y);
    })
}

/// Jacobi (diagonal) preconditioner: `z_i = q_i / d_i`.
#[derive(Clone, Debug)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds from a matrix diagonal. Zero or non-finite diagonal entries
    /// fall back to 1 (identity on that row), keeping the preconditioner
    /// total — the solver, not the preconditioner, reports singularity.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let inv_diag =
            diag.iter().map(|&d| if d != 0.0 && d.is_finite() { 1.0 / d } else { 1.0 }).collect();
        Self { inv_diag }
    }

    /// Builds from a sparse matrix.
    pub fn from_matrix(a: &sdc_sparse::CsrMatrix) -> Self {
        Self::from_diagonal(&a.diagonal())
    }

    /// Computes `z = D⁻¹ q`. Element-wise, bitwise
    /// thread-count-independent.
    pub fn solve(&self, q: &[f64], z: &mut [f64]) {
        assert_eq!(q.len(), self.inv_diag.len(), "jacobi: size mismatch");
        for i in 0..q.len() {
            z[i] = q[i] * self.inv_diag[i];
        }
    }
}

/// Default polynomial degree for [`ChebyshevPrecond`]: applications of
/// `A` per preconditioner solve.
pub const CHEBYSHEV_DEFAULT_DEGREE: usize = 10;

/// How far below the largest eigenvalue estimate the Chebyshev interval
/// is anchored: `λ_min := λ_max / 30` (the classic smoother default —
/// robust when the true smallest eigenvalue is unknown).
const CHEBYSHEV_EIG_RATIO: f64 = 30.0;

/// Headroom applied to the power-iteration `λ_max` estimate (which
/// converges from *below*; Chebyshev requires the interval to cover the
/// spectrum from above).
const CHEBYSHEV_EIG_BOOST: f64 = 1.1;

/// Chebyshev polynomial preconditioner: `z = p(A)·q ≈ A⁻¹q` via the
/// three-term Chebyshev semi-iteration on the interval
/// `[λ_max/ratio, λ_max]`.
///
/// This is the "opaque" preconditioner of the sequel paper's model: from
/// the solver's point of view it is a black box built from `degree`
/// unmonitored applications of `A` plus vector updates — exactly the
/// kind of component whose silent corruption the preconditioned detector
/// bound has to catch from the outside.
///
/// An apply is one [`sdc_dense::team()`] region: each polynomial step is a
/// phase in which every row computes `(A·z)ᵢ`
/// ([`CsrMatrix::for_each_row_dot`]) and updates `dᵢ` and `zᵢ` right
/// away. Every row is written by one thread with the same floating-point
/// operations in the same order, so the application is bitwise
/// deterministic at any thread count.
#[derive(Clone, Debug)]
pub struct ChebyshevPrecond {
    a: CsrMatrix,
    degree: usize,
    /// Chebyshev interval center `(λ_max + λ_min)/2`.
    theta: f64,
    /// Chebyshev interval half-width `(λ_max − λ_min)/2`.
    delta: f64,
}

impl ChebyshevPrecond {
    /// Builds a degree-`degree` Chebyshev preconditioner for `a`,
    /// estimating `λ_max` by deterministic power iteration
    /// ([`sdc_sparse::norm_est::norm2_est`]).
    pub fn new(a: &CsrMatrix, degree: usize) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "chebyshev: matrix must be square");
        assert!(degree >= 1, "chebyshev: degree must be >= 1");
        let lmax = (norm2_est(a, 30, 1e-10).value * CHEBYSHEV_EIG_BOOST).max(1e-300);
        let lmin = lmax / CHEBYSHEV_EIG_RATIO;
        Self { a: a.clone(), degree, theta: (lmax + lmin) / 2.0, delta: (lmax - lmin) / 2.0 }
    }

    /// The polynomial degree (applications of `A` per solve).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The interval the polynomial targets, as `(θ, δ)`: center and
    /// half-width of `[λ_min, λ_max]`, with `λ_max` the boosted
    /// power-iteration estimate and `λ_min` a fixed fraction of it.
    pub fn interval(&self) -> (f64, f64) {
        (self.theta, self.delta)
    }

    /// Computes `z = p(A)·q`.
    ///
    /// Step 1 sets `z₁ = d₁ = q/θ`; each later step is one phase of a
    /// [`sdc_dense::team()`] region over the chunks of `d`, fusing the
    /// `A`-apply into the update row by row:
    /// `dᵢ ← dd·dᵢ + dr·(qᵢ − (A·z_old)ᵢ)`, `z_newᵢ = z_oldᵢ + dᵢ`.
    pub fn solve(&self, q: &[f64], z: &mut [f64]) {
        let n = self.a.nrows();
        assert_eq!(q.len(), n, "chebyshev: rhs length");
        assert_eq!(z.len(), n, "chebyshev: output length");
        let sigma = self.theta / self.delta;
        let mut rho = 1.0 / sigma;
        // (dd, dr) of steps 2..=degree: the scalar half of the recurrence.
        let coeffs: Vec<(f64, f64)> = (2..=self.degree)
            .map(|_| {
                let rho_new = 1.0 / (2.0 * sigma - rho);
                let c = (rho_new * rho, 2.0 * rho_new / self.delta);
                rho = rho_new;
                c
            })
            .collect();
        let phases = coeffs.len();
        // k = 1: z₁ = d₁ = q/θ (x₀ = 0 ⇒ r₀ = q).
        let mut d: Vec<f64> = q.iter().map(|&v| v / self.theta).collect();
        // Phase `p` writes buffer `(phases − 1 − p) % 2` (0 is `z`, 1 is
        // `w`) from the other one, so the last phase writes `z` and z₁
        // starts in buffer `phases % 2`.
        let mut w = d.clone();
        if phases % 2 == 0 {
            z.copy_from_slice(&d);
        }
        let bufs = ZBuffers { ptrs: [z.as_mut_ptr(), w.as_mut_ptr()], len: n };
        let step = |p: usize, b: usize, d: &mut [f64]| {
            let (dd, dr) = coeffs[p];
            let lo = b * sdc_dense::BLOCK;
            // SAFETY: the team hands chunk `b` of phase `p` to this thread
            // alone, so only it touches rows `lo..lo + d.len()` of the
            // written buffer, and every phase-`p` chunk writes that same
            // buffer, never the one read here.
            let (old, new) = unsafe { bufs.phase((phases - 1 - p) % 2, lo, d.len()) };
            self.a.for_each_row_dot(lo..lo + d.len(), old, |r, az| {
                let i = r - lo;
                d[i] = dd * d[i] + dr * (q[r] - az);
                new[i] = old[r] + d[i];
            });
        };
        sdc_dense::team(&mut d, &step, |team| (0..phases).for_each(|_| team.run()));
    }
}

/// The two `z` buffers of a [`ChebyshevPrecond::solve`] team, shared as
/// raw pointers: in every phase each participant reads all of one buffer
/// and writes only its own chunk of the other.
struct ZBuffers {
    ptrs: [*mut f64; 2],
    len: usize,
}

// SAFETY: `ptrs` point at two live, disjoint `len`-long `f64` buffers
// that `solve` borrows mutably for longer than its team region, which
// joins every helper before it returns. They are only dereferenced
// through `ZBuffers::phase`, whose contract keeps one phase's reads and
// writes on different buffers and each written chunk with one thread;
// the team's phase hand-off (Release/Acquire) orders the phases. `len`
// is never written.
unsafe impl Sync for ZBuffers {}

impl ZBuffers {
    /// The whole buffer `1 − dst` to read and chunk `lo..lo + len` of
    /// buffer `dst` to write.
    ///
    /// # Safety
    /// For the duration of the borrows, no one else may access that chunk
    /// of `dst` and no one may write buffer `1 − dst`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn phase(&self, dst: usize, lo: usize, len: usize) -> (&[f64], &mut [f64]) {
        assert!(lo + len <= self.len && dst < 2, "chebyshev: chunk out of range");
        // SAFETY: both pointers are valid for `self.len` elements (see the
        // `Sync` impl) and the assert keeps the chunk inside its buffer.
        (
            std::slice::from_raw_parts(self.ptrs[1 - dst], self.len),
            std::slice::from_raw_parts_mut(self.ptrs[dst].add(lo), len),
        )
    }
}

/// The preconditioner axis exposed to specs, CLIs and the solve
/// service — the `SparseFormat` pattern applied to preconditioning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PrecondKind {
    /// No preconditioning (the paper's original setup).
    #[default]
    None,
    /// Diagonal scaling.
    Jacobi,
    /// Incomplete LU with zero fill-in on the matrix pattern.
    Ilu0,
    /// Chebyshev polynomial in `A` — the opaque inner operator.
    Chebyshev,
}

impl PrecondKind {
    /// The spec/CLI string for this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            PrecondKind::None => "none",
            PrecondKind::Jacobi => "jacobi",
            PrecondKind::Ilu0 => "ilu0",
            PrecondKind::Chebyshev => "chebyshev",
        }
    }

    /// Parses a spec/CLI string.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(PrecondKind::None),
            "jacobi" => Ok(PrecondKind::Jacobi),
            "ilu0" => Ok(PrecondKind::Ilu0),
            "chebyshev" => Ok(PrecondKind::Chebyshev),
            other => Err(format!(
                "unknown preconditioner '{other}' (expected none|jacobi|ilu0|chebyshev)"
            )),
        }
    }

    /// Every kind, in wire order.
    pub fn all() -> [PrecondKind; 4] {
        [PrecondKind::None, PrecondKind::Jacobi, PrecondKind::Ilu0, PrecondKind::Chebyshev]
    }

    /// Builds the concrete preconditioner for `a`.
    pub fn build(&self, a: &CsrMatrix) -> Result<BuiltPrecond, String> {
        BuiltPrecond::build(*self, a)
    }
}

impl std::fmt::Display for PrecondKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A [`PrecondKind`] committed to a concrete matrix: the closed set of
/// preconditioners the campaign/server axes can name, applied through a
/// shared-state `&self` solve so one built instance serves any number of
/// concurrent solves.
#[derive(Clone, Debug)]
pub enum BuiltPrecond {
    /// Identity (no preconditioning).
    None,
    /// Diagonal scaling.
    Jacobi(JacobiPrecond),
    /// ILU(0) triangular solves.
    Ilu0(Ilu0Factor),
    /// Chebyshev polynomial applications.
    Chebyshev(ChebyshevPrecond),
}

impl BuiltPrecond {
    /// Builds `kind` for `a`. The only fallible kind is ILU(0) (zero or
    /// structurally missing pivot).
    pub fn build(kind: PrecondKind, a: &CsrMatrix) -> Result<Self, String> {
        Ok(match kind {
            PrecondKind::None => BuiltPrecond::None,
            PrecondKind::Jacobi => BuiltPrecond::Jacobi(JacobiPrecond::from_matrix(a)),
            PrecondKind::Ilu0 => BuiltPrecond::Ilu0(
                Ilu0Factor::factor(a).map_err(|e| format!("precond build failed: {e}"))?,
            ),
            PrecondKind::Chebyshev => {
                BuiltPrecond::Chebyshev(ChebyshevPrecond::new(a, CHEBYSHEV_DEFAULT_DEGREE))
            }
        })
    }

    /// The axis value this instance was built from.
    pub fn kind(&self) -> PrecondKind {
        match self {
            BuiltPrecond::None => PrecondKind::None,
            BuiltPrecond::Jacobi(_) => PrecondKind::Jacobi,
            BuiltPrecond::Ilu0(_) => PrecondKind::Ilu0,
            BuiltPrecond::Chebyshev(_) => PrecondKind::Chebyshev,
        }
    }

    /// True for the identity (`none`) kind.
    pub fn is_none(&self) -> bool {
        matches!(self, BuiltPrecond::None)
    }

    /// Computes `z = M⁻¹ q`. Every variant is element-wise, sequential
    /// triangular sweeps, or a thread team writing each row from one
    /// thread — all bitwise thread-count-independent.
    pub fn solve(&self, q: &[f64], z: &mut [f64]) {
        match self {
            BuiltPrecond::None => z.copy_from_slice(q),
            BuiltPrecond::Jacobi(p) => p.solve(q, z),
            BuiltPrecond::Ilu0(p) => p.solve(q, z),
            BuiltPrecond::Chebyshev(p) => p.solve(q, z),
        }
    }

    /// Deterministic lower-bound estimate of `‖M⁻¹‖₂` by `iters` power
    /// iterations of `M⁻¹` from a fixed quasi-random start vector (the
    /// multiplier in the preconditioned detector bound). `n` is the
    /// operator order; the `none` kind is exactly 1.
    pub fn inv_norm_est(&self, n: usize, iters: usize) -> f64 {
        if self.is_none() || n == 0 {
            return 1.0;
        }
        // Same deterministic start vector as sdc_sparse::norm_est.
        let mut x: Vec<f64> = (0..n).map(|i| ((i as f64 + 1.0) * 0.754_877).sin() + 0.25).collect();
        let nx = sdc_dense::vector::nrm2(&x);
        if nx > 0.0 {
            for v in &mut x {
                *v /= nx;
            }
        }
        let mut z = vec![0.0; n];
        let mut est = 1.0;
        for _ in 0..iters {
            self.solve(&x, &mut z);
            let nz = sdc_dense::vector::nrm2(&z);
            if nz == 0.0 || !nz.is_finite() {
                break;
            }
            est = nz;
            for i in 0..n {
                x[i] = z[i] / nz;
            }
        }
        est
    }
}

/// A built preconditioner is a constant flexible one: every `M_j` is the
/// same `M`, and the apply reports no inner work.
impl FlexiblePreconditioner for &BuiltPrecond {
    fn apply_flexible(
        &mut self,
        _outer_iteration: usize,
        q: &[f64],
        z: &mut [f64],
    ) -> PrecondReport {
        self.solve(q, z);
        PrecondReport::default()
    }
    fn name(&self) -> &'static str {
        self.kind().as_str()
    }
}

/// The opaque-preconditioner fault surface: wraps a [`BuiltPrecond`]
/// with a [`FaultInjector`], implementing the sequel paper's two
/// corruption models at `Kernel::Precond` sites:
///
/// * **Stored-factor corruption** (ILU(0)): on the first application,
///   every stored factor slot is offered to the injector at
///   `Site { kernel: Precond, loop_index: slot + 1 }` (iteration
///   coordinates 0 — the corruption is not tied to an iteration, it
///   *persists* for the lifetime of this wrapper, i.e. one solve).
/// * **Per-apply transient flips** (Jacobi/Chebyshev): after each
///   application, every output element is offered at
///   `Site { kernel: Precond, outer_iteration: s, inner_solve: s,
///   inner_iteration: apply ordinal, loop_index: element + 1 }`.
///
/// Injectors whose predicates target other kernels reject these sites
/// without locking, so arming the surface costs nothing on MGS-targeted
/// campaigns.
pub struct FaultedPrecond<'a> {
    base: &'a BuiltPrecond,
    injector: &'a dyn FaultInjector,
    /// Lazily corrupted stored-factor copy (`Some` only when the
    /// injector actually fired on a factor slot). Lazy so the injection
    /// is recorded during — and attributed to — the first inner solve.
    corrupted: OnceLock<Option<BuiltPrecond>>,
}

impl<'a> FaultedPrecond<'a> {
    /// Arms `base` with `injector`.
    pub fn new(base: &'a BuiltPrecond, injector: &'a dyn FaultInjector) -> Self {
        Self { base, injector, corrupted: OnceLock::new() }
    }

    /// The preconditioner actually applied: the corrupted stored-factor
    /// copy when the injector fired on one, the clean base otherwise.
    fn effective(&self) -> &BuiltPrecond {
        match self.corrupted.get_or_init(|| self.corrupt_stored_factors()) {
            Some(p) => p,
            None => self.base,
        }
    }

    fn corrupt_stored_factors(&self) -> Option<BuiltPrecond> {
        let BuiltPrecond::Ilu0(f) = self.base else { return None };
        let mut corrupted: Option<Ilu0Factor> = None;
        for (k, &v) in f.values().iter().enumerate() {
            let site = Site {
                kernel: Kernel::Precond,
                outer_iteration: 0,
                inner_solve: 0,
                inner_iteration: 0,
                loop_index: k + 1,
            };
            let c = self.injector.corrupt(site, v);
            if c.to_bits() != v.to_bits() {
                corrupted.get_or_insert_with(|| f.clone()).values_mut()[k] = c;
            }
        }
        corrupted.map(BuiltPrecond::Ilu0)
    }

    /// One preconditioner application inside inner solve `solve`, the
    /// `apply_ordinal`-th operator apply of that solve — the unreliable
    /// path, with transient output flips offered to the injector.
    pub fn solve_faulted(&self, q: &[f64], z: &mut [f64], solve: usize, apply_ordinal: usize) {
        let p = self.effective();
        if sdc_obs::enabled() {
            sdc_obs::Event::new(&EV_APPLY)
                .str("kind", p.kind().as_str().to_string())
                .u64("solve", solve as u64)
                .u64("ordinal", apply_ordinal as u64)
                .bool("factors_corrupted", !std::ptr::eq(p, self.base))
                .emit();
        }
        p.solve(q, z);
        if matches!(p.kind(), PrecondKind::Jacobi | PrecondKind::Chebyshev) {
            for (i, v) in z.iter_mut().enumerate() {
                let site = Site {
                    kernel: Kernel::Precond,
                    outer_iteration: solve,
                    inner_solve: solve,
                    inner_iteration: apply_ordinal,
                    loop_index: i + 1,
                };
                *v = self.injector.corrupt(site, *v);
            }
        }
    }

    /// One application without transient flips (the final `x = M⁻¹u`
    /// mapping). Persistent stored-factor corruption still applies: the
    /// factors are what they are for the whole solve.
    pub fn solve_clean(&self, q: &[f64], z: &mut [f64]) {
        self.effective().solve(q, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_faults::campaign::FaultClass;
    use sdc_faults::trigger::{LoopPosition, SitePredicate, Trigger};
    use sdc_faults::{NoFaults, SingleFaultInjector};
    use sdc_sparse::gallery;

    #[test]
    fn jacobi_divides_by_diagonal() {
        let p = JacobiPrecond::from_diagonal(&[2.0, 4.0, 0.5]);
        let mut z = [0.0; 3];
        p.solve(&[2.0, 4.0, 0.5], &mut z);
        assert_eq!(z, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn jacobi_zero_diagonal_falls_back_to_identity() {
        let p = JacobiPrecond::from_diagonal(&[0.0, 2.0]);
        let mut z = [0.0; 2];
        p.solve(&[3.0, 4.0], &mut z);
        assert_eq!(z, [3.0, 2.0]);
    }

    #[test]
    fn jacobi_from_matrix() {
        let a = sdc_sparse::gallery::poisson1d(3);
        let p = JacobiPrecond::from_matrix(&a);
        let mut z = [0.0; 3];
        p.solve(&[2.0, 2.0, 2.0], &mut z);
        assert_eq!(z, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn precond_kind_strings_round_trip() {
        for k in PrecondKind::all() {
            assert_eq!(PrecondKind::parse(k.as_str()).unwrap(), k);
            assert_eq!(format!("{k}"), k.as_str());
        }
        let err = PrecondKind::parse("amg").unwrap_err();
        assert!(err.contains("unknown preconditioner 'amg'"), "{err}");
        assert_eq!(PrecondKind::default(), PrecondKind::None);
    }

    fn b_for(a: &CsrMatrix) -> Vec<f64> {
        let ones = vec![1.0; a.ncols()];
        let mut b = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut b);
        b
    }

    /// `‖b − A·M⁻¹b‖₂ / ‖b‖₂`: how far one application of `p` gets from
    /// the zero guess.
    fn one_apply_rel_residual(a: &CsrMatrix, b: &[f64], p: &BuiltPrecond) -> f64 {
        let mut z = vec![0.0; a.nrows()];
        p.solve(b, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        let mut r = vec![0.0; a.nrows()];
        crate::operator::residual(a, b, &z, &mut r);
        sdc_dense::vector::nrm2(&r) / sdc_dense::vector::nrm2(b)
    }

    #[test]
    fn chebyshev_reduces_residual_on_poisson() {
        let a = gallery::poisson2d(12);
        let p = PrecondKind::Chebyshev.build(&a).unwrap();
        let rel = one_apply_rel_residual(&a, &b_for(&a), &p);
        assert!(rel < 0.8, "Chebyshev application made no progress: rel residual {rel}");
    }

    #[test]
    fn ilu0_residual_small_on_poisson2d() {
        // On the 5-point stencil ILU(0) is approximate, but one
        // application of M⁻¹ must substantially reduce the residual
        // relative to the zero guess.
        let a = gallery::poisson2d(12);
        let p = PrecondKind::Ilu0.build(&a).unwrap();
        let rel = one_apply_rel_residual(&a, &b_for(&a), &p);
        assert!(rel < 0.5, "ILU(0) preconditioner too weak: rel residual {rel}");
    }

    #[test]
    fn ilu0_accelerates_gmres() {
        use crate::gmres::{gmres_solve, GmresConfig};
        let a = gallery::convection_diffusion_2d(16, 3.0, 1.0);
        let b = b_for(&a);
        let cfg = GmresConfig { tol: 1e-9, max_iters: 300, ..Default::default() };
        let (_, plain) = gmres_solve(&a, &b, None, &cfg);

        // Right-preconditioned operator A·M⁻¹ solved for u, x = M⁻¹u.
        let p = PrecondKind::Ilu0.build(&a).unwrap();
        assert!(matches!(p, BuiltPrecond::Ilu0(_)));
        let op = right_preconditioned(&a, |u, z, _| p.solve(u, z));
        let (u, pre) = gmres_solve(&op, &b, None, &cfg);
        let mut x = vec![0.0; a.nrows()];
        p.solve(&u, &mut x);
        assert!(pre.outcome.is_converged());
        let err: f64 = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "preconditioned solution error {err}");
        assert!(
            pre.iterations * 2 < plain.iterations,
            "ILU(0) must at least halve the iterations: {} vs {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn built_precond_solve_matches_trait_apply() {
        let a = gallery::poisson2d(8);
        let n = a.nrows();
        let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        for kind in PrecondKind::all() {
            let built = kind.build(&a).unwrap();
            assert_eq!(built.kind(), kind);
            let mut z1 = vec![0.0; n];
            built.solve(&q, &mut z1);
            // The flexible adapter is the plain solve at every outer
            // iteration, with nothing to report.
            let mut by_ref = &built;
            assert_eq!(by_ref.name(), kind.as_str());
            for j in [1, 2, 7] {
                let mut z2 = vec![f64::NAN; n];
                let rep = by_ref.apply_flexible(j, &q, &mut z2);
                for i in 0..n {
                    assert_eq!(z1[i].to_bits(), z2[i].to_bits(), "{kind} j={j} i={i}");
                }
                assert_eq!(format!("{rep:?}"), format!("{:?}", PrecondReport::default()));
            }
            assert!(built.inv_norm_est(n, 8) >= 0.0);
        }
        assert!((BuiltPrecond::None.inv_norm_est(5, 8) - 1.0).abs() == 0.0);
    }

    #[test]
    fn faulted_precond_transient_flip_fires_once_at_the_site() {
        let a = gallery::poisson2d(6);
        let n = a.nrows();
        let built = PrecondKind::Chebyshev.build(&a).unwrap();
        let predicate = SitePredicate {
            kernel: Some(Kernel::Precond),
            outer_iteration: None,
            inner_solve: Some(2),
            inner_iteration: Some(3),
            loop_position: LoopPosition::Index(1),
        };
        let inj = SingleFaultInjector::new(FaultClass::Huge.model(), Trigger::once(predicate));
        let fp = FaultedPrecond::new(&built, &inj);
        let q = vec![1.0; n];
        let mut clean = vec![0.0; n];
        built.solve(&q, &mut clean);
        let mut z = vec![0.0; n];
        // Wrong solve/apply coordinates: no firing.
        fp.solve_faulted(&q, &mut z, 1, 3);
        assert_eq!(inj.records().len(), 0);
        // Matching coordinates: exactly one transient flip on element 1.
        fp.solve_faulted(&q, &mut z, 2, 3);
        assert_eq!(inj.records().len(), 1);
        assert_ne!(z[0].to_bits(), clean[0].to_bits());
        assert_eq!(z[1].to_bits(), clean[1].to_bits());
        // Once-mode: the same site again stays clean.
        fp.solve_faulted(&q, &mut z, 2, 3);
        assert_eq!(inj.records().len(), 1);
        assert_eq!(z[0].to_bits(), clean[0].to_bits());
    }

    #[test]
    fn faulted_precond_ilu_stored_factor_corruption_persists() {
        let a = gallery::poisson2d(6);
        let n = a.nrows();
        let built = PrecondKind::Ilu0.build(&a).unwrap();
        let predicate = SitePredicate {
            kernel: Some(Kernel::Precond),
            outer_iteration: None,
            inner_solve: None,
            inner_iteration: None,
            loop_position: LoopPosition::Index(1),
        };
        let inj = SingleFaultInjector::new(FaultClass::Huge.model(), Trigger::once(predicate));
        let fp = FaultedPrecond::new(&built, &inj);
        let q = vec![1.0; n];
        let mut clean = vec![0.0; n];
        built.solve(&q, &mut clean);
        let mut z = vec![0.0; n];
        fp.solve_faulted(&q, &mut z, 1, 1);
        assert_eq!(inj.records().len(), 1, "stored-factor sweep commits exactly one fault");
        assert!(z.iter().zip(&clean).any(|(p, q)| p.to_bits() != q.to_bits()));
        // The corruption persists across applies (including the clean
        // final mapping) without further injections.
        let mut z2 = vec![0.0; n];
        fp.solve_clean(&q, &mut z2);
        assert_eq!(inj.records().len(), 1);
        for i in 0..n {
            assert_eq!(z[i].to_bits(), z2[i].to_bits());
        }
    }

    #[test]
    fn faulted_precond_with_no_faults_is_bitwise_clean() {
        let a = gallery::poisson2d(6);
        let n = a.nrows();
        for kind in PrecondKind::all() {
            let built = kind.build(&a).unwrap();
            let fp = FaultedPrecond::new(&built, &NoFaults);
            let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
            let mut clean = vec![0.0; n];
            built.solve(&q, &mut clean);
            let mut z = vec![0.0; n];
            fp.solve_faulted(&q, &mut z, 1, 1);
            for i in 0..n {
                assert_eq!(z[i].to_bits(), clean[i].to_bits(), "{kind}");
            }
        }
    }
}
