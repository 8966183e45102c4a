//! Storage-format selection: CSR vs SELL-C-σ, and the `auto` heuristic.
//!
//! Both engines compute bitwise-identical SpMV results (see [`crate::sell`]),
//! so the format is a pure performance knob: campaigns, benches and
//! binaries can switch it freely without perturbing a single artifact
//! byte. [`SparseFormat`] is the spec/CLI-level choice (`csr`, `sell`,
//! `auto`), [`FormatMatrix`] a matrix committed to one engine, and
//! [`auto_format`] the heuristic that resolves `auto` from the
//! row-length distribution.

use crate::csr::CsrMatrix;
use crate::sell::{self, SellMatrix};

/// Kernel/engine selection for one matrix. Deterministic channel: the
/// choice is a pure function of the matrix and the requested format —
/// never of the host ISA (`auto` resolution feeds the
/// lane width in, but the det-traced campaigns all sit below
/// [`AUTO_MIN_NNZ`] or far from the fill boundary, and the golden-gated
/// CI legs pin that the emitted bytes agree across `SDC_SIMD` modes).
static EV_FORMAT: sdc_obs::Callsite =
    sdc_obs::Callsite { name: "spmv.format", channel: sdc_obs::Channel::Det };

/// Emits the deterministic `spmv.format` selection event. Its `tier`
/// field is always `strict`, kept so the event's bytes stay stable.
fn trace_selection(requested: SparseFormat, chosen: SparseFormat, nrows: usize, nnz: usize) {
    if sdc_obs::enabled() {
        sdc_obs::Event::new(&EV_FORMAT)
            .str("requested", requested.as_str())
            .str("chosen", chosen.as_str())
            .str("tier", "strict")
            .u64("rows", nrows as u64)
            .u64("nnz", nnz as u64)
            .emit();
    }
}

/// The storage-format axis exposed to specs and CLIs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SparseFormat {
    /// Compressed sparse row (the workspace's original engine).
    Csr,
    /// SELL-C-σ with the default `C`/σ.
    Sell,
    /// Decide per matrix via [`auto_format`].
    #[default]
    Auto,
}

impl SparseFormat {
    /// The spec/CLI string for this format.
    pub fn as_str(&self) -> &'static str {
        match self {
            SparseFormat::Csr => "csr",
            SparseFormat::Sell => "sell",
            SparseFormat::Auto => "auto",
        }
    }

    /// Parses a spec/CLI string (`csr`, `sell` or `auto`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "csr" => Ok(SparseFormat::Csr),
            "sell" => Ok(SparseFormat::Sell),
            "auto" => Ok(SparseFormat::Auto),
            other => Err(format!("unknown sparse format '{other}' (expected csr|sell|auto)")),
        }
    }

    /// Resolves `Auto` against a concrete matrix; `Csr` and `Sell` map
    /// to themselves.
    pub fn resolve(&self, a: &CsrMatrix) -> SparseFormat {
        match self {
            SparseFormat::Auto => auto_format(a),
            concrete => *concrete,
        }
    }
}

impl std::fmt::Display for SparseFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// With scalar kernels, SELL fill ratios above this keep the matrix in
/// CSR: the padded slabs would stream >25% dead data per apply. Wider
/// kernels tolerate proportionally more padding — see
/// [`auto_thresholds`].
pub const AUTO_MAX_FILL: f64 = 1.25;

/// With scalar kernels, matrices under this many nonzeros stay in CSR:
/// their applies are too cheap for layout to matter. Equal to the
/// parallel-kernel cutoff so the scalar heuristic and the pool agree on
/// when SpMV cost becomes interesting.
pub const AUTO_MIN_NNZ: usize = crate::PAR_SPMV_MIN_NNZ;

/// The `auto` decision thresholds `(min_nnz, max_fill)` for a kernel
/// of `lanes` independent SIMD lanes. SELL eligibility widens with the
/// vector width: the lane-parallel kernel pays off on smaller matrices
/// (`min_nnz` shrinks by the lane count) and amortizes more padding
/// (the dead-data allowance above 1.0 grows by the lane count — at
/// AVX2's 4 lanes the fill gate is 2.0), because padding costs scale
/// with slots streamed while the arithmetic speedup scales with lanes.
pub fn auto_thresholds(lanes: usize) -> (usize, f64) {
    let lanes = lanes.max(1);
    (AUTO_MIN_NNZ / lanes, 1.0 + (AUTO_MAX_FILL - 1.0) * lanes as f64)
}

/// Picks CSR or SELL (never `Auto`) for a matrix from its row-length
/// distribution.
///
/// The decision variable is the SELL-C-σ *fill ratio*
/// ([`sell::fill_ratio_of`]): stored slots (padding included) per matrix
/// entry. It is the operational form of within-window row-length
/// variance — uniform rows give exactly 1.0, ragged rows inflate it —
/// so low-variance matrices (stencils, circulants) go to SELL and
/// high-variance ones (circuit MNA with dense supply rails) stay in
/// CSR. Both cutoffs are SIMD-aware ([`auto_thresholds`]): the wider
/// the dispatched kernel, the earlier SELL pays.
pub fn auto_format(a: &CsrMatrix) -> SparseFormat {
    let (min_nnz, max_fill) = auto_thresholds(crate::simd::active().lanes());
    if a.nnz() < min_nnz {
        return SparseFormat::Csr;
    }
    if sell::fill_ratio_of(a, sell::DEFAULT_CHUNK, sell::DEFAULT_SIGMA) <= max_fill {
        SparseFormat::Sell
    } else {
        SparseFormat::Csr
    }
}

/// A sparse matrix committed to one storage engine.
///
/// `LinearOperator` wiring lives in `sdc_gmres::operator`; this type
/// only owns the storage and dispatches the kernels.
#[derive(Clone, Debug, PartialEq)]
pub enum FormatMatrix {
    /// CSR storage.
    Csr(CsrMatrix),
    /// SELL-C-σ storage.
    Sell(SellMatrix),
}

impl FormatMatrix {
    /// Commits `a` to `format` (resolving `Auto`), consuming the CSR.
    pub fn from_csr(a: CsrMatrix, format: SparseFormat) -> Self {
        let chosen = format.resolve(&a);
        trace_selection(format, chosen, a.nrows(), a.nnz());
        match chosen {
            SparseFormat::Sell => FormatMatrix::Sell(SellMatrix::from_csr(&a)),
            _ => FormatMatrix::Csr(a),
        }
    }

    /// Like [`FormatMatrix::from_csr`] but borrowing (clones CSR storage
    /// when the choice is CSR).
    pub fn convert(a: &CsrMatrix, format: SparseFormat) -> Self {
        let chosen = format.resolve(a);
        trace_selection(format, chosen, a.nrows(), a.nnz());
        match chosen {
            SparseFormat::Sell => FormatMatrix::Sell(SellMatrix::from_csr(a)),
            _ => FormatMatrix::Csr(a.clone()),
        }
    }

    /// The engine this matrix is committed to (`Csr` or `Sell`).
    pub fn format(&self) -> SparseFormat {
        match self {
            FormatMatrix::Csr(_) => SparseFormat::Csr,
            FormatMatrix::Sell(_) => SparseFormat::Sell,
        }
    }

    /// Lossless CSR view (clones for the CSR variant).
    pub fn to_csr(&self) -> CsrMatrix {
        match self {
            FormatMatrix::Csr(a) => a.clone(),
            FormatMatrix::Sell(s) => s.to_csr(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        match self {
            FormatMatrix::Csr(a) => a.nrows(),
            FormatMatrix::Sell(s) => s.nrows(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        match self {
            FormatMatrix::Csr(a) => a.ncols(),
            FormatMatrix::Sell(s) => s.ncols(),
        }
    }

    /// Number of stored matrix entries (SELL padding excluded).
    pub fn nnz(&self) -> usize {
        match self {
            FormatMatrix::Csr(a) => a.nnz(),
            FormatMatrix::Sell(s) => s.nnz(),
        }
    }

    /// Serial SpMV; bitwise identical across the two variants.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        match self {
            FormatMatrix::Csr(a) => a.spmv(x, y),
            FormatMatrix::Sell(s) => s.spmv(x, y),
        }
    }

    /// Parallel SpMV; bitwise identical across variants and thread counts.
    pub fn par_spmv(&self, x: &[f64], y: &mut [f64]) {
        match self {
            FormatMatrix::Csr(a) => a.par_spmv(x, y),
            FormatMatrix::Sell(s) => s.par_spmv(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;

    #[test]
    fn format_strings_round_trip() {
        for f in [SparseFormat::Csr, SparseFormat::Sell, SparseFormat::Auto] {
            assert_eq!(SparseFormat::parse(f.as_str()).unwrap(), f);
            assert_eq!(format!("{f}"), f.as_str());
        }
        assert!(SparseFormat::parse("ellpack").is_err());
        assert_eq!(SparseFormat::default(), SparseFormat::Auto);
    }

    #[test]
    fn auto_picks_sell_for_uniform_large_and_csr_for_small() {
        // Both verdicts hold at every lane width (nnz and fill ratio sit
        // far from either mode's thresholds), so no mode pin is needed.
        // Poisson 2-D at n = 10 000: 5-point stencil, near-uniform rows.
        let big = gallery::poisson2d(100);
        assert_eq!(auto_format(&big), SparseFormat::Sell);
        // Tiny matrix: stay CSR regardless of shape.
        let small = gallery::poisson2d(5);
        assert_eq!(auto_format(&small), SparseFormat::Csr);
    }

    #[test]
    fn auto_rejects_ragged_rows() {
        // One dense row in an otherwise diagonal matrix: within the
        // first σ-window the dense row forces a full-width chunk, and
        // the matrix is small enough that this dominates the fill ratio.
        let n = 20_000;
        let mut coo = crate::CooMatrix::with_capacity(n, n, 2 * n);
        for i in 0..n {
            coo.push(i, i, 2.0);
        }
        for j in 0..n {
            if j != 0 {
                coo.push(0, j, 0.5);
            }
        }
        let a = coo.to_csr();
        let ratio =
            crate::sell::fill_ratio_of(&a, crate::sell::DEFAULT_CHUNK, crate::sell::DEFAULT_SIGMA);
        // ~4.5: beyond even the widest lane-adjusted gate, so the CSR
        // verdict is ISA-independent.
        let (_, widest_fill) = auto_thresholds(crate::simd::Isa::Avx2.lanes());
        assert!(ratio > widest_fill, "fill ratio {ratio} should exceed the gate {widest_fill}");
        assert_eq!(auto_format(&a), SparseFormat::Csr);
    }

    #[test]
    fn auto_min_nnz_boundary_tracks_simd_lanes() {
        use crate::simd::{set_mode, SimdMode};
        let _guard = crate::simd::test_mode_guard();
        // Uniform single-entry rows: fill ratio exactly 1.0, so the nnz
        // cutoff is the only decision variable.
        let diag = |n: usize| CsrMatrix::from_diagonal(&vec![1.0; n]);
        set_mode(SimdMode::Scalar).unwrap();
        let (min_nnz, _) = auto_thresholds(1);
        assert_eq!(min_nnz, AUTO_MIN_NNZ);
        assert_eq!(auto_format(&diag(AUTO_MIN_NNZ - 1)), SparseFormat::Csr);
        assert_eq!(auto_format(&diag(AUTO_MIN_NNZ)), SparseFormat::Sell);
        if set_mode(SimdMode::Avx2).is_ok() {
            // Four lanes: SELL pays off at a quarter of the scalar size.
            let (min_nnz, max_fill) = auto_thresholds(4);
            assert_eq!(min_nnz, AUTO_MIN_NNZ / 4);
            assert!((max_fill - 2.0).abs() < 1e-12);
            assert_eq!(auto_format(&diag(min_nnz - 1)), SparseFormat::Csr);
            assert_eq!(auto_format(&diag(min_nnz)), SparseFormat::Sell);
        }
    }

    #[test]
    fn format_matrix_dispatch_is_bitwise_consistent() {
        let a = gallery::poisson2d(40);
        let csr = FormatMatrix::convert(&a, SparseFormat::Csr);
        let sell = FormatMatrix::convert(&a, SparseFormat::Sell);
        assert_eq!(csr.format(), SparseFormat::Csr);
        assert_eq!(sell.format(), SparseFormat::Sell);
        assert_eq!(csr.nnz(), sell.nnz());
        assert_eq!(sell.to_csr(), a);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut y1 = vec![0.0; a.nrows()];
        let mut y2 = vec![0.0; a.nrows()];
        csr.par_spmv(&x, &mut y1);
        sell.par_spmv(&x, &mut y2);
        for i in 0..a.nrows() {
            assert_eq!(y1[i].to_bits(), y2[i].to_bits());
        }
    }

    #[test]
    fn format_selection_emits_a_deterministic_event() {
        let sink = std::sync::Arc::new(sdc_obs::trace::TraceSink::new());
        sdc_obs::with_local(sink.clone(), || {
            let _ = FormatMatrix::convert(&gallery::poisson2d(100), SparseFormat::Auto);
        });
        let det = sink.det_bytes();
        assert!(det.contains("\"ev\":\"spmv.format\""), "{det}");
        assert!(det.contains("\"requested\":\"auto\""), "{det}");
        assert!(det.contains("\"chosen\":\"sell\""), "{det}");
        assert!(det.contains("\"tier\":\"strict\""), "{det}");
        assert!(det.contains("\"rows\":10000"), "{det}");
        assert!(sink.timing_bytes().is_empty());
    }

    #[test]
    fn auto_resolution_never_returns_auto() {
        for a in [gallery::poisson2d(100), gallery::poisson2d(5)] {
            assert_ne!(SparseFormat::Auto.resolve(&a), SparseFormat::Auto);
            assert_eq!(SparseFormat::Csr.resolve(&a), SparseFormat::Csr);
            assert_eq!(SparseFormat::Sell.resolve(&a), SparseFormat::Sell);
        }
    }
}
