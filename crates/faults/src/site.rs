//! Injection sites: *where* in the solver a fault strikes.
//!
//! The paper's campaign addresses faults with surgical precision: "on the
//! first iteration of the first inner solve, we perturb the upper
//! Hessenberg entry h_ij on the first iteration of the orthogonalization
//! loop" (§VII-B). A [`Site`] carries all the coordinates needed to
//! express that: the kernel, the outer iteration, the inner-solve ordinal,
//! the inner iteration (= Hessenberg column j), and the position inside
//! the orthogonalization loop (= row index i of `h_ij`).
//!
//! All indices are 1-based to match the paper's notation; `0` means
//! "not applicable" (e.g. the iteration coordinates of a stored-factor
//! preconditioner site).

/// The instrumented kernel in which a value was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// A dot product in the orthogonalization loop — produces `h_ij`
    /// (Algorithm 1, line 6).
    OrthoDot,
    /// The norm computation after the loop — produces `h_{j+1,j}`
    /// (Algorithm 1, line 9).
    OrthoNorm,
    /// Preconditioner application, or a stored preconditioner factor.
    Precond,
}

/// Full coordinates of one instrumented scalar operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Site {
    /// Which kernel produced the value.
    pub kernel: Kernel,
    /// Outer (FGMRES) iteration, 1-based; 0 if not running nested.
    pub outer_iteration: usize,
    /// Ordinal of the inner-solve invocation, 1-based; 0 if not nested.
    /// For FT-GMRES with one inner solve per outer iteration this equals
    /// `outer_iteration`.
    pub inner_solve: usize,
    /// Iteration *within* the current solve, 1-based. For Arnoldi this is
    /// the Hessenberg column index `j`.
    pub inner_iteration: usize,
    /// Position within the orthogonalization loop, 1-based: the row index
    /// `i` of `h_ij`. For `OrthoNorm` sites this is `j+1`. 0 if N/A.
    pub loop_index: usize,
}

impl Site {
    /// A site with every coordinate zeroed except the kernel.
    pub fn bare(kernel: Kernel) -> Self {
        Site { kernel, outer_iteration: 0, inner_solve: 0, inner_iteration: 0, loop_index: 0 }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}[outer={}, solve={}, iter={}, i={}]",
            self.kernel,
            self.outer_iteration,
            self.inner_solve,
            self.inner_iteration,
            self.loop_index
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(solve: usize, iter: usize, i: usize) -> Site {
        Site {
            kernel: Kernel::OrthoDot,
            outer_iteration: solve,
            inner_solve: solve,
            inner_iteration: iter,
            loop_index: i,
        }
    }

    #[test]
    fn display_is_informative() {
        let s = site(2, 3, 1);
        let d = format!("{s}");
        assert!(d.contains("OrthoDot") && d.contains("solve=2") && d.contains("i=1"));
    }
}
