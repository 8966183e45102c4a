//! Matrix Market (`.mtx`) I/O.
//!
//! The paper's second test matrix, `mult_dcop_03`, ships from the
//! UF/SuiteSparse collection in Matrix Market coordinate format. The
//! reproduction substitutes a synthetic generator (see
//! `crates/sparse/src/gallery/circuit.rs`), but this reader lets the
//! *real* file be dropped into every experiment binary unchanged
//! (`--matrix path.mtx`). The writer closes the loop for round-trip
//! testing and for exporting generated matrices.
//!
//! Supported: `matrix coordinate real|integer|pattern
//! general|symmetric|skew-symmetric`. Complex and array formats are out of
//! scope and produce a descriptive error.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::MAX_DIM;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors produced by the Matrix Market reader.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file contents.
    Parse {
        /// 1-based line number where the problem was found.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
    /// The file is valid Matrix Market but uses an unsupported variant.
    Unsupported(String),
}

impl fmt::Display for MmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            MmError::Unsupported(s) => write!(f, "unsupported Matrix Market variant: {s}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a Matrix Market file into CSR.
pub fn read_matrix_market(path: &Path) -> Result<CsrMatrix, MmError> {
    let f = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(f))
}

/// Reads Matrix Market data from any reader.
pub fn read_matrix_market_from<R: Read>(reader: R) -> Result<CsrMatrix, MmError> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines().enumerate();

    // Header line.
    let (idx, header) = match lines.next() {
        Some((i, l)) => (i + 1, l?),
        None => return Err(MmError::Parse { line: 1, msg: "empty file".into() }),
    };
    let toks: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" {
        return Err(MmError::Parse { line: idx, msg: "missing %%MatrixMarket header".into() });
    }
    if toks[1] != "matrix" {
        return Err(MmError::Unsupported(format!("object '{}'", toks[1])));
    }
    if toks[2] != "coordinate" {
        return Err(MmError::Unsupported(format!("format '{}'", toks[2])));
    }
    let field = match toks[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(MmError::Unsupported(format!("field '{other}'"))),
    };
    let symmetry = match toks[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(MmError::Unsupported(format!("symmetry '{other}'"))),
    };

    // Size line (after comments).
    let mut size_line = None;
    let mut size_idx = 0;
    for (i, l) in &mut lines {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        size_idx = i + 1;
        break;
    }
    let size_line = size_line
        .ok_or(MmError::Parse { line: size_idx.max(1), msg: "missing size line".into() })?;
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(MmError::Parse {
            line: size_idx,
            msg: format!("size line needs 'rows cols nnz', got '{size_line}'"),
        });
    }
    let parse_usize = |s: &str, what: &str| -> Result<usize, MmError> {
        s.parse::<usize>()
            .map_err(|_| MmError::Parse { line: size_idx, msg: format!("bad {what}: '{s}'") })
    };
    let nrows = parse_usize(dims[0], "row count")?;
    let ncols = parse_usize(dims[1], "column count")?;
    let nnz = parse_usize(dims[2], "nnz count")?;
    if nrows > MAX_DIM || ncols > MAX_DIM {
        return Err(MmError::Parse {
            line: size_idx,
            msg: format!("size {nrows}x{ncols} is above the {MAX_DIM}-row/column limit"),
        });
    }

    // The header's nnz is only a claim until the entries are read (and
    // checked against it below), so storage grows with the entries.
    let mut coo = CooMatrix::new(nrows, ncols);
    let mut seen = 0usize;
    for (i, l) in &mut lines {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let lineno = i + 1;
        let toks: Vec<&str> = t.split_whitespace().collect();
        let need = if field == Field::Pattern { 2 } else { 3 };
        if toks.len() < need {
            return Err(MmError::Parse {
                line: lineno,
                msg: format!("entry needs {need} fields, got '{t}'"),
            });
        }
        let r: usize = toks[0].parse().map_err(|_| MmError::Parse {
            line: lineno,
            msg: format!("bad row index '{}'", toks[0]),
        })?;
        let c: usize = toks[1].parse().map_err(|_| MmError::Parse {
            line: lineno,
            msg: format!("bad column index '{}'", toks[1]),
        })?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(MmError::Parse {
                line: lineno,
                msg: format!("index ({r},{c}) out of 1-based range {nrows}x{ncols}"),
            });
        }
        let v: f64 = match field {
            Field::Pattern => 1.0,
            _ => toks[2].parse().map_err(|_| MmError::Parse {
                line: lineno,
                msg: format!("bad value '{}'", toks[2]),
            })?,
        };
        let (r0, c0) = (r - 1, c - 1);
        coo.push(r0, c0, v);
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if r0 != c0 {
                    coo.push(c0, r0, v);
                }
            }
            Symmetry::SkewSymmetric => {
                if r0 != c0 {
                    coo.push(c0, r0, -v);
                }
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MmError::Parse {
            line: size_idx,
            msg: format!("header promised {nnz} entries, file contains {seen}"),
        });
    }
    Ok(coo.to_csr())
}

/// Writes a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market(path: &Path, a: &CsrMatrix) -> Result<(), MmError> {
    let f = std::fs::File::create(path)?;
    write_matrix_market_to(BufWriter::new(f), a)
}

/// Writes Matrix Market data to any writer.
pub fn write_matrix_market_to<W: Write>(mut w: W, a: &CsrMatrix) -> Result<(), MmError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% generated by sdc-sparse")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        for (c, v) in cols.iter().zip(vals.iter()) {
            // 17 significant digits: exact f64 round trip.
            writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use std::io::Cursor;

    #[test]
    fn parse_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    2 3 3\n\
                    1 1 1.5\n\
                    2 3 -2.0\n\
                    1 2 4e-1\n";
        let a = read_matrix_market_from(Cursor::new(text)).unwrap();
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 0), 1.5);
        assert_eq!(a.get(0, 1), 0.4);
        assert_eq!(a.get(1, 2), -2.0);
    }

    #[test]
    fn parse_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 2.0\n\
                    2 1 -1.0\n";
        let a = read_matrix_market_from(Cursor::new(text)).unwrap();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
    }

    #[test]
    fn parse_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 3.0\n";
        let a = read_matrix_market_from(Cursor::new(text)).unwrap();
        assert_eq!(a.get(1, 0), 3.0);
        assert_eq!(a.get(0, 1), -3.0);
    }

    #[test]
    fn parse_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 2\n\
                    2 1\n";
        let a = read_matrix_market_from(Cursor::new(text)).unwrap();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        let e = read_matrix_market_from(Cursor::new("hello\n")).unwrap_err();
        assert!(matches!(e, MmError::Parse { line: 1, .. }), "{e:?}");
    }

    #[test]
    fn rejects_complex_field() {
        let text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n";
        let e = read_matrix_market_from(Cursor::new(text)).unwrap_err();
        assert!(matches!(e, MmError::Unsupported(_)), "{e:?}");
    }

    #[test]
    fn rejects_out_of_range_index() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let e = read_matrix_market_from(Cursor::new(text)).unwrap_err();
        assert!(matches!(e, MmError::Parse { .. }), "{e:?}");
    }

    #[test]
    fn rejects_oversized_header_before_allocating() {
        for size in ["2305843009213693952 1 0", "1 16777217 0"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            let e = read_matrix_market_from(Cursor::new(text)).unwrap_err();
            assert!(e.to_string().contains("row/column limit"), "{e}");
        }
        // A huge nnz claim reserves nothing: the missing entries are the error.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 4611686018427387904\n";
        let e = read_matrix_market_from(Cursor::new(text)).unwrap_err();
        assert!(e.to_string().contains("header promised 4611686018427387904 entries"), "{e}");
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let e = read_matrix_market_from(Cursor::new(text)).unwrap_err();
        assert!(matches!(e, MmError::Parse { .. }), "{e:?}");
    }

    #[test]
    fn write_read_round_trip_exact() {
        let a = gallery::poisson2d(7);
        let mut bytes = Vec::new();
        write_matrix_market_to(&mut bytes, &a).unwrap();
        let b = read_matrix_market_from(Cursor::new(bytes)).unwrap();
        assert_eq!(a, b, "round trip must be exact (17 significant digits)");
    }

    #[test]
    fn file_round_trip() {
        let a = gallery::poisson1d(13);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sdc_sparse_io_test_{}.mtx", std::process::id()));
        write_matrix_market(&path, &a).unwrap();
        let b = read_matrix_market(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, b);
    }
}
