//! Mascot Generic Format (MGF) reading and writing.
//!
//! MGF is the lingua franca for peak lists in proteomics: query spectra
//! from real instruments arrive as `BEGIN IONS … END IONS` blocks with
//! `PEPMASS`/`CHARGE` headers and one `m/z intensity` pair per line. This
//! module lets the search stack run on real exported data instead of the
//! synthetic workloads, and lets synthetic workloads be exported for
//! cross-checking against external tools.
//!
//! The dialect implemented is the common denominator emitted by
//! ProteoWizard and accepted by every search engine: `TITLE`, `PEPMASS`
//! (first number used; the optional intensity is ignored), `CHARGE`
//! (`2+`/`+2`/`2` accepted), arbitrary ignored headers, and peak lines
//! separated by spaces or tabs.

use crate::spectrum::{Peak, Spectrum, SpectrumOrigin};
use std::fmt;
use std::io::{BufRead, Write};

/// Error from parsing an MGF stream.
#[derive(Debug)]
pub enum ParseMgfError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and content.
    Malformed {
        /// 1-based line number in the stream.
        line: usize,
        /// The offending line content.
        content: String,
        /// What was being parsed.
        context: &'static str,
    },
    /// A spectrum block ended without the mandatory `PEPMASS` header.
    MissingPepmass {
        /// 1-based line number of the `END IONS`.
        line: usize,
    },
}

impl fmt::Display for ParseMgfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseMgfError::Io(e) => write!(f, "i/o error while reading mgf: {e}"),
            ParseMgfError::Malformed {
                line,
                content,
                context,
            } => write!(f, "malformed {context} at line {line}: {content:?}"),
            ParseMgfError::MissingPepmass { line } => {
                write!(f, "spectrum block ending at line {line} has no PEPMASS")
            }
        }
    }
}

impl std::error::Error for ParseMgfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseMgfError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ParseMgfError {
    fn from(e: std::io::Error) -> ParseMgfError {
        ParseMgfError::Io(e)
    }
}

/// One parsed MGF spectrum: the [`Spectrum`] plus its `TITLE`, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct MgfSpectrum {
    /// The spectrum (id = block index in the stream, origin = `Query`).
    pub spectrum: Spectrum,
    /// The `TITLE` header verbatim, when present.
    pub title: Option<String>,
}

/// Parse every `BEGIN IONS` block from `reader`.
///
/// Unknown `KEY=VALUE` headers are ignored (MGF writers attach plenty of
/// vendor-specific ones). Charge defaults to 2 when absent, the common
/// convention for unannotated HCD exports.
///
/// # Errors
///
/// Returns [`ParseMgfError`] on I/O failure, an unparsable peak or
/// header line, or a block without `PEPMASS`.
///
/// ```
/// let mgf = "BEGIN IONS\nTITLE=demo\nPEPMASS=445.12\nCHARGE=2+\n\
///            100.1 4.0\n200.2 8.0\nEND IONS\n";
/// let spectra = hdoms_ms::mgf::read_mgf(mgf.as_bytes())?;
/// assert_eq!(spectra.len(), 1);
/// assert_eq!(spectra[0].spectrum.peak_count(), 2);
/// # Ok::<(), hdoms_ms::mgf::ParseMgfError>(())
/// ```
pub fn read_mgf<R: BufRead>(reader: R) -> Result<Vec<MgfSpectrum>, ParseMgfError> {
    let mut out = Vec::new();
    let mut in_block = false;
    let mut title: Option<String> = None;
    let mut pepmass: Option<f64> = None;
    let mut charge: Option<u8> = None;
    let mut peaks: Vec<Peak> = Vec::new();

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if !in_block {
            if trimmed.eq_ignore_ascii_case("BEGIN IONS") {
                in_block = true;
                title = None;
                pepmass = None;
                charge = None;
                peaks = Vec::new();
            }
            // Anything outside a block (file-level parameters) is ignored.
            continue;
        }
        if trimmed.eq_ignore_ascii_case("END IONS") {
            let pepmass = pepmass.ok_or(ParseMgfError::MissingPepmass { line: line_no })?;
            let spectrum = Spectrum::new(
                out.len() as u32,
                pepmass,
                charge.unwrap_or(2),
                std::mem::take(&mut peaks),
                SpectrumOrigin::Query,
            );
            out.push(MgfSpectrum {
                spectrum,
                title: title.take(),
            });
            in_block = false;
            continue;
        }
        if let Some((key, value)) = trimmed.split_once('=') {
            match key.trim().to_ascii_uppercase().as_str() {
                "TITLE" => title = Some(value.trim().to_owned()),
                "PEPMASS" => {
                    let first = value.split_whitespace().next().unwrap_or("");
                    let mz = first
                        .parse::<f64>()
                        .ok()
                        .filter(|mz| mz.is_finite() && *mz > 0.0);
                    pepmass = Some(mz.ok_or_else(|| ParseMgfError::Malformed {
                        line: line_no,
                        content: line.clone(),
                        context: "PEPMASS header",
                    })?);
                }
                "CHARGE" => {
                    charge = Some(parse_charge(value.trim()).ok_or_else(|| {
                        ParseMgfError::Malformed {
                            line: line_no,
                            content: line.clone(),
                            context: "CHARGE header",
                        }
                    })?);
                }
                _ => {} // vendor headers: RTINSECONDS, SCANS, …
            }
            continue;
        }
        // Peak line: m/z and intensity separated by whitespace; extra
        // columns (some exporters add charge) are ignored.
        let mut fields = trimmed.split_whitespace();
        let (Some(mz), Some(intensity)) = (fields.next(), fields.next()) else {
            return Err(ParseMgfError::Malformed {
                line: line_no,
                content: line.clone(),
                context: "peak line",
            });
        };
        let (Ok(mz), Ok(intensity)) = (mz.parse::<f64>(), intensity.parse::<f64>()) else {
            return Err(ParseMgfError::Malformed {
                line: line_no,
                content: line.clone(),
                context: "peak line",
            });
        };
        if !(mz.is_finite() && mz > 0.0 && intensity.is_finite() && intensity >= 0.0) {
            return Err(ParseMgfError::Malformed {
                line: line_no,
                content: line.clone(),
                context: "peak line",
            });
        }
        peaks.push(Peak::new(mz, intensity));
    }
    Ok(out)
}

/// Parse `2+`, `+2`, `2`, `3-` (negative mode collapses to its magnitude).
fn parse_charge(s: &str) -> Option<u8> {
    let cleaned: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
    let z: u8 = cleaned.parse().ok()?;
    if z == 0 {
        None
    } else {
        Some(z)
    }
}

/// Write `spectra` as MGF blocks to `writer`. A mutable reference works
/// as the writer (`&mut Vec<u8>`, `&mut File`, …).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_mgf<W: Write>(mut writer: W, spectra: &[Spectrum]) -> std::io::Result<()> {
    for s in spectra {
        writeln!(writer, "BEGIN IONS")?;
        writeln!(writer, "TITLE=spectrum_{}", s.id)?;
        writeln!(writer, "PEPMASS={:.6}", s.precursor_mz)?;
        writeln!(writer, "CHARGE={}+", s.precursor_charge)?;
        for p in s.peaks() {
            writeln!(writer, "{:.5} {:.3}", p.mz, p.intensity)?;
        }
        writeln!(writer, "END IONS")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{SyntheticWorkload, WorkloadSpec};

    #[test]
    fn roundtrip_synthetic_queries() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 77);
        let mut buffer = Vec::new();
        write_mgf(&mut buffer, &workload.queries).unwrap();
        let parsed = read_mgf(buffer.as_slice()).unwrap();
        assert_eq!(parsed.len(), workload.queries.len());
        for (orig, got) in workload.queries.iter().zip(&parsed) {
            assert_eq!(got.spectrum.peak_count(), orig.peak_count());
            assert_eq!(got.spectrum.precursor_charge, orig.precursor_charge);
            assert!((got.spectrum.precursor_mz - orig.precursor_mz).abs() < 1e-5);
            assert_eq!(
                got.title.as_deref(),
                Some(format!("spectrum_{}", orig.id).as_str())
            );
            for (a, b) in orig.peaks().iter().zip(got.spectrum.peaks()) {
                assert!((a.mz - b.mz).abs() < 1e-4);
                assert!((a.intensity - b.intensity).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn parses_charge_variants() {
        for (text, want) in [("2+", 2u8), ("+3", 3), ("2", 2), ("4-", 4)] {
            assert_eq!(parse_charge(text), Some(want), "{text}");
        }
        assert_eq!(parse_charge("banana"), None);
        assert_eq!(parse_charge("0"), None);
    }

    #[test]
    fn ignores_vendor_headers_and_comments() {
        let mgf = "# exported\nMASS=Mono\nBEGIN IONS\nTITLE=t\nRTINSECONDS=12.5\n\
                   SCANS=554\nPEPMASS=500.25 12345.6\nCHARGE=2+\n100.0\t5\nEND IONS\n";
        let parsed = read_mgf(mgf.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].spectrum.peak_count(), 1);
        assert!((parsed[0].spectrum.precursor_mz - 500.25).abs() < 1e-9);
    }

    #[test]
    fn default_charge_is_two() {
        let mgf = "BEGIN IONS\nPEPMASS=400.0\n100.0 1.0\nEND IONS\n";
        let parsed = read_mgf(mgf.as_bytes()).unwrap();
        assert_eq!(parsed[0].spectrum.precursor_charge, 2);
        assert_eq!(parsed[0].title, None);
    }

    #[test]
    fn missing_pepmass_is_an_error() {
        let mgf = "BEGIN IONS\n100.0 1.0\nEND IONS\n";
        let err = read_mgf(mgf.as_bytes()).unwrap_err();
        assert!(matches!(err, ParseMgfError::MissingPepmass { .. }));
        assert!(err.to_string().contains("PEPMASS"));
    }

    #[test]
    fn malformed_peak_reports_line() {
        let mgf = "BEGIN IONS\nPEPMASS=400.0\nnot a peak\nEND IONS\n";
        let err = read_mgf(mgf.as_bytes()).unwrap_err();
        match err {
            ParseMgfError::Malformed { line, context, .. } => {
                assert_eq!(line, 3);
                assert_eq!(context, "peak line");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn pepmass_must_be_finite_and_positive() {
        for pepmass in ["inf", "NaN", "-5", "0"] {
            let mgf = format!("BEGIN IONS\nPEPMASS={pepmass}\n100.0 1.0\nEND IONS\n");
            match read_mgf(mgf.as_bytes()) {
                Err(ParseMgfError::Malformed {
                    line: 2,
                    context: "PEPMASS header",
                    ..
                }) => {}
                other => panic!("PEPMASS={pepmass}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_charge_is_an_error() {
        let mgf = "BEGIN IONS\nPEPMASS=400.0\nCHARGE=banana\n100.0 1.0\nEND IONS\n";
        assert!(read_mgf(mgf.as_bytes()).is_err());
    }

    #[test]
    fn multiple_blocks_get_dense_ids() {
        let mgf = "BEGIN IONS\nPEPMASS=400.0\n100.0 1.0\nEND IONS\n\
                   BEGIN IONS\nPEPMASS=500.0\n200.0 2.0\nEND IONS\n";
        let parsed = read_mgf(mgf.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].spectrum.id, 0);
        assert_eq!(parsed[1].spectrum.id, 1);
    }

    #[test]
    fn text_outside_blocks_is_ignored() {
        let mgf =
            "random garbage that is not a header\nBEGIN IONS\nPEPMASS=400.0\n100.0 1.0\nEND IONS\n";
        assert_eq!(read_mgf(mgf.as_bytes()).unwrap().len(), 1);
    }
}
