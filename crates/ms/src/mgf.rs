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
//! (one charge: `2+`/`+2`/`2`/`3-`), arbitrary ignored headers, and peak
//! lines separated by spaces or tabs.
//!
//! The reader checks syntax; [`Spectrum::try_new`] decides which blocks
//! are spectra, so MGF queries and libraries obey the wire's rules.

use crate::spectrum::{Peak, Spectrum, SpectrumError, SpectrumOrigin};
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
    /// The stream ended inside a spectrum block: no `END IONS` closed it
    /// (a truncated file), so its spectrum is not read.
    Unterminated {
        /// 1-based line number of the block's `BEGIN IONS`.
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
            ParseMgfError::Unterminated { line } => write!(
                f,
                "spectrum block opened by BEGIN IONS at line {line} has no END IONS"
            ),
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

/// A line of the stream: its 1-based number and its content.
type Line = (usize, String);

/// What a `BEGIN IONS` block has read so far, each value with its line.
#[derive(Default)]
struct Block {
    /// 1-based line number of the block's `BEGIN IONS`.
    begin: usize,
    title: Option<String>,
    pepmass: Option<(f64, Line)>,
    charge: Option<(u8, Line)>,
    peaks: Vec<Peak>,
    peak_lines: Vec<Line>,
}

impl Block {
    /// The block's spectrum, or a refusal at the line carrying the offending value.
    fn finish(self, id: u32, end_line: usize) -> Result<MgfSpectrum, ParseMgfError> {
        const OVERFLOW: &str = "PEPMASS header (neutral mass overflows)";
        let missing = ParseMgfError::MissingPepmass { line: end_line };
        let (mz, pepmass_line) = self.pepmass.ok_or(missing)?;
        let (z, charge_line) = self.charge.unzip();
        let (title, mut peak_lines) = (self.title, self.peak_lines);
        let built = Spectrum::try_new(id, mz, z.unwrap_or(2), self.peaks, SpectrumOrigin::Query);
        let (line, context) = match built {
            Ok(spectrum) => return Ok(MgfSpectrum { spectrum, title }),
            Err(SpectrumError::ZeroCharge) => (charge_line, "CHARGE header"),
            Err(SpectrumError::PrecursorMz) => (Some(pepmass_line), "PEPMASS header"),
            Err(SpectrumError::MalformedPeak { index, .. }) => {
                (Some(peak_lines.swap_remove(index)), "peak line")
            }
            Err(SpectrumError::NeutralMassOverflows) => (Some(pepmass_line), OVERFLOW),
        };
        let line = line.expect("a zero charge comes from a CHARGE line (it defaults to 2)");
        Err(malformed(line, context))
    }
}

/// A [`ParseMgfError::Malformed`] at `line`.
fn malformed((line, content): Line, context: &'static str) -> ParseMgfError {
    ParseMgfError::Malformed {
        line,
        content,
        context,
    }
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
/// header line, a block without `PEPMASS`, a block
/// [`Spectrum::try_new`] refuses, or a stream that ends inside a block.
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
    let mut block: Option<Block> = None;

    for (line_no, line) in (1..).zip(reader.lines()) {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let Some(open) = &mut block else {
            if trimmed.eq_ignore_ascii_case("BEGIN IONS") {
                block = Some(Block {
                    begin: line_no,
                    ..Block::default()
                });
            }
            // Anything outside a block (file-level parameters) is ignored.
            continue;
        };
        if trimmed.eq_ignore_ascii_case("END IONS") {
            out.push(std::mem::take(open).finish(out.len() as u32, line_no)?);
            block = None;
            continue;
        }
        if let Some((key, value)) = trimmed.split_once('=') {
            match key.trim().to_ascii_uppercase().as_str() {
                "TITLE" => open.title = Some(value.trim().to_owned()),
                "PEPMASS" => match value.split_whitespace().next().map(str::parse) {
                    Some(Ok(mz)) => open.pepmass = Some((mz, (line_no, line))),
                    _ => return Err(malformed((line_no, line), "PEPMASS header")),
                },
                "CHARGE" => match parse_charge(value.trim()) {
                    Some(z) => open.charge = Some((z, (line_no, line))),
                    None => return Err(malformed((line_no, line), "CHARGE header")),
                },
                _ => {} // vendor headers: RTINSECONDS, SCANS, …
            }
            continue;
        }
        // Peak line: m/z and intensity separated by whitespace; extra
        // columns (some exporters add charge) are ignored.
        let mut fields = trimmed.split_whitespace().map(str::parse::<f64>);
        let (Some(Ok(mz)), Some(Ok(intensity))) = (fields.next(), fields.next()) else {
            return Err(malformed((line_no, line), "peak line"));
        };
        open.peaks.push(Peak { mz, intensity });
        open.peak_lines.push((line_no, line));
    }
    match block {
        Some(open) => Err(ParseMgfError::Unterminated { line: open.begin }),
        None => Ok(out),
    }
}

/// Parse one charge, `2+`, `+2`, `2`, `3-` (negative mode collapses to its
/// magnitude): a list (`2+ and 3+`), a fraction or a second sign is `None`.
fn parse_charge(s: &str) -> Option<u8> {
    const SIGN: [char; 2] = ['+', '-'];
    let digits = s.strip_suffix(SIGN).or(s.strip_prefix(SIGN)).unwrap_or(s);
    let unsigned = digits.bytes().all(|b| b.is_ascii_digit());
    unsigned.then(|| digits.parse().ok()).flatten()
}

/// Write `spectra` as MGF blocks titled `spectrum_{id}` to `writer`. A
/// mutable reference works as the writer (`&mut Vec<u8>`, `&mut File`, …).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_mgf<W: Write>(mut writer: W, spectra: &[Spectrum]) -> std::io::Result<()> {
    for s in spectra {
        write_block(&mut writer, &format!("spectrum_{}", s.id), s)?;
    }
    Ok(())
}

/// Write `s` to `writer` as one MGF block titled `title`.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_block<W: Write>(mut writer: W, title: &str, s: &Spectrum) -> std::io::Result<()> {
    let (mz, z) = (s.precursor_mz, s.precursor_charge);
    writeln!(writer, "BEGIN IONS\nTITLE={title}")?;
    writeln!(writer, "PEPMASS={mz:.6}\nCHARGE={z}+")?;
    for p in s.peaks() {
        writeln!(writer, "{:.5} {:.3}", p.mz, p.intensity)?;
    }
    writeln!(writer, "END IONS")
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
        for (text, want) in [("2+", 2u8), ("+3", 3), ("2", 2), ("4-", 4), ("-3", 3)] {
            assert_eq!(parse_charge(text), Some(want), "{text}");
        }
        // A zero is a number here; the spectrum rule refuses it (below).
        assert_eq!(parse_charge("0"), Some(0));
        for text in [
            "banana",
            "",
            "+",
            "2+ and 3+",
            "2+,3+",
            "2.0",
            "++2",
            "+2+",
            "256",
        ] {
            assert_eq!(parse_charge(text), None, "{text}");
        }
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
        for charge in ["banana", "0", "0+", "2+ and 3+", "2.0"] {
            let mgf = format!("BEGIN IONS\nPEPMASS=400.0\nCHARGE={charge}\n100.0 1.0\nEND IONS\n");
            match read_mgf(mgf.as_bytes()) {
                Err(ParseMgfError::Malformed {
                    line: 3,
                    context: "CHARGE header",
                    ..
                }) => {}
                other => panic!("CHARGE={charge}: {other:?}"),
            }
        }
    }

    /// The spectrum rule's refusals point at the line that carries the
    /// value: an overflowing `PEPMASS × CHARGE` at `PEPMASS`, a peak at
    /// its own line, whatever comes between.
    #[test]
    fn refusals_name_the_offending_line() {
        let overflow = "BEGIN IONS\nTITLE=t\nPEPMASS=1e308\nCHARGE=2+\n100.0 1.0\nEND IONS\n";
        let err = read_mgf(overflow.as_bytes()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed PEPMASS header (neutral mass overflows) at line 3: \"PEPMASS=1e308\""
        );
        let peak = "BEGIN IONS\nPEPMASS=400.0\n100.0 1.0\n# note\n 200.0 -1 \nEND IONS\n";
        match read_mgf(peak.as_bytes()).unwrap_err() {
            ParseMgfError::Malformed {
                line: 5,
                content,
                context: "peak line",
            } => assert_eq!(content, " 200.0 -1 "),
            other => panic!("unexpected error {other:?}"),
        }
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

    /// A stream cut inside a block is an error naming where the block
    /// began, not a file with one spectrum fewer.
    #[test]
    fn a_stream_ending_inside_a_block_names_its_begin_line() {
        let whole = "BEGIN IONS\nPEPMASS=400.0\n100.0 1.0\nEND IONS\n\
                     BEGIN IONS\nPEPMASS=500.0\n200.0 2.0\nEND IONS\n";
        assert_eq!(read_mgf(whole.as_bytes()).unwrap().len(), 2);
        for cut in [whole.len() - "END IONS\n".len(), whole.len() - 12] {
            let err = read_mgf(&whole.as_bytes()[..cut]).unwrap_err();
            assert!(
                matches!(err, ParseMgfError::Unterminated { line: 5 }),
                "cut at {cut}: {err:?}"
            );
            assert_eq!(
                err.to_string(),
                "spectrum block opened by BEGIN IONS at line 5 has no END IONS"
            );
        }
    }

    #[test]
    fn text_outside_blocks_is_ignored() {
        let mgf =
            "random garbage that is not a header\nBEGIN IONS\nPEPMASS=400.0\n100.0 1.0\nEND IONS\n";
        assert_eq!(read_mgf(mgf.as_bytes()).unwrap().len(), 1);
    }
}
