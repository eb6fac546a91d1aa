//! Annotated-MGF persistence for libraries and workloads.
//!
//! Plain MGF carries no peptide identities or target/decoy labels, so the
//! `generate` command embeds them in the `TITLE` line:
//!
//! ```text
//! TITLE=ref_42 peptide=ACDEFGHIK decoy=0
//! ```
//!
//! and `search` parses them back into a [`SpectralLibrary`]. Query files
//! are standard MGF and interoperate with any other tool.

use hdoms_ms::library::{LibraryEntry, SpectralLibrary};
use hdoms_ms::mgf::{read_mgf, write_block};
use hdoms_ms::peptide::Peptide;
use hdoms_ms::spectrum::SpectrumOrigin::{Decoy, Target};
use std::io::Write;

/// Write a library as annotated MGF.
pub fn write_library<W: Write>(mut writer: W, library: &SpectralLibrary) -> std::io::Result<()> {
    for entry in library {
        let (s, decoy) = (&entry.spectrum, u8::from(entry.is_decoy));
        let title = format!("ref_{} peptide={} decoy={decoy}", s.id, entry.peptide);
        write_block(&mut writer, &title, s)?;
    }
    Ok(())
}

/// Parse an annotated-MGF library back into a [`SpectralLibrary`].
///
/// # Errors
///
/// Returns a message when the MGF is malformed or a title lacks the
/// peptide/decoy annotations.
pub fn read_library(bytes: &[u8]) -> Result<SpectralLibrary, String> {
    let parsed = read_mgf(bytes).map_err(|e| e.to_string())?;
    let mut library = SpectralLibrary::new();
    for (index, mut block) in parsed.into_iter().enumerate() {
        let title = (block.title).ok_or_else(|| format!("library block {index} has no TITLE"))?;
        let mut peptide: Option<Peptide> = None;
        let mut decoy: Option<bool> = None;
        for token in title.split_whitespace() {
            if let Some(seq) = token.strip_prefix("peptide=") {
                // Strip any inline modification annotation (e.g. "[+79.97]").
                let clean: String = {
                    let mut inside = false;
                    seq.chars()
                        .filter(|c| {
                            match c {
                                '[' => inside = true,
                                ']' => inside = false,
                                _ => return !inside,
                            }
                            false
                        })
                        .collect()
                };
                peptide = Some(
                    Peptide::parse(&clean)
                        .map_err(|e| format!("library block {index}: bad peptide {seq:?}: {e}"))?,
                );
            } else if let Some(flag) = token.strip_prefix("decoy=") {
                decoy = Some(flag == "1");
            }
        }
        let peptide =
            peptide.ok_or_else(|| format!("library block {index} title lacks peptide="))?;
        let is_decoy = decoy.ok_or_else(|| format!("library block {index} title lacks decoy="))?;
        // `read_mgf` already set the id to the block index.
        block.spectrum.origin = if is_decoy { Decoy } else { Target };
        library.push(LibraryEntry {
            spectrum: block.spectrum,
            peptide,
            is_decoy,
        });
    }
    Ok(library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};

    #[test]
    fn library_roundtrip() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 3);
        let mut buffer = Vec::new();
        write_library(&mut buffer, &workload.library).unwrap();
        let read = read_library(&buffer).unwrap();
        assert_eq!(read.len(), workload.library.len());
        assert_eq!(read.decoy_count(), workload.library.decoy_count());
        for (orig, got) in workload.library.iter().zip(read.iter()) {
            assert_eq!(orig.is_decoy, got.is_decoy);
            assert_eq!(
                orig.peptide.residues(),
                got.peptide.residues(),
                "peptide must round-trip"
            );
            assert_eq!(orig.spectrum.peak_count(), got.spectrum.peak_count());
        }
    }

    #[test]
    fn missing_annotations_are_rejected() {
        let plain = "BEGIN IONS\nTITLE=nope\nPEPMASS=500.0\n100.0 1.0\nEND IONS\n";
        let err = read_library(plain.as_bytes()).unwrap_err();
        assert!(err.contains("peptide="), "{err}");
    }

    #[test]
    fn modified_peptide_title_is_parsed() {
        let text = "BEGIN IONS\nTITLE=ref_0 peptide=AC[+57.0215]DK decoy=0\n\
                    PEPMASS=500.0\nCHARGE=2+\n100.0 1.0\nEND IONS\n";
        let library = read_library(text.as_bytes()).unwrap();
        assert_eq!(library.get(0).unwrap().peptide.to_string(), "ACDK");
    }
}
