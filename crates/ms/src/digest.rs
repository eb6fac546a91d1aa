//! In-silico tryptic digestion: protein sequences → peptide libraries.
//!
//! Real spectral libraries are built by digesting a proteome with trypsin
//! (cleaving C-terminal to K/R except before proline) and keeping
//! peptides in the instrument's practical mass range. This module
//! provides that path — both for user-supplied protein sequences and for
//! a synthetic proteome generator — as the realistic alternative to
//! drawing random peptides directly.

use crate::aa::AminoAcid;
use crate::peptide::Peptide;
use rand::seq::SliceRandom;
use rand::Rng;

/// A protein: a named amino-acid sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Protein {
    /// Accession / name.
    pub name: String,
    /// The residue sequence.
    pub sequence: Vec<AminoAcid>,
}

impl Protein {
    /// Parse a protein from single-letter codes.
    ///
    /// # Errors
    ///
    /// Returns the residue parse error of [`Peptide::parse`] semantics.
    pub fn parse(name: &str, sequence: &str) -> Result<Protein, crate::peptide::ParsePeptideError> {
        let peptide = Peptide::parse(sequence)?;
        Ok(Protein {
            name: name.to_owned(),
            sequence: peptide.residues().to_vec(),
        })
    }

    /// Generate a random protein of `len` residues with uniform
    /// composition (synthetic proteome building block).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn random<R: Rng>(rng: &mut R, name: String, len: usize) -> Protein {
        assert!(len > 0, "protein must have at least one residue");
        let sequence = (0..len)
            .map(|_| *AminoAcid::ALL.as_slice().choose(rng).expect("non-empty"))
            .collect();
        Protein { name, sequence }
    }
}

/// Digestion parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigestConfig {
    /// Maximum missed cleavage sites left inside a peptide (0–2 typical).
    pub missed_cleavages: usize,
    /// Minimum peptide length kept.
    pub min_len: usize,
    /// Maximum peptide length kept.
    pub max_len: usize,
    /// Suppress cleavage when the following residue is proline (the
    /// classical trypsin rule).
    pub proline_rule: bool,
}

impl Default for DigestConfig {
    fn default() -> DigestConfig {
        DigestConfig {
            missed_cleavages: 1,
            min_len: 7,
            max_len: 30,
            proline_rule: true,
        }
    }
}

/// Tryptic digestion of one protein into peptides.
///
/// Cleaves C-terminal to K/R (optionally not before proline), then emits
/// every run of up to `missed_cleavages + 1` consecutive fragments whose
/// combined length is within bounds, in N→C order.
///
/// ```
/// use hdoms_ms::digest::{digest, DigestConfig, Protein};
/// let p = Protein::parse("demo", "MAGICKELVISRPEACEK").unwrap();
/// let peptides = digest(&p, &DigestConfig { missed_cleavages: 0, min_len: 5, max_len: 30, proline_rule: true });
/// // "MAGICK" and "ELVISRPEACEK" (the R|P bond is protected).
/// assert_eq!(peptides.len(), 2);
/// ```
pub fn digest(protein: &Protein, config: &DigestConfig) -> Vec<Peptide> {
    let seq = &protein.sequence;
    if seq.is_empty() {
        return Vec::new();
    }
    // Fragment boundaries: cleavage after index i when seq[i] is K/R and
    // (no proline rule or seq[i+1] != P).
    let mut fragments: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for i in 0..seq.len() {
        let cleave = seq[i].is_tryptic_site()
            && (i + 1 == seq.len() || !config.proline_rule || seq[i + 1] != AminoAcid::Pro);
        if cleave {
            fragments.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < seq.len() {
        fragments.push((start, seq.len()));
    }

    let mut peptides = Vec::new();
    for first in 0..fragments.len() {
        for missed in 0..=config.missed_cleavages {
            let Some(&(_, end)) = fragments.get(first + missed) else {
                break;
            };
            let begin = fragments[first].0;
            let len = end - begin;
            if len >= config.min_len && len <= config.max_len {
                peptides.push(Peptide::new(seq[begin..end].to_vec()));
            }
        }
    }
    peptides
}

/// Digest a whole proteome, deduplicating identical sequences (shared
/// peptides are the norm in real proteomes).
pub fn digest_proteome(proteins: &[Protein], config: &DigestConfig) -> Vec<Peptide> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for protein in proteins {
        for peptide in digest(protein, config) {
            if seen.insert(peptide.to_string()) {
                out.push(peptide);
            }
        }
    }
    out
}

/// Generate a synthetic proteome and digest it: `proteins` random
/// proteins of length drawn from `protein_len`, digested with `config`.
/// Deterministic in `rng`.
pub fn synthetic_proteome_peptides<R: Rng>(
    rng: &mut R,
    proteins: usize,
    protein_len: std::ops::RangeInclusive<usize>,
    config: &DigestConfig,
) -> Vec<Peptide> {
    let all: Vec<Protein> = (0..proteins)
        .map(|i| {
            let len = rng.gen_range(protein_len.clone());
            Protein::random(rng, format!("SYN{i:05}"), len)
        })
        .collect();
    digest_proteome(&all, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(missed: usize) -> DigestConfig {
        DigestConfig {
            missed_cleavages: missed,
            min_len: 2,
            max_len: 100,
            proline_rule: true,
        }
    }

    #[test]
    fn cleaves_after_k_and_r() {
        let p = Protein::parse("t", "AAKGGGRCCC").unwrap();
        let peptides = digest(&p, &config(0));
        let seqs: Vec<String> = peptides.iter().map(|p| p.to_string()).collect();
        assert_eq!(seqs, vec!["AAK", "GGGR", "CCC"]);
    }

    #[test]
    fn proline_protects_the_bond() {
        let p = Protein::parse("t", "AAKPGGGR").unwrap();
        let with_rule = digest(&p, &config(0));
        assert_eq!(with_rule.len(), 1);
        assert_eq!(with_rule[0].to_string(), "AAKPGGGR");
        let no_rule = digest(
            &p,
            &DigestConfig {
                proline_rule: false,
                ..config(0)
            },
        );
        assert_eq!(no_rule.len(), 2);
    }

    #[test]
    fn missed_cleavages_add_longer_peptides() {
        let p = Protein::parse("t", "AAKGGGRCCC").unwrap();
        let peptides = digest(&p, &config(1));
        let seqs: Vec<String> = peptides.iter().map(|p| p.to_string()).collect();
        assert!(seqs.contains(&"AAKGGGR".to_owned()));
        assert!(seqs.contains(&"GGGRCCC".to_owned()));
        assert_eq!(seqs.len(), 5);
    }

    #[test]
    fn length_bounds_respected() {
        let p = Protein::parse("t", "AAKGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGRCK").unwrap();
        let cfg = DigestConfig {
            missed_cleavages: 2,
            min_len: 4,
            max_len: 10,
            proline_rule: true,
        };
        for peptide in digest(&p, &cfg) {
            assert!(peptide.len() >= 4 && peptide.len() <= 10);
        }
    }

    #[test]
    fn terminal_fragment_without_kr_is_kept() {
        let p = Protein::parse("t", "AAKCCC").unwrap();
        let seqs: Vec<String> = digest(&p, &config(0))
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert!(seqs.contains(&"CCC".to_owned()));
    }

    #[test]
    fn proteome_deduplicates() {
        let a = Protein::parse("a", "AAKGGGR").unwrap();
        let b = Protein::parse("b", "AAKCCCR").unwrap();
        let peptides = digest_proteome(&[a, b], &config(0));
        let aak = peptides.iter().filter(|p| p.to_string() == "AAK").count();
        assert_eq!(aak, 1, "shared peptide must appear once");
    }

    #[test]
    fn synthetic_proteome_yields_plausible_peptides() {
        let mut rng = StdRng::seed_from_u64(5);
        let peptides =
            synthetic_proteome_peptides(&mut rng, 50, 200..=400, &DigestConfig::default());
        assert!(peptides.len() > 200, "got {}", peptides.len());
        for p in peptides.iter().take(100) {
            assert!(p.len() >= 7 && p.len() <= 30);
        }
        // Determinism.
        let mut rng2 = StdRng::seed_from_u64(5);
        let again = synthetic_proteome_peptides(&mut rng2, 50, 200..=400, &DigestConfig::default());
        assert_eq!(peptides, again);
    }

    #[test]
    fn digest_masses_sum_to_protein_mass() {
        // With zero missed cleavages the fragments partition the protein:
        // residue masses must sum up (each fragment adds one water).
        let p = Protein::parse("t", "AAKGGGRCCCKDDD").unwrap();
        let peptides = digest(
            &p,
            &DigestConfig {
                missed_cleavages: 0,
                min_len: 1,
                max_len: 100,
                proline_rule: true,
            },
        );
        let protein_residue_mass: f64 = p.sequence.iter().map(|aa| aa.monoisotopic_mass()).sum();
        let fragment_residue_mass: f64 = peptides
            .iter()
            .map(|pep| pep.monoisotopic_mass() - crate::WATER_MASS)
            .sum();
        assert!((protein_residue_mass - fragment_residue_mass).abs() < 1e-9);
    }
}
