//! Peptide sequences, mass arithmetic and random tryptic peptide generation.

use crate::aa::AminoAcid;
use crate::modification::Modification;
use crate::{PROTON_MASS, WATER_MASS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A peptide: a sequence of amino-acid residues, optionally carrying one
/// modification at a specific residue position.
///
/// The synthetic workloads in this reproduction only ever place a single
/// modification per peptide, mirroring the paper's open-search setting where
/// the precursor mass delta is explained by one dominant PTM.
#[derive(Debug, Clone, PartialEq)]
pub struct Peptide {
    residues: Vec<AminoAcid>,
    modification: Option<PlacedModification>,
}

/// A modification applied at a specific zero-based residue index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlacedModification {
    /// The modification identity (name and mass shift).
    pub modification: Modification,
    /// Zero-based index of the modified residue.
    pub position: usize,
}

/// Error returned when parsing a peptide from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePeptideError {
    /// The offending character.
    pub invalid: char,
    /// Its byte position in the input.
    pub position: usize,
}

impl fmt::Display for ParsePeptideError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid amino-acid code {:?} at position {}",
            self.invalid, self.position
        )
    }
}

impl std::error::Error for ParsePeptideError {}

impl Peptide {
    /// Create an unmodified peptide from residues.
    ///
    /// # Panics
    ///
    /// Panics if `residues` is empty; a peptide has at least one residue.
    pub(crate) fn new(residues: Vec<AminoAcid>) -> Peptide {
        assert!(
            !residues.is_empty(),
            "peptide must have at least one residue"
        );
        Peptide {
            residues,
            modification: None,
        }
    }

    /// Parse from single-letter codes, e.g. `"PEPTIDEK"`.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePeptideError`] if any character is not a valid residue
    /// code, or if the string is empty (reported as an invalid NUL at 0).
    ///
    /// ```
    /// use hdoms_ms::peptide::Peptide;
    /// let p: Peptide = "ACDEFGHIK".parse()?;
    /// assert_eq!(p.len(), 9);
    /// # Ok::<(), hdoms_ms::peptide::ParsePeptideError>(())
    /// ```
    pub fn parse(s: &str) -> Result<Peptide, ParsePeptideError> {
        if s.is_empty() {
            return Err(ParsePeptideError {
                invalid: '\0',
                position: 0,
            });
        }
        let mut residues = Vec::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            match AminoAcid::from_code(c) {
                Some(aa) => residues.push(aa),
                None => {
                    return Err(ParsePeptideError {
                        invalid: c,
                        position: i,
                    })
                }
            }
        }
        Ok(Peptide::new(residues))
    }

    /// The residue sequence.
    pub fn residues(&self) -> &[AminoAcid] {
        &self.residues
    }

    /// Number of residues.
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the peptide has zero residues (never true for constructed
    /// peptides; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// The modification placed on this peptide, if any.
    pub(crate) fn modification(&self) -> Option<&PlacedModification> {
        self.modification.as_ref()
    }

    /// Return a copy of this peptide carrying `modification` at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of bounds.
    pub(crate) fn with_modification(&self, modification: Modification, position: usize) -> Peptide {
        assert!(
            position < self.residues.len(),
            "modification position {position} out of bounds for peptide of length {}",
            self.residues.len()
        );
        Peptide {
            residues: self.residues.clone(),
            modification: Some(PlacedModification {
                modification,
                position,
            }),
        }
    }

    /// Monoisotopic neutral mass (residue masses + one water + any
    /// modification delta).
    ///
    /// ```
    /// use hdoms_ms::peptide::Peptide;
    /// let p = Peptide::parse("GG").unwrap();
    /// // 2 glycines + water
    /// assert!((p.monoisotopic_mass() - (2.0 * 57.02146 + 18.01056)).abs() < 1e-3);
    /// ```
    pub fn monoisotopic_mass(&self) -> f64 {
        let base: f64 = self
            .residues
            .iter()
            .map(|aa| aa.monoisotopic_mass())
            .sum::<f64>()
            + WATER_MASS;
        base + self
            .modification
            .map(|m| m.modification.mass_shift())
            .unwrap_or(0.0)
    }

    /// Mass-to-charge ratio of the precursor ion at `charge` (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `charge` is zero.
    pub(crate) fn precursor_mz(&self, charge: u8) -> f64 {
        assert!(charge >= 1, "charge must be at least 1");
        (self.monoisotopic_mass() + f64::from(charge) * PROTON_MASS) / f64::from(charge)
    }

    /// Generate a random tryptic-looking peptide: length in
    /// `min_len..=max_len`, C-terminal residue K or R, no internal K/R
    /// (fully cleaved), drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `min_len < 2` or `min_len > max_len`.
    pub(crate) fn random_tryptic<R: Rng>(rng: &mut R, min_len: usize, max_len: usize) -> Peptide {
        assert!(min_len >= 2, "tryptic peptide needs at least 2 residues");
        assert!(min_len <= max_len, "min_len must not exceed max_len");
        let len = rng.gen_range(min_len..=max_len);
        let interior: Vec<AminoAcid> = AminoAcid::ALL
            .iter()
            .copied()
            .filter(|aa| !aa.is_tryptic_site())
            .collect();
        let mut residues = Vec::with_capacity(len);
        for _ in 0..len - 1 {
            residues.push(*interior.choose(rng).expect("non-empty interior set"));
        }
        residues.push(if rng.gen_bool(0.5) {
            AminoAcid::Lys
        } else {
            AminoAcid::Arg
        });
        Peptide::new(residues)
    }

    /// Produce a decoy by shuffling all residues except the C-terminal one
    /// (the standard "pseudo-shuffle" decoy construction, which preserves the
    /// precursor mass and the tryptic terminus).
    ///
    /// The shuffle is deterministic in `seed`. If the shuffled sequence
    /// equals the original (short or repetitive peptides), the interior is
    /// rotated by one position instead so the decoy differs whenever the
    /// interior has two distinct residues.
    pub fn decoy(&self, seed: u64) -> Peptide {
        let mut residues = self.residues.clone();
        let n = residues.len();
        if n > 2 {
            let mut rng = StdRng::seed_from_u64(seed);
            residues[..n - 1].shuffle(&mut rng);
            if residues == self.residues {
                residues[..n - 1].rotate_left(1);
            }
        }
        Peptide {
            residues,
            modification: self.modification,
        }
    }

    /// Positions (zero-based) where `modification` may be placed.
    pub(crate) fn eligible_positions(&self, modification: Modification) -> Vec<usize> {
        self.residues
            .iter()
            .enumerate()
            .filter(|(_, aa)| modification.applies_to(**aa))
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for Peptide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, aa) in self.residues.iter().enumerate() {
            write!(f, "{}", aa.code())?;
            if let Some(m) = &self.modification {
                if m.position == i {
                    write!(f, "[{:+.4}]", m.modification.mass_shift())?;
                }
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for Peptide {
    type Err = ParsePeptideError;

    fn from_str(s: &str) -> Result<Peptide, ParsePeptideError> {
        Peptide::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modification::Modification;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parse_and_display_roundtrip() {
        let p = Peptide::parse("ACDEFGHIKLMNPQRSTVWY").unwrap();
        assert_eq!(p.to_string(), "ACDEFGHIKLMNPQRSTVWY");
    }

    #[test]
    fn parse_rejects_bad_codes() {
        let err = Peptide::parse("AXB").unwrap_err();
        assert_eq!(err.invalid, 'X');
        assert_eq!(err.position, 1);
        assert!(Peptide::parse("").is_err());
    }

    #[test]
    fn mass_includes_water() {
        let p = Peptide::parse("G").unwrap();
        let expected = AminoAcid::Gly.monoisotopic_mass() + WATER_MASS;
        assert!((p.monoisotopic_mass() - expected).abs() < 1e-9);
    }

    #[test]
    fn modification_shifts_mass() {
        let p = Peptide::parse("MSK").unwrap();
        let base = p.monoisotopic_mass();
        let modified = p.with_modification(Modification::OXIDATION, 0);
        assert!(
            (modified.monoisotopic_mass() - base - Modification::OXIDATION.mass_shift()).abs()
                < 1e-9
        );
    }

    #[test]
    fn precursor_mz_decreases_with_charge() {
        let p = Peptide::parse("PEPTIDEK").unwrap();
        assert!(p.precursor_mz(1) > p.precursor_mz(2));
        assert!(p.precursor_mz(2) > p.precursor_mz(3));
    }

    #[test]
    #[should_panic(expected = "charge must be at least 1")]
    fn precursor_mz_rejects_zero_charge() {
        let _ = Peptide::parse("PEPTIDEK").unwrap().precursor_mz(0);
    }

    #[test]
    fn random_tryptic_shape() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let p = Peptide::random_tryptic(&mut rng, 7, 25);
            assert!(p.len() >= 7 && p.len() <= 25);
            let last = *p.residues().last().unwrap();
            assert!(last.is_tryptic_site());
            // fully-cleaved: no internal K/R
            assert!(!p.residues()[..p.len() - 1]
                .iter()
                .any(|aa| aa.is_tryptic_site()));
        }
    }

    #[test]
    fn decoy_preserves_mass_and_terminus() {
        let mut rng = StdRng::seed_from_u64(1);
        for seed in 0..50u64 {
            let p = Peptide::random_tryptic(&mut rng, 8, 20);
            let d = p.decoy(seed);
            assert!((d.monoisotopic_mass() - p.monoisotopic_mass()).abs() < 1e-9);
            assert_eq!(d.residues().last(), p.residues().last());
            assert_eq!(d.len(), p.len());
        }
    }

    #[test]
    fn decoy_differs_when_interior_heterogeneous() {
        let p = Peptide::parse("ACDEFGHIK").unwrap();
        let d = p.decoy(3);
        assert_ne!(d.residues(), p.residues());
    }

    #[test]
    fn decoy_is_deterministic() {
        let p = Peptide::parse("ACDEFGHIK").unwrap();
        assert_eq!(p.decoy(9).residues(), p.decoy(9).residues());
    }

    #[test]
    fn eligible_positions_respects_targets() {
        let p = Peptide::parse("MSMSK").unwrap();
        let pos = p.eligible_positions(Modification::OXIDATION);
        assert_eq!(pos, vec![0, 2]);
    }
}
