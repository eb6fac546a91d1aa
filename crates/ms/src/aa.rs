//! Amino-acid residues and their monoisotopic masses.
//!
//! The twenty proteinogenic amino acids with standard monoisotopic residue
//! masses (the mass a residue contributes inside a peptide chain, i.e. the
//! free amino-acid mass minus one water).

/// One of the twenty proteinogenic amino-acid residues.
///
/// Leucine and isoleucine are distinct variants even though their masses are
/// identical; search tools conventionally treat them as indistinguishable at
/// the spectrum level, which falls out naturally from equal masses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum AminoAcid {
    Gly,
    Ala,
    Ser,
    Pro,
    Val,
    Thr,
    Cys,
    Leu,
    Ile,
    Asn,
    Asp,
    Gln,
    Lys,
    Glu,
    Met,
    His,
    Phe,
    Arg,
    Tyr,
    Trp,
}

impl AminoAcid {
    /// All twenty residues in a fixed order (useful for sampling).
    pub(crate) const ALL: [AminoAcid; 20] = [
        AminoAcid::Gly,
        AminoAcid::Ala,
        AminoAcid::Ser,
        AminoAcid::Pro,
        AminoAcid::Val,
        AminoAcid::Thr,
        AminoAcid::Cys,
        AminoAcid::Leu,
        AminoAcid::Ile,
        AminoAcid::Asn,
        AminoAcid::Asp,
        AminoAcid::Gln,
        AminoAcid::Lys,
        AminoAcid::Glu,
        AminoAcid::Met,
        AminoAcid::His,
        AminoAcid::Phe,
        AminoAcid::Arg,
        AminoAcid::Tyr,
        AminoAcid::Trp,
    ];

    /// Monoisotopic residue mass in daltons.
    pub(crate) fn monoisotopic_mass(self) -> f64 {
        match self {
            AminoAcid::Gly => 57.021_463_72,
            AminoAcid::Ala => 71.037_113_79,
            AminoAcid::Ser => 87.032_028_41,
            AminoAcid::Pro => 97.052_763_87,
            AminoAcid::Val => 99.068_413_94,
            AminoAcid::Thr => 101.047_678_5,
            AminoAcid::Cys => 103.009_184_5,
            AminoAcid::Leu => 113.084_064_0,
            AminoAcid::Ile => 113.084_064_0,
            AminoAcid::Asn => 114.042_927_4,
            AminoAcid::Asp => 115.026_943_2,
            AminoAcid::Gln => 128.058_577_5,
            AminoAcid::Lys => 128.094_963_2,
            AminoAcid::Glu => 129.042_593_3,
            AminoAcid::Met => 131.040_484_6,
            AminoAcid::His => 137.058_911_9,
            AminoAcid::Phe => 147.068_413_9,
            AminoAcid::Arg => 156.101_111_0,
            AminoAcid::Tyr => 163.063_328_5,
            AminoAcid::Trp => 186.079_312_9,
        }
    }

    /// Single-letter IUPAC code.
    pub(crate) fn code(self) -> char {
        match self {
            AminoAcid::Gly => 'G',
            AminoAcid::Ala => 'A',
            AminoAcid::Ser => 'S',
            AminoAcid::Pro => 'P',
            AminoAcid::Val => 'V',
            AminoAcid::Thr => 'T',
            AminoAcid::Cys => 'C',
            AminoAcid::Leu => 'L',
            AminoAcid::Ile => 'I',
            AminoAcid::Asn => 'N',
            AminoAcid::Asp => 'D',
            AminoAcid::Gln => 'Q',
            AminoAcid::Lys => 'K',
            AminoAcid::Glu => 'E',
            AminoAcid::Met => 'M',
            AminoAcid::His => 'H',
            AminoAcid::Phe => 'F',
            AminoAcid::Arg => 'R',
            AminoAcid::Tyr => 'Y',
            AminoAcid::Trp => 'W',
        }
    }

    /// Parse a single-letter IUPAC code.
    ///
    /// Returns `None` for characters that are not one of the twenty
    /// proteinogenic residues (case-sensitive, upper case expected).
    pub(crate) fn from_code(code: char) -> Option<AminoAcid> {
        Some(match code {
            'G' => AminoAcid::Gly,
            'A' => AminoAcid::Ala,
            'S' => AminoAcid::Ser,
            'P' => AminoAcid::Pro,
            'V' => AminoAcid::Val,
            'T' => AminoAcid::Thr,
            'C' => AminoAcid::Cys,
            'L' => AminoAcid::Leu,
            'I' => AminoAcid::Ile,
            'N' => AminoAcid::Asn,
            'D' => AminoAcid::Asp,
            'Q' => AminoAcid::Gln,
            'K' => AminoAcid::Lys,
            'E' => AminoAcid::Glu,
            'M' => AminoAcid::Met,
            'H' => AminoAcid::His,
            'F' => AminoAcid::Phe,
            'R' => AminoAcid::Arg,
            'Y' => AminoAcid::Tyr,
            'W' => AminoAcid::Trp,
            _ => return None,
        })
    }

    /// Whether trypsin cleaves C-terminal to this residue (K or R).
    pub(crate) fn is_tryptic_site(self) -> bool {
        matches!(self, AminoAcid::Lys | AminoAcid::Arg)
    }
}

impl std::fmt::Display for AminoAcid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_twenty_distinct_residues() {
        let mut set = std::collections::BTreeSet::new();
        for aa in AminoAcid::ALL {
            set.insert(aa);
        }
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn code_roundtrip() {
        for aa in AminoAcid::ALL {
            assert_eq!(AminoAcid::from_code(aa.code()), Some(aa));
        }
        assert_eq!(AminoAcid::from_code('K'), Some(AminoAcid::Lys));
        assert_eq!(AminoAcid::from_code('x'), None);
    }

    #[test]
    fn leucine_isoleucine_isobaric() {
        assert_eq!(
            AminoAcid::Leu.monoisotopic_mass(),
            AminoAcid::Ile.monoisotopic_mass()
        );
    }

    #[test]
    fn masses_are_positive_and_ordered_sanely() {
        for aa in AminoAcid::ALL {
            let m = aa.monoisotopic_mass();
            assert!(m > 50.0 && m < 200.0, "{aa:?} mass {m} out of range");
        }
        // Glycine is the lightest, tryptophan the heaviest.
        let min = AminoAcid::ALL
            .iter()
            .min_by(|a, b| a.monoisotopic_mass().total_cmp(&b.monoisotopic_mass()))
            .copied()
            .unwrap();
        let max = AminoAcid::ALL
            .iter()
            .max_by(|a, b| a.monoisotopic_mass().total_cmp(&b.monoisotopic_mass()))
            .copied()
            .unwrap();
        assert_eq!(min, AminoAcid::Gly);
        assert_eq!(max, AminoAcid::Trp);
        assert!((AminoAcid::Gly.monoisotopic_mass() - 57.02146).abs() < 1e-4);
    }

    #[test]
    fn tryptic_sites() {
        assert!(AminoAcid::Lys.is_tryptic_site());
        assert!(AminoAcid::Arg.is_tryptic_site());
        assert!(!AminoAcid::Gly.is_tryptic_site());
    }

    #[test]
    fn display_matches_code() {
        assert_eq!(AminoAcid::Trp.to_string(), "W");
    }
}
