//! Post-translational modifications (PTMs).
//!
//! Open modification search exists because proteins carry PTMs that shift
//! the precursor mass of a peptide away from its unmodified reference. This
//! module provides a catalogue of the common modifications used by the
//! synthetic workloads, with Unimod-style monoisotopic mass shifts.

use crate::aa::AminoAcid;
use std::fmt;

/// A post-translational modification: a named monoisotopic mass shift with a
/// residue-specificity rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modification {
    name: &'static str,
    mass_shift: f64,
    /// The residues it may attach to (up to three; unused slots are `None`).
    residues: [Option<AminoAcid>; 3],
}

impl Modification {
    /// Oxidation (commonly on methionine), +15.9949 Da.
    pub(crate) const OXIDATION: Modification = Modification {
        name: "Oxidation",
        mass_shift: 15.994_915,
        residues: [Some(AminoAcid::Met), None, None],
    };

    /// Phosphorylation on S/T/Y, +79.9663 Da.
    pub(crate) const PHOSPHO: Modification = Modification {
        name: "Phospho",
        mass_shift: 79.966_331,
        residues: [
            Some(AminoAcid::Ser),
            Some(AminoAcid::Thr),
            Some(AminoAcid::Tyr),
        ],
    };

    /// Acetylation on lysine, +42.0106 Da.
    pub(crate) const ACETYL: Modification = Modification {
        name: "Acetyl",
        mass_shift: 42.010_565,
        residues: [Some(AminoAcid::Lys), None, None],
    };

    /// Mono-methylation on K/R, +14.0157 Da.
    pub(crate) const METHYL: Modification = Modification {
        name: "Methyl",
        mass_shift: 14.015_650,
        residues: [Some(AminoAcid::Lys), Some(AminoAcid::Arg), None],
    };

    /// Di-methylation on K/R, +28.0313 Da.
    pub(crate) const DIMETHYL: Modification = Modification {
        name: "Dimethyl",
        mass_shift: 28.031_300,
        residues: [Some(AminoAcid::Lys), Some(AminoAcid::Arg), None],
    };

    /// Deamidation on N/Q, +0.9840 Da.
    pub(crate) const DEAMIDATION: Modification = Modification {
        name: "Deamidation",
        mass_shift: 0.984_016,
        residues: [Some(AminoAcid::Asn), Some(AminoAcid::Gln), None],
    };

    /// Carbamidomethylation on cysteine, +57.0215 Da.
    pub(crate) const CARBAMIDOMETHYL: Modification = Modification {
        name: "Carbamidomethyl",
        mass_shift: 57.021_464,
        residues: [Some(AminoAcid::Cys), None, None],
    };

    /// GlyGly remnant of ubiquitination on lysine, +114.0429 Da.
    pub(crate) const GLYGLY: Modification = Modification {
        name: "GlyGly",
        mass_shift: 114.042_927,
        residues: [Some(AminoAcid::Lys), None, None],
    };

    /// Succinylation on lysine, +100.0160 Da.
    pub(crate) const SUCCINYL: Modification = Modification {
        name: "Succinyl",
        mass_shift: 100.016_044,
        residues: [Some(AminoAcid::Lys), None, None],
    };

    /// Tri-methylation on lysine, +42.0470 Da (near-isobaric with acetyl —
    /// a classic open-search stress case).
    pub(crate) const TRIMETHYL: Modification = Modification {
        name: "Trimethyl",
        mass_shift: 42.046_950,
        residues: [Some(AminoAcid::Lys), None, None],
    };

    /// The modifications used by the synthetic workload generator, roughly
    /// ordered by how often they occur in real open-search studies
    /// (Chick et al. 2015 report oxidation and deamidation dominating).
    pub const COMMON: [Modification; 10] = [
        Modification::OXIDATION,
        Modification::DEAMIDATION,
        Modification::PHOSPHO,
        Modification::ACETYL,
        Modification::METHYL,
        Modification::DIMETHYL,
        Modification::CARBAMIDOMETHYL,
        Modification::GLYGLY,
        Modification::SUCCINYL,
        Modification::TRIMETHYL,
    ];

    /// Human-readable name, e.g. `"Phospho"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Monoisotopic mass shift in daltons.
    pub fn mass_shift(&self) -> f64 {
        self.mass_shift
    }

    /// Whether this modification may be placed on residue `aa`.
    pub(crate) fn applies_to(&self, aa: AminoAcid) -> bool {
        self.residues.iter().flatten().any(|t| *t == aa)
    }
}

impl fmt::Display for Modification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:+.4} Da)", self.name, self.mass_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_catalogue_has_unique_names() {
        let mut names: Vec<&str> = Modification::COMMON.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Modification::COMMON.len());
    }

    #[test]
    fn mass_shifts_are_positive_here() {
        for m in Modification::COMMON {
            assert!(m.mass_shift() > 0.0, "{m} should have positive shift");
        }
    }

    #[test]
    fn acetyl_trimethyl_near_isobaric() {
        let delta =
            (Modification::ACETYL.mass_shift() - Modification::TRIMETHYL.mass_shift()).abs();
        assert!(delta < 0.05, "acetyl vs trimethyl delta {delta}");
        assert!(delta > 0.01);
    }

    #[test]
    fn phospho_applies_to_serine_not_glycine() {
        assert!(Modification::PHOSPHO.applies_to(AminoAcid::Ser));
        assert!(!Modification::PHOSPHO.applies_to(AminoAcid::Gly));
    }

    #[test]
    fn display_contains_name_and_shift() {
        let s = Modification::PHOSPHO.to_string();
        assert!(s.contains("Phospho"));
        assert!(s.contains("79.966"));
    }
}
