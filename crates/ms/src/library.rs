//! Spectral libraries: reference spectra with target/decoy bookkeeping.

use crate::fragment::{theoretical_spectrum, FragmentConfig};
use crate::peptide::Peptide;
use crate::spectrum::{Spectrum, SpectrumOrigin};

/// One reference entry: the spectrum plus the peptide it was generated from.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryEntry {
    /// The reference spectrum. Its `id` equals the entry's index in the
    /// library.
    pub spectrum: Spectrum,
    /// The peptide the spectrum was generated from.
    pub peptide: Peptide,
    /// Whether this is a decoy entry.
    pub is_decoy: bool,
}

/// A spectral library: an indexed collection of reference spectra, half of
/// which are decoys when built via `SpectralLibrary::with_decoys`.
///
/// Entry `id`s are dense indices `0..len`, so search results can refer to
/// entries by `u32` id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpectralLibrary {
    entries: Vec<LibraryEntry>,
}

impl SpectralLibrary {
    /// Create an empty library.
    pub fn new() -> SpectralLibrary {
        SpectralLibrary::default()
    }

    /// Build a library from target peptides, generating one theoretical
    /// spectrum per peptide at `charge`, followed by one decoy per target
    /// (pseudo-shuffled, seeded deterministically from `decoy_seed` and the
    /// entry index).
    ///
    /// Targets occupy ids `0..n`, decoys `n..2n`.
    pub(crate) fn with_decoys(
        peptides: &[Peptide],
        charge: u8,
        config: &FragmentConfig,
        decoy_seed: u64,
    ) -> SpectralLibrary {
        let entries = (0..2 * peptides.len() as u32)
            .map(|id| SpectralLibrary::decoys_entry(peptides, id, charge, config, decoy_seed))
            .collect();
        SpectralLibrary { entries }
    }

    /// The entry [`SpectralLibrary::with_decoys`] places at dense id
    /// `id` (targets `0..n`, decoys `n..2n`), generated standalone —
    /// per-entry random access into the deterministic target/decoy
    /// layout, without materialising the rest of the library. This is
    /// what lets scaled synthetic libraries
    /// ([`crate::dataset::ScaledLibrary`]) generate any entry
    /// independently and identically across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 2 * peptides.len()`.
    pub(crate) fn decoys_entry(
        peptides: &[Peptide],
        id: u32,
        charge: u8,
        config: &FragmentConfig,
        decoy_seed: u64,
    ) -> LibraryEntry {
        let n = peptides.len();
        let slot = id as usize;
        if slot < n {
            let p = &peptides[slot];
            let spectrum = theoretical_spectrum(id, p, charge, config, SpectrumOrigin::Target);
            LibraryEntry {
                spectrum,
                peptide: p.clone(),
                is_decoy: false,
            }
        } else {
            let i = slot - n;
            let decoy =
                peptides[i].decoy(decoy_seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let spectrum = theoretical_spectrum(id, &decoy, charge, config, SpectrumOrigin::Decoy);
            LibraryEntry {
                spectrum,
                peptide: decoy,
                is_decoy: true,
            }
        }
    }

    /// Append an entry, assigning it the next dense id.
    ///
    /// # Panics
    ///
    /// Panics if the entry's spectrum id does not equal the next index —
    /// ids must stay dense for search results to be meaningful.
    pub fn push(&mut self, entry: LibraryEntry) {
        assert_eq!(
            entry.spectrum.id as usize,
            self.entries.len(),
            "library ids must be dense"
        );
        self.entries.push(entry);
    }

    /// All entries, in id order.
    pub fn entries(&self) -> &[LibraryEntry] {
        &self.entries
    }

    /// Look up an entry by id.
    pub fn get(&self, id: u32) -> Option<&LibraryEntry> {
        self.entries.get(id as usize)
    }

    /// Number of entries (targets + decoys).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of decoy entries.
    pub fn decoy_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_decoy).count()
    }

    /// Iterate over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, LibraryEntry> {
        self.entries.iter()
    }
}

impl<'a> IntoIterator for &'a SpectralLibrary {
    type Item = &'a LibraryEntry;
    type IntoIter = std::slice::Iter<'a, LibraryEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl FromIterator<LibraryEntry> for SpectralLibrary {
    /// Collect entries; ids are rewritten to dense indices in iteration
    /// order.
    fn from_iter<T: IntoIterator<Item = LibraryEntry>>(iter: T) -> SpectralLibrary {
        let mut entries: Vec<LibraryEntry> = iter.into_iter().collect();
        for (i, e) in entries.iter_mut().enumerate() {
            e.spectrum.id = i as u32;
        }
        SpectralLibrary { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn peptides(n: usize) -> Vec<Peptide> {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n)
            .map(|_| Peptide::random_tryptic(&mut rng, 8, 20))
            .collect()
    }

    #[test]
    fn with_decoys_doubles_size() {
        let lib = SpectralLibrary::with_decoys(&peptides(10), 2, &FragmentConfig::default(), 1);
        assert_eq!(lib.len(), 20);
        assert_eq!(lib.decoy_count(), 10);
    }

    #[test]
    fn ids_are_dense_and_targets_first() {
        let lib = SpectralLibrary::with_decoys(&peptides(5), 2, &FragmentConfig::default(), 1);
        for (i, e) in lib.iter().enumerate() {
            assert_eq!(e.spectrum.id as usize, i);
            assert_eq!(e.is_decoy, i >= 5);
        }
    }

    #[test]
    fn decoy_precursor_mass_matches_target() {
        let lib = SpectralLibrary::with_decoys(&peptides(5), 2, &FragmentConfig::default(), 1);
        for i in 0..5 {
            let t = lib.get(i as u32).unwrap();
            let d = lib.get((5 + i) as u32).unwrap();
            assert!(
                (t.spectrum.precursor_mz - d.spectrum.precursor_mz).abs() < 1e-9,
                "decoy {i} precursor differs"
            );
        }
    }

    #[test]
    fn push_enforces_dense_ids() {
        let lib = SpectralLibrary::with_decoys(&peptides(2), 2, &FragmentConfig::default(), 1);
        let mut fresh = SpectralLibrary::new();
        let mut entry = lib.entries()[0].clone();
        entry.spectrum.id = 0;
        fresh.push(entry);
        assert_eq!(fresh.len(), 1);
    }

    #[test]
    #[should_panic(expected = "library ids must be dense")]
    fn push_rejects_non_dense_id() {
        let lib = SpectralLibrary::with_decoys(&peptides(2), 2, &FragmentConfig::default(), 1);
        let mut fresh = SpectralLibrary::new();
        let mut entry = lib.entries()[0].clone();
        entry.spectrum.id = 7;
        fresh.push(entry);
    }

    #[test]
    fn from_iterator_rewrites_ids() {
        let lib = SpectralLibrary::with_decoys(&peptides(3), 2, &FragmentConfig::default(), 1);
        let collected: SpectralLibrary = lib.iter().rev().cloned().collect();
        for (i, e) in collected.iter().enumerate() {
            assert_eq!(e.spectrum.id as usize, i);
        }
    }

    #[test]
    fn library_is_deterministic() {
        let p = peptides(4);
        let a = SpectralLibrary::with_decoys(&p, 2, &FragmentConfig::default(), 7);
        let b = SpectralLibrary::with_decoys(&p, 2, &FragmentConfig::default(), 7);
        assert_eq!(a, b);
    }
}
