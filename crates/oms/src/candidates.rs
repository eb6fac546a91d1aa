//! Mass-sorted candidate index.
//!
//! Open search must find, for every query, all reference spectra whose
//! neutral mass lies in the window's reach. Sorting the library by mass
//! once makes each lookup two binary searches, and the answer a range of
//! positions in that one table: a query's candidates are a window of it,
//! never a copied list.

use crate::window::PrecursorWindow;
use std::ops::Range;
use std::sync::Arc;

/// An index over reference neutral masses supporting range queries: one
/// `(neutral mass, library id)` table and its id column, each behind an
/// `Arc` (a clone shares them).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateIndex {
    by_mass: Arc<Vec<(f64, u32)>>,
    /// `by_mass`'s ids, position for position: a window's ids are a
    /// borrowed slice of it.
    ids: Arc<[u32]>,
}

impl CandidateIndex {
    /// Build from raw (mass, id) pairs, sorted by mass (a stable sort:
    /// equal masses keep their input order).
    pub(crate) fn from_masses(masses: impl IntoIterator<Item = (f64, u32)>) -> CandidateIndex {
        let mut by_mass: Vec<(f64, u32)> = masses.into_iter().collect();
        by_mass.sort_by(|a, b| a.0.total_cmp(&b.0));
        CandidateIndex::from_sorted(by_mass)
    }

    /// Adopt `by_mass` as the table, as it stands: the caller keeps mass
    /// from decreasing along it (a persistent index's shard walk does).
    pub fn from_sorted(by_mass: Vec<(f64, u32)>) -> CandidateIndex {
        CandidateIndex {
            ids: by_mass.iter().map(|&(_, id)| id).collect(),
            by_mass: Arc::new(by_mass),
        }
    }

    /// Give up the table to grow it: the pairs without a copy when this
    /// handle is their only owner, its id column dropped.
    pub fn into_pairs(self) -> Vec<(f64, u32)> {
        Arc::try_unwrap(self.by_mass).unwrap_or_else(|shared| shared.to_vec())
    }

    /// The `(neutral mass, library id)` table, in mass order (its length
    /// is the number of indexed references).
    pub fn pairs(&self) -> &[(f64, u32)] {
        &self.by_mass
    }

    /// The table's id column, shared: `ids()[p]` is the library id at
    /// position `p`, so the ids of a [`CandidateIndex::window`] are
    /// `&ids()[window]`.
    pub fn ids(&self) -> &Arc<[u32]> {
        &self.ids
    }

    /// The positions in mass order reachable from a query of neutral
    /// mass `query_mass` under `window`: two binary searches. Its ids, in
    /// ascending mass order, are the slice of [`CandidateIndex::ids`] it
    /// spans. A non-finite mass reaches nothing (at +∞ a ppm window's
    /// lower bound is NaN, which every reference would pass).
    pub fn window(&self, window: &PrecursorWindow, query_mass: f64) -> Range<u32> {
        if !query_mass.is_finite() {
            return 0..0;
        }
        let (lo, hi) = window.reference_mass_range(query_mass);
        let start = self.by_mass.partition_point(|&(m, _)| m < lo);
        let end = self.by_mass.partition_point(|&(m, _)| m <= hi);
        start as u32..end as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ReferenceCatalog;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};

    fn index_of(masses: &[f64]) -> CandidateIndex {
        CandidateIndex::from_masses(masses.iter().enumerate().map(|(i, &m)| (m, i as u32)))
    }

    /// The ids `window` reaches from `mass`, copied.
    fn reached(idx: &CandidateIndex, window: &PrecursorWindow, mass: f64) -> Vec<u32> {
        let reach = idx.window(window, mass);
        idx.ids()[reach.start as usize..reach.end as usize].to_vec()
    }

    #[test]
    fn finds_in_range_inclusive() {
        let idx = index_of(&[100.0, 200.0, 300.0, 400.0]);
        let w = PrecursorWindow::OpenDa {
            lower: -50.0,
            upper: 50.0,
        };
        // query 250 → references in [200, 300]
        assert_eq!(idx.window(&w, 250.0), 1..3);
        assert_eq!(reached(&idx, &w, 250.0), vec![1, 2]);
    }

    #[test]
    fn empty_when_nothing_reachable() {
        let idx = index_of(&[100.0, 200.0]);
        let w = PrecursorWindow::StandardPpm(10.0);
        assert!(idx.window(&w, 500.0).is_empty());
    }

    #[test]
    fn empty_at_a_non_finite_mass() {
        let idx = index_of(&[100.0, 200.0, f64::MAX]);
        for w in [
            PrecursorWindow::standard_default(),
            PrecursorWindow::open_default(),
        ] {
            for mass in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                assert!(idx.window(&w, mass).is_empty(), "{w:?} at {mass}");
            }
        }
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let idx = CandidateIndex::from_masses([(300.0, 0u32), (100.0, 1), (200.0, 2)]);
        let w = PrecursorWindow::OpenDa {
            lower: -1000.0,
            upper: 1000.0,
        };
        assert_eq!(reached(&idx, &w, 200.0), vec![1, 2, 0]);
        assert_eq!(&idx.ids()[..], &[1, 2, 0]);
    }

    #[test]
    fn open_window_returns_more_candidates_than_standard() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 31);
        let idx = workload.library.candidate_index();
        assert_eq!(idx.pairs().len(), workload.library.len());
        let standard = PrecursorWindow::standard_default();
        let open = PrecursorWindow::open_default();
        let mut open_total = 0usize;
        let mut std_total = 0usize;
        for q in &workload.queries {
            open_total += idx.window(&open, q.neutral_mass()).len();
            std_total += idx.window(&standard, q.neutral_mass()).len();
        }
        assert!(
            open_total > 10 * std_total.max(1),
            "open search must blow up the candidate set ({std_total} → {open_total})"
        );
    }

    #[test]
    fn modified_query_reaches_true_reference_only_in_open_mode() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 32);
        let idx = workload.library.candidate_index();
        let standard = PrecursorWindow::standard_default();
        let open = PrecursorWindow::open_default();
        let mut checked = 0;
        for (q, t) in workload.queries.iter().zip(&workload.truth) {
            if let hdoms_ms::dataset::QueryTruth::Modified { library_id, .. } = t {
                let open_cands = reached(&idx, &open, q.neutral_mass());
                assert!(
                    open_cands.contains(library_id),
                    "open search must reach the true reference"
                );
                let std_cands = reached(&idx, &standard, q.neutral_mass());
                assert!(
                    !std_cands.contains(library_id),
                    "standard search must miss a modified query's reference"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn boundary_masses_included() {
        let idx = index_of(&[100.0, 150.0, 200.0]);
        let w = PrecursorWindow::OpenDa {
            lower: 0.0,
            upper: 50.0,
        };
        // query 150: reference range [100, 150]
        assert_eq!(reached(&idx, &w, 150.0), vec![0, 1]);
    }
}
