//! The stages every search shares around its scorer: the reference
//! catalog candidates and PSMs are drawn from ([`ReferenceCatalog`],
//! [`ReferenceMeta`]), the join of hits with it ([`assemble_psms`]),
//! and the outcome a search reports ([`PipelineOutcome`], with its
//! ground-truth evaluation [`EvalStats`]).
//!
//! `hdoms-engine` runs them in order — preprocess → candidates → score →
//! assemble → FDR — and times each one as the `encode` / `candidates` /
//! `score` / `finalize` fields of receipts, `BatchStats`, and the
//! `hdoms_stage_*_ms` histograms (see `docs/OBSERVABILITY.md`). This
//! crate itself stays timer-free — instrumentation lives in the callers.

use crate::candidates::CandidateIndex;
use crate::psm::Psm;
use crate::search::SearchHit;
use hdoms_ms::dataset::SyntheticWorkload;
use hdoms_ms::library::{LibraryEntry, SpectralLibrary};
use hdoms_ms::preprocess::BinnedSpectrum;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// The reference-side metadata a search needs to turn backend hits
/// into PSMs: masses for the precursor delta, decoy flags for FDR.
///
/// A [`SpectralLibrary`] is the obvious catalog; a prebuilt persistent
/// index (`hdoms-index`) implements this too, which is how a search runs
/// without the raw library ever being loaded.
pub trait ReferenceCatalog {
    /// Number of references (dense ids `0..len`).
    fn reference_count(&self) -> usize;

    /// Neutral mass of reference `id`, or `None` for an unknown id.
    fn reference_mass(&self, id: u32) -> Option<f64>;

    /// Whether reference `id` is a decoy, or `None` for an unknown id.
    fn reference_is_decoy(&self, id: u32) -> Option<bool>;

    /// A mass-sorted candidate index over all references (equal masses
    /// in id order).
    fn candidate_index(&self) -> CandidateIndex {
        let ids = 0..self.reference_count() as u32;
        CandidateIndex::from_masses(ids.filter_map(|id| Some((self.reference_mass(id)?, id))))
    }
}

impl ReferenceCatalog for SpectralLibrary {
    fn reference_count(&self) -> usize {
        self.len()
    }

    fn reference_mass(&self, id: u32) -> Option<f64> {
        self.get(id).map(|e| e.spectrum.neutral_mass())
    }

    fn reference_is_decoy(&self, id: u32) -> Option<bool> {
        self.get(id).map(|e| e.is_decoy)
    }
}

/// The dense per-reference catalog an engine turns backend hits into
/// PSMs and table rows with: neutral mass (precursor delta), decoy flag
/// (FDR), and peptide sequence (reports), by reference id — plus the
/// precursor m/z and charge column pair a persistent index writes back
/// into its image (nothing searches by them). A persistent index holds
/// one behind an `Arc`, so the index, its engine and every session read
/// the same tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReferenceMeta {
    masses: Vec<f64>,
    decoys: Vec<bool>,
    peptides: Arc<Vec<String>>,
    mzs: Vec<f64>,
    charges: Vec<u8>,
}

impl ReferenceMeta {
    /// Capture the metadata of a raw spectral library.
    pub fn from_library(library: &SpectralLibrary) -> ReferenceMeta {
        let mut meta = ReferenceMeta::default();
        meta.extend(library.entries());
        meta
    }

    /// Take in `entries` under the next dense ids — an index appends to
    /// its catalog without copying the rows it holds.
    pub fn extend(&mut self, entries: &[LibraryEntry]) {
        let first = self.masses.len();
        self.resize(first + entries.len());
        for (id, e) in (first as u32..).zip(entries) {
            let (mass, peptide) = (e.spectrum.neutral_mass(), e.peptide.to_string());
            let precursor = (e.spectrum.precursor_mz, e.spectrum.precursor_charge);
            self.set(id, mass, e.is_decoy, peptide, precursor);
        }
    }

    /// Grow to `count` references; a new row holds no reference until
    /// [`ReferenceMeta::set`] fills it.
    pub fn resize(&mut self, count: usize) {
        self.masses.resize(count, f64::NAN);
        self.decoys.resize(count, false);
        Arc::make_mut(&mut self.peptides).resize(count, String::new());
        self.mzs.resize(count, f64::NAN);
        self.charges.resize(count, 0);
    }

    /// Fill in the row of reference `id`: its neutral mass, decoy flag,
    /// peptide and `(precursor m/z, charge)`.
    ///
    /// # Panics
    ///
    /// Panics on an id at or beyond the catalog's size.
    pub fn set(&mut self, id: u32, mass: f64, decoy: bool, peptide: String, precursor: (f64, u8)) {
        let id = id as usize;
        (self.masses[id], self.decoys[id]) = (mass, decoy);
        Arc::make_mut(&mut self.peptides)[id] = peptide;
        (self.mzs[id], self.charges[id]) = precursor;
    }

    /// Precursor m/z and charge of reference `id`, or `None` for an
    /// unknown id.
    pub fn precursor(&self, id: u32) -> Option<(f64, u8)> {
        Some((*self.mzs.get(id as usize)?, self.charges[id as usize]))
    }

    /// Peptide sequences by dense reference id (a shared table: cloning
    /// the handle copies no sequence).
    pub fn peptides(&self) -> &Arc<Vec<String>> {
        &self.peptides
    }
}

impl ReferenceCatalog for ReferenceMeta {
    fn reference_count(&self) -> usize {
        self.masses.len()
    }

    fn reference_mass(&self, id: u32) -> Option<f64> {
        self.masses.get(id as usize).copied()
    }

    fn reference_is_decoy(&self, id: u32) -> Option<bool> {
        self.decoys.get(id as usize).copied()
    }
}

/// Join a batch of backend hits with catalog metadata into PSMs.
///
/// This is the one assembly step between scoring and FDR, shared by
/// **every** execution path — the `hdoms-engine` session layer and the
/// flat oracle its tests compose both call it, which is what guarantees
/// that a streamed multi-batch session reproduces a one-shot batch run
/// byte-for-byte.
///
/// `queries[i]` must pair with `hits[i]`.
///
/// # Panics
///
/// Panics if the lengths disagree or a hit names a reference the catalog
/// does not know.
pub fn assemble_psms<C>(
    queries: &[BinnedSpectrum],
    hits: &[Option<SearchHit>],
    catalog: &C,
) -> Vec<Psm>
where
    C: ReferenceCatalog + ?Sized,
{
    assert_eq!(queries.len(), hits.len(), "queries and hits must pair up");
    queries
        .iter()
        .zip(hits)
        .filter_map(|(binned, hit)| {
            hit.map(|h| {
                let reference_mass = catalog
                    .reference_mass(h.reference)
                    .expect("backend returned a valid reference id");
                let is_decoy = catalog
                    .reference_is_decoy(h.reference)
                    .expect("backend returned a valid reference id");
                Psm {
                    query_id: binned.id,
                    reference_id: h.reference,
                    score: h.score,
                    is_decoy,
                    precursor_delta: binned.neutral_mass - reference_mass,
                }
            })
        })
        .collect()
}

/// The result of one search.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// Name of the backend that produced the scores.
    pub backend_name: String,
    /// Best-hit PSMs for every query that survived preprocessing and had
    /// candidates.
    pub psms: Vec<Psm>,
    /// Target PSMs accepted at the configured FDR, descending score.
    pub accepted: Vec<Psm>,
    /// Score of the weakest accepted PSM.
    pub threshold_score: f64,
    /// Decoy PSMs above the threshold.
    pub decoys_above: usize,
    /// Queries dropped by preprocessing (too few peaks).
    pub rejected_queries: usize,
    /// Total queries in the workload.
    pub total_queries: usize,
    /// Mean open-window candidate count per query (the search blow-up the
    /// accelerator has to cope with).
    pub mean_candidates: f64,
}

impl PipelineOutcome {
    /// Number of accepted identifications (the paper's headline quality
    /// metric, Figs. 11/13).
    pub fn identifications(&self) -> usize {
        self.accepted.len()
    }

    /// Ids of the queries with an accepted identification.
    pub fn accepted_query_ids(&self) -> HashSet<u32> {
        self.accepted.iter().map(|p| p.query_id).collect()
    }

    /// The set of identified peptide sequences — what the Fig. 10 Venn
    /// diagram compares across tools.
    pub fn identified_peptides(&self, library: &SpectralLibrary) -> BTreeSet<String> {
        self.accepted
            .iter()
            .filter_map(|p| library.get(p.reference_id))
            .map(|e| e.peptide.to_string())
            .collect()
    }

    /// Compare accepted PSMs against the synthetic ground truth.
    pub fn evaluate(&self, workload: &SyntheticWorkload) -> EvalStats {
        let mut correct = 0usize;
        let mut wrong_reference = 0usize;
        let mut unmatchable_accepted = 0usize;
        for psm in &self.accepted {
            match workload.truth[psm.query_id as usize].library_id() {
                Some(true_id) if true_id == psm.reference_id => correct += 1,
                Some(_) => wrong_reference += 1,
                None => unmatchable_accepted += 1,
            }
        }
        let matchable = workload.matchable_queries();
        EvalStats {
            accepted: self.accepted.len(),
            correct,
            wrong_reference,
            unmatchable_accepted,
            recall: if matchable == 0 {
                0.0
            } else {
                correct as f64 / matchable as f64
            },
            observed_false_rate: if self.accepted.is_empty() {
                0.0
            } else {
                (wrong_reference + unmatchable_accepted) as f64 / self.accepted.len() as f64
            },
        }
    }
}

/// Ground-truth evaluation of a search (synthetic workloads only —
/// real data has no ground truth, which is why the paper compares tool
/// agreement instead, Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalStats {
    /// Accepted identifications.
    pub accepted: usize,
    /// Accepted PSMs pointing at the query's true library entry.
    pub correct: usize,
    /// Accepted PSMs pointing at some other target entry.
    pub wrong_reference: usize,
    /// Accepted PSMs for queries with no true match in the library.
    pub unmatchable_accepted: usize,
    /// `correct / matchable queries`.
    pub recall: f64,
    /// Fraction of accepted PSMs that are wrong — should track the FDR
    /// level.
    pub observed_false_rate: f64,
}
