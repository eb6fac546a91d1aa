//! The complete MLC-RRAM OMS accelerator.
//!
//! Data flow (§4 of the paper): spectra are preprocessed offline, encoded
//! *in memory* (the ID item memory lives in RRAM), the encoded reference
//! hypervectors are stored as differential binary weights, and Hamming
//! search runs *in memory* against them. The accelerator is a
//! [`RunScorer`] — `prepare` is the in-memory encode, `best_in_ranges` the
//! in-memory search — so the flat loop and the shard fan-out written
//! over that seam, and with them the standard OMS pipeline (candidate
//! windowing and FDR filtering), drive it exactly like the software
//! baselines, which is what the Fig. 10/11/13 quality comparisons need.
//! The library side goes through the one intake
//! [`SharedReferences::encode_in`] with the [`InMemoryEncoder`] as its
//! `ReferenceEncoder`, folded into [`BuildStats`] by [`StatsFold`].

use crate::encode::InMemoryEncoder;
use crate::search::InMemorySearch;
use hdoms_hdc::encoder::EncoderConfig;
use hdoms_hdc::BinaryHypervector;
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::preprocess::{BinnedSpectrum, PreprocessConfig, Preprocessor};
use hdoms_oms::search::{RunMember, RunScorer, SearchHit, SharedReferences};
use hdoms_rram::array::CrossbarConfig;

/// Full accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Offline preprocessing (§3.1).
    pub preprocess: PreprocessConfig,
    /// HD encoding parameters (§3.2, §4.2). The ID precision must match
    /// the MLC cell precision.
    pub encoder: EncoderConfig,
    /// Crossbar geometry and device model (§4.1).
    pub crossbar: CrossbarConfig,
    /// Worker threads for the simulation (the real chip parallelises in
    /// the analog domain).
    pub threads: usize,
    /// Master seed for programming noise and per-operation analog noise.
    pub seed: u64,
}

impl Default for AcceleratorConfig {
    /// The paper's headline configuration: D = 8192, 3-bit IDs on 8-level
    /// cells, 64 activated rows, chunked level hypervectors.
    fn default() -> AcceleratorConfig {
        AcceleratorConfig {
            preprocess: PreprocessConfig::default(),
            encoder: EncoderConfig::default(),
            crossbar: CrossbarConfig::default(),
            threads: hdoms_hdc::parallel::default_threads(),
            seed: 0xacce1,
        }
    }
}

/// Statistics gathered while building the accelerator (all zero before
/// anything is encoded).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BuildStats {
    /// Library entries successfully encoded and stored.
    pub references_stored: usize,
    /// Library entries dropped by preprocessing.
    pub references_rejected: usize,
    /// Mean in-memory encoding bit-error rate over the stored references
    /// (vs the software ground truth).
    pub mean_encode_ber: f64,
}

/// The build-statistics fold, written once: encoded slots go in one at a
/// time in id order (the BER sum is a left fold, so every build path —
/// [`OmsAccelerator::build`], `hdoms-index`'s builds and appends, its
/// streaming builder — reaches bit-identical statistics), and
/// [`StatsFold::onto`] lands them on whatever was already recorded.
#[derive(Debug, Default)]
pub struct StatsFold {
    stored: usize,
    rejected: usize,
    ber_sum: f64,
}

impl StatsFold {
    /// Record one encoded slot and hand its hypervector on.
    pub fn push(&mut self, slot: Option<(BinaryHypervector, f64)>) -> Option<BinaryHypervector> {
        let (hv, ber) = slot.unzip();
        self.stored += usize::from(hv.is_some());
        self.rejected += usize::from(hv.is_none());
        self.ber_sum += ber.unwrap_or(0.0);
        hv
    }

    /// The statistics of `prior` (nothing, for a fresh build) extended
    /// by the folded slots — an exact update: the stored mean is
    /// re-weighted by the stored counts.
    pub fn onto(&self, prior: Option<&BuildStats>) -> BuildStats {
        let (old_stored, old_rejected, old_mean) = prior.map_or((0, 0, 0.0), |p| {
            (
                p.references_stored,
                p.references_rejected,
                p.mean_encode_ber,
            )
        });
        let stored = old_stored + self.stored;
        BuildStats {
            references_stored: stored,
            references_rejected: old_rejected + self.rejected,
            mean_encode_ber: if stored == 0 {
                0.0
            } else {
                (old_mean * old_stored as f64 + self.ber_sum) / stored as f64
            },
        }
    }
}

/// The accelerator: in-memory encoder + in-memory search over the encoded
/// library.
#[derive(Debug, Clone)]
pub struct OmsAccelerator {
    config: AcceleratorConfig,
    encoder: InMemoryEncoder,
    search: InMemorySearch,
    build_stats: BuildStats,
}

impl OmsAccelerator {
    /// Build the accelerator: program the ID memory, preprocess and encode
    /// the whole library in memory, and store the results as search
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (see [`InMemoryEncoder::new`]) or
    /// an empty library.
    pub fn build(library: &SpectralLibrary, config: AcceleratorConfig) -> OmsAccelerator {
        assert!(!library.is_empty(), "cannot build over an empty library");
        let encoder =
            InMemoryEncoder::new(config.encoder, config.crossbar, config.seed, config.threads);
        let pre = Preprocessor::new(config.preprocess);
        let (mut references, mut stats) =
            (SharedReferences::from(Vec::new()), StatsFold::default());
        let fold = |slot| stats.push(slot);
        references.encode_in(&encoder, &pre, library.entries(), config.threads, fold);
        OmsAccelerator::from_parts(config, encoder, references, stats.onto(None))
    }

    /// Reassemble an accelerator from previously-built parts without
    /// re-encoding the library — the warm-load path behind
    /// `hdoms-index`'s `LibraryIndex::to_accelerator`.
    ///
    /// `references` must be the encoded library hypervectors by dense id
    /// (`None` marks entries preprocessing rejected), exactly as a cold
    /// [`OmsAccelerator::build`] would have produced with `config`; the
    /// search weights are re-derived deterministically from `config.seed`,
    /// so searches through the reassembled accelerator score identically
    /// to the cold-built one.
    ///
    /// Accepts either an owned `Vec` or a [`SharedReferences`] handle; the
    /// latter shares the caller's hypervector words instead of copying,
    /// which is how an index-resident accelerator avoids holding a second
    /// copy of the encoded library.
    ///
    /// # Panics
    ///
    /// Panics if the encoder/crossbar configurations disagree or a
    /// stored reference's dimension is not the encoder's.
    pub fn from_parts(
        config: AcceleratorConfig,
        encoder: InMemoryEncoder,
        references: impl Into<SharedReferences>,
        build_stats: BuildStats,
    ) -> OmsAccelerator {
        let search = InMemorySearch::new(
            config.crossbar,
            config.encoder.dim,
            references,
            config.seed ^ 0x5ea4c4,
        );
        OmsAccelerator {
            config,
            encoder,
            search,
            build_stats,
        }
    }

    /// Build-time statistics (library encoding error etc.).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The in-memory encoder.
    pub fn encoder(&self) -> &InMemoryEncoder {
        &self.encoder
    }

    /// The in-memory search engine.
    pub fn search_engine(&self) -> &InMemorySearch {
        &self.search
    }
}

impl RunScorer for OmsAccelerator {
    type Query = BinaryHypervector;

    fn report_name(&self) -> String {
        format!(
            "rram-accelerator({}b/cell,{}rows)",
            self.config.crossbar.mlc.bits_per_cell, self.config.crossbar.activated_rows
        )
    }

    /// Encode the query in memory (no statistics: a query has no use for
    /// the software ground truth).
    fn prepare(&self, binned: &BinnedSpectrum) -> BinaryHypervector {
        self.encoder.encode(binned)
    }

    /// Search each member's range of the run in memory, one member at a
    /// time; the analog noise is keyed on `(query id, reference id)`, so
    /// it depends on neither the run nor the other members.
    fn best_in_ranges(
        &self,
        members: &[RunMember<'_, BinaryHypervector>],
        run: &[u32],
    ) -> Vec<Option<SearchHit>> {
        let search = |(binned, query, range): &RunMember<'_, BinaryHypervector>| {
            self.search
                .search_best(query, binned.id, &run[range.clone()])
        };
        members.iter().map(search).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_hdc::item_memory::LevelStyle;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
    use hdoms_ms::preprocess::Preprocessor;
    use hdoms_oms::pipeline::ReferenceCatalog;
    use hdoms_oms::search::{best_hits, candidate_lists};
    use hdoms_oms::window::PrecursorWindow;
    use hdoms_rram::config::MlcConfig;

    fn test_config() -> AcceleratorConfig {
        let mut config = AcceleratorConfig::default();
        config.encoder.dim = 2048;
        config.encoder.q_levels = 16;
        config.encoder.level_style = LevelStyle::Chunked { num_chunks: 64 };
        config.threads = 4;
        config
    }

    #[test]
    fn build_stats_reflect_device_noise() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 809);
        let accel = OmsAccelerator::build(&workload.library, test_config());
        let stats = accel.build_stats();
        assert_eq!(
            stats.references_stored + stats.references_rejected,
            workload.library.len()
        );
        assert!(stats.references_stored > 0);
        // 3-bit cells at 2 h age: a few to tens of percent encoding error.
        assert!(
            stats.mean_encode_ber > 0.0 && stats.mean_encode_ber < 0.45,
            "mean encode BER {}",
            stats.mean_encode_ber
        );
    }

    #[test]
    fn one_bit_cells_encode_cleaner_than_three() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 810);
        let ber_for = |bits: u8| {
            let mut config = test_config();
            config.crossbar.mlc = MlcConfig::with_bits(bits);
            config.encoder.id_precision = match bits {
                1 => hdoms_hdc::multibit::IdPrecision::Bits1,
                2 => hdoms_hdc::multibit::IdPrecision::Bits2,
                _ => hdoms_hdc::multibit::IdPrecision::Bits3,
            };
            OmsAccelerator::build(&workload.library, config)
                .build_stats()
                .mean_encode_ber
        };
        assert!(ber_for(1) < ber_for(3), "Fig. 9a ordering");
    }

    #[test]
    fn backend_name_describes_hardware() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 811);
        let accel = OmsAccelerator::build(&workload.library, test_config());
        assert_eq!(accel.report_name(), "rram-accelerator(3b/cell,64rows)");
    }

    #[test]
    fn deterministic_build_and_search() {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 812);
        let (queries, _) = Preprocessor::new(test_config().preprocess).run_batch(&workload.queries);
        let index = workload.library.candidate_index();
        let cands = candidate_lists(&index, &PrecursorWindow::open_default(), &queries);
        let search = || {
            let accel = OmsAccelerator::build(&workload.library, test_config());
            best_hits(&accel, &queries, &cands, 4)
        };
        let hits = search();
        assert!(hits.iter().any(Option::is_some));
        assert_eq!(hits, search());
    }

    #[test]
    #[should_panic(expected = "empty library")]
    fn rejects_empty_library() {
        let _ = OmsAccelerator::build(&SpectralLibrary::new(), test_config());
    }
}
