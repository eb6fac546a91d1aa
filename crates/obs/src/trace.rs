//! Span vocabulary for the query pipeline: every served batch
//! decomposes into the same four stages the paper's pipeline defines —
//! spectrum **encode**, precursor-window **candidate** generation,
//! associative **shard-scoring**, and FDR **finalize** — and the
//! engine reports a [`StageTimings`] record per batch, feeding both
//! the wire receipts and the registry's per-stage histograms.

use std::time::Instant;

/// Wall-clock milliseconds a batch (or a whole session) spent in each
/// pipeline stage. Additive: batch records sum into session totals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Spectrum preprocessing + hypervector encoding
    /// (`Preprocessor::run_batch`).
    pub encode_ms: f64,
    /// Precursor-window candidate generation (`candidate_lists`).
    pub candidates_ms: f64,
    /// Associative search over the shard-partitioned reference store
    /// (the backend's batch search).
    pub score_ms: f64,
    /// Target–decoy FDR filtering at finalize time (`filter_fdr`; 0
    /// until finalize runs).
    pub finalize_ms: f64,
}

impl StageTimings {
    /// Accumulate another record into this one (session totals).
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.encode_ms += other.encode_ms;
        self.candidates_ms += other.candidates_ms;
        self.score_ms += other.score_ms;
        self.finalize_ms += other.finalize_ms;
    }

    /// Sum across all four stages.
    pub fn total_ms(&self) -> f64 {
        self.encode_ms + self.candidates_ms + self.score_ms + self.finalize_ms
    }
}

/// Time a closure, returning its result and the elapsed milliseconds —
/// the one-liner the engine wraps each stage in.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_accumulate_and_total() {
        let mut total = StageTimings::default();
        total.accumulate(&StageTimings {
            encode_ms: 1.0,
            candidates_ms: 2.0,
            score_ms: 3.0,
            finalize_ms: 0.0,
        });
        total.accumulate(&StageTimings {
            encode_ms: 0.5,
            candidates_ms: 0.5,
            score_ms: 0.5,
            finalize_ms: 4.0,
        });
        assert_eq!(total.encode_ms, 1.5);
        assert_eq!(total.finalize_ms, 4.0);
        assert!((total.total_ms() - 11.5).abs() < 1e-9);
    }

    #[test]
    fn timed_reports_nonnegative_elapsed() {
        let (value, ms) = timed(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(ms >= 0.0);
    }
}
