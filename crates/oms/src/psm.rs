//! Peptide-spectrum matches (PSMs) and the canonical PSM table format.

use crate::pipeline::PipelineOutcome;

/// The outcome of searching one query spectrum: its best-scoring library
/// entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Psm {
    /// Query spectrum id.
    pub query_id: u32,
    /// Library entry id of the best match.
    pub reference_id: u32,
    /// Backend-specific similarity score; only the ordering within one
    /// backend is meaningful (the FDR filter consumes ranks, not values).
    pub score: f64,
    /// Whether the matched library entry is a decoy.
    pub is_decoy: bool,
    /// `query − reference` neutral-mass delta in daltons; for a correctly
    /// matched modified peptide this approximates the modification mass.
    pub precursor_delta: f64,
}

impl Psm {
    /// Whether this PSM hits a target (non-decoy) entry.
    pub fn is_target(&self) -> bool {
        !self.is_decoy
    }
}

/// One row of the canonical tab-separated PSM table: a [`Psm`] joined
/// with its peptide sequence and FDR acceptance flag.
///
/// Rows are the unit the serve layer ships over the wire; rendering a row
/// list with [`render_table_rows`] is byte-identical to rendering the
/// originating [`PipelineOutcome`] with [`render_table`], which is what
/// lets a remote `query` reproduce a local `search` output exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PsmTableRow {
    /// The match itself.
    pub psm: Psm,
    /// Peptide sequence of the matched reference.
    pub peptide: String,
    /// Whether the PSM was accepted at the run's FDR level (decoys are
    /// never accepted).
    pub accepted: bool,
}

/// Header line of the canonical PSM table.
pub(crate) const TABLE_HEADER: &str =
    "query_id\treference_id\tpeptide\tscore\tis_decoy\tprecursor_delta_da\taccepted";

/// Join a pipeline outcome with per-id peptide sequences into table rows
/// (one row per best-hit PSM, in outcome order).
pub fn table_rows(peptides_by_id: &[String], outcome: &PipelineOutcome) -> Vec<PsmTableRow> {
    let accepted = outcome.accepted_query_ids();
    outcome
        .psms
        .iter()
        .map(|psm| PsmTableRow {
            psm: *psm,
            peptide: peptides_by_id
                .get(psm.reference_id as usize)
                .cloned()
                .unwrap_or_default(),
            accepted: accepted.contains(&psm.query_id) && psm.is_target(),
        })
        .collect()
}

/// Render rows as the canonical tab-separated PSM table.
pub fn render_table_rows(rows: &[PsmTableRow]) -> String {
    let mut out = String::from(TABLE_HEADER);
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{}\t{}\t{}\t{:.6}\t{}\t{:.4}\t{}\n",
            row.psm.query_id,
            row.psm.reference_id,
            row.peptide,
            row.psm.score,
            u8::from(row.psm.is_decoy),
            row.psm.precursor_delta,
            u8::from(row.accepted),
        ));
    }
    out
}

/// Render a pipeline outcome as the canonical PSM table (all best hits,
/// with an `accepted` column).
pub fn render_table(peptides_by_id: &[String], outcome: &PipelineOutcome) -> String {
    render_table_rows(&table_rows(peptides_by_id, outcome))
}

/// Parse a canonical PSM table back into `(psm, accepted)` pairs
/// (the peptide column is validated for arity but not returned).
///
/// # Errors
///
/// Returns a description of the first ragged or unparseable line.
pub fn parse_table(table: &str) -> Result<Vec<(Psm, bool)>, String> {
    let mut out = Vec::new();
    for (i, line) in table.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 7 {
            return Err(format!(
                "line {}: expected 7 columns, got {}",
                i + 1,
                fields.len()
            ));
        }
        let parse = |f: &str, what: &str| -> Result<f64, String> {
            f.parse()
                .map_err(|_| format!("line {}: bad {what} {f:?}", i + 1))
        };
        out.push((
            Psm {
                query_id: parse(fields[0], "query id")? as u32,
                reference_id: parse(fields[1], "reference id")? as u32,
                score: parse(fields[3], "score")?,
                is_decoy: fields[4] == "1",
                precursor_delta: parse(fields[5], "delta")?,
            },
            fields[6] == "1",
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_is_not_decoy() {
        let psm = Psm {
            query_id: 0,
            reference_id: 1,
            score: 0.5,
            is_decoy: false,
            precursor_delta: 15.99,
        };
        assert!(psm.is_target());
        let decoy = Psm {
            is_decoy: true,
            ..psm
        };
        assert!(!decoy.is_target());
    }

    #[test]
    fn rows_render_and_parse_back() {
        let rows = vec![
            PsmTableRow {
                psm: Psm {
                    query_id: 3,
                    reference_id: 17,
                    score: 0.812345,
                    is_decoy: false,
                    precursor_delta: 15.9949,
                },
                peptide: "PEPTIDEK".to_owned(),
                accepted: true,
            },
            PsmTableRow {
                psm: Psm {
                    query_id: 4,
                    reference_id: 9,
                    score: 0.25,
                    is_decoy: true,
                    precursor_delta: -0.5,
                },
                peptide: "KEDITPEP".to_owned(),
                accepted: false,
            },
        ];
        let table = render_table_rows(&rows);
        assert!(table.starts_with(TABLE_HEADER));
        let parsed = parse_table(&table).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0.query_id, 3);
        assert!(parsed[0].1);
        assert!(parsed[1].0.is_decoy);
        assert!(!parsed[1].1);
    }

    #[test]
    fn parse_rejects_ragged_rows() {
        assert!(parse_table("header\n1\t2\t3\n").is_err());
    }
}
