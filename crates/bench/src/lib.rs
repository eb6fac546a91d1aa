//! Shared plumbing for the figure-regeneration binaries and benches.
//!
//! Every table and figure of the paper has a binary under `src/bin/`;
//! this library provides the bits they share: simple CLI parsing
//! (`--scale`, `--seed`, `--dim`), aligned table printing, and a text
//! histogram for the conductance figure.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

use std::fmt::Display;

/// Options common to the figure binaries, parsed from `std::env::args`.
///
/// Supported flags: `--scale <f64>`, `--seed <u64>`, `--dim <usize>`.
/// Unknown flags abort with a usage message — silently ignoring a typo'd
/// flag would regenerate the wrong figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigureOptions {
    /// Workload scale relative to the paper's dataset sizes.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Hypervector dimension.
    pub dim: usize,
}

impl FigureOptions {
    /// Parse the process arguments with the given defaults.
    ///
    /// # Panics
    ///
    /// Exits the process (code 2) on malformed flags.
    pub fn parse(default_scale: f64, default_dim: usize) -> FigureOptions {
        let mut options = FigureOptions {
            scale: default_scale,
            seed: 0xF1605,
            dim: default_dim,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = args.get(i + 1);
            match (flag, value) {
                ("--scale", Some(v)) => options.scale = parse_or_die(v, flag),
                ("--seed", Some(v)) => options.seed = parse_or_die(v, flag),
                ("--dim", Some(v)) => options.dim = parse_or_die(v, flag),
                ("--help", _) | ("-h", _) => {
                    eprintln!("usage: [--scale <f64>] [--seed <u64>] [--dim <usize>]");
                    std::process::exit(0);
                }
                _ => {
                    eprintln!("unknown or incomplete flag: {flag}");
                    eprintln!("usage: [--scale <f64>] [--seed <u64>] [--dim <usize>]");
                    std::process::exit(2);
                }
            }
            i += 2;
        }
        options
    }
}

fn parse_or_die<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {value:?} for {flag}");
        std::process::exit(2);
    })
}

/// Print a header line followed by aligned rows. Every row must have the
/// same arity as the header.
///
/// # Panics
///
/// Panics on ragged rows — a malformed table means a bug in the figure
/// binary.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), header.len(), "table rows must match the header");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(header.iter().map(|s| s.to_string()).collect()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Format a float with `digits` significant decimals.
pub fn fmt(value: impl Into<f64>, digits: usize) -> String {
    format!("{:.digits$}", value.into())
}

/// Render a small ASCII histogram of `samples` over `[lo, hi]` with
/// `bins` buckets, each row scaled to `width` characters.
pub fn ascii_histogram(samples: &[f64], lo: f64, hi: f64, bins: usize, width: usize) -> String {
    assert!(bins > 0 && hi > lo, "degenerate histogram range");
    let mut counts = vec![0usize; bins];
    for &s in samples {
        let t = ((s - lo) / (hi - lo)).clamp(0.0, 1.0);
        let idx = ((t * bins as f64) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let bucket_lo = lo + (hi - lo) * i as f64 / bins as f64;
        let bar = "#".repeat(c * width / max);
        out.push_str(&format!("{bucket_lo:6.1} | {bar} {c}\n"));
    }
    out
}

/// Mean of a sample slice (0.0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Join display items with commas (for Venn-region printing).
pub fn join<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_all_samples() {
        let samples = vec![0.0, 0.5, 1.0, 1.5, 2.0];
        let h = ascii_histogram(&samples, 0.0, 2.0, 4, 10);
        // Sum the trailing counts per row.
        let total: usize = h
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "rows must match")]
    fn table_rejects_ragged_rows() {
        print_table("t", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
