//! `hdoms` — command-line open modification search.
//!
//! Subcommands:
//!
//! * `generate` — build a synthetic workload and export it as MGF files
//!   (queries + library with peptide/decoy annotations in the titles).
//! * `synth` — scale a synthetic library preset by an augmentation
//!   factor and stream it directly into a `.hdx` index (never
//!   materialised, so library size is bounded by disk, not RAM).
//! * `index` — build, inspect or append to a persistent encoded library
//!   index (`.hdx`), so searches skip the one-time library encoding.
//! * `search` — run an open (or standard) search of query MGF against a
//!   library MGF — or a prebuilt `--index` — with a chosen backend,
//!   writing a PSM table.
//! * `compare` — run two backends over the same queries and report how
//!   their identifications agree (e.g. cold build vs warm index).
//! * `serve` — long-lived server: load `.hdx` indexes once, keep their
//!   backends resident, answer query batches over TCP or stdio.
//! * `query` — client for `serve`: send MGF queries to a running server
//!   and write the returned PSM table.
//! * `profile` — delta-mass profile of a PSM table.
//! * `chip` — plan a library deployment on MLC RRAM tiles and print the
//!   capacity/latency/energy summary.
//!
//! Run `hdoms help` (or any subcommand with `--help`) for usage.

#![deny(unsafe_code)]

mod commands;
mod library_io;
mod opts;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", opts::USAGE);
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => commands::generate(rest),
        "synth" => commands::synth(rest),
        "index" => commands::index(rest),
        "search" => commands::search(rest),
        "compare" => commands::compare(rest),
        "serve" => commands::serve(rest),
        "query" => commands::query(rest),
        "profile" => commands::profile(rest),
        "chip" => commands::chip(rest),
        "help" | "--help" | "-h" => {
            println!("{}", opts::USAGE);
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{}", opts::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}
