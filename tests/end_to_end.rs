//! Cross-crate integration tests: the full paper pipeline from raw
//! synthetic spectra to FDR-filtered identifications, on software and on
//! the simulated RRAM accelerator — and one case through the index →
//! engine → serve stack, so tier-1 reaches the one query path, hostile
//! request lines and corrupted index images included.

use hdoms::core::accelerator::AcceleratorConfig;
use hdoms::engine::{Engine, Session};
use hdoms::hdc::item_memory::LevelStyle;
use hdoms::index::{
    IndexConfig, IndexedBackendKind, LibraryIndex, StreamingConfig, StreamingIndexBuilder,
};
use hdoms::ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms::ms::spectrum::Spectrum;
use hdoms::oms::pipeline::PipelineOutcome;
use hdoms::oms::psm::{render_table, render_table_rows, Psm};
use hdoms::oms::window::PrecursorWindow;
use hdoms::prefilter::PrefilterConfig;
use hdoms::serve::protocol::{QueryRequest, QuerySpectrum, Request, Response, WindowKind};
use hdoms::serve::scheduler::Tier;
use hdoms::serve::server::{Server, LOCAL_CLIENT};
use std::sync::Arc;

fn small_accelerator_config() -> AcceleratorConfig {
    let mut config = AcceleratorConfig::default();
    config.encoder.dim = 2048;
    config.encoder.q_levels = 16;
    config.encoder.level_style = LevelStyle::Chunked { num_chunks: 64 };
    config.threads = 4;
    config
}

/// An exact engine over `workload`'s library at `dim` dimensions on 4
/// threads — the size the tiny-workload tests run at.
fn exact_engine(workload: &SyntheticWorkload, dim: usize) -> Arc<Engine> {
    let mut config = IndexConfig {
        threads: 4,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = dim;
    }
    Arc::new(Engine::from_library(&workload.library, config))
}

/// `workload`'s queries through `engine` under `window` at 1 % FDR.
fn search(
    engine: &Arc<Engine>,
    workload: &SyntheticWorkload,
    window: PrecursorWindow,
) -> PipelineOutcome {
    engine.search(&workload.queries, window, 0.01).0
}

/// The open search of `workload` on a 2048-dim exact engine.
fn open_search(workload: &SyntheticWorkload) -> PipelineOutcome {
    search(
        &exact_engine(workload, 2048),
        workload,
        PrecursorWindow::open_default(),
    )
}

#[test]
fn software_pipeline_identifies_and_controls_fdr() {
    // Pool several tiny workloads: each has only ~45 matchable queries, so
    // per-run false rates are quantised in steps of ~2.5 %.
    let mut correct = 0usize;
    let mut wrong = 0usize;
    let mut matchable = 0usize;
    for seed in 1001..1005 {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), seed);
        let eval = open_search(&workload).evaluate(&workload);
        correct += eval.correct;
        wrong += eval.wrong_reference + eval.unmatchable_accepted;
        matchable += workload.matchable_queries();
    }
    let recall = correct as f64 / matchable as f64;
    let false_rate = wrong as f64 / (correct + wrong) as f64;
    assert!(recall > 0.55, "pooled recall {recall}");
    assert!(false_rate < 0.10, "pooled false rate {false_rate}");
}

#[test]
fn accelerator_matches_software_quality() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 1002);
    let software = open_search(&workload);
    // The same engine over the accelerator's index kind.
    let accel = Arc::new(Engine::from_library(
        &workload.library,
        IndexConfig {
            kind: IndexedBackendKind::Rram(small_accelerator_config()),
            threads: 4,
            ..IndexConfig::default()
        },
    ));
    let hardware = search(&accel, &workload, PrecursorWindow::open_default());
    let sw = software.evaluate(&workload).correct as f64;
    let hw = hardware.evaluate(&workload).correct as f64;
    assert!(
        hw >= 0.8 * sw,
        "RRAM accelerator correct ids {hw} vs software {sw}"
    );
}

#[test]
fn open_window_strictly_beats_standard_on_modified_workload() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 1003);
    let engine = exact_engine(&workload, 2048);
    let open = search(&engine, &workload, PrecursorWindow::open_default());
    let standard = search(&engine, &workload, PrecursorWindow::standard_default());
    assert!(
        open.identifications() > standard.identifications(),
        "open {} vs standard {}",
        open.identifications(),
        standard.identifications()
    );
}

#[test]
fn standard_window_misses_modified_peptides() {
    // Pooled over seeds: on any single tiny workload a stray coincidental
    // acceptance (a modified query matching some other reference inside
    // the narrow window) can occur, so assert the pooled rate instead of
    // pinning one seed to an exact zero.
    let (mut modified_total, mut modified_found) = (0usize, 0usize);
    for seed in 300..306 {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), seed);
        let engine = exact_engine(&workload, 2048);
        let standard = search(&engine, &workload, PrecursorWindow::standard_default());
        let accepted = standard.accepted_query_ids();
        let modified = (0u32..)
            .zip(&workload.truth)
            .filter(|(_, t)| t.is_modified());
        for (id, _) in modified {
            modified_total += 1;
            modified_found += usize::from(accepted.contains(&id));
        }
    }
    assert!(modified_total > 50, "pooled workloads too small");
    let rate = modified_found as f64 / modified_total as f64;
    assert!(
        rate < 0.02,
        "standard search should not reach modified peptides: \
         pooled rate {rate} ({modified_found}/{modified_total})"
    );
}

#[test]
fn higher_dimension_does_not_hurt() {
    // Fig. 13 direction, pooled over seeds: more dimensions → at least
    // as many identifications in aggregate. A single tiny workload at a
    // pinned seed is noisy enough to flip the comparison, so sum over
    // several.
    let (mut low_total, mut high_total) = (0usize, 0usize);
    for seed in 700..704 {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), seed);
        let ids = |dim: usize| {
            let engine = exact_engine(&workload, dim);
            search(&engine, &workload, PrecursorWindow::open_default()).identifications()
        };
        low_total += ids(512);
        high_total += ids(4096);
    }
    assert!(
        high_total + 4 >= low_total,
        "pooled 4096-dim ids ({high_total}) should not trail \
         512-dim ids ({low_total})"
    );
}

#[test]
fn outcome_bookkeeping_consistent() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 400);
    let outcome = open_search(&workload);
    assert_eq!(outcome.total_queries, workload.queries.len());
    assert!(outcome.accepted.len() <= outcome.psms.len());
    assert!(outcome.accepted.iter().all(Psm::is_target));
    assert!(outcome.mean_candidates > 1.0);
    for psm in &outcome.accepted {
        assert!(psm.score >= outcome.threshold_score);
    }
}

#[test]
fn identified_peptides_nonempty_and_valid() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 500);
    let outcome = open_search(&workload);
    let peptides = outcome.identified_peptides(&workload.library);
    assert!(!peptides.is_empty());
    assert!(peptides.len() <= outcome.identifications());
}

#[test]
#[should_panic(expected = "FDR level")]
fn search_rejects_a_bad_fdr_level() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 501);
    let engine = exact_engine(&workload, 512);
    let _ = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.0);
}

#[test]
fn pipeline_deterministic_end_to_end() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 1004);
    assert_eq!(open_search(&workload), open_search(&workload));
}

/// Tier-1's reach into the index → engine → serve stack: every entry
/// point runs the one query path (a solo search is a group of one), so
/// over one mapped `.hdx` image a one-shot search, a two-batch session,
/// a batch-tier served query and two coalesced interactive queries must
/// render the same bytes — with the prefilter off and at a covering `k`.
/// The image itself has one writer: the streaming builder must produce
/// the file `write` produced, byte for byte, and the same rows from it.
#[test]
fn every_entry_point_renders_the_same_rows() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 1005);
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: 2,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = 1024;
    }
    let path = std::env::temp_dir().join(format!("hdoms-e2e-{}.hdx", std::process::id()));
    LibraryIndex::build(&workload.library, config.clone())
        .write(&path)
        .expect("image written");
    let mapped = |path: &std::path::Path| {
        let index = LibraryIndex::open_mapped(path, 2).expect("mapped open");
        Arc::new(Engine::from_index(index, 2).expect("an index opens as its own kind"))
    };
    let engine = mapped(&path);
    let streamed_path = path.with_extension("streamed.hdx");
    let streaming = StreamingConfig {
        index: config,
        spill_threshold: 100,
    };
    StreamingIndexBuilder::build_from_library(streaming, &streamed_path, &workload.library)
        .expect("image streamed");
    assert_eq!(
        std::fs::read(&streamed_path).expect("streamed image"),
        std::fs::read(&path).expect("written image"),
    );
    let streamed = mapped(&streamed_path);
    std::fs::remove_file(&streamed_path).ok();
    let server = Server::new(2);
    server
        .load_index("tiny", path.to_str().expect("utf-8 temp path"))
        .expect("index resident");
    std::fs::remove_file(&path).ok();

    let window = PrecursorWindow::open_default();
    let local = |spectra: &[Spectrum], prefilter| {
        let (outcome, _) = engine
            .search_with_workers_opts(spectra, window, 0.01, 2, Some(prefilter))
            .expect("sharded engines prefilter");
        render_table(engine.peptides(), &outcome)
    };
    let served = |client: u64, spectra: &[Spectrum], tier, prefilter| {
        let request = Request::Query(QueryRequest {
            index: "tiny".to_owned(),
            window: WindowKind::Open,
            fdr: 0.01,
            tier,
            prefilter: Some(prefilter),
            spectra: spectra.iter().map(QuerySpectrum::from_spectrum).collect(),
        });
        match server.handle_as(client, &request) {
            Response::Result(result) => render_table_rows(&result.rows),
            other => panic!("query answered with {other:?}"),
        }
    };

    let (first, second) = workload.queries.split_at(workload.queries.len() / 2);
    let covering = PrefilterConfig::TopK(workload.library.len());
    let (expected, _) = engine.search(&workload.queries, window, 0.01);
    let expected = render_table(engine.peptides(), &expected);
    assert!(expected.lines().count() > 1, "the search found PSMs");
    let (rows, _) = streamed.search(&workload.queries, window, 0.01);
    assert_eq!(render_table(streamed.peptides(), &rows), expected);
    for prefilter in [PrefilterConfig::Off, covering] {
        assert_eq!(local(&workload.queries, prefilter), expected);

        let mut session = Session::new(Arc::clone(&engine), window);
        session.set_prefilter(prefilter).expect("sharded engine");
        session.submit(first, engine.threads());
        session.submit(second, engine.threads());
        let (streamed, _) = session.finalize(0.01);
        assert_eq!(render_table(engine.peptides(), &streamed), expected);

        assert_eq!(
            served(1, &workload.queries, Tier::Batch, prefilter),
            expected
        );

        // Two interactive clients behind every held worker token: the
        // first queues and leads, the second joins its group, and each
        // gets the rows a solo search of its own spectra renders. A
        // stalled thread can still join late — rows must match either
        // way; retry until a merge is observed.
        let mut merged = false;
        for _ in 0..5 {
            let before = server.stats();
            let held = server
                .scheduler()
                .admit(99, Tier::Batch)
                .expect("idle server");
            let (a, b) = std::thread::scope(|scope| {
                let served = &served;
                let a = scope.spawn(move || served(2, first, Tier::Interactive, prefilter));
                while server.stats().interactive.queued == 0 {
                    std::thread::yield_now();
                }
                let b = scope.spawn(move || served(3, second, Tier::Interactive, prefilter));
                std::thread::sleep(std::time::Duration::from_millis(20));
                drop(held);
                (a.join().expect("client 2"), b.join().expect("client 3"))
            });
            assert_eq!(a, local(first, prefilter));
            assert_eq!(b, local(second, prefilter));
            let after = server.stats();
            assert_eq!(after.coalesced_requests - before.coalesced_requests, 2);
            merged = after.coalesced_batches - before.coalesced_batches == 1;
            if merged {
                break;
            }
        }
        assert!(merged, "two lockstep interactive queries never coalesced");
    }
}

/// Tier-1's hostile-line smoke: request lines that are well-formed JSON
/// but hostile in value — absurd precursors and peak lists, degenerate
/// intensities, extreme `prefilter`/`fdr`/session-id spellings, index
/// paths that are not images — crossed with both windows, both tiers and
/// every prefilter spelling, through `Request::decode` → `Server::handle_as`
/// and through session open → submit → finalize. Every line is answered
/// with a `Response` that encodes to one line and decodes back; nothing
/// panics (a panic fails the test).
#[test]
fn hostile_lines_always_get_a_response() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 1006);
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: 2,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = 1024;
    }
    let server = Server::new(2);
    let index = LibraryIndex::build(&workload.library, config);
    server.add_index("tiny", index).expect("index resident");

    let peaks = |n: usize, mz: &dyn Fn(usize) -> f64, intensity: f64| {
        let pairs: Vec<String> = (0..n).map(|i| format!("[{},{intensity}]", mz(i))).collect();
        format!("[{}]", pairs.join(","))
    };
    let spread = |i: usize| 150.0 + 7.3 * i as f64;
    let spectrum = |mz: f64, charge: u8, peaks: &str| {
        format!(r#"{{"id":7,"precursor_mz":{mz},"precursor_charge":{charge},"peaks":{peaks}}}"#)
    };
    let hostile_spectra = [
        spectrum(1e300, 255, &peaks(30, &spread, 1.0)),
        spectrum(500.0, 2, &peaks(30, &|i| 1e300 + i as f64, 1.0)),
        spectrum(500.0, 2, &peaks(30, &spread, 1e308)),
        spectrum(500.0, 2, &peaks(30, &spread, 1e-320)),
        spectrum(500.0, 2, &peaks(30, &spread, 0.0)),
        spectrum(500.0, 2, &peaks(40, &|_| 333.333, 1.0)),
        spectrum(500.0, 2, &peaks(400, &|i| 300.0 + 0.001 * i as f64, 1.0)),
        spectrum(500.0, 2, "[]"),
    ];
    let options = [
        "",
        r#","prefilter":"off""#,
        r#","prefilter":"k=0""#,
        r#","prefilter":"k=1""#,
        r#","prefilter":"k=default""#,
        r#","prefilter":"k=18446744073709551615""#,
        r#","prefilter":"K=3""#,
        r#","fdr":1e-320"#,
        r#","fdr":0.9999999999999999"#,
    ];

    let answer = |line: &str| -> Response {
        let response = match Request::decode(line) {
            Ok(request) => server.handle_as(LOCAL_CLIENT, &request),
            Err(message) => Response::error(message),
        };
        let encoded = response.encode();
        assert!(!encoded.contains('\n'), "one line per response: {encoded}");
        assert_eq!(
            Response::decode(&encoded).as_ref(),
            Ok(&response),
            "the answer to {line} does not survive the wire"
        );
        response
    };

    let mut lines = 0;
    for spectrum in &hostile_spectra {
        for window in ["open", "standard"] {
            for tier in ["batch", "interactive"] {
                for option in options {
                    answer(&format!(
                        r#"{{"type":"query","index":"tiny","window":"{window}","tier":"{tier}"{option},"spectra":[{spectrum}]}}"#
                    ));
                    lines += 1;
                }
            }
        }
    }
    for line in [
        r#"{"type":"index.load","name":"root","path":"/"}"#,
        r#"{"type":"index.load","name":"null","path":"/dev/null"}"#,
        r#"{"type":"session.submit","session":9007199254740992,"spectra":[]}"#,
        r#"{"type":"session.finalize","session":9007199254740992}"#,
        r#"{"type":"session.close","session":9007199254740992}"#,
    ] {
        assert!(matches!(answer(line), Response::Error { .. }), "{line}");
        lines += 1;
    }
    assert!(lines > 289, "the matrix shrank to {lines} lines");

    // Session sequences: each hostile spectrum under the defaults, then
    // the option spellings over the coincident-peaks spectrum.
    let defaults = ("open", "batch", "", "");
    let sequences = hostile_spectra.iter().map(|s| (s, defaults)).chain(
        [
            ("standard", "interactive", r#","prefilter":"off""#, ""),
            ("open", "interactive", r#","prefilter":"k=1""#, ""),
            (
                "standard",
                "batch",
                r#","prefilter":"k=18446744073709551615""#,
                "",
            ),
            ("open", "batch", r#","prefilter":"k=0""#, ""),
            ("open", "batch", "", r#","fdr":1e-320"#),
            ("standard", "interactive", "", r#","fdr":1"#),
        ]
        .map(|options| (&hostile_spectra[5], options)),
    );
    let mut sessions = 0;
    for (spectrum, (window, tier, prefilter, fdr)) in sequences {
        let opened = answer(&format!(
            r#"{{"type":"session.open","index":"tiny","window":"{window}","tier":"{tier}"{prefilter}}}"#
        ));
        // A refused open (`k=0`) leaves no session: the rest of the
        // sequence then runs against an id the server never issued.
        let id = match opened {
            Response::SessionOpened { session, .. } => session,
            _ => 1 << 40,
        };
        for _ in 0..2 {
            answer(&format!(
                r#"{{"type":"session.submit","session":{id},"spectra":[{spectrum},{spectrum}]}}"#
            ));
        }
        answer(&format!(
            r#"{{"type":"session.finalize","session":{id}{fdr}}}"#
        ));
        // A finalize refused for its FDR level leaves the session open.
        answer(&format!(r#"{{"type":"session.close","session":{id}}}"#));
        sessions += 1;
    }
    assert_eq!(sessions, 14);
    assert_eq!(server.stats().open_sessions, 0, "no sequence leaked a slot");
}

/// Tier-1's corrupted-image smoke: the image
/// `every_entry_point_renders_the_same_rows` serves, with one byte
/// flipped inside the header, inside the first shard section and inside
/// the last, and truncated at each of those points. Every door an
/// image comes in through — bytes in hand (`from_bytes`), the file
/// (`open_mapped`), an engine over it, the server's load and its wire
/// verb — answers with a structured error — none loads it, none panics
/// (a panic fails the test) — and the server goes on answering
/// afterwards.
#[test]
fn corrupted_images_fail_every_door_with_a_structured_error() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 1005);
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: 2,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = 1024;
    }
    let image = LibraryIndex::build(&workload.library, config).to_bytes();
    // The header follows magic, version and its own length; the first
    // shard section follows the header's checksum (a software image has
    // no MLC section, and no image a sketch section); the image ends
    // inside its last shard section.
    let header_len = u64::from_le_bytes(image[12..20].try_into().expect("8 bytes")) as usize;
    let points = [
        ("header", 20 + header_len / 2),
        ("first shard", 20 + header_len + 512),
        ("last shard", image.len() - 100),
    ];

    let server = Server::new(2);
    let path = std::env::temp_dir().join(format!("hdoms-e2e-corrupt-{}.hdx", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    for (section, at) in points {
        let mut flipped = image.clone();
        flipped[at] ^= 0x01;
        for (damage, bytes) in [("flipped", &flipped[..]), ("truncated", &image[..at])] {
            let what = format!("{section} {damage} at byte {at}");
            std::fs::write(&path, bytes).expect("corrupted image written");
            assert!(
                LibraryIndex::from_bytes(bytes, 2).is_err(),
                "from_bytes: {what}"
            );
            assert!(
                LibraryIndex::open_mapped(&path, 2).is_err(),
                "open_mapped: {what}"
            );
            assert!(
                LibraryIndex::open_mapped(&path, 2)
                    .and_then(|index| Engine::from_index(index, 2))
                    .is_err(),
                "Engine::from_index over open_mapped: {what}"
            );
            assert!(
                server.load_index("bad", file).is_err(),
                "load_index: {what}"
            );
            let line = format!(r#"{{"type":"index.load","name":"bad","path":"{file}"}}"#);
            let request = Request::decode(&line).expect("a well-formed line");
            assert!(
                matches!(
                    server.handle_as(LOCAL_CLIENT, &request),
                    Response::Error { .. }
                ),
                "index.load: {what}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(matches!(
        server.handle_as(LOCAL_CLIENT, &Request::Ping),
        Response::Pong { .. }
    ));
    assert!(
        server.summaries().is_empty(),
        "no corrupted image went resident"
    );
}

/// A checksum-valid header can ask for more than damage: `num_bins` in
/// the billions passes every per-record rule, and the ID memory an open
/// regenerates for it would be terabytes. Every door above the loader
/// refuses it with a structured error (`format::MAX_ITEM_MEMORY_BYTES`)
/// instead of asking the allocator — the process used to abort here.
#[test]
fn a_resealed_header_asking_for_terabytes_fails_every_door() {
    use hdoms::index::format::CHECKSUM_SEED;
    use hdoms::index::xxhash::xxh64;

    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 1006);
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: 2,
        ..IndexConfig::default()
    };
    // A bin count no other header field spells, so its slot can be found.
    let IndexedBackendKind::Exact(exact) = &mut config.kind else {
        panic!("the default kind is exact");
    };
    exact.encoder.dim = 1024;
    exact.encoder.num_bins += 7777;
    let num_bins = exact.encoder.num_bins as u64;
    let mut image = LibraryIndex::build(&workload.library, config).to_bytes();
    let header_len = u64::from_le_bytes(image[12..20].try_into().expect("8 bytes")) as usize;
    let header = 20..20 + header_len;
    let slots: Vec<usize> = (header.start..header.end - 8)
        .filter(|&at| image[at..at + 8] == num_bins.to_le_bytes())
        .collect();
    assert_eq!(slots.len(), 1, "encoder.num_bins is spelled once");
    image[slots[0]..slots[0] + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
    let sealed = xxh64(&image[header.clone()], CHECKSUM_SEED);
    image[header.end..header.end + 8].copy_from_slice(&sealed.to_le_bytes());

    let path = std::env::temp_dir().join(format!("hdoms-e2e-greedy-{}.hdx", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    std::fs::write(&path, &image).expect("patched image written");
    let server = Server::new(2);
    let refusals = [
        LibraryIndex::open_mapped(&path, 2)
            .and_then(|index| Engine::from_index(index, 2))
            .err()
            .map(|e| e.to_string()),
        server.load_index("greedy", file).err().map(|e| e.message),
    ];
    let line = format!(r#"{{"type":"index.load","name":"greedy","path":"{file}"}}"#);
    let wire = server.handle_as(
        LOCAL_CLIENT,
        &Request::decode(&line).expect("a well-formed line"),
    );
    std::fs::remove_file(&path).ok();
    for refusal in refusals {
        let message = refusal.expect("the patched image must not open");
        assert!(message.contains("MAX_ITEM_MEMORY_BYTES"), "{message}");
    }
    assert!(
        matches!(wire, Response::Error { .. }),
        "index.load: {wire:?}"
    );
    assert!(server.summaries().is_empty(), "nothing went resident");
}
