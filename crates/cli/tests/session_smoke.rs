//! End-to-end smoke of the served session protocol, exactly as CI runs
//! it: build a tiny index, spawn the real `hdoms` binary serving it
//! over **stdio**, open a session, submit two batches, finalize, and
//! diff the returned PSM table against the local engine run. Also
//! exercises the per-batch `query` verb (one batch must equal the local
//! run too) so the compatibility path stays guarded, what
//! `index info` prints for the golden v3 image, the flags and specs
//! `search` and `compare` refuse, the overflowing precursor both MGF
//! doors (`search`, `index build`) refuse, a truncated query file
//! `search` refuses, and the `hdoms query` client against a TCP server.
//! (CI's release test pass is the run that counts: the spawned binary
//! is the optimised one.)

use hdoms_engine::Engine;
use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::psm::{render_table, render_table_rows};
use hdoms_oms::window::PrecursorWindow;
use hdoms_serve::protocol::{QuerySpectrum, Request, Response, WindowKind};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Output, Stdio};
use std::sync::Arc;

const THREADS: usize = 4;
const DIM: usize = 2048;

struct StdioServer {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl StdioServer {
    fn spawn(index_path: &std::path::Path) -> StdioServer {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hdoms"))
            .args([
                "serve",
                "--stdio",
                "true",
                "--threads",
                &THREADS.to_string(),
                "--index",
                &format!("smoke={}", index_path.display()),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hdoms serve --stdio");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        StdioServer {
            child,
            stdin,
            stdout,
        }
    }

    fn request(&mut self, request: &Request) -> Response {
        let line = request.encode();
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .expect("write request to server stdin");
        let mut answer = String::new();
        let n = self
            .stdout
            .read_line(&mut answer)
            .expect("read response from server stdout");
        assert!(n > 0, "server closed stdout while answering {line}");
        Response::decode(answer.trim_end()).expect("decodable response")
    }
}

impl Drop for StdioServer {
    fn drop(&mut self) {
        // Closing stdin ends the stdio session; reap the child.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run the `hdoms` binary in `dir` with whitespace-separated `args`.
fn hdoms(dir: &Path, args: &str) -> Output {
    (Command::new(env!("CARGO_BIN_EXE_hdoms")).current_dir(dir))
        .args(args.split_whitespace())
        .output()
        .expect("spawn hdoms")
}

/// A scratch directory named for `tag`, holding the tiny preset's
/// `q.mgf` and `lib.mgf` and, with `index`, `lib.hdx` built over them.
fn tiny_files(tag: &str, index: bool) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdoms-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let build = "index build --library lib.mgf --out lib.hdx --dim 512";
    let generate = "generate --out-queries q.mgf --out-library lib.mgf --preset tiny";
    for args in [generate].into_iter().chain(index.then_some(build)) {
        let run = hdoms(&dir, args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{args}: {stderr}");
    }
    dir
}

#[test]
fn served_stdio_session_matches_local_run() {
    // 1. A tiny workload and its persisted index.
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 31337);
    let mut config = IndexConfig {
        entries_per_shard: 64,
        threads: THREADS,
        ..IndexConfig::default()
    };
    if let IndexedBackendKind::Exact(exact) = &mut config.kind {
        exact.encoder.dim = DIM;
    }
    let index = LibraryIndex::build(&workload.library, config);
    let index_path =
        std::env::temp_dir().join(format!("hdoms-session-smoke-{}.hdx", std::process::id()));
    index.write(&index_path).expect("persist smoke index");

    // 2. The local ground truth: one engine run over all queries.
    let engine = Arc::new(Engine::from_index(index, THREADS).expect("warm engine"));
    let (outcome, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
    let local_table = render_table(engine.peptides(), &outcome);

    // 3. A real served process over stdio.
    let mut server = StdioServer::spawn(&index_path);
    let spectra: Vec<QuerySpectrum> = workload
        .queries
        .iter()
        .map(QuerySpectrum::from_spectrum)
        .collect();

    // 4. Open a session, submit two batches, finalize.
    let Response::SessionOpened { session, .. } = server.request(&Request::SessionOpen {
        index: "smoke".to_owned(),
        window: WindowKind::Open,
        tier: Default::default(),
        prefilter: None,
    }) else {
        panic!("expected a session id");
    };
    let half = spectra.len() / 2;
    for (i, batch) in [&spectra[..half], &spectra[half..]].into_iter().enumerate() {
        let Response::Receipt(receipt) = server.request(&Request::SessionSubmit {
            session,
            spectra: batch.to_vec(),
        }) else {
            panic!("expected a receipt");
        };
        assert_eq!(receipt.batch, i + 1);
        assert_eq!(receipt.queries, batch.len());
    }
    let Response::Result(pooled) = server.request(&Request::SessionFinalize { session, fdr: 0.01 })
    else {
        panic!("expected the pooled result");
    };

    // 5. The diff that matters: two served batches + one finalize must
    //    reproduce the local single-run table byte-for-byte.
    assert_eq!(
        render_table_rows(&pooled.rows),
        local_table,
        "served 2-batch session table differs from the local run"
    );
    assert_eq!(pooled.stats.queries, workload.queries.len());
    assert!(pooled.stats.identifications > 0);

    // 6. The per-batch `query` verb (old behaviour) still matches the
    //    local run when everything goes in one batch.
    let Response::Result(single) =
        server.request(&Request::Query(hdoms_serve::protocol::QueryRequest {
            index: "smoke".to_owned(),
            window: WindowKind::Open,
            fdr: 0.01,
            tier: Default::default(),
            prefilter: None,
            spectra,
        }))
    else {
        panic!("expected a query result");
    };
    assert_eq!(render_table_rows(&single.rows), local_table);

    std::fs::remove_file(&index_path).ok();
}

/// `search` refuses what it would otherwise accept and ignore, naming
/// the flag: `--seed` (nothing reads it) and `--dim` beside `--index`
/// (the image fixes its dimension, as it fixes its backend).
#[test]
fn search_refuses_flags_it_would_ignore() {
    for (target, flag) in [("--library", "--seed"), ("--index", "--dim")] {
        let out = Command::new(env!("CARGO_BIN_EXE_hdoms"))
            .args([
                "search",
                "--queries",
                "q.mgf",
                target,
                "lib",
                "--out",
                "o.tsv",
            ])
            .args([flag, "512"])
            .output()
            .expect("spawn hdoms search");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success() && stderr.contains(flag), "{stderr}");
    }
}

/// A spectrum whose neutral mass overflows (`PEPMASS=1e308` at
/// `CHARGE=2+`) is refused at both MGF doors, naming its `PEPMASS` line:
/// a query for `search`, a library block for `index build`. Neither
/// writes its output — no table scored at an infinite delta, no image
/// its own loader would refuse.
#[test]
fn an_overflowing_precursor_is_refused_at_both_mgf_doors() {
    let dir = tiny_files("overflow", true);
    // The first block of a generated file with its precursor rewritten,
    // and the line of its PEPMASS within the block.
    let overflowing = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).expect("generated mgf");
        let first = text
            .split_inclusive('\n')
            .take_while(|l| *l != "END IONS\n");
        let rewrite = |line: &str| match line.split_once('=') {
            Some(("PEPMASS", _)) => "PEPMASS=1e308\n".to_owned(),
            Some(("CHARGE", _)) => "CHARGE=2+\n".to_owned(),
            _ => line.to_owned(),
        };
        let block: String = first.map(rewrite).collect::<String>() + "END IONS\n";
        let at = 1 + block.lines().position(|l| l == "PEPMASS=1e308").unwrap();
        (text, block, at)
    };
    // One tiny-preset query, and the tiny library plus one such reference.
    let (_, query, query_line) = overflowing("q.mgf");
    std::fs::write(dir.join("bad-q.mgf"), query).unwrap();
    let (library, reference, at) = overflowing("lib.mgf");
    let library_line = library.lines().count() + at;
    std::fs::write(dir.join("bad-lib.mgf"), library + &reference).unwrap();

    let search = "search --queries bad-q.mgf --index lib.hdx --window standard --out bad.tsv";
    let build = "index build --library bad-lib.mgf --dim 512 --out bad.hdx";
    for (args, line) in [(search, query_line), (build, library_line)] {
        let run = hdoms(&dir, args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{args} succeeded: {stderr}");
        let named = format!("malformed PEPMASS header (neutral mass overflows) at line {line}");
        assert!(stderr.contains(&named), "{args}: {stderr}");
        let out = args.rsplit(' ').next().unwrap();
        assert!(!dir.join(out).exists(), "{args} wrote {out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A query file cut inside a block (its first 116 lines) is refused,
/// naming the line of the block's `BEGIN IONS`, and no table is written:
/// the last spectrum is not silently lost.
#[test]
fn a_truncated_query_file_is_refused_naming_its_open_block() {
    let dir = tiny_files("truncated", false);
    let text = std::fs::read_to_string(dir.join("q.mgf")).expect("generated mgf");
    let head: Vec<&str> = text.lines().take(116).collect();
    assert_ne!(head[115], "END IONS", "the cut must fall inside a block");
    let begin = 1 + head.iter().rposition(|l| *l == "BEGIN IONS").unwrap();
    std::fs::write(dir.join("cut.mgf"), head.join("\n") + "\n").unwrap();

    let run = hdoms(
        &dir,
        "search --queries cut.mgf --library lib.mgf --dim 512 --out cut.tsv",
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "a truncated file searched: {stderr}");
    let named = format!("spectrum block opened by BEGIN IONS at line {begin} has no END IONS");
    assert!(stderr.contains(&named), "{stderr}");
    assert!(!dir.join("cut.tsv").exists(), "a table was written");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kills the server it holds when dropped, whatever the test did.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The `hdoms query` client against `hdoms serve` on an ephemeral TCP
/// port: one batch, and batches of 7 through one session, each write a
/// table byte-identical to `search --index` over the same image.
#[test]
fn the_query_client_writes_the_search_index_table() {
    let dir = tiny_files("query-client", true);
    let mut server = Command::new(env!("CARGO_BIN_EXE_hdoms"))
        .current_dir(&dir)
        .args(["serve", "--listen", "127.0.0.1:0", "--log-json", "true"])
        .args(["--index", "smoke=lib.hdx"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hdoms serve --listen");
    // The JSON log on stderr: the serve.start event carries the bound
    // address. The rest of the log is drained so the server never
    // blocks on a full pipe.
    let stderr = BufReader::new(server.stderr.take().expect("piped stderr"));
    let server = Reaped(server);
    let (sender, bound) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in stderr.lines().map_while(Result::ok) {
            let Some(rest) = line.split("\"event\":\"serve.start\"").nth(1) else {
                continue;
            };
            let addr = rest.split("\"addr\":\"").nth(1);
            let addr = addr.and_then(|s| s.split('"').next());
            let _ = sender.send(addr.expect("serve.start carries an addr").to_owned());
        }
    });
    let addr = bound.recv().expect("the server announces its address");

    let run = |args: &str| {
        let out = hdoms(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args}: {stderr}");
    };
    run("search --queries q.mgf --index lib.hdx --out local.tsv");
    let local = std::fs::read(dir.join("local.tsv")).expect("local table");
    assert!(
        local.split(|&b| b == b'\n').count() > 2,
        "no rows to compare"
    );
    let query = format!("query --addr {addr} --queries q.mgf --index smoke");
    for (out, mode) in [
        ("one.tsv", "--batch-size 0"),
        ("session.tsv", "--batch-size 7 --session true"),
    ] {
        run(&format!("{query} {mode} --out {out}"));
        let served = std::fs::read(dir.join(out)).expect("served table");
        assert!(served == local, "{mode}: the served table differs");
    }
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// `compare` names an unknown backend spec and lists the real ones,
/// whether or not `--library` is given — before it reads any input.
#[test]
fn compare_refuses_an_unknown_spec() {
    for library in [&[][..], &["--library", "lib.mgf"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_hdoms"))
            .args(["compare", "--queries", "q.mgf", "--index", "lib.hdx"])
            .args(library)
            .args(["--backend-a", "exact", "--backend-b", "index-sharded"])
            .output()
            .expect("spawn hdoms compare");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{stderr}");
        assert!(
            stderr.contains(
                r#"unknown backend spec "index-sharded" (exact|annsolo|hyperoms|rram|index)"#
            ),
            "{stderr}"
        );
    }
}

/// `index info` on the golden v3 image: the header line, then one line
/// per shard with its entry count and mass range — read off the runs of
/// the index's `(mass, id)` table.
#[test]
fn index_info_reports_the_golden_image() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../index/tests/fixtures/v3.hdx"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_hdoms"))
        .args(["index", "info", "--index", golden])
        .output()
        .expect("spawn hdoms index info");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().map(str::trim).collect();
    assert!(
        lines.contains(&"backend exact  dim 512  entries 12  shards 3"),
        "{stdout}"
    );
    for shard in [
        "shard   0:      5 entries,    945.45 –   1899.83 Da",
        "shard   1:      5 entries,   1899.83 –   2252.01 Da",
        "shard   2:      2 entries,   2325.04 –   2325.04 Da",
    ] {
        assert!(lines.contains(&shard), "no line {shard:?} in\n{stdout}");
    }
}
