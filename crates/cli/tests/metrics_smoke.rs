//! End-to-end smoke of the metrics pipeline, exactly as CI runs it:
//! spawn the real `hdoms` binary serving a tiny index over stdio with
//! `--metrics 127.0.0.1:0` and the JSON log, learn the bound exposition
//! address from the structured `serve.metrics` startup event, run one
//! query batch, scrape the endpoint over raw TCP, and assert the
//! Prometheus text carries a non-zero `hdoms_query_batches_total` plus
//! all four per-stage pipeline histograms.
//! With `crates/serve/tests/metrics_storm.rs` — which reconciles every
//! registry counter against per-client receipts under a 16-client storm
//! with a concurrent torn-read probe — this is CI's observability gate,
//! in both test passes.

use hdoms_index::{IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_serve::protocol::{QuerySpectrum, Request, Response, WindowKind};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};

const THREADS: usize = 4;
const DIM: usize = 2048;

struct MeteredServer {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
    metrics_addr: String,
}

impl MeteredServer {
    fn spawn(index_path: &std::path::Path) -> MeteredServer {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hdoms"))
            .args([
                "serve",
                "--stdio",
                "true",
                "--threads",
                &THREADS.to_string(),
                "--index",
                &format!("smoke={}", index_path.display()),
                // Port 0: the OS picks; the serve.metrics event reports it.
                "--metrics",
                "127.0.0.1:0",
                "--log-json",
                "true",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn hdoms serve --stdio --metrics");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));

        // The startup log on stderr is JSON lines; the serve.metrics
        // event carries the bound exposition address.
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut metrics_addr = String::new();
        let mut line = String::new();
        while metrics_addr.is_empty() {
            line.clear();
            let n = stderr.read_line(&mut line).expect("read server stderr");
            assert!(
                n > 0,
                "server exited before announcing its metrics endpoint"
            );
            if let Some(rest) = line.split("\"event\":\"serve.metrics\"").nth(1) {
                let addr = rest
                    .split("\"addr\":\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .expect("serve.metrics event carries an addr field");
                metrics_addr = addr.to_owned();
            }
        }
        MeteredServer {
            child,
            stdin,
            stdout,
            metrics_addr,
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

    fn scrape(&self) -> String {
        let mut stream = TcpStream::connect(&self.metrics_addr).expect("connect to exposition");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("send scrape request");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("read exposition response");
        response
    }
}

impl Drop for MeteredServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The value of a plain `name value` sample line in the exposition text.
fn sample(body: &str, name: &str) -> f64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("exposition is missing the {name} sample"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {name} sample"))
}

#[test]
fn scraped_exposition_reports_the_served_batch() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 41414);
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
        std::env::temp_dir().join(format!("hdoms-metrics-smoke-{}.hdx", std::process::id()));
    index.write(&index_path).expect("persist smoke index");

    let mut server = MeteredServer::spawn(&index_path);

    // A scrape before any work: series exist, counters are zero.
    let cold = server.scrape();
    assert!(
        cold.starts_with("HTTP/1.0 200 OK"),
        "scrape answered {cold:?}"
    );
    assert!(
        cold.contains("text/plain; version=0.0.4"),
        "exposition content type missing"
    );
    assert_eq!(sample(&cold, "hdoms_query_batches_total"), 0.0);

    // One served batch over stdio.
    let spectra: Vec<QuerySpectrum> = workload
        .queries
        .iter()
        .map(QuerySpectrum::from_spectrum)
        .collect();
    let queries = spectra.len();
    let Response::Result(result) =
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
    assert!(result.stats.identifications > 0);

    // The scrape after it: the batch is visible, with every pipeline
    // stage accounted for.
    let warm = server.scrape();
    assert_eq!(sample(&warm, "hdoms_query_batches_total"), 1.0);
    assert_eq!(sample(&warm, "hdoms_queries_total"), queries as f64);
    for stage in ["encode", "candidates", "score", "finalize"] {
        let name = format!("hdoms_stage_{stage}_ms");
        assert!(
            warm.contains(&format!("# TYPE {name} histogram")),
            "exposition is missing the {name} histogram"
        );
        assert_eq!(
            sample(&warm, &format!("{name}_count")),
            1.0,
            "{name} missed the batch"
        );
    }
    assert_eq!(sample(&warm, "hdoms_batch_latency_ms_count"), 1.0);

    std::fs::remove_file(&index_path).ok();
}
