//! The load generator's side of the wire: pre-encoded request lines,
//! one blocking connection per generator thread, an open-loop and a
//! closed-loop driver. Responses are kept as raw bytes and decoded after
//! the clock stops.

use crate::spec::{BATCH_SPECTRA, FDR, INDEX_NAME};
use crate::stats;
use hdoms_engine::Engine;
use hdoms_ms::spectrum::Spectrum;
use hdoms_oms::psm::{render_table, render_table_rows};
use hdoms_prefilter::PrefilterConfig;
use hdoms_serve::net;
use hdoms_serve::protocol::{
    QueryRequest, QueryResult, QuerySpectrum, Request, Response, WindowKind,
};
use hdoms_serve::scheduler::Tier;
use hdoms_serve::server::Server;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serve `server` on an ephemeral loopback port. `serve_listener` has
/// no shutdown, so its thread is left to end with the process; the
/// connections the suite opens are closed before it reports.
pub fn listen(server: Arc<Server>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("an ephemeral loopback port");
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address");
    std::thread::spawn(move || {
        let _ = net::serve_listener(server, listener);
    });
    addr
}

/// Pre-encoded `query` lines over one query set, with the slice of the
/// set each line carries.
pub struct Lines {
    pub tier: Tier,
    pub prefilter: Option<PrefilterConfig>,
    pub window: WindowKind,
    pub bytes: Vec<Vec<u8>>,
    pub carries: Vec<Range<usize>>,
}

impl Lines {
    /// One line per `per_line` consecutive queries.
    pub fn encode(
        queries: &[Spectrum],
        per_line: usize,
        window: WindowKind,
        tier: Tier,
        prefilter: Option<PrefilterConfig>,
    ) -> Lines {
        let mut lines = Lines {
            tier,
            prefilter,
            window,
            bytes: Vec::new(),
            carries: Vec::new(),
        };
        for start in (0..queries.len()).step_by(per_line) {
            let range = start..(start + per_line).min(queries.len());
            let request = Request::Query(QueryRequest {
                index: INDEX_NAME.to_owned(),
                window,
                fdr: FDR,
                tier,
                prefilter,
                spectra: queries[range.clone()]
                    .iter()
                    .map(QuerySpectrum::from_spectrum)
                    .collect(),
            });
            let mut line = request.encode().into_bytes();
            line.push(b'\n');
            lines.bytes.push(line);
            lines.carries.push(range);
        }
        lines
    }

    pub fn singles(queries: &[Spectrum], window: WindowKind) -> Lines {
        Lines::encode(queries, 1, window, Tier::Interactive, None)
    }

    pub fn batches(
        queries: &[Spectrum],
        window: WindowKind,
        prefilter: Option<PrefilterConfig>,
    ) -> Lines {
        Lines::encode(queries, BATCH_SPECTRA, window, Tier::Batch, prefilter)
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }
}

/// One request/response exchange as the generator saw it.
pub struct Exchange {
    /// Which line of the set was sent.
    pub line: usize,
    /// When it was due (equals `sent` on a closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub response: Vec<u8>,
}

impl Exchange {
    /// Latency from the due time, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// One blocking line-framed connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> Connection {
        let writer = TcpStream::connect(addr).expect("the suite's own listener accepts");
        // The generator must not be what stalls: send each line at once.
        writer.set_nodelay(true).expect("TCP_NODELAY on loopback");
        let reader = BufReader::new(writer.try_clone().expect("a second handle to the socket"));
        Connection { reader, writer }
    }

    /// Send one pre-encoded line and block for the response line.
    pub fn round_trip(&mut self, line: &[u8]) -> Vec<u8> {
        self.writer.write_all(line).expect("send on loopback");
        let mut response = Vec::new();
        self.reader
            .read_until(b'\n', &mut response)
            .expect("receive on loopback");
        response
    }

    /// Open loop: send `lines` in order (cycling) at the due times of
    /// `schedule` counted from `start`, never earlier, whatever the
    /// previous response took.
    pub fn open_loop(
        &mut self,
        lines: &Lines,
        schedule: &[Duration],
        start: Instant,
    ) -> Vec<Exchange> {
        let mut exchanges = Vec::with_capacity(schedule.len());
        for (i, offset) in schedule.iter().enumerate() {
            let due = start + *offset;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let line = i % lines.len();
            let sent = Instant::now();
            let response = self.round_trip(&lines.bytes[line]);
            exchanges.push(Exchange {
                line,
                due,
                sent,
                done: Instant::now(),
                response,
            });
        }
        exchanges
    }

    /// Closed loop: send the next line when the previous response is in,
    /// until `deadline` (at least `min` exchanges).
    pub fn closed_loop(&mut self, lines: &Lines, deadline: Instant, min: usize) -> Vec<Exchange> {
        let mut exchanges = Vec::new();
        while exchanges.len() < min || Instant::now() < deadline {
            let line = exchanges.len() % lines.len();
            let sent = Instant::now();
            let response = self.round_trip(&lines.bytes[line]);
            exchanges.push(Exchange {
                line,
                due: sent,
                sent,
                done: Instant::now(),
                response,
            });
        }
        exchanges
    }
}

/// What one slice of the tiered mix produced.
pub struct MixedRun {
    pub interactive: Vec<Exchange>,
    pub batch: Vec<Exchange>,
}

/// The tiered traffic mix: connection `a` sends interactive singles open
/// loop at `rate`, connection `b` sends batch lines closed loop, both for
/// `duration`, from two generator threads.
pub fn mixed_run(
    a: &mut Connection,
    b: &mut Connection,
    singles: &Lines,
    batches: &Lines,
    rate: f64,
    seed: u64,
    duration: Duration,
) -> MixedRun {
    let schedule = stats::arrival_schedule(seed, rate, duration);
    let start = Instant::now();
    let (interactive, batch) = std::thread::scope(|scope| {
        let a_thread = scope.spawn(|| a.open_loop(singles, &schedule, start));
        let b_thread = scope.spawn(|| b.closed_loop(batches, start + duration, 1));
        (
            a_thread.join().expect("interactive generator"),
            b_thread.join().expect("batch generator"),
        )
    });
    MixedRun { interactive, batch }
}

/// Decodes responses and checks them against what the local engine
/// answers for the same line (computed once per distinct line).
pub struct Verifier<'a> {
    engine: &'a Arc<Engine>,
    queries: &'a [Spectrum],
    threads: usize,
    expected: HashMap<(usize, usize, bool), String>,
}

/// Decoded outcome of a set of exchanges.
#[derive(Default)]
pub struct Checked {
    pub results: Vec<QueryResult>,
    /// Spectra sent, and those of them in requests that were refused
    /// (`busy`/`deadline`), errored, undecodable, or answered with rows
    /// the local engine does not produce.
    pub spectra_sent: usize,
    pub spectra_failed: usize,
    pub notes: Vec<String>,
}

impl<'a> Verifier<'a> {
    pub fn new(engine: &'a Arc<Engine>, queries: &'a [Spectrum], threads: usize) -> Verifier<'a> {
        Verifier {
            engine,
            queries,
            threads,
            expected: HashMap::new(),
        }
    }

    /// The local table for the queries `range` under `lines`' settings.
    pub fn local_table(&mut self, lines: &Lines, range: &Range<usize>) -> &str {
        let key = (range.start, range.end, lines.prefilter.is_some());
        self.expected.entry(key).or_insert_with(|| {
            let (outcome, _) = self
                .engine
                .search_with_workers_opts(
                    &self.queries[range.clone()],
                    lines.window.window(),
                    FDR,
                    self.threads,
                    lines.prefilter,
                )
                .expect("an index-backed sharded engine accepts any prefilter");
            render_table(self.engine.peptides(), &outcome)
        })
    }

    pub fn check(&mut self, lines: &Lines, exchanges: &[Exchange]) -> Checked {
        let mut checked = Checked::default();
        for exchange in exchanges {
            let decoded = std::str::from_utf8(&exchange.response)
                .map_err(|e| e.to_string())
                .and_then(|text| Response::decode(text.trim_end()));
            let range = &lines.carries[exchange.line];
            checked.spectra_sent += range.len();
            let failure = match decoded {
                Ok(Response::Result(result)) => {
                    if render_table_rows(&result.rows) == self.local_table(lines, range) {
                        checked.results.push(result);
                        continue;
                    }
                    "served rows differ from the local engine's".to_owned()
                }
                Ok(other) => format!("{other:?}"),
                Err(message) => message,
            };
            checked.spectra_failed += range.len();
            checked
                .notes
                .push(format!("line {}: {failure}", exchange.line));
        }
        checked.notes.truncate(5);
        checked
    }
}
