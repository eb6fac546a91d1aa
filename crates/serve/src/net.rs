//! Line-framed transport: serve a [`Server`] over TCP or stdio, and a
//! small blocking client.
//!
//! Framing is one JSON message per `\n`-terminated line in each
//! direction (see [`crate::protocol`]). A malformed line produces an
//! `error` response and the connection stays open; the connection closes
//! when the peer closes its write side.

use crate::protocol::{Request, Response};
use crate::server::Server;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Largest accepted request line. A line that exceeds this gets one
/// `error` response and the connection is closed — without a bound, a
/// peer writing bytes with no newline would buffer without limit and
/// take the whole server down.
pub(crate) const MAX_LINE_BYTES: usize = 64 << 20;

/// Maximum concurrently served TCP connections; further accepts are
/// answered with an `error` line and closed immediately.
pub(crate) const MAX_CONNECTIONS: usize = 256;

/// Serve requests from `reader`, writing one response line per request
/// line to `writer`, until end-of-stream. This is the transport-agnostic
/// core used by both the TCP and stdio front ends. The connection is
/// registered as one scheduler client ([`Server::next_client_id`]), so
/// its batches share a single round-robin slot in the batch queue.
///
/// # Errors
///
/// Propagates I/O failures on either side.
pub fn serve_connection(
    server: &Server,
    reader: impl BufRead,
    writer: impl Write,
) -> io::Result<()> {
    serve_connection_bounded(server, reader, writer, MAX_LINE_BYTES)
}

/// The one connection body: [`serve_connection`] under an explicit
/// line-length bound (a parameter so tests can exercise the bound without
/// 64 MiB inputs), with the connection's open and close logged around its
/// request loop.
fn serve_connection_bounded(
    server: &Server,
    mut reader: impl BufRead,
    mut writer: impl Write,
    max_line: usize,
) -> io::Result<()> {
    let client = server.next_client_id();
    let logger = server.logger();
    logger.debug("conn.open").u64("client", client).emit();
    let answer = |response: Response, writer: &mut dyn Write| -> io::Result<()> {
        writer.write_all(response.encode().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    };
    let mut serve = || -> io::Result<()> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            // Bounded read: never buffer more than max_line + 2 bytes per
            // request (payload + CRLF), whatever the peer sends.
            let n = reader
                .by_ref()
                .take(max_line as u64 + 2)
                .read_until(b'\n', &mut buf)?;
            if n == 0 {
                return Ok(()); // clean end-of-stream
            }
            // The bound applies to the payload, not the line terminator.
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            }
            if buf.len() > max_line {
                let refusal = Response::error(format!("request line exceeds {max_line} bytes"));
                return answer(refusal, &mut writer);
            }
            let response = match std::str::from_utf8(&buf) {
                Err(_) => Response::error("request line is not UTF-8"),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => match Request::decode(line.trim_end()) {
                    Ok(request) => server.handle_as(client, &request),
                    Err(message) => Response::error(message),
                },
            };
            answer(response, &mut writer)?;
        }
    };
    let result = serve();
    logger
        .debug("conn.close")
        .u64("client", client)
        .bool("clean", result.is_ok())
        .emit();
    result
}

/// Accept connections forever, serving each on its own thread (at most
/// `MAX_CONNECTIONS` concurrently — excess connections are refused
/// with an `error` line). Returns only if `accept` itself fails.
///
/// # Errors
///
/// Propagates listener failures; per-connection I/O errors only end that
/// connection's thread.
pub fn serve_listener(server: Arc<Server>, listener: TcpListener) -> io::Result<()> {
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        let (mut stream, _peer) = listener.accept()?;
        if active.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
            active.fetch_sub(1, Ordering::SeqCst);
            server
                .logger()
                .warn("conn.refused")
                .u64("max_connections", MAX_CONNECTIONS as u64)
                .emit();
            let refusal = Response::error(format!(
                "server at capacity ({MAX_CONNECTIONS} connections)"
            ));
            let _ = stream.write_all(refusal.encode().as_bytes());
            let _ = stream.write_all(b"\n");
            continue; // stream drops, connection closes
        }
        let server = Arc::clone(&server);
        let active = Arc::clone(&active);
        std::thread::spawn(move || {
            let result = stream.try_clone().map(|read_half| {
                let reader = BufReader::new(read_half);
                let writer = BufWriter::new(stream);
                // A dropped peer mid-batch is normal churn, not a server
                // failure: just end this connection's thread.
                let _ = serve_connection(&server, reader, writer);
            });
            drop(result);
            active.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Serve a single session over stdin/stdout (the `hdoms serve --stdio`
/// mode — handy behind inetd-style supervisors and in tests).
///
/// # Errors
///
/// Propagates stdio failures.
pub fn serve_stdio(server: &Server) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_connection(server, stdin.lock(), stdout.lock())
}

/// A blocking line-framed protocol client over TCP.
///
/// ```no_run
/// use hdoms_serve::net::Client;
/// use hdoms_serve::protocol::{Request, Response};
///
/// let mut client = Client::connect("127.0.0.1:7878").unwrap();
/// match client.request(&Request::Ping).unwrap() {
///     Response::Pong { protocol } => println!("server speaks v{protocol}"),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a serving address (e.g. `"127.0.0.1:7878"`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Send one request and block for its response.
    ///
    /// # Errors
    ///
    /// I/O failures, a server that hung up, or an undecodable response
    /// line — all reported as strings (the protocol's error channel is
    /// [`Response::Error`], which this returns as `Ok`).
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.writer
            .write_all(request.encode().as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receive failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        Response::decode(line.trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PROTOCOL_VERSION;
    use proptest::prelude::*;

    /// The bound the near-bound property runs at: small, so no case
    /// buffers anywhere near [`MAX_LINE_BYTES`].
    const NEAR_BOUND: usize = 256;

    /// The first `len` bytes of `raw` as one line's payload, with every
    /// LF and any whitespace at either end turned into `.`: an LF would
    /// end the line early, a CR last would be read as half of a CRLF
    /// terminator, and a blank line is skipped, not answered.
    fn payload(mut raw: Vec<u8>, len: usize) -> Vec<u8> {
        raw.truncate(len);
        for b in raw.iter_mut().filter(|b| **b == b'\n') {
            *b = b'.';
        }
        for end in [0, raw.len() - 1] {
            if raw[end].is_ascii_whitespace() {
                raw[end] = b'.';
            }
        }
        raw
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Arbitrary bytes one short of the bound or at it get exactly
        /// one response line and the connection serves the next request;
        /// one byte past it gets the one refusal and the connection
        /// closes.
        #[test]
        fn lines_near_the_bound_get_one_answer(
            raw in collection::vec(any::<u8>(), NEAR_BOUND + 1..NEAR_BOUND + 2),
            over in 0usize..3,
        ) {
            let len = NEAR_BOUND - 1 + over;
            let mut input = payload(raw, len);
            input.extend_from_slice(b"\n{\"type\":\"ping\"}\n");
            let mut out = Vec::new();
            serve_connection_bounded(&Server::new(1), &input[..], &mut out, NEAR_BOUND)
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8(out).map_err(|e| e.to_string())?;
            let responses = text.lines().map(Response::decode);
            let responses: Vec<Response> = responses.collect::<Result<_, _>>()?;
            if len <= NEAR_BOUND {
                prop_assert_eq!(responses.len(), 2, "{len} bytes: {text}");
                let pong = Response::Pong {
                    protocol: PROTOCOL_VERSION,
                };
                prop_assert_eq!(&responses[1], &pong);
            } else {
                prop_assert_eq!(responses.len(), 1, "{len} bytes: {text}");
                let refused = matches!(&responses[0], Response::Error { message, .. }
                    if message.contains("exceeds 256 bytes"));
                prop_assert!(refused, "{text}");
            }
        }
    }

    #[test]
    fn oversized_lines_are_refused_not_buffered() {
        let server = Server::new(1);
        // 100 bytes of not-newline against a 64-byte bound, then a valid
        // request that must never be reached.
        let mut input = vec![b'x'; 100];
        input.extend_from_slice(b"\n{\"type\":\"ping\"}\n");
        let mut out = Vec::new();
        serve_connection_bounded(&server, &input[..], &mut out, 64).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 1, "connection closes after the refusal");
        match Response::decode(lines[0]).unwrap() {
            Response::Error { message, .. } => assert!(message.contains("exceeds 64 bytes")),
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn line_of_exactly_the_bound_is_accepted() {
        let server = Server::new(1);
        let line = "{\"type\":\"ping\"}";
        // Payload exactly at the bound, with both LF and CRLF endings.
        for ending in ["\n", "\r\n"] {
            let input = format!("{line}{ending}");
            let mut out = Vec::new();
            serve_connection_bounded(&server, input.as_bytes(), &mut out, line.len()).unwrap();
            assert_eq!(
                Response::decode(std::str::from_utf8(&out).unwrap().trim_end()).unwrap(),
                Response::Pong {
                    protocol: PROTOCOL_VERSION
                },
                "ending {ending:?}"
            );
        }
    }

    #[test]
    fn non_utf8_lines_get_an_error_response() {
        let server = Server::new(1);
        let input = b"\xff\xfe\n{\"type\":\"ping\"}\n";
        let mut out = Vec::new();
        serve_connection(&server, &input[..], &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "connection survives the bad line");
        assert!(matches!(
            Response::decode(lines[0]).unwrap(),
            Response::Error { .. }
        ));
        assert_eq!(
            Response::decode(lines[1]).unwrap(),
            Response::Pong {
                protocol: PROTOCOL_VERSION
            }
        );
    }

    #[test]
    fn connection_answers_lines_and_survives_garbage() {
        let server = Server::new(1);
        let input = "{\"type\":\"ping\"}\n\nnot json\n{\"type\":\"list_indexes\"}\n";
        let mut out = Vec::new();
        serve_connection(&server, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "blank line skipped, garbage answered");
        assert_eq!(
            Response::decode(lines[0]).unwrap(),
            Response::Pong {
                protocol: PROTOCOL_VERSION
            }
        );
        assert!(matches!(
            Response::decode(lines[1]).unwrap(),
            Response::Error { .. }
        ));
        assert_eq!(
            Response::decode(lines[2]).unwrap(),
            Response::Indexes(Vec::new())
        );
    }
}
