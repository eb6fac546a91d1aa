//! Prometheus-style text exposition over a minimal HTTP/1.0 responder.
//!
//! `hdoms serve --metrics host:port` binds one extra listener whose
//! every request — whatever the path — is answered with the registry's
//! [`crate::metrics::Registry::render_prometheus`] rendering. The
//! responder is deliberately tiny (read one request head, write one
//! response, close): it exists so a scraper or a `curl` can read the
//! live registry, not to be a web server.

use crate::metrics::Registry;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;

fn answer(stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    // Drain the request head (request line + headers) up to the blank
    // line; the body and the path are irrelevant.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let body = registry.render_prometheus();
    let mut stream = stream;
    stream.write_all(
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Serve exposition requests on `listener` forever (one request per
/// connection, served inline — scrapes are rare and cheap). Returns
/// only if `accept` itself fails.
///
/// # Errors
///
/// Propagates listener failures; per-connection I/O errors only drop
/// that connection.
pub(crate) fn serve_text(listener: TcpListener, registry: Arc<Registry>) -> std::io::Result<()> {
    loop {
        let (stream, _peer) = listener.accept()?;
        let _ = answer(stream, &registry);
    }
}

/// Bind `addr` and serve the exposition endpoint on a background
/// thread. Returns the bound address (useful with port 0).
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_exposition(
    addr: impl ToSocketAddrs,
    registry: Arc<Registry>,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::spawn(move || {
        let _ = serve_text(listener, registry);
    });
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn exposition_answers_http_with_the_rendering() {
        let registry = Arc::new(Registry::new());
        registry
            .counter("hdoms_query_batches_total", "Batches served")
            .add(3);
        let addr = spawn_exposition("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain"));
        assert!(response.contains("hdoms_query_batches_total 3"));
    }
}
