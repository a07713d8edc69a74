//! Hand-rolled Prometheus `/metrics` exposition endpoint.
//!
//! A second listener (separate from the negotiation port, so scrapes
//! never compete with request traffic for the protocol accept loop)
//! serves HTTP/1.0 with `Connection: close` semantics:
//!
//! * `GET /metrics` — the full registry rendered in Prometheus text
//!   format v0.0.4 ([`pqos_telemetry::expo::render`]).
//! * `GET /healthz` — `ok` while the engine is accepting work,
//!   `draining` (HTTP 503) once shutdown has begun.
//! * `GET /history` — the windowed health history as JSON
//!   ([`WindowStore::to_json`]); an empty document when the history
//!   plane is disabled (`--history-window-ms 0`).
//!
//! The endpoint answers anything that speaks enough HTTP to send a
//! request line; there is deliberately no keep-alive, chunking, or TLS —
//! one socket, one scrape, one close, which is all `curl`, Prometheus,
//! and `pqos-top` need. Scrape-time freshness: immediately before
//! rendering, the handler refreshes the gauges that only the engine
//! would otherwise update per tick (queue depth, overload total,
//! process uptime), so an idle daemon still reports live values.

use crate::engine::{history_body, EngineMonitor};
use pqos_telemetry::{expo, Telemetry, WindowStore};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How often the accept loop rechecks the draining flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(50);
/// Per-connection socket timeout: a scraper that stalls mid-request is
/// dropped rather than wedging the (single-threaded) metrics loop.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(500);

/// Serves `/metrics` until the engine starts draining. Returns the
/// thread handle; join it after the engine exits.
pub(crate) fn spawn(
    listener: TcpListener,
    telemetry: Telemetry,
    engine: EngineMonitor,
    history: Option<Arc<WindowStore>>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("pqos-metrics".into())
        .spawn(move || serve_metrics(listener, telemetry, engine, history))
        .expect("spawn metrics thread")
}

fn serve_metrics(
    listener: TcpListener,
    telemetry: Telemetry,
    engine: EngineMonitor,
    history: Option<Arc<WindowStore>>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // Scrapes are cheap (one registry snapshot + render);
                // handle inline so the thread count stays fixed.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
                let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
                handle_client(stream, &telemetry, &engine, history.as_deref());
            }
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                if engine.is_draining() {
                    return;
                }
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => return,
        }
    }
}

fn handle_client(
    mut stream: std::net::TcpStream,
    telemetry: &Telemetry,
    engine: &EngineMonitor,
    history: Option<&WindowStore>,
) {
    let mut buf = [0u8; 1024];
    let mut line = Vec::new();
    // Read until the end of the request line; ignore headers entirely.
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                line.extend_from_slice(&buf[..n]);
                if line.contains(&b'\n') || line.len() >= 8192 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&line);
    let path = request
        .split_whitespace()
        .nth(1)
        .unwrap_or("")
        .split('?')
        .next()
        .unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" | "/" => {
            engine.refresh_gauges();
            let body = telemetry
                .snapshot()
                .map(|snap| expo::render(&snap))
                .unwrap_or_default();
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
        }
        "/history" => ("200 OK", "application/json", history_body(history)),
        "/healthz" => {
            if engine.is_draining() {
                ("503 Service Unavailable", "text/plain", "draining\n".into())
            } else {
                ("200 OK", "text/plain", "ok\n".into())
            }
        }
        _ => ("404 Not Found", "text/plain", "not found\n".into()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}
