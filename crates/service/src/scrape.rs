//! Minimal HTTP client for the daemon's `/metrics` endpoint.
//!
//! `pqos-top` pulls the exposition text over a plain TCP socket without
//! an HTTP library; this module is that GET. It speaks just enough HTTP/1.0 for the
//! [`metrics_http`](crate::metrics_http) server (and any real exporter
//! endpoint): send a request line + `Connection: close`, read to EOF,
//! split on the blank line, check the status code.

use pqos_telemetry::expo::{self, Sample};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Fetches `path` from `addr` and returns the response body, failing on
/// connect errors, timeouts, or non-200 statuses.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<String> {
    let target = addr
        .parse::<std::net::SocketAddr>()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let mut stream = TcpStream::connect_timeout(&target, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(std::io::Error::other(format!("HTTP status {status}")));
    }
    Ok(body.to_string())
}

/// Scrapes `GET /metrics` from `addr` and parses the exposition into
/// samples. Errors if the body is not valid Prometheus text format.
pub fn scrape_metrics(addr: &str, timeout: Duration) -> std::io::Result<Vec<Sample>> {
    let body = http_get(addr, "/metrics", timeout)?;
    expo::parse(&body).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response is not valid Prometheus exposition text",
        )
    })
}
