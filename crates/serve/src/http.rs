//! A deliberately small HTTP/1.1 implementation over `std::net`.
//!
//! The vendored-dependency policy rules out hyper/axum, and the server
//! needs only a sliver of the protocol: parse a request line, a handful
//! of headers, and a `Content-Length` body; write a status line and a
//! body back. Everything is bounded — header block, body size, read
//! timeout — so a malformed or malicious peer costs one connection,
//! never the process. One request per connection (`Connection: close`),
//! which keeps the worker pool's admission accounting exact.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body. Workload batches are a few hundred
/// bytes per table; 8 MiB leaves room for thousand-table batches while
/// bounding what one connection can pin.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path component of the request target (no query parsing — the API
    /// is JSON-bodied).
    pub path: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Each maps to a definite status code
/// so the connection still gets an answer.
#[derive(Debug)]
pub enum ReadError {
    /// Peer closed before a full head arrived.
    Closed,
    /// Malformed request line or header block.
    Malformed(String),
    /// Head exceeded its 16 KiB cap or body exceeded [`MAX_BODY_BYTES`] —
    /// 431 / 413 territory.
    TooLarge(String),
    /// Socket error or read timeout.
    Io(std::io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed before request completed"),
            ReadError::Malformed(m) => write!(f, "malformed request: {m}"),
            ReadError::TooLarge(m) => write!(f, "request too large: {m}"),
            ReadError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Reads one request from `stream`, enforcing the size caps and
/// `timeout` on every read.
pub fn read_request(stream: &mut TcpStream, timeout: Duration) -> Result<Request, ReadError> {
    let _ = stream.set_read_timeout(Some(timeout));
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge(format!(
                "header block exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = stream.read(&mut chunk).map_err(ReadError::Io)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(ReadError::Closed)
            } else {
                Err(ReadError::Malformed("truncated header block".to_owned()))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("non-UTF-8 header block".to_owned()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request".to_owned()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("missing method".to_owned()))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing request target".to_owned()))?
        .to_owned();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(ReadError::Malformed("expected HTTP/1.x version".to_owned())),
    }

    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header line `{line}`")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| ReadError::Malformed(format!("bad Content-Length `{value}`")))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )));
    }

    // Body bytes already buffered past the head, then read the rest.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(ReadError::Io)?;
        if n == 0 {
            return Err(ReadError::Malformed("truncated body".to_owned()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

/// Position of the `\r\n\r\n` separator, if complete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrases for the statuses the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response and flushes. Errors are returned so callers
/// can count failed writes, but a dead peer is otherwise uninteresting.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Convenience: a JSON response.
pub fn write_json(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body.as_bytes())
}

/// Convenience: a JSON error response `{"error": …}`.
pub fn write_error(stream: &mut TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    let body = serde_json::to_string(&ErrorBody {
        error: message.to_owned(),
    })
    .unwrap_or_else(|_| "{\"error\":\"error\"}".to_owned());
    write_json(stream, status, &body)
}

/// The error payload shape.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct ErrorBody {
    /// Human-readable description.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Half-close so the reader sees EOF where relevant.
            let _ = s.shutdown(std::net::Shutdown::Write);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let out = read_request(&mut conn, Duration::from_secs(5));
        writer.join().unwrap();
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(b"POST /v1/avf HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/avf");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert!(matches!(
            roundtrip(b"NONSENSE\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_truncated_body() {
        assert!(matches!(
            roundtrip(b"POST /v1/avf HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let raw = format!(
            "POST /v1/avf HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            roundtrip(raw.as_bytes()),
            Err(ReadError::TooLarge(_))
        ));
    }

    #[test]
    fn rejects_bad_content_length() {
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: ham\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn empty_connection_reads_as_closed() {
        assert!(matches!(roundtrip(b""), Err(ReadError::Closed)));
    }
}
