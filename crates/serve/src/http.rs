//! A minimal HTTP/1.1 subset — just enough for a JSON prediction API.
//!
//! The parser ([`try_parse_request`]) is *incremental* and works on a plain
//! byte buffer: the nonblocking readiness loop feeds it straight from
//! per-connection buffers and calls it again as more bytes arrive.
//!
//! Supported request shapes: a request line, `Name: value` headers, an
//! optional `Content-Length` body, and persistent (keep-alive) connections.
//! Chunked transfer encoding, multi-line headers, and expect/continue are
//! out of scope; requests using them are rejected rather than misparsed.
//! Repeated `Content-Length` headers are rejected outright — the classic
//! request-smuggling vector even in a toy subset — and the line-length cap
//! applies whether or not the terminator has arrived yet.

use std::io;

/// Longest accepted request line or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes (a 3×96×96 image is ~340 KB as
/// JSON; this leaves generous headroom without allowing unbounded growth).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct HttpRequest {
    /// Request method, uppercased by the client (`GET`, `POST`).
    pub method: String,
    /// Request path including any query string (`/predict`).
    pub path: String,
    /// Raw body bytes (`Content-Length` long; empty when absent).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this request.
    pub close: bool,
}

/// Attempts to parse one complete request from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete request
/// (more bytes are needed), or `Ok(Some((request, consumed)))` where
/// `consumed` is the exact number of bytes the request occupied — the caller
/// drops exactly that prefix, leaving any pipelined follow-up intact.
///
/// # Errors
///
/// Returns an error for malformed request lines, oversized lines/bodies,
/// duplicate `Content-Length` headers, or unsupported framing
/// (`Transfer-Encoding`). Errors are permanent: feeding more bytes cannot
/// make the request valid, so the caller should answer 400/413 and close.
pub fn try_parse_request(buf: &[u8]) -> io::Result<Option<(HttpRequest, usize)>> {
    let mut pos = 0usize;
    let line = match next_line(buf, &mut pos)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(_version)) => (m.to_string(), p.to_string()),
        _ => return Err(bad_request("malformed request line")),
    };
    let mut content_length: Option<usize> = None;
    let mut close = false;
    for _ in 0..MAX_HEADERS {
        let header = match next_line(buf, &mut pos)? {
            None => return Ok(None),
            Some(header) => header,
        };
        if header.is_empty() {
            let body_len = content_length.unwrap_or(0);
            if buf.len() - pos < body_len {
                return Ok(None);
            }
            let body = buf[pos..pos + body_len].to_vec();
            return Ok(Some((
                HttpRequest {
                    method,
                    path,
                    body,
                    close,
                },
                pos + body_len,
            )));
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| bad_request("malformed header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // A repeated Content-Length (identical or conflicting) is how
            // request smuggling starts; reject instead of last-writer-wins.
            if content_length.is_some() {
                return Err(bad_request("duplicate content-length"));
            }
            let length = value
                .parse::<usize>()
                .map_err(|_| bad_request("bad content-length"))?;
            if length > MAX_BODY {
                return Err(bad_request("body too large"));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(bad_request("transfer-encoding not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Err(bad_request("too many headers"))
}

/// Renders one `application/json` response. `close` echoes the client's
/// `Connection: close` (the server drops the socket right after writing);
/// otherwise the response advertises `keep-alive`.
pub fn render_response(status: u16, body: &str, close: bool) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Maps a request-parse error to its response status: an oversized body is
/// `413 Payload Too Large`, every other malformed request is `400`.
pub fn error_status(e: &io::Error) -> u16 {
    if e.to_string() == "body too large" {
        413
    } else {
        400
    }
}

/// Scans one CRLF- (or LF-) terminated line starting at `*pos`, advancing
/// past the terminator; `Ok(None)` when the terminator has not arrived yet.
/// The [`MAX_LINE`] cap applies on *both* paths: a terminated line that is
/// too long and an unterminated prefix that already exceeds the cap are both
/// rejected, so a single large buffered chunk cannot smuggle an over-long
/// line past the limit.
fn next_line(buf: &[u8], pos: &mut usize) -> io::Result<Option<String>> {
    let rest = &buf[*pos..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(newline) => {
            let mut line = &rest[..newline];
            if let [head @ .., b'\r'] = line {
                line = head;
            }
            if line.len() > MAX_LINE {
                return Err(bad_request("line too long"));
            }
            let line = std::str::from_utf8(line)
                .map_err(|_| bad_request("non-utf8 header"))?
                .to_string();
            *pos += newline + 1;
            Ok(Some(line))
        }
        None => {
            if rest.len() > MAX_LINE {
                return Err(bad_request("line too long"));
            }
            Ok(None)
        }
    }
}

fn bad_request(reason: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> io::Result<Option<HttpRequest>> {
        Ok(try_parse_request(text.as_bytes())?.map(|(request, _)| request))
    }

    #[test]
    fn parses_post_with_body_and_keepalive_followup() {
        let wire = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n";
        let (first, consumed) = try_parse_request(wire).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/predict");
        assert_eq!(first.body, b"abcd");
        assert!(!first.close);
        let (second, second_len) = try_parse_request(&wire[consumed..]).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(second.body.is_empty());
        assert_eq!(consumed + second_len, wire.len());
    }

    #[test]
    fn incremental_parser_reports_exact_consumption() {
        let wire = b"POST /p HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /x HTTP/1.1\r\n\r\n";
        // Every strict prefix that ends before the body completes is
        // incomplete, never an error.
        let first_len = wire.len() - b"GET /x HTTP/1.1\r\n\r\n".len();
        for cut in 0..first_len {
            assert!(
                try_parse_request(&wire[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (request, consumed) = try_parse_request(wire).unwrap().unwrap();
        assert_eq!(request.body, b"abc");
        assert_eq!(
            consumed, first_len,
            "must not consume the pipelined request"
        );
        let (second, _) = try_parse_request(&wire[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/x");
    }

    #[test]
    fn rejects_unsupported_framing_and_bad_requests() {
        assert!(parse("POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("POST /p HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n").is_err());
    }

    #[test]
    fn overlong_line_is_rejected_even_when_terminated_in_one_chunk() {
        // Regression: the old reader only enforced MAX_LINE on the
        // no-newline-yet path, so a line whose terminator landed inside the
        // same buffered chunk was accepted at any length. Build a single
        // chunk holding a complete over-long request line.
        let wire = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 16));
        let err = parse(&wire).unwrap_err();
        assert_eq!(err.to_string(), "line too long");
        // Rejected whether or not the terminator has arrived.
        assert!(try_parse_request(&wire.as_bytes()[..MAX_LINE + 8]).is_err());
        // At the cap exactly is still fine.
        let ok = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE - 32));
        assert!(parse(&ok).unwrap().is_some());
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Identical repeats and conflicting repeats both reject: a proxy and
        // this server must never frame the same stream differently.
        let same = "POST /p HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let err = parse(same).unwrap_err();
        assert_eq!(err.to_string(), "duplicate content-length");
        let conflicting = "POST /p HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd";
        assert!(parse(conflicting).is_err());
        // A single Content-Length still parses.
        assert!(parse("POST /p HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .is_some());
    }

    #[test]
    fn connection_close_header_is_surfaced() {
        let req = parse("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.close);
    }

    #[test]
    fn response_is_fully_framed() {
        let out = render_response(429, "{\"error\":\"overloaded\"}", false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 22\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"overloaded\"}"));
    }

    #[test]
    fn connection_close_is_echoed_not_advertised_as_keepalive() {
        // Regression: the old writer unconditionally sent
        // `Connection: keep-alive`, even when about to drop the socket.
        let keep = String::from_utf8(render_response(200, "{}", false)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert!(!keep.contains("Connection: close"));
        let close = String::from_utf8(render_response(200, "{}", true)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(!close.contains("keep-alive"));
    }

    #[test]
    fn reason_table_covers_the_statuses_the_server_sends() {
        for (status, reason) in [
            (405u16, "Method Not Allowed"),
            (413, "Payload Too Large"),
            (503, "Service Unavailable"),
        ] {
            let text = String::from_utf8(render_response(status, "{}", true)).unwrap();
            assert!(
                text.starts_with(&format!("HTTP/1.1 {status} {reason}\r\n")),
                "{status} must not collapse into Internal Server Error: {text}"
            );
        }
    }

    #[test]
    fn parse_errors_map_to_the_right_status() {
        let too_big = parse("POST /p HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n").unwrap_err();
        assert_eq!(error_status(&too_big), 413);
        let malformed = parse("GARBAGE\r\n\r\n").unwrap_err();
        assert_eq!(error_status(&malformed), 400);
    }
}
