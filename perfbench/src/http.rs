//! Minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! The benchmark carries its own client so that a change to the
//! program's client code cannot move the load it measures. It speaks
//! only what the daemon answers: a status line, headers with
//! `Content-Length`, and a body.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-read timeout: a request the daemon never answers fails instead of
/// hanging the run.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

/// A response: status and body bytes.
pub type Response = (u16, Vec<u8>);

impl Conn {
    /// A connection to `addr`, opened lazily on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        Ok(self.stream.as_mut().expect("stream just opened"))
    }

    /// Send one request without waiting for its response.
    fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let r = self.stream()?.write_all(wire.as_bytes());
        if r.is_err() {
            self.stream = None;
        }
        r
    }

    /// Read the next response on this connection.
    fn recv(&mut self) -> io::Result<Response> {
        let r = self.recv_inner();
        if r.is_err() {
            self.stream = None;
        }
        r
    }

    fn recv_inner(&mut self) -> io::Result<Response> {
        let (head_len, status, body_len, close) = loop {
            if let Some(parsed) = parse_head(&self.buf)? {
                break parsed;
            }
            self.fill()?;
        };
        while self.buf.len() < head_len + body_len {
            self.fill()?;
        }
        let body = self.buf[head_len..head_len + body_len].to_vec();
        self.buf.drain(..head_len + body_len);
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream()?.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// One request and its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.send(method, path, body)?;
        self.recv()
    }
}

/// Parse a complete response head at the front of `buf`: `(head bytes,
/// status, Content-Length, Connection: close)`, or `None` while the head
/// is incomplete.
fn parse_head(buf: &[u8]) -> io::Result<Option<(usize, u16, usize, bool)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut len = None;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let len = len.ok_or_else(|| bad("response has no Content-Length"))?;
    Ok(Some((end + 4, status, len, close)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\nConnection: close\r\n\r\n{}";
        assert_eq!(
            parse_head(raw).unwrap(),
            Some((raw.len() - 2, 429, 2, true))
        );
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap(), None);
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
