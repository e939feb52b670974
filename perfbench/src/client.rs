//! A blocking HTTP/1.1 keep-alive client for the closed-loop poller.
//!
//! One request is in flight at a time. Responses are framed by
//! `Content-Length` and read into one buffer that is sized before the
//! timed loop and reused. A `Connection: close` response is honoured:
//! the caller reconnects before its next request and the reconnect is
//! counted. A reset, a timeout or a short response is an error for that
//! operation; the client never retries it silently.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket read/write timeout: a response slower than this is a failed
/// operation.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Receive buffer; its length is its usable size.
    buf: Vec<u8>,
    /// `Connection: close` responses seen, each followed by a reconnect.
    pub reconnects: u64,
}

/// Where a response's parts lie in the client's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    body_start: usize,
    body_end: usize,
    /// The server announced it closes the connection after this response.
    pub close: bool,
}

impl Reply {
    pub fn body_len(&self) -> usize {
        self.body_end - self.body_start
    }
}

fn open(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(stream)
}

impl Client {
    /// Connects with a receive buffer of `buffer_bytes`.
    pub fn connect(addr: SocketAddr, buffer_bytes: usize) -> Result<Self, String> {
        Ok(Self {
            addr,
            stream: Some(open(addr)?),
            buf: vec![0; buffer_bytes.max(4096)],
            reconnects: 0,
        })
    }

    /// Whether the last response closed the connection (or it failed).
    pub fn needs_reconnect(&self) -> bool {
        self.stream.is_none()
    }

    /// Opens a fresh connection after a close or a failure.
    pub fn reconnect(&mut self) -> Result<(), String> {
        self.stream = Some(open(self.addr)?);
        Ok(())
    }

    /// Writes one complete request and reads its complete response.
    pub fn exchange(&mut self, request: &[u8]) -> Result<Reply, String> {
        let result = self.exchange_inner(request);
        match &result {
            Ok(reply) if reply.close => {
                self.reconnects += 1;
                self.stream = None;
            }
            Ok(_) => {}
            Err(_) => self.stream = None,
        }
        result
    }

    fn exchange_inner(&mut self, request: &[u8]) -> Result<Reply, String> {
        let stream = self.stream.as_mut().ok_or("not connected")?;
        stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        let mut filled = 0;
        let head_end = loop {
            if let Some(pos) = self.buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            filled += read_more(stream, &mut self.buf, filled)?;
        };
        let (status, length, close) = parse_head(&self.buf[..head_end])?;
        let body_end = head_end + length;
        while filled < body_end {
            filled += read_more(stream, &mut self.buf, filled)?;
        }
        if filled > body_end {
            return Err(format!("{} bytes past the response", filled - body_end));
        }
        Ok(Reply {
            status,
            body_start: head_end,
            body_end,
            close,
        })
    }

    /// The body of the last response.
    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body_start..reply.body_end]
    }
}

/// Reads at least one byte into `buf[filled..]`, doubling the buffer
/// when it is full. Returns the number of bytes read.
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>, filled: usize) -> Result<usize, String> {
    if filled == buf.len() {
        buf.resize(buf.len() * 2, 0);
    }
    match stream.read(&mut buf[filled..]) {
        Ok(0) => Err("connection closed mid-response".to_string()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Status, `Content-Length` and whether `Connection: close` was sent.
fn parse_head(head: &[u8]) -> Result<(u16, usize, bool), String> {
    let text = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8")?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line in {:?}", text.get(..40)))?;
    let (mut length, mut close) = (None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    Ok((status, length, close))
}

/// The wire bytes of one request with a JSON (or empty) body.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_reads_status_length_and_close() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: 12\r\nConnection: close\r\n\r\n";
        assert_eq!(parse_head(head), Ok((200, 12, true)));
        let keep = b"HTTP/1.1 404 Not Found\r\ncontent-length: 3\r\nConnection: keep-alive\r\n\r\n";
        assert_eq!(parse_head(keep), Ok((404, 3, false)));
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn requests_carry_their_length() {
        let bytes = request_bytes("POST", "/v1/fleet", "{}");
        let text = String::from_utf8(bytes).expect("ascii");
        assert!(text.starts_with("POST /v1/fleet HTTP/1.1\r\n"));
        assert!(text.ends_with("Content-Length: 2\r\n\r\n{}"));
    }
}
