//! A minimal keep-alive HTTP/1.1 client: one connection, one request
//! in flight, `Content-Length` framing (what `rnnhm_serve` writes).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One reply.
pub struct Reply {
    pub status: u16,
    pub etag: Option<String>,
    pub degraded: bool,
    pub body: Vec<u8>,
    /// Head plus body bytes read off the socket.
    pub wire_bytes: usize,
}

/// A keep-alive connection that reconnects after the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None, buf: Vec::new() }
    }

    /// Closes the connection and opens a new one (if that fails, the
    /// next request tries again).
    pub fn reopen(&mut self) {
        self.stream = Self::connect(self.addr).ok();
    }

    fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(s)
    }

    /// Sends `GET target` (conditional when `if_none_match` is set) and
    /// reads the whole reply.
    pub fn get(&mut self, target: &str, if_none_match: Option<&str>) -> io::Result<Reply> {
        let result = self.exchange(target, if_none_match);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, target: &str, if_none_match: Option<&str>) -> io::Result<Reply> {
        if self.stream.is_none() {
            self.stream = Some(Self::connect(self.addr)?);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut req = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n");
        if let Some(tag) = if_none_match {
            req.push_str(&format!("If-None-Match: {tag}\r\n"));
        }
        req.push_str("\r\n");
        stream.write_all(req.as_bytes())?;

        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::other("non-UTF-8 reply head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("malformed status line"))?;
        let (mut len, mut etag, mut degraded, mut close) = (0usize, None, false, false);
        for line in lines {
            let Some((k, v)) = line.split_once(':') else { continue };
            let v = v.trim();
            match k.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    len = v.parse().map_err(|_| io::Error::other("bad Content-Length"))?
                }
                "etag" => etag = Some(v.to_string()),
                "x-degraded" => degraded = v == "1",
                "connection" => close = v.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = Vec::with_capacity(len);
        body.extend_from_slice(&self.buf[head_end..(head_end + len).min(self.buf.len())]);
        while body.len() < len {
            let want = (len - body.len()).min(chunk.len());
            let n = stream.read(&mut chunk[..want])?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        if close {
            self.stream = None;
        }
        Ok(Reply { status, etag, degraded, wire_bytes: head_end + body.len(), body })
    }
}
