//! A framing-only client: it writes encoded request frames and splits
//! reply frames off the socket, keeping their payload bytes undecoded.
//!
//! `ServeClient::recv_reply` decodes every reply as it arrives; on the
//! timed path that decode would run on the same cores as the server, so
//! the benchmark frames with `wire::split_frame` and decodes afterwards.

use dcn_serve::wire::{split_frame, DEFAULT_MAX_FRAME};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One connection to the route server.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    start: usize,
    chunk: Box<[u8]>,
}

impl FrameConn {
    /// Connects with Nagle off, as `ServeClient` does.
    ///
    /// # Errors
    ///
    /// The connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<FrameConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(FrameConn {
            stream,
            rbuf: Vec::with_capacity(256 * 1024),
            start: 0,
            chunk: vec![0u8; 64 * 1024].into_boxed_slice(),
        })
    }

    /// Writes one encoded frame (length prefix included).
    ///
    /// # Errors
    ///
    /// The socket write failure.
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Reads the next reply frame and appends its payload (version
    /// through body) to `arena`.
    ///
    /// # Errors
    ///
    /// A socket failure, an invalid length prefix, or end of stream.
    pub fn recv_into(&mut self, arena: &mut Vec<u8>) -> std::io::Result<()> {
        loop {
            let rest = &self.rbuf[self.start..];
            match split_frame(rest, DEFAULT_MAX_FRAME) {
                Ok(Some((range, used))) => {
                    arena.extend_from_slice(&rest[range]);
                    self.start += used;
                    if self.start == self.rbuf.len() {
                        self.rbuf.clear();
                        self.start = 0;
                    }
                    return Ok(());
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                }
            }
            if self.start > 0 {
                self.rbuf.drain(..self.start);
                self.start = 0;
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.rbuf.extend_from_slice(&self.chunk[..n]);
        }
    }
}
