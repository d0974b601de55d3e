//! A blocking `warpd` client: one connection, synchronous
//! request/response. `warpctl` and the load generator are built on
//! this.

use crate::daemon::{Conn, Endpoint};
use crate::json::Json;
use crate::proto::{read_message, write_message, Request, Response};
use std::io::{self, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, frame I/O, daemon gone).
    Io(io::Error),
    /// The daemon sent something that is not a valid response.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One blocking connection to a `warpd` daemon.
pub struct Client {
    stream: Conn,
    max_frame: usize,
    next_id: u64,
}

impl Client {
    /// Connects to `endpoint`, retrying for up to `wait` (covers the
    /// startup race of a daemon launched moments earlier).
    ///
    /// # Errors
    ///
    /// The last connect error once `wait` is exhausted.
    pub fn connect(endpoint: &Endpoint, wait: Duration) -> Result<Client, ClientError> {
        let deadline = std::time::Instant::now() + wait;
        loop {
            let attempt = match endpoint {
                Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
                Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp),
            };
            match attempt {
                Ok(stream) => {
                    return Ok(Client {
                        stream,
                        max_frame: crate::proto::MAX_FRAME_DEFAULT,
                        next_id: 1,
                    })
                }
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        return Err(ClientError::Io(e));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Sends `req` and waits for the matching response (ids are
    /// checked: a mismatched id is a protocol error).
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed/mismatched response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call_owned(req.clone())
    }

    /// [`Client::call`] by value: the request's `module` is moved into
    /// the frame and the response's `image_hex` out of it.
    fn call_owned(&mut self, req: Request) -> Result<Response, ClientError> {
        let id = req.id();
        write_message(&mut self.stream, &req.into_json())?;
        let resp = self.recv()?;
        // Error frames for unreadable requests carry id 0.
        if resp.id() != id && resp.id() != 0 {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                resp.id()
            )));
        }
        Ok(resp)
    }

    /// Sends a raw JSON frame (protocol tests use this to exercise
    /// malformed requests) and reads one response frame back.
    ///
    /// # Errors
    ///
    /// Transport failures or an unparsable response.
    pub fn call_raw(&mut self, payload: &Json) -> Result<Response, ClientError> {
        write_message(&mut self.stream, payload)?;
        self.recv()
    }

    /// Writes raw bytes as a frame without awaiting a reply (protocol
    /// tests build deliberately broken frames on top of this).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads one response frame (pair with [`Client::send_bytes`]).
    ///
    /// # Errors
    ///
    /// Transport failures or an unparsable response.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let json = self.read_json()?;
        Response::from_json_owned(json).map_err(ClientError::Protocol)
    }

    /// Reads one frame and parses it as JSON.
    fn read_json(&mut self) -> Result<Json, ClientError> {
        read_message(&mut self.stream, self.max_frame, || true)
            .map_err(|e| match e {
                crate::proto::FrameError::Io(io) => ClientError::Io(io),
                other => ClientError::Protocol(other.to_string()),
            })?
            .map_err(ClientError::Protocol)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Compiles `module` with `options`.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures (a compile *failure* is an
    /// ordinary [`Response::Error`], not a `ClientError`).
    pub fn compile(
        &mut self,
        module: &str,
        options: crate::proto::RequestOptions,
    ) -> Result<Response, ClientError> {
        self.compile_jobs(module, options, 0)
    }

    /// Compiles `module` with `options`, asking the daemon to use
    /// `jobs` threads for this request (`0` = daemon default, the
    /// machine's available parallelism).
    ///
    /// # Errors
    ///
    /// Transport or protocol failures (a compile *failure* is an
    /// ordinary [`Response::Error`], not a `ClientError`).
    pub fn compile_jobs(
        &mut self,
        module: &str,
        options: crate::proto::RequestOptions,
        jobs: u64,
    ) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.call_owned(Request::Compile {
            id,
            module: module.to_string(),
            options,
            jobs,
        })
    }

    /// Asks for the options fingerprint.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn fingerprint(
        &mut self,
        options: crate::proto::RequestOptions,
    ) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.call_owned(Request::Fingerprint { id, options })
    }

    /// Fetches the shared cache counters.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn cache_stats(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.call_owned(Request::CacheStats { id })
    }

    /// Probes daemon health.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn health(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.call_owned(Request::Health { id })
    }

    /// Asks the daemon to stop admitting compile requests.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn drain(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.call_owned(Request::Drain { id })
    }

    /// Asks the daemon to terminate.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.call_owned(Request::Shutdown { id })
    }
}
