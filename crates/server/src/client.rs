//! A small blocking client for the `bst-server` wire protocol — used by
//! the CLI subcommands, the `tcp_service` example, and the e2e tests.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::frame::{read_frame, write_frame, CLIENT_MAX_FRAME};
use crate::protocol::{decode_response, encode_request, Request, Response, Target, WireError};

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes the server closing mid-reply).
    Io(io::Error),
    /// The server answered with a typed error frame.
    Wire(WireError),
    /// The server answered success, but with a different response shape
    /// than the request calls for — a protocol bug, not a user error.
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected response shape: wanted {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A connected client. One in-flight request at a time (the protocol is
/// strict request/reply).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request and reads one reply. Exposed so callers can
    /// speak raw protocol (the e2e tests do); the typed helpers below
    /// are the ergonomic surface.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        self.read_reply()
    }

    /// Reads one reply frame without sending anything — for tests that
    /// write raw bytes onto the socket themselves.
    pub fn read_reply(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.stream, CLIENT_MAX_FRAME)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        Ok(decode_response(&payload)??)
    }

    /// Raw access to the underlying socket — test visibility.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// `PING` → `PONG`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Pong")),
        }
    }

    /// Creates a stored set; returns its raw id.
    pub fn create(&mut self, keys: Vec<u64>) -> Result<u64, ClientError> {
        match self.request(&Request::Create { keys })? {
            Response::Created { id } => Ok(id),
            _ => Err(ClientError::UnexpectedResponse("Created")),
        }
    }

    /// Inserts keys into a stored set.
    pub fn insert_keys(&mut self, id: u64, keys: Vec<u64>) -> Result<(), ClientError> {
        match self.request(&Request::InsertKeys { id, keys })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Ok")),
        }
    }

    /// Removes keys from a stored set.
    pub fn remove_keys(&mut self, id: u64, keys: Vec<u64>) -> Result<(), ClientError> {
        match self.request(&Request::RemoveKeys { id, keys })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Ok")),
        }
    }

    /// Drops a stored set.
    pub fn drop_set(&mut self, id: u64) -> Result<(), ClientError> {
        match self.request(&Request::DropSet { id })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Ok")),
        }
    }

    /// Marks a namespace id occupied; returns the shard's tree generation.
    pub fn occ_insert(&mut self, key: u64) -> Result<u64, ClientError> {
        match self.request(&Request::OccInsert { key })? {
            Response::Generation { generation } => Ok(generation),
            _ => Err(ClientError::UnexpectedResponse("Generation")),
        }
    }

    /// Vacates a namespace id; returns the shard's tree generation.
    pub fn occ_remove(&mut self, key: u64) -> Result<u64, ClientError> {
        match self.request(&Request::OccRemove { key })? {
            Response::Generation { generation } => Ok(generation),
            _ => Err(ClientError::UnexpectedResponse("Generation")),
        }
    }

    /// Fetches a stored set's filter, decoded.
    pub fn get_filter(&mut self, id: u64) -> Result<bst_bloom::filter::BloomFilter, ClientError> {
        match self.request(&Request::Get { id })? {
            Response::Filter { bytes } => bst_bloom::codec::decode(&bytes)
                .map_err(|_| ClientError::UnexpectedResponse("decodable filter bytes")),
            _ => Err(ClientError::UnexpectedResponse("Filter")),
        }
    }

    /// Lists live stored ids, ascending.
    pub fn list_sets(&mut self) -> Result<Vec<u64>, ClientError> {
        match self.request(&Request::ListSets)? {
            Response::Sets { ids } => Ok(ids),
            _ => Err(ClientError::UnexpectedResponse("Sets")),
        }
    }

    /// Draws one sample with a client-chosen RNG seed.
    pub fn sample(&mut self, target: Target, seed: u64) -> Result<u64, ClientError> {
        match self.request(&Request::Sample { target, seed })? {
            Response::Sampled { key } => Ok(key),
            _ => Err(ClientError::UnexpectedResponse("Sampled")),
        }
    }

    /// Draws up to `r` samples with a client-chosen RNG seed.
    pub fn sample_many(
        &mut self,
        target: Target,
        r: u32,
        seed: u64,
    ) -> Result<Vec<u64>, ClientError> {
        match self.request(&Request::SampleMany { target, r, seed })? {
            Response::Keys { keys } => Ok(keys),
            _ => Err(ClientError::UnexpectedResponse("Keys")),
        }
    }

    /// Reconstructs the whole positive set.
    pub fn reconstruct(&mut self, target: Target) -> Result<Vec<u64>, ClientError> {
        match self.request(&Request::Reconstruct { target })? {
            Response::Keys { keys } => Ok(keys),
            _ => Err(ClientError::UnexpectedResponse("Keys")),
        }
    }

    /// Reconstructs restricted to `[start, end)`.
    pub fn reconstruct_range(
        &mut self,
        target: Target,
        start: u64,
        end: u64,
    ) -> Result<Vec<u64>, ClientError> {
        match self.request(&Request::ReconstructRange { target, start, end })? {
            Response::Keys { keys } => Ok(keys),
            _ => Err(ClientError::UnexpectedResponse("Keys")),
        }
    }

    /// One sample per target (mixed stored/ad-hoc), per-slot results.
    #[allow(clippy::type_complexity)]
    pub fn batch(
        &mut self,
        targets: Vec<Target>,
        seed: u64,
    ) -> Result<Vec<Result<u64, WireError>>, ClientError> {
        match self.request(&Request::Batch { targets, seed })? {
            Response::Batch { results } => Ok(results),
            _ => Err(ClientError::UnexpectedResponse("Batch")),
        }
    }

    /// Snapshots the whole server-side engine.
    pub fn save(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.request(&Request::Save)? {
            Response::Snapshot { bytes } => Ok(bytes),
            _ => Err(ClientError::UnexpectedResponse("Snapshot")),
        }
    }

    /// Replaces the server-side engine with a snapshot.
    pub fn load(&mut self, bytes: Vec<u8>) -> Result<(), ClientError> {
        match self.request(&Request::Load { bytes })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Ok")),
        }
    }

    /// Fetches the metrics exposition page (Prometheus text format).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            _ => Err(ClientError::UnexpectedResponse("Metrics")),
        }
    }

    /// Asks the server to stop (acknowledged before it does).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Ok")),
        }
    }
}
