//! A [`Transport`] decorator around [`TcpTransport`]: the seam
//! `SocketFederation::new` accepts, so every exchange of a socket-mode
//! query passes through it.
//!
//! It always counts frames and wire bytes. With tracing on it also logs
//! each exchange's interval and keeps the request and reply envelopes, so
//! the traced run can replay them through the peer and decode layers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use xqd::{TcpTransport, Transport, XrpcError};

/// Bytes of the length prefix in front of every frame payload.
const FRAME_PREFIX: u64 = 4;

/// One logged exchange attempt.
pub struct Exchange {
    pub peer: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req_bytes: u64,
    pub reply_bytes: u64,
    /// Request and reply envelopes; `None` when the exchange had no reply
    /// or the traced run's capture budget was spent.
    pub payload: Option<(String, String)>,
}

pub struct Tap {
    pub tcp: TcpTransport,
    epoch: Instant,
    tracing: AtomicBool,
    wire_bytes: AtomicU64,
    exchanges: AtomicU64,
    log: Mutex<Vec<Exchange>>,
}

pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch).as_nanos()).expect("run shorter than 584 years")
}

impl Tap {
    pub fn new(epoch: Instant) -> Tap {
        Tap {
            tcp: TcpTransport::new(),
            epoch,
            tracing: AtomicBool::new(false),
            wire_bytes: AtomicU64::new(0),
            exchanges: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// (exchange attempts, wire bytes) so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.exchanges.load(Ordering::Relaxed),
            self.wire_bytes.load(Ordering::Relaxed),
        )
    }

    /// The exchanges logged since the last call.
    pub fn take_log(&self) -> Vec<Exchange> {
        std::mem::take(&mut *self.log.lock().expect("tap log poisoned"))
    }
}

impl Transport for Tap {
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
        let start = Instant::now();
        let reply = self.tcp.exchange(peer, request, budget);
        let end = Instant::now();
        let req_bytes = request.len() as u64 + FRAME_PREFIX;
        let reply_bytes = reply.as_ref().map_or(0, |r| r.len() as u64 + FRAME_PREFIX);
        self.wire_bytes
            .fetch_add(req_bytes + reply_bytes, Ordering::Relaxed);
        self.exchanges.fetch_add(1, Ordering::Relaxed);
        if self.tracing.load(Ordering::Relaxed) {
            let payload = reply
                .as_ref()
                .ok()
                .map(|r| (request.to_string(), r.clone()));
            self.log.lock().expect("tap log poisoned").push(Exchange {
                peer: peer.to_string(),
                start_ns: ns_since(self.epoch, start),
                end_ns: ns_since(self.epoch, end),
                req_bytes,
                reply_bytes,
                payload,
            });
        }
        reply
    }
}
