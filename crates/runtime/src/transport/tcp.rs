//! The TCP mesh: one node's socket plane.
//!
//! Connection lifecycle (DESIGN.md §13):
//!
//! * **Inbound** — a blocking accept loop takes connections from any
//!   peer; each accepted stream gets a reader thread that reassembles
//!   length-prefixed frames ([`super::framing`]) and funnels them into
//!   the node's ingress channel. Inbound streams are *anonymous*: no
//!   handshake identifies the sender, because receivers in the paper's
//!   model must not know it. A corrupt stream (typed
//!   [`FrameStreamError`](super::FrameStreamError)) closes that
//!   connection; the peer's own writer will redial.
//! * **Outbound** — one writer thread per peer, fed by a bounded frame
//!   queue. The writer dials with capped exponential backoff (and
//!   redials the same way after any write error), so a peer that is slow
//!   to start, crashes, or restarts is re-attached automatically. While
//!   the peer is unreachable the queue fills and further frames are
//!   dropped and counted — bounded backpressure with exactly the
//!   fair-lossy-channel semantics the protocols are proved against
//!   (retransmission is the protocols' job, not the transport's).
//! * **Shutdown** — [`TcpMesh::shutdown`] raises a stop flag and then
//!   *wakes* every thread where it blocks: writers waiting for a frame
//!   see their queues close, writers in dial back-off are unparked, the
//!   accept loop gets one last connection from the mesh itself and, on
//!   its way out, shuts down every inbound stream under its reader. No
//!   transport thread wakes on a timer except to back off after a failed
//!   dial or accept, so an idle mesh costs no CPU and a shutdown takes no
//!   poll period.

use super::framing::{write_stream_frame, FrameReassembler};
use super::NetError;
use bytes::Bytes;
use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};
use std::io::{ErrorKind, Read};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Configuration of one node's socket plane.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Address to listen on (e.g. `127.0.0.1:0` for an ephemeral port).
    pub listen: String,
    /// Peer listen addresses to dial (the other nodes — never self).
    pub peers: Vec<String>,
    /// Per-peer writer queue depth; a full queue drops (and counts) the
    /// frame instead of blocking the protocol step.
    pub queue_depth: usize,
    /// Ceiling on a single received frame's length.
    pub max_frame: usize,
    /// First dial-retry delay; doubles per failure up to
    /// [`MeshConfig::dial_backoff_cap`].
    pub dial_backoff: Duration,
    /// Largest dial-retry delay.
    pub dial_backoff_cap: Duration,
}

impl MeshConfig {
    /// Defaults: 1024-frame queues, the [`super::MAX_FRAME_LEN`] cap,
    /// 10 ms initial dial backoff capped at 1 s.
    pub fn new(listen: impl Into<String>, peers: Vec<String>) -> Self {
        MeshConfig {
            listen: listen.into(),
            peers,
            queue_depth: 1024,
            max_frame: super::MAX_FRAME_LEN,
            dial_backoff: Duration::from_millis(10),
            dial_backoff_cap: Duration::from_secs(1),
        }
    }
}

/// Snapshot of a mesh's traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Inbound connections accepted.
    pub accepted: u64,
    /// Successful dials (first connections and reconnections).
    pub dials_ok: u64,
    /// Failed dial attempts (each is retried after backoff).
    pub dials_failed: u64,
    /// Successful dials that *re*-established a previously working
    /// connection (the crash/restart recovery path).
    pub reconnects: u64,
    /// Frames written to sockets.
    pub frames_sent: u64,
    /// Frames reassembled from sockets.
    pub frames_recv: u64,
    /// Bytes written (including length prefixes).
    pub bytes_sent: u64,
    /// Bytes read.
    pub bytes_recv: u64,
    /// Frames dropped because a peer's writer queue was full.
    pub dropped_backpressure: u64,
    /// Frames lost to a mid-write socket error (the connection is then
    /// redialled).
    pub send_failures: u64,
    /// Connections dropped on a corrupt frame stream.
    pub frame_errors: u64,
}

/// Shared atomic counters behind [`NetStats`].
#[derive(Default)]
struct NetCounters {
    accepted: AtomicU64,
    dials_ok: AtomicU64,
    dials_failed: AtomicU64,
    reconnects: AtomicU64,
    frames_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    dropped_backpressure: AtomicU64,
    send_failures: AtomicU64,
    frame_errors: AtomicU64,
}

impl NetCounters {
    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            dials_ok: self.dials_ok.load(Ordering::Relaxed),
            dials_failed: self.dials_failed.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            dropped_backpressure: self.dropped_backpressure.load(Ordering::Relaxed),
            send_failures: self.send_failures.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
        }
    }
}

/// How long the accept loop backs off after a failed `accept` (out of
/// file descriptors, say) before it tries again.
const ACCEPT_RETRY: Duration = Duration::from_millis(25);

/// One node's socket plane: listener + per-peer writers. See the module
/// docs for the lifecycle.
pub struct TcpMesh {
    local_addr: SocketAddr,
    peer_txs: Vec<Sender<Bytes>>,
    /// Raised by [`TcpMesh::shutdown`] before it wakes the threads; a
    /// woken thread reads it and exits.
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl TcpMesh {
    /// Binds the listener, spawns the accept loop and one writer per
    /// peer, and starts feeding reassembled inbound frames into
    /// `ingress`. Fails only on configuration/bind errors — an absent
    /// peer is dialled until it appears.
    pub fn start(config: MeshConfig, ingress: Sender<Bytes>) -> Result<TcpMesh, NetError> {
        // Resolve every peer up front: a bad address is a config error
        // (exit 2 at the CLI), not something to retry against.
        let mut peer_addrs = Vec::with_capacity(config.peers.len());
        for peer in &config.peers {
            let addr = peer
                .to_socket_addrs()
                .map_err(|e| NetError::Addr {
                    addr: peer.clone(),
                    reason: e.to_string(),
                })?
                .next()
                .ok_or_else(|| NetError::Addr {
                    addr: peer.clone(),
                    reason: "no address resolved".into(),
                })?;
            peer_addrs.push(addr);
        }
        let listener = TcpListener::bind(&config.listen).map_err(|e| NetError::Bind {
            addr: config.listen.clone(),
            reason: e.to_string(),
        })?;
        let local_addr = listener.local_addr().map_err(|e| NetError::Bind {
            addr: config.listen.clone(),
            reason: e.to_string(),
        })?;

        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());
        let mut threads = Vec::with_capacity(1 + peer_addrs.len());

        {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let max_frame = config.max_frame;
            threads.push(
                std::thread::Builder::new()
                    .name("urb-net-accept".into())
                    .spawn(move || accept_main(listener, ingress, stop, counters, max_frame))
                    .expect("spawn accept thread"),
            );
        }

        let mut peer_txs = Vec::with_capacity(peer_addrs.len());
        for (i, addr) in peer_addrs.into_iter().enumerate() {
            let (tx, rx) = bounded::<Bytes>(config.queue_depth.max(1));
            peer_txs.push(tx);
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let backoff = (config.dial_backoff, config.dial_backoff_cap);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("urb-net-writer-{i}"))
                    .spawn(move || writer_main(addr, rx, stop, counters, backoff))
                    .expect("spawn writer thread"),
            );
        }

        Ok(TcpMesh {
            local_addr,
            peer_txs,
            stop,
            counters,
            threads,
        })
    }

    /// The bound listen address (concrete port even when configured as
    /// `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Enqueues `frame` to every peer's writer (refcount clones, no byte
    /// copies). A full queue drops that peer's copy and counts it —
    /// bounded backpressure, semantically a lossy-channel drop. The
    /// sender's own copy is the caller's business (the daemon loops it
    /// back directly, never through a socket, mirroring the in-process
    /// fan-out's never-lost self-copy).
    pub fn broadcast(&self, frame: &Bytes) {
        for tx in &self.peer_txs {
            match tx.try_send(frame.clone()) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.counters
                        .dropped_backpressure
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Disconnected(_)) => {} // shutting down
            }
        }
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        self.counters.snapshot()
    }

    /// Stops and joins every transport thread, waking each where it
    /// blocks rather than waiting for it to notice the stop flag.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // Writers blocked on their queue see it close.
        self.peer_txs.clear();
        // Writers in dial back-off park; `unpark` ends the wait early.
        for t in &self.threads {
            t.thread().unpark();
        }
        // The accept loop blocks in `accept`: hand it one last connection.
        // It then shuts down every inbound stream, waking their readers.
        let _ =
            TcpStream::connect_timeout(&self_dial_addr(self.local_addr), Duration::from_secs(1));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Where the mesh dials itself to wake its accept loop: the listen
/// address, with a wildcard IP replaced by loopback of the same family.
fn self_dial_addr(listen: SocketAddr) -> SocketAddr {
    let ip = match listen.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, listen.port())
}

impl Drop for TcpMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept loop: blocking accept, one reader thread per connection. The
/// loop keeps a weak handle on each inbound stream (the reader owns it,
/// so a finished reader's socket closes with it); once the stop flag is
/// raised — [`TcpMesh::shutdown`] then dials the listener to end the
/// blocking `accept` — it shuts down every stream still open, which ends
/// each reader's blocking `read`, and joins the readers. So
/// `TcpMesh::shutdown` observing this thread's exit means the whole
/// inbound side is quiet.
fn accept_main(
    listener: TcpListener,
    ingress: Sender<Bytes>,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    max_frame: usize,
) {
    let mut readers: Vec<(Weak<TcpStream>, std::thread::JoinHandle<()>)> = Vec::new();
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                let stream = Arc::new(stream);
                let weak = Arc::downgrade(&stream);
                let ingress = ingress.clone();
                let counters = Arc::clone(&counters);
                let handle = std::thread::Builder::new()
                    .name("urb-net-reader".into())
                    .spawn(move || reader_main(&stream, ingress, counters, max_frame))
                    .expect("spawn reader thread");
                readers.push((weak, handle));
            }
            // Out of file descriptors, say: back off rather than spin.
            // `shutdown` unparks this thread, so the stop is not delayed.
            Err(_) => std::thread::park_timeout(ACCEPT_RETRY),
        }
    }
    for (stream, _) in &readers {
        if let Some(stream) = stream.upgrade() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
    for (_, t) in readers {
        let _ = t.join();
    }
}

/// Reader: reassemble length-prefixed frames from one inbound stream and
/// funnel them into the node's ingress channel. Blocks in `read` until
/// bytes arrive; exits on peer close, stream corruption, a shutdown of
/// the stream (the mesh stopping), or ingress teardown.
fn reader_main(
    mut stream: &TcpStream,
    ingress: Sender<Bytes>,
    counters: Arc<NetCounters>,
    max_frame: usize,
) {
    let _ = stream.set_nodelay(true);
    let mut reasm = FrameReassembler::with_max_frame(max_frame);
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed, or the mesh shut the stream down
            Ok(n) => {
                counters.bytes_recv.fetch_add(n as u64, Ordering::Relaxed);
                reasm.push(&chunk[..n]);
                loop {
                    match reasm.next_frame() {
                        Ok(Some(frame)) => {
                            counters.frames_recv.fetch_add(1, Ordering::Relaxed);
                            if ingress.send(frame).is_err() {
                                return; // node loop gone
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Corrupt stream: count it and drop the
                            // connection — the peer's writer redials and
                            // the protocols retransmit.
                            counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return, // reset/broken stream; peer will redial us
        }
    }
}

/// Writer: dial `addr` with capped exponential backoff, then drain the
/// bounded queue onto the socket; any write error drops the connection
/// (losing that frame — a channel drop) and returns to the dial loop.
/// Between frames it blocks in `recv` and exits when the mesh drops the
/// queue's sender; the dial back-off is its only timed wait.
fn writer_main(
    addr: SocketAddr,
    queue: Receiver<Bytes>,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    (backoff_initial, backoff_cap): (Duration, Duration),
) {
    let mut conn: Option<TcpStream> = None;
    let mut connected_once = false;
    let mut delay = backoff_initial;
    while !stop.load(Ordering::Acquire) {
        let Some(stream) = conn.as_mut() else {
            match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    counters.dials_ok.fetch_add(1, Ordering::Relaxed);
                    if connected_once {
                        counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    connected_once = true;
                    delay = backoff_initial;
                    conn = Some(stream);
                }
                Err(_) => {
                    counters.dials_failed.fetch_add(1, Ordering::Relaxed);
                    back_off(delay, &stop);
                    delay = (delay * 2).min(backoff_cap);
                }
            }
            continue;
        };
        // Frames still queued at shutdown are dropped, not written.
        let Ok(frame) = queue.recv() else {
            return; // mesh dropped
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        if write_stream_frame(&frame, &mut *stream).is_err() {
            // The frame is lost (lossy channel); redial with backoff for
            // the ones that follow.
            counters.send_failures.fetch_add(1, Ordering::Relaxed);
            conn = None;
        } else {
            counters.frames_sent.fetch_add(1, Ordering::Relaxed);
            counters
                .bytes_sent
                .fetch_add(4 + frame.len() as u64, Ordering::Relaxed);
        }
    }
}

/// Waits `delay` unless the mesh stops first: [`TcpMesh::shutdown`]
/// raises `stop` and then unparks every transport thread, so the park
/// ends early and the flag is already visible.
fn back_off(delay: Duration, stop: &AtomicBool) {
    let until = Instant::now() + delay;
    while !stop.load(Ordering::Acquire) {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::park_timeout(left);
    }
}
