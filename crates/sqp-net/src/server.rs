//! The TCP serving front-end: accept loops and run-to-completion
//! connection threads over one [`NetSurface`].
//!
//! # Topology
//!
//! ```text
//!                    ┌──────────────────────────────────────────────┐
//!   serve port ──►   │ accept loop ─┬─► conn 1 ─┐                    │
//!   admin port ──►   │ accept loop ─┼─► conn 2 ─┼─► NetSurface       │
//!                    │              └─► conn N ─┘  (read → decode →  │
//!                    │                              run → write)     │
//!                    └──────────────────────────────────────────────┘
//! ```
//!
//! Each connection has one thread that reads its frames, decodes them in
//! place, runs them on the surface and writes each reply before taking
//! the next frame, so replies come back in request order with no handoff
//! between threads. A request/response exchange costs the server one
//! `read` and one `writev`; a slow model call stalls only the connection
//! that made it.
//!
//! # Overload behavior
//!
//! A connection's queue is the frames already in its read buffer but not
//! yet run. Of the frames one `read` brings in, the first `queue_depth`
//! run; the rest are answered `R_OVERLOADED { limit: 0 }` in FIFO
//! position without engine work, so a pipelining client still sees
//! exactly one reply per request, in order. While the thread runs frames
//! it does not read, so a hostile pipeliner fills the kernel buffers and
//! meets TCP backpressure instead of growing server memory.
//!
//! Engine-level admission control is separate: traffic opcodes run the
//! surface's admitted calls, and a typed [`ServeError::Overloaded`] from
//! the engine also becomes `R_OVERLOADED` (with the exhausted budget in
//! the body). `R_OVERLOADED { limit: 0 }` therefore always means "the
//! server's own queue shed you", a distinction `NetServerStats` keeps too
//! (`queue_shed` vs `engine_shed`). The other refusals keep their
//! pre-typed bytes: a draining replica's refused `TRACK` is the ack
//! `{new_session: false, context_len: 0}`, and a refused suggestion is an
//! empty list.
//!
//! A request handler that panics takes down only its own connection: the
//! socket is shut at once (the client sees a disconnect, not a timeout)
//! and [`NetServer::handler_panics`] counts it.

use crate::admin::AdminSurface;
use crate::frame::{write_frame, FrameReader};
use crate::wire::{self, Request, WireError, WireStats};
use sqp_serve::{ServeError, ServeSurface, SuggestRequest};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// Everything the network front-end needs from the tier it serves:
/// traffic ops ([`ServeSurface`]) plus admin-port publication
/// ([`AdminSurface`]). Blanket-implemented, so both `ServeEngine` and
/// `RouterEngine` qualify automatically.
pub trait NetSurface: ServeSurface + AdminSurface {}

impl<T: ServeSurface + AdminSurface> NetSurface for T {}

/// Tuning for [`NetServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address for the public serve listener (`127.0.0.1:0` picks a free
    /// port; read it back with [`NetServer::serve_addr`]).
    pub addr: SocketAddr,
    /// Address for the admin listener.
    pub admin_addr: SocketAddr,
    /// Soft bound of each connection's queue: of the frames one socket
    /// read brings in, those past this many are answered `R_OVERLOADED`
    /// without engine work.
    pub queue_depth: usize,
    /// Maximum accepted frame *body* length, both directions.
    pub max_frame_len: usize,
    /// Per-write socket timeout. A client that stops reading its replies
    /// eventually times a write out and is disconnected, so it can never
    /// pin its connection thread (or wedge shutdown) indefinitely. `None`
    /// disables the guard.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("static addr"),
            admin_addr: "127.0.0.1:0".parse().expect("static addr"),
            queue_depth: 64,
            max_frame_len: wire::DEFAULT_MAX_FRAME,
            write_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Snapshot of the server's own counters (engine counters are served by
/// the `STATS` opcode instead — see [`WireStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections accepted (both ports).
    pub accepted: u64,
    /// Complete frames read off sockets.
    pub frames_in: u64,
    /// Reply frames written.
    pub replies_out: u64,
    /// Requests shed by a connection queue's soft bound.
    pub queue_shed: u64,
    /// Requests shed by the engine's admission control.
    pub engine_shed: u64,
    /// Frames rejected with a typed protocol error.
    pub protocol_errors: u64,
    /// Admin publishes (plain or rolling) that fully succeeded.
    pub publishes_ok: u64,
    /// Admin publishes that failed or rolled with failures.
    pub publishes_failed: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    frames_in: AtomicU64,
    replies_out: AtomicU64,
    queue_shed: AtomicU64,
    engine_shed: AtomicU64,
    protocol_errors: AtomicU64,
    publishes_ok: AtomicU64,
    publishes_failed: AtomicU64,
    handler_panics: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> NetServerStats {
        NetServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            replies_out: self.replies_out.load(Ordering::Relaxed),
            queue_shed: self.queue_shed.load(Ordering::Relaxed),
            engine_shed: self.engine_shed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            publishes_ok: self.publishes_ok.load(Ordering::Relaxed),
            publishes_failed: self.publishes_failed.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    surface: Arc<dyn NetSurface>,
    queue_depth: usize,
    max_frame_len: usize,
    write_timeout: Option<Duration>,
    /// Live connections, so shutdown can unblock their reads.
    conns: Mutex<HashMap<u64, Arc<TcpStream>>>,
    conn_handles: Mutex<Vec<thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    /// Stop accepting and reading.
    closing: AtomicBool,
    counters: Counters,
}

/// A running TCP front-end over a [`NetSurface`]. Dropping the server
/// (or calling [`shutdown`](NetServer::shutdown)) stops accepting,
/// lets every connection answer the frames it has read, and joins every
/// thread.
pub struct NetServer {
    shared: Arc<Shared>,
    serve_addr: SocketAddr,
    admin_addr: SocketAddr,
    accept_handles: Mutex<Vec<(SocketAddr, thread::JoinHandle<()>)>>,
    stopped: AtomicBool,
}

impl NetServer {
    /// Bind both listeners and spawn the accept loops.
    pub fn start<S: NetSurface + 'static>(surface: Arc<S>, cfg: ServerConfig) -> io::Result<Self> {
        let serve_listener = TcpListener::bind(cfg.addr)?;
        let admin_listener = TcpListener::bind(cfg.admin_addr)?;
        let serve_addr = serve_listener.local_addr()?;
        let admin_addr = admin_listener.local_addr()?;

        let shared = Arc::new(Shared {
            surface: surface as Arc<dyn NetSurface>,
            queue_depth: cfg.queue_depth.max(1),
            max_frame_len: cfg.max_frame_len,
            write_timeout: cfg.write_timeout,
            conns: Mutex::new(HashMap::new()),
            conn_handles: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            closing: AtomicBool::new(false),
            counters: Counters::default(),
        });

        let mut accept_handles = Vec::with_capacity(2);
        for (listener, addr, admin) in [
            (serve_listener, serve_addr, false),
            (admin_listener, admin_addr, true),
        ] {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!(
                    "sqp-net-accept{}",
                    if admin { "-admin" } else { "" }
                ))
                .spawn(move || accept_loop(&shared, listener, admin))?;
            accept_handles.push((addr, handle));
        }

        Ok(NetServer {
            shared,
            serve_addr,
            admin_addr,
            accept_handles: Mutex::new(accept_handles),
            stopped: AtomicBool::new(false),
        })
    }

    /// The bound public serve address.
    pub fn serve_addr(&self) -> SocketAddr {
        self.serve_addr
    }

    /// The bound admin address.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin_addr
    }

    /// Snapshot the server's own counters.
    pub fn stats(&self) -> NetServerStats {
        self.shared.counters.snapshot()
    }

    /// Connections currently open (their threads still running).
    pub fn active_connections(&self) -> usize {
        self.shared.conns.lock().expect("conns poisoned").len()
    }

    /// How many request handlers have panicked, each taking down only its
    /// own connection. The fuzz and soak suites assert this stays 0 so a
    /// swallowed panic cannot masquerade as a clean run.
    pub fn handler_panics(&self) -> u64 {
        self.shared.counters.handler_panics.load(Ordering::Relaxed)
    }

    /// Stop accepting, let every connection answer the frames it has
    /// read, and join all threads. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.closing.store(true, Ordering::Release);

        // Wake both accept loops: connect-and-drop is observed as one
        // accepted stream, after which the loop re-checks `closing`. Poke
        // until each accept thread has really exited — a single poke can
        // be swallowed if it races an in-progress accept of a client
        // connection that arrived just before shutdown.
        for (addr, h) in self
            .accept_handles
            .lock()
            .expect("accepts poisoned")
            .drain(..)
        {
            while !h.is_finished() {
                let _ = TcpStream::connect(addr);
                thread::sleep(Duration::from_millis(1));
            }
            let _ = h.join();
        }

        // Unblock connection threads mid-`read`; their write halves stay
        // open so each can still answer what it has already read.
        for stream in self.shared.conns.lock().expect("conns poisoned").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handles: Vec<_> = self
            .shared
            .conn_handles
            .lock()
            .expect("conn handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener, admin: bool) {
    for stream in listener.incoming() {
        if shared.closing.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(shared.write_timeout);
        Counters::bump(&shared.counters.accepted);

        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::new(stream);
        shared
            .conns
            .lock()
            .expect("conns poisoned")
            .insert(id, Arc::clone(&stream));

        let shared2 = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name(format!("sqp-net-conn-{id}"))
            .spawn(move || {
                let _guard = ConnGuard {
                    shared: &shared2,
                    stream: &stream,
                    id,
                };
                serve_conn(&shared2, &stream, admin);
            });
        let mut handles = shared.conn_handles.lock().expect("conn handles poisoned");
        // Finished connections need no join (a handler panic was already
        // counted by its guard); keep the list to live ones.
        handles.retain(|h| !h.is_finished());
        match spawned {
            Ok(h) => handles.push(h),
            Err(_) => {
                // No thread to serve it: drop the connection.
                if let Some(stream) = shared.conns.lock().expect("conns poisoned").remove(&id) {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

/// Runs when a connection thread ends, normally or by a handler panic:
/// unregisters the connection, and after a panic counts it and shuts the
/// socket so the client sees a disconnect at once (by which time both
/// are already visible to [`NetServer`]'s getters).
struct ConnGuard<'a> {
    shared: &'a Shared,
    stream: &'a TcpStream,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        let panicked = thread::panicking();
        if panicked {
            Counters::bump(&self.shared.counters.handler_panics);
        }
        self.shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
        if panicked {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }
}

/// One connection's life: read, run and answer its frames in order.
fn serve_conn(shared: &Shared, stream: &TcpStream, admin: bool) {
    let mut reader = FrameReader::new(shared.max_frame_len);
    // Per-connection scratch, reused across every frame.
    let mut wbuf: Vec<u8> = Vec::new();
    let mut batch: Vec<SuggestRequest> = Vec::new();
    let mut rstream = stream;
    // True when a reply could not be written (peer gone or not reading).
    let write_failed = 'conn: loop {
        if shared.closing.load(Ordering::Acquire) {
            break false;
        }
        // Only reached with no complete frame buffered. EOF (clean or
        // torn), a reset, or our own shutdown(Read) all end the loop.
        match reader.fill(&mut rstream) {
            Ok(0) | Err(_) => break false,
            Ok(_) => {}
        }
        // Everything this read brought in is the queue: past the soft
        // bound, frames are shed in FIFO position.
        let mut budget = shared.queue_depth;
        while let Some(frame) = reader.next_buffered() {
            wbuf.clear();
            let fatal = match frame {
                Ok(body) => {
                    Counters::bump(&shared.counters.frames_in);
                    if budget == 0 {
                        // Limit 0 distinguishes a queue shed from an
                        // engine-budget shed on the wire.
                        Counters::bump(&shared.counters.queue_shed);
                        wire::encode_overloaded(&mut wbuf, 0);
                        false
                    } else {
                        budget -= 1;
                        run_frame(shared, body, admin, &mut wbuf, &mut batch)
                    }
                }
                Err(err) => {
                    protocol_error(shared, &mut wbuf, &err);
                    true
                }
            };
            if !write_reply(shared, stream, &mut wbuf) {
                break 'conn true;
            }
            if fatal {
                break 'conn false;
            }
        }
    };

    if write_failed {
        let _ = stream.shutdown(Shutdown::Both);
    } else {
        // FIN after the last reply, then leave the receive queue empty
        // before the socket drops: a close with unread inbound bytes
        // becomes a TCP RST, and an RST can wipe out replies (such as a
        // just-written typed error) the client has not read yet.
        let _ = stream.shutdown(Shutdown::Write);
        drain_until_eof(stream);
    }
}

/// Discard inbound bytes until EOF or a short deadline, so the socket
/// can close with an empty receive queue (FIN, not RST).
fn drain_until_eof(stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut scrap = [0u8; 4096];
    let mut stream_ref = stream;
    for _ in 0..256 {
        match stream_ref.read(&mut scrap) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn protocol_error(shared: &Shared, wbuf: &mut Vec<u8>, err: &WireError) {
    Counters::bump(&shared.counters.protocol_errors);
    wire::encode_error(wbuf, err.code(), &err.to_string());
}

/// Decode and run one frame body, leaving the reply in `wbuf`. Returns
/// true when the connection must close after the reply.
fn run_frame(
    shared: &Shared,
    body: &[u8],
    admin: bool,
    wbuf: &mut Vec<u8>,
    batch: &mut Vec<SuggestRequest>,
) -> bool {
    match wire::decode_request(body) {
        Err(err) => {
            protocol_error(shared, wbuf, &err);
            true
        }
        Ok(req) if req.is_admin() && !admin => {
            Counters::bump(&shared.counters.protocol_errors);
            wire::encode_error(
                wbuf,
                wire::code::ADMIN_ONLY,
                "admin opcodes are only served on the admin port",
            );
            true
        }
        Ok(req) => {
            execute(shared, req, wbuf, batch);
            false
        }
    }
}

/// Write the reply in `wbuf`. Returns false when the connection must
/// close because the write failed.
fn write_reply(shared: &Shared, stream: &TcpStream, wbuf: &mut Vec<u8>) -> bool {
    let mut stream = stream;
    match write_frame(&mut stream, wbuf, shared.max_frame_len) {
        Ok(()) => {}
        // The assembled reply exceeded the frame limit (e.g. a huge
        // batch): substitute a typed, guaranteed-small error. Framing is
        // intact, so the connection survives.
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            wbuf.clear();
            wire::encode_error(
                wbuf,
                wire::code::LIMIT_EXCEEDED,
                "reply exceeds the frame size limit",
            );
            if write_frame(&mut stream, wbuf, shared.max_frame_len).is_err() {
                return false;
            }
        }
        Err(_) => return false,
    }
    Counters::bump(&shared.counters.replies_out);
    true
}

/// Decode-independent request execution: surface calls plus reply
/// encoding. `wbuf` receives the reply body.
fn execute(shared: &Shared, req: Request<'_>, wbuf: &mut Vec<u8>, batch: &mut Vec<SuggestRequest>) {
    let surface = &*shared.surface;
    match req {
        Request::Track { user, now, query } => match surface.track(user, query, now) {
            Ok(outcome) => wire::encode_ack(wbuf, outcome.new_session, outcome.context_len),
            // TRACK has one reply type: any refusal is the refusal ack.
            Err(_) => wire::encode_ack(wbuf, false, 0),
        },
        Request::Suggest { user, now, k } => match surface.try_suggest(user, k, now) {
            Ok(suggestions) => wire::encode_suggestions(wbuf, &suggestions),
            Err(err) => refuse(shared, wbuf, err, |wbuf| {
                wire::encode_suggestions(wbuf, &[])
            }),
        },
        Request::TrackSuggest {
            user,
            now,
            k,
            query,
        } => match surface.try_track_and_suggest(user, query, k, now) {
            Ok(suggestions) => wire::encode_suggestions(wbuf, &suggestions),
            Err(err) => refuse(shared, wbuf, err, |wbuf| {
                wire::encode_suggestions(wbuf, &[])
            }),
        },
        Request::SuggestBatch { now, entries } => {
            batch.clear();
            batch.extend(entries.iter().map(|e| SuggestRequest {
                user: e.user,
                k: e.k,
            }));
            match surface.try_suggest_batch(batch, now) {
                Ok(lists) => wire::encode_batch(wbuf, &lists),
                Err(err) => refuse(shared, wbuf, err, |wbuf| {
                    wire::encode_batch(wbuf, &vec![Vec::new(); entries.len()])
                }),
            }
        }
        Request::Stats => {
            let stats = surface.stats();
            wire::encode_stats_reply(
                wbuf,
                &WireStats {
                    generation: stats.publishes,
                    tracks: stats.tracks,
                    suggests: stats.suggests,
                    publishes: stats.publishes,
                    shed: stats.shed,
                    evictions: stats.evictions,
                    active_sessions: stats.active_sessions,
                },
            );
        }
        Request::Ping => wire::encode_pong(wbuf),
        Request::Evict { now } => {
            let count = surface.evict_idle(now) as u64;
            wire::encode_evicted(wbuf, count);
        }
        Request::Publish { path } => match surface.admin_publish(Path::new(path)) {
            Ok(generation) => {
                Counters::bump(&shared.counters.publishes_ok);
                wire::encode_published(wbuf, generation);
            }
            Err(message) => {
                Counters::bump(&shared.counters.publishes_failed);
                wire::encode_error(wbuf, wire::code::PUBLISH_FAILED, &message);
            }
        },
        Request::RollingPublish {
            abort_on_failure,
            path,
        } => {
            let summary = surface.admin_rolling_publish(Path::new(path), abort_on_failure);
            if summary.failed == 0 && !summary.aborted {
                Counters::bump(&shared.counters.publishes_ok);
            } else {
                Counters::bump(&shared.counters.publishes_failed);
            }
            wire::encode_rolled(wbuf, &summary);
        }
    }
}

/// Encode a refused suggestion call: an engine shed is `R_OVERLOADED` with
/// the exhausted budget; a draining or unavailable tier answers `empty`,
/// the reply of a session with nothing to suggest.
fn refuse(shared: &Shared, wbuf: &mut Vec<u8>, err: ServeError, empty: impl FnOnce(&mut Vec<u8>)) {
    match err {
        ServeError::Overloaded { limit } => {
            Counters::bump(&shared.counters.engine_shed);
            wire::encode_overloaded(wbuf, limit as u64);
        }
        ServeError::Draining | ServeError::Unavailable => empty(wbuf),
    }
}
