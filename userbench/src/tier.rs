//! The serving tier under test and its set-up: train, save, start a server
//! process that warm-loads the snapshot into a routed set of replicas,
//! connect a `RemoteEngine`.
//!
//! The server runs in a child process (this binary's `serve` mode) so that
//! its peak resident memory is the serving tier's own, not the load
//! generator's corpus.

use crate::inputs::K;
use sqp_common::Interner;
use sqp_core::{Vmm, VmmConfig};
use sqp_logsim::RawLogRecord;
use sqp_net::{EndpointConfig, NetServer, RemoteConfig, RemoteEngine, RemoteOutcome, ServerConfig};
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
use sqp_sessions::{aggregate, reduce, segment_with_parallelism};
use sqp_store::{load_snapshot, save_snapshot, SnapshotMeta};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Replicas behind the router.
pub const REPLICAS: usize = 2;
/// Load-generator threads, and so connections, at most.
pub const GEN_THREADS: usize = 2;

fn training_config() -> TrainingConfig {
    TrainingConfig {
        model: ModelSpec::Vmm(vmm_config()),
        ..TrainingConfig::default()
    }
}

fn vmm_config() -> VmmConfig {
    VmmConfig::with_epsilon(0.05)
}

pub fn train(records: &[RawLogRecord]) -> ModelSnapshot {
    ModelSnapshot::from_raw_logs(records, &training_config())
}

/// Milliseconds spent in each training stage, timed around direct calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainSplit {
    pub segment_ms: f64,
    pub aggregate_ms: f64,
    pub reduce_ms: f64,
    pub train_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// [`train`], one stage at a time: the same calls `from_raw_logs` makes.
pub fn train_split(records: &[RawLogRecord]) -> (ModelSnapshot, TrainSplit) {
    let cfg = training_config();
    let mut split = TrainSplit::default();
    let t = Instant::now();
    let sessions = segment_with_parallelism(records, cfg.session_cutoff_secs, cfg.parallel);
    split.segment_ms = ms_since(t);
    let t = Instant::now();
    let mut interner = Interner::new();
    let aggregated = aggregate(&sessions, &mut interner);
    split.aggregate_ms = ms_since(t);
    let t = Instant::now();
    let (reduced, _) = reduce(&aggregated, cfg.reduction_threshold);
    split.reduce_ms = ms_since(t);
    let t = Instant::now();
    let vmm = Vmm::train(&reduced.sessions, vmm_config().parallel(cfg.parallel));
    split.train_ms = ms_since(t);
    let snapshot = ModelSnapshot::from_parts(interner, Box::new(vmm), reduced.total_sessions());
    (snapshot, split)
}

/// Both snapshots answer every probe context identically.
pub fn same_answers(a: &ModelSnapshot, b: &ModelSnapshot, probes: &[Vec<String>]) -> bool {
    probes.iter().all(|ctx| {
        let ctx: Vec<&str> = ctx.iter().map(String::as_str).collect();
        a.suggest(&ctx, K) == b.suggest(&ctx, K)
    })
}

pub fn save(path: &Path, snapshot: &ModelSnapshot, generation: u64, records: usize) {
    let meta = SnapshotMeta::describe(snapshot, generation, records as u64);
    save_snapshot(path, snapshot, &meta).expect("save snapshot");
}

/// Peak resident set of this process, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// CPU seconds charged so far to process `pid`, all its threads together,
/// exited ones included. Time the host steals from a virtual CPU is not
/// charged to any process, so unlike wall time this does not move with
/// the neighbours' load.
pub fn cpu_secs(pid: u32) -> f64 {
    extern "C" {
        fn sysconf(name: std::ffi::c_int) -> std::ffi::c_long;
    }
    const SC_CLK_TCK: std::ffi::c_int = 2;
    // SAFETY: sysconf only reads a configuration value.
    let ticks_per_sec = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15, in clock ticks.
    let rest: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, r)| r.split_whitespace().collect());
    let field = |n: usize| {
        rest.get(n - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field(14) + field(15)) as f64 / ticks_per_sec
}

/// Counters the server process reports when it stops.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerFinal {
    pub frames_in: u64,
    pub replies_out: u64,
    pub queue_shed: u64,
    pub engine_shed: u64,
    pub protocol_errors: u64,
    pub peak_rss_kib: u64,
}

/// The `serve` mode of this binary: warm-load `path` into a router of
/// [`REPLICAS`] replicas behind a default-config `NetServer`, print the
/// listen addresses, serve until stdin closes, then print the counters.
pub fn serve_child(path: &Path) -> io::Result<()> {
    let (snapshot, _) = load_snapshot(path).map_err(|e| io::Error::other(e.to_string()))?;
    let router = Arc::new(RouterEngine::new(
        Arc::new(snapshot),
        RouterConfig {
            replicas: REPLICAS,
            ..RouterConfig::default()
        },
    ));
    let server = NetServer::start(router, ServerConfig::default())?;
    let mut out = io::stdout().lock();
    writeln!(out, "ready {} {}", server.serve_addr(), server.admin_addr())?;
    out.flush()?;
    io::stdin().lock().read_to_end(&mut Vec::new())?;
    let s = server.stats();
    server.shutdown();
    writeln!(
        out,
        "final {} {} {} {} {} {}",
        s.frames_in,
        s.replies_out,
        s.queue_shed,
        s.engine_shed,
        s.protocol_errors,
        peak_rss_kib()
    )?;
    out.flush()
}

/// A running server process. Dropping it without [`stop`](Self::stop)
/// kills it; either way the process has exited afterwards.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    out: BufReader<ChildStdout>,
    pub serve_addr: SocketAddr,
    pub admin_addr: SocketAddr,
}

impl Server {
    pub fn spawn(snapshot: &Path) -> io::Result<Server> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve")
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        out.read_line(&mut line)?;
        let mut words = line.strip_prefix("ready ").unwrap_or("").split_whitespace();
        let mut addr = || -> io::Result<SocketAddr> {
            words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| io::Error::other(format!("server did not start: {line:?}")))
        };
        let (serve_addr, admin_addr) = (addr()?, addr()?);
        Ok(Server {
            child,
            stdin,
            out,
            serve_addr,
            admin_addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Close the server's stdin, read its final counters, wait for exit.
    pub fn stop(mut self) -> ServerFinal {
        drop(self.stdin.take());
        let mut line = String::new();
        let _ = self.out.read_line(&mut line);
        let _ = self.child.wait();
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|w| w.parse().ok())
            .collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0);
        ServerFinal {
            frames_in: at(0),
            replies_out: at(1),
            queue_shed: at(2),
            engine_shed: at(3),
            protocol_errors: at(4),
            peak_rss_kib: at(5),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A `RemoteEngine` for `server` with the default resilience settings and
/// one pooled connection per generator thread.
pub fn connect(server: &Server) -> RemoteEngine {
    RemoteEngine::connect(
        vec![EndpointConfig::serve_only(server.serve_addr)],
        RemoteConfig {
            pool_warmup: GEN_THREADS,
            ..RemoteConfig::default()
        },
    )
}

/// A set-up tier, ready to serve.
pub struct Tier {
    pub server: Server,
    pub remote: RemoteEngine,
    /// The snapshot as trained in this process, for in-process replays.
    pub snapshot: Arc<ModelSnapshot>,
    pub path: PathBuf,
}

impl Tier {
    /// CPU seconds charged so far to this process and the server's.
    pub fn cpu_secs(&self) -> f64 {
        cpu_secs(std::process::id()) + cpu_secs(self.server.pid())
    }
}

/// Stage timings of one set-up, recorded by the traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSplit {
    pub train: TrainSplit,
    pub save_ms: f64,
    pub load_ms: f64,
    pub snapshot_bytes: u64,
}

/// Set up a tier from raw training records. Returns it with the seconds
/// from the start of training to the first answered suggest. With
/// `split`, training runs stage by stage and the stages are timed.
pub fn setup(
    records: &[RawLogRecord],
    path: &Path,
    split: Option<&mut SetupSplit>,
) -> io::Result<(Tier, f64)> {
    let t0 = Instant::now();
    let (snapshot, stages) = match split.is_some() {
        true => {
            let (s, st) = train_split(records);
            (s, Some(st))
        }
        false => (train(records), None),
    };
    let t_save = Instant::now();
    save(path, &snapshot, 0, records.len());
    let save_ms = ms_since(t_save);
    let server = Server::spawn(path)?;
    let remote = connect(&server);
    match remote.remote_suggest(u64::MAX, K, 0) {
        RemoteOutcome::Answered(_) => {}
        other => return Err(io::Error::other(format!("first suggest: {other:?}"))),
    }
    let secs = t0.elapsed().as_secs_f64();
    if let (Some(split), Some(train)) = (split, stages) {
        let t = Instant::now();
        load_snapshot(path).map_err(|e| io::Error::other(e.to_string()))?;
        *split = SetupSplit {
            train,
            save_ms,
            load_ms: ms_since(t),
            snapshot_bytes: std::fs::metadata(path)?.len(),
        };
    }
    Ok((
        Tier {
            server,
            remote,
            snapshot: Arc::new(snapshot),
            path: path.to_owned(),
        },
        secs,
    ))
}
