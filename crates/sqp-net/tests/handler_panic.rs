//! A request handler that panics takes down only its own connection.
//!
//! A surface that panics on one chosen user sits behind a live listener.
//! Each client that sends that user must see a disconnect promptly
//! instead of waiting out its own timeout, the server must report every
//! panic, and other connections — one opened before the panics and one
//! after — must keep getting answers. More panics are injected than the
//! machine has cores, so no fixed pool of handler threads could survive
//! them.

use sqp_logsim::RawLogRecord;
use sqp_net::{
    AdminSurface, NetClient, NetError, NetServer, RollSummary, ServeAnswer, ServerConfig,
};
use sqp_serve::{
    EngineConfig, EngineStats, ModelSnapshot, ModelSpec, ServeEngine, ServeError, ServeSurface,
    SuggestRequest, Suggestion, TrackOutcome, TrainingConfig,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The user whose requests panic inside the surface.
const POISON: u64 = 666;
const PANICS: u64 = 4;

/// A `ServeEngine` that panics on any request touching [`POISON`].
struct PanicOnUser(ServeEngine);

fn check(user: u64) {
    assert_ne!(user, POISON, "injected handler panic");
}

impl ServeSurface for PanicOnUser {
    fn track(&self, user: u64, query: &str, now: u64) -> Result<TrackOutcome, ServeError> {
        check(user);
        self.0.track(user, query, now)
    }

    fn try_suggest(&self, user: u64, k: usize, now: u64) -> Result<Vec<Suggestion>, ServeError> {
        check(user);
        self.0.try_suggest(user, k, now)
    }

    fn try_track_and_suggest(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> Result<Vec<Suggestion>, ServeError> {
        check(user);
        self.0.try_track_and_suggest(user, query, k, now)
    }

    fn try_suggest_batch(
        &self,
        requests: &[SuggestRequest],
        now: u64,
    ) -> Result<Vec<Vec<Suggestion>>, ServeError> {
        requests.iter().for_each(|r| check(r.user));
        self.0.try_suggest_batch(requests, now)
    }

    fn evict_idle(&self, now: u64) -> usize {
        self.0.evict_idle(now)
    }

    fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        self.0.publish(snapshot)
    }

    fn stats(&self) -> EngineStats {
        self.0.stats()
    }
}

impl AdminSurface for PanicOnUser {
    fn admin_publish(&self, path: &Path) -> Result<u64, String> {
        self.0.admin_publish(path)
    }

    fn admin_rolling_publish(&self, path: &Path, abort_on_failure: bool) -> RollSummary {
        self.0.admin_rolling_publish(path, abort_on_failure)
    }
}

fn surface() -> Arc<PanicOnUser> {
    let rec = |machine, ts, q: &str| RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    };
    let mut logs = Vec::new();
    for u in 0..8 {
        logs.push(rec(u, 100, "alpha"));
        logs.push(rec(u, 130, "alpha::next"));
    }
    let cfg = TrainingConfig {
        model: ModelSpec::Adjacency,
        ..TrainingConfig::default()
    };
    Arc::new(PanicOnUser(ServeEngine::new(
        Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg)),
        EngineConfig::default(),
    )))
}

fn assert_answers(client: &mut NetClient, user: u64, who: &str) {
    match client.track_and_suggest(user, "alpha", 1, 1_000) {
        Ok(ServeAnswer::Suggestions(s)) => assert_eq!(s[0].query, "alpha::next", "{who}"),
        other => panic!("{who} must still be answered, got {other:?}"),
    }
}

#[test]
fn a_panicking_handler_disconnects_only_its_own_client() {
    let server = NetServer::start(surface(), ServerConfig::default()).expect("server start");
    let addr = server.serve_addr();
    let timeout = Duration::from_secs(10);

    let mut bystander = NetClient::connect_timeout(addr, timeout).unwrap();
    assert_answers(&mut bystander, 1, "the bystander before any panic");

    for i in 0..PANICS {
        let mut victim = NetClient::connect_timeout(addr, timeout).unwrap();
        victim
            .ping()
            .expect("the victim's connection works until it panics");
        let sent = Instant::now();
        match victim.track_and_suggest(POISON, "alpha", 1, 1_000) {
            Err(NetError::Disconnected) => {}
            other => panic!("panic {i}: the victim must see a disconnect, got {other:?}"),
        }
        assert!(
            sent.elapsed() < Duration::from_secs(1),
            "panic {i}: disconnect took {:?}",
            sent.elapsed()
        );
        assert_eq!(server.handler_panics(), i + 1, "every panic is reported");
        assert_eq!(
            server.active_connections(),
            1,
            "panic {i}: only the bystander stays registered"
        );
        assert_answers(&mut bystander, 1, "the bystander after a panic");
    }

    let mut late = NetClient::connect_timeout(addr, timeout).unwrap();
    assert_answers(&mut late, 2, "a connection opened after the panics");
    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 0, "well-formed traffic only");
    server.shutdown();
}
