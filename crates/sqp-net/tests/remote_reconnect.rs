//! Reconnect and error-typing coverage for the remote tier.
//!
//! Two things a resilient client must get right about a *restarting*
//! server: (1) report the failure window with typed, cause-split errors
//! (`Refused` ≠ `Timeout` ≠ `Disconnected` — their retry policies
//! differ), and (2) recover on its own once the endpoint is back, with
//! nothing caller-visible beyond typed degraded outcomes in between.
//!
//! The restart happens on the **same port**, which is the operationally
//! interesting case: it only works because `RemoteEngine::drain_pools`
//! makes the *client* side close first (so the dying server's sockets
//! skip `TIME_WAIT` and the port frees immediately).
//!
//! Through `ServeSurface` every refusal stays typed too: a dead tier is
//! `ServeError::Unavailable` (not an empty answer), a draining replica's
//! refused `TRACK` is `ServeError::Draining`, and `stats().publishes` is
//! the minimum generation across endpoints.

use sqp_common::breaker::{BreakerConfig, BreakerState};
use sqp_faults::{Chaos, ChaosProxy, FaultPlan};
use sqp_logsim::RawLogRecord;
use sqp_net::{
    EndpointConfig, NetClient, NetError, NetServer, RemoteConfig, RemoteEngine, RemoteOutcome,
    ServerConfig,
};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeError, ServeSurface, TrainingConfig,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

fn test_engine() -> Arc<ServeEngine> {
    let rec = |machine, ts, q: &str| RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    };
    let mut logs = Vec::new();
    for u in 0..10 {
        logs.push(rec(u, 100, "weather"));
        logs.push(rec(u, 130, "weather tomorrow"));
    }
    let cfg = TrainingConfig {
        model: ModelSpec::Adjacency,
        ..TrainingConfig::default()
    };
    Arc::new(ServeEngine::new(
        Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg)),
        EngineConfig::default(),
    ))
}

fn start_server(addr: SocketAddr) -> NetServer {
    NetServer::start(
        test_engine(),
        ServerConfig {
            addr,
            ..ServerConfig::default()
        },
    )
    .expect("server start")
}

/// Bind-retry: the port should be free immediately after a drained
/// shutdown, but give the OS a grace window anyway.
fn restart_server(addr: SocketAddr) -> NetServer {
    for _ in 0..100 {
        match NetServer::start(
            test_engine(),
            ServerConfig {
                addr,
                ..ServerConfig::default()
            },
        ) {
            Ok(server) => return server,
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("port {addr} did not free up after drained shutdown");
}

#[test]
fn bare_client_reports_split_errors_by_cause() {
    // Refused: a port that *was* bound and no longer is — nothing
    // listening means the request certainly never executed.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let Err(err) = NetClient::connect_timeout(dead_addr, Duration::from_millis(500)) else {
        panic!("nothing is listening; connect must fail");
    };
    assert!(
        matches!(NetError::from(err), NetError::Refused(_)),
        "dead port must classify as Refused"
    );

    // Timeout: a black-holed endpoint accepts bytes and never answers;
    // only the client's own read deadline ends the wait.
    let server = start_server("127.0.0.1:0".parse().unwrap());
    let proxy = ChaosProxy::start(server.serve_addr(), Chaos::new(FaultPlan::quiet(7))).unwrap();
    proxy.set_blackhole(true);
    let mut client =
        NetClient::connect_timeout(proxy.listen_addr(), Duration::from_millis(250)).unwrap();
    match client.ping() {
        Err(NetError::Timeout(_)) => {}
        other => panic!("black hole must classify as Timeout, got {other:?}"),
    }
    proxy.shutdown();

    // Disconnected: a reply torn mid-frame (EOF inside the body).
    let torn_proxy = ChaosProxy::start(
        server.serve_addr(),
        Chaos::new(FaultPlan {
            seed: 7,
            truncate_frame_s2c_on: vec![1],
            ..FaultPlan::default()
        }),
    )
    .unwrap();
    let mut client =
        NetClient::connect_timeout(torn_proxy.listen_addr(), Duration::from_secs(2)).unwrap();
    match client.ping() {
        Err(NetError::Disconnected) => {}
        other => panic!("torn reply must classify as Disconnected, got {other:?}"),
    }
    torn_proxy.shutdown();
    server.shutdown();
}

#[test]
fn remote_engine_recovers_across_same_port_server_restart() {
    let server = start_server("127.0.0.1:0".parse().unwrap());
    let addr = server.serve_addr();

    let remote = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(addr)],
        RemoteConfig {
            deadline: Duration::from_millis(600),
            attempt_timeout: Duration::from_millis(150),
            connect_timeout: Duration::from_millis(150),
            max_attempts: 2,
            breaker: BreakerConfig {
                threshold: 1,
                cooldown: Duration::from_millis(100),
            },
            ..RemoteConfig::default()
        },
    );

    // Healthy: answered, with real model content.
    match remote.remote_track_and_suggest(1, "weather", 1, 1_000) {
        RemoteOutcome::Answered(s) => assert_eq!(s[0].query, "weather tomorrow"),
        other => panic!("healthy endpoint must answer, got {other:?}"),
    }

    // Drain BEFORE the server dies: the client closes every pooled
    // connection, so the server side never enters TIME_WAIT and the port
    // frees the moment the listener closes.
    remote.drain_pools();
    server.shutdown();

    // Down: every outcome in the window is *typed* degradation — no
    // panic, no hang, no untyped error — and the breaker trips open.
    let mut degraded_seen = 0;
    for i in 0..5 {
        match remote.remote_suggest(i, 1, 2_000) {
            RemoteOutcome::Degraded(_) => degraded_seen += 1,
            RemoteOutcome::Answered(_) | RemoteOutcome::Shed { .. } => {
                panic!("dead endpoint cannot answer")
            }
        }
    }
    assert_eq!(degraded_seen, 5);
    assert_eq!(
        remote.try_suggest(5, 1, 2_000),
        Err(ServeError::Unavailable)
    );
    let down = remote.endpoint_breaker(0).expect("endpoint 0");
    assert!(down.trips >= 1, "breaker must have tripped: {down:?}");

    // Revive on the SAME port, then let breaker cooldown + half-open
    // probing re-admit it.
    let server = restart_server(addr);
    let mut recovered = false;
    for _ in 0..100 {
        if remote.remote_ping().is_answered() {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(recovered, "remote engine must recover after restart");

    // Fully recovered: breaker closed again, recovery counted, answers
    // carry model content from the revived process.
    match remote.remote_track_and_suggest(2, "weather", 1, 3_000) {
        RemoteOutcome::Answered(s) => assert_eq!(s[0].query, "weather tomorrow"),
        other => panic!("revived endpoint must answer, got {other:?}"),
    }
    let up = remote.endpoint_breaker(0).expect("endpoint 0");
    assert_eq!(up.state, BreakerState::Closed);
    assert!(up.recoveries >= 1, "half-open probe must have closed it");

    let stats = remote.remote_stats();
    assert!(stats.degraded >= 5);
    assert!(stats.reconnects >= 1, "recovery implies a fresh connection");
    server.shutdown();
}

fn remote_over(servers: &[&NetServer]) -> RemoteEngine {
    let endpoints = servers
        .iter()
        .map(|s| EndpointConfig::serve_only(s.serve_addr()))
        .collect();
    RemoteEngine::connect(endpoints, RemoteConfig::default())
}

#[test]
fn a_draining_replica_refuses_new_sessions_typed_over_the_wire() {
    let engine = test_engine();
    let server = NetServer::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let remote = remote_over(&[&server]);
    assert!(remote.track(1, "weather", 1_000).unwrap().new_session);
    engine.set_draining(true);

    assert_eq!(remote.track(2, "weather", 1_010), Err(ServeError::Draining));
    // TRACK_SUGGEST has one reply type, so the same refusal reaches a
    // remote caller as no suggestions; the draining engine counts both.
    let refused = remote.try_track_and_suggest(3, "weather", 1, 1_010);
    assert_eq!(refused, Ok(vec![]));
    assert_eq!(engine.drain_refused(), 2);
    assert_eq!(engine.stats().active_sessions, 1, "refusals record nothing");

    // The resident session keeps being served.
    let resident = remote.track(1, "weather", 1_020).unwrap();
    assert_eq!((resident.new_session, resident.context_len), (false, 2));
    let got = remote.try_track_and_suggest(1, "weather", 1, 1_030);
    assert_eq!(got.unwrap()[0].query, "weather tomorrow");

    remote.drain_pools();
    server.shutdown();
}

#[test]
fn surface_stats_report_the_minimum_generation_across_endpoints() {
    let (a, b) = (test_engine(), test_engine());
    let server_a = NetServer::start(Arc::clone(&a), ServerConfig::default()).unwrap();
    let server_b = NetServer::start(Arc::clone(&b), ServerConfig::default()).unwrap();
    let remote = remote_over(&[&server_a, &server_b]);

    a.publish(a.snapshot());
    assert_eq!(remote.stats().publishes, 0, "b has seen no publish yet");
    a.publish(a.snapshot());
    b.publish(b.snapshot());
    assert_eq!(remote.stats().publishes, 1, "a is at 2, b at 1");

    remote.drain_pools();
    server_a.shutdown();
    server_b.shutdown();
}
