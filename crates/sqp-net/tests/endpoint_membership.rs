//! Live endpoint-set changes on [`RemoteEngine`], under traffic.
//!
//! The remote tier's membership discipline mirrors the router's ring
//! swap: the endpoint vector is immutable, changes publish through one
//! pointer swap, and every operation runs against the snapshot it loaded
//! at entry. These tests pin the observable contract:
//!
//! * an added endpoint starts taking traffic without a restart, with a
//!   fresh breaker and warm pool;
//! * a retired endpoint is swapped out *before* its in-flight operations
//!   are waited out, so no new operation can route to it, and its pool
//!   drains client-side;
//! * retiring under fire (endpoint black-holed, connections killed
//!   mid-drain) still converges: the wait is bounded, the survivors
//!   absorb the traffic, and every outcome stays typed;
//! * the degenerate edges (duplicate add, unknown retire, last-endpoint
//!   retire) are refused with typed errors, not panics.

use sqp_common::breaker::BreakerConfig;
use sqp_faults::{Chaos, ChaosProxy, FaultPlan};
use sqp_logsim::RawLogRecord;
use sqp_net::{
    EndpointConfig, EndpointSetError, NetServer, RemoteConfig, RemoteEngine, RemoteOutcome,
    ServerConfig,
};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeError, ServeSurface, TrainingConfig,
};
use std::net::SocketAddr;
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

fn start_server() -> NetServer {
    NetServer::start(
        test_engine(),
        ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            ..ServerConfig::default()
        },
    )
    .expect("server start")
}

fn fast_remote_config() -> RemoteConfig {
    RemoteConfig {
        deadline: Duration::from_millis(600),
        attempt_timeout: Duration::from_millis(150),
        connect_timeout: Duration::from_millis(150),
        max_attempts: 2,
        breaker: BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(100),
        },
        ..RemoteConfig::default()
    }
}

/// Answered count of the endpoint at `addr`, or 0 if it left the set.
fn answered_at(remote: &RemoteEngine, addr: SocketAddr) -> u64 {
    remote
        .remote_stats()
        .endpoints
        .iter()
        .find(|ep| ep.serve_addr == addr)
        .map_or(0, |ep| ep.answered)
}

/// A user whose home endpoint is `addr` under the current set, found by
/// observing which endpoint's answered counter moves.
fn user_homed_at(remote: &RemoteEngine, addr: SocketAddr) -> u64 {
    for user in 0..256u64 {
        let before = answered_at(remote, addr);
        match remote.remote_suggest(user, 1, 1_000) {
            RemoteOutcome::Answered(_) => {}
            other => panic!("healthy tier must answer the probe, got {other:?}"),
        }
        if answered_at(remote, addr) > before {
            return user;
        }
    }
    panic!("no user out of 256 homed at {addr}");
}

#[test]
fn added_endpoint_takes_traffic_without_a_restart() {
    let a = start_server();
    let remote = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(a.serve_addr())],
        fast_remote_config(),
    );
    assert_eq!(remote.endpoint_count(), 1);
    assert_eq!(remote.endpoint_generation(), 0);

    // Healthy single-endpoint baseline.
    match remote.remote_track_and_suggest(1, "weather", 1, 1_000) {
        RemoteOutcome::Answered(s) => assert_eq!(s[0].query, "weather tomorrow"),
        other => panic!("healthy endpoint must answer, got {other:?}"),
    }

    // Scale up at runtime: the very next operations can route to B.
    let b = start_server();
    let generation = remote
        .add_endpoint(EndpointConfig::serve_only(b.serve_addr()))
        .expect("add fresh endpoint");
    assert_eq!(generation, 1);
    assert_eq!(remote.endpoint_count(), 2);
    assert_eq!(
        remote.endpoint_addrs(),
        vec![a.serve_addr(), b.serve_addr()]
    );

    // With two endpoints some user homes on B; it answers with real
    // model content, proving traffic actually lands there.
    let user_b = user_homed_at(&remote, b.serve_addr());
    match remote.remote_track_and_suggest(user_b, "weather", 1, 2_000) {
        RemoteOutcome::Answered(s) => assert_eq!(s[0].query, "weather tomorrow"),
        other => panic!("added endpoint must answer, got {other:?}"),
    }

    // The pool was warmed before the swap: B's first routed operation
    // did not need a fresh connect beyond warmup.
    let stats = remote.remote_stats();
    let b_stats = stats
        .endpoints
        .iter()
        .find(|ep| ep.serve_addr == b.serve_addr())
        .expect("B is in the set");
    assert!(b_stats.answered >= 1);

    // Duplicate adds are refused, and refusals do not bump the
    // generation.
    assert_eq!(
        remote.add_endpoint(EndpointConfig::serve_only(b.serve_addr())),
        Err(EndpointSetError::AlreadyPresent(b.serve_addr()))
    );
    assert_eq!(remote.endpoint_generation(), 1);

    a.shutdown();
    b.shutdown();
}

#[test]
fn retire_waits_out_in_flight_operations_then_drains() {
    let a = start_server();
    let b = start_server();
    // B sits behind a chaos proxy so it can be black-holed mid-flight.
    let proxy = ChaosProxy::start(b.serve_addr(), Chaos::new(FaultPlan::quiet(11))).unwrap();

    let remote = Arc::new(RemoteEngine::connect(
        vec![
            EndpointConfig::serve_only(a.serve_addr()),
            EndpointConfig::serve_only(proxy.listen_addr()),
        ],
        fast_remote_config(),
    ));
    let user_b = user_homed_at(&remote, proxy.listen_addr());

    // Black-hole B and launch a non-retryable op homed there: it will
    // sit in flight until the attempt timeout expires.
    proxy.set_blackhole(true);
    let worker = {
        let remote = Arc::clone(&remote);
        std::thread::spawn(move || remote.track(user_b, "weather", 3_000))
    };

    // The in-flight gauge must see the stuck operation.
    let mut saw_in_flight = false;
    for _ in 0..100 {
        let stats = remote.remote_stats();
        if stats
            .endpoints
            .iter()
            .any(|ep| ep.serve_addr == proxy.listen_addr() && ep.in_flight > 0)
        {
            saw_in_flight = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_in_flight, "the stuck track must register as in flight");

    // Retire B while its operation is still stuck. Retirement swaps the
    // set first, then waits the in-flight op out (bounded), then drains
    // the pool — it must return, not hang, even though B never answers.
    let generation = remote
        .retire_endpoint(proxy.listen_addr())
        .expect("retire under fire");
    assert_eq!(generation, 1);
    assert_eq!(remote.endpoint_count(), 1);
    assert_eq!(remote.endpoint_addrs(), vec![a.serve_addr()]);

    // The stuck op resolved as typed degradation (never re-sent), and
    // nothing is in flight against the retired endpoint anymore.
    match worker.join().expect("worker thread") {
        Err(ServeError::Unavailable) => {}
        other => panic!("black-holed track must degrade, got {other:?}"),
    }

    // Kill whatever the proxy still carries mid-drain: the engine no
    // longer references B, so this must be invisible to callers.
    proxy.kill_connections();

    // The user that homed on B is served by A now, first try, no
    // residual routing to the dead endpoint.
    let degraded_before = remote.remote_stats().degraded;
    for i in 0..10 {
        match remote.remote_suggest(user_b, 1, 4_000 + i) {
            RemoteOutcome::Answered(_) => {}
            other => panic!("survivor must absorb the traffic, got {other:?}"),
        }
    }
    assert_eq!(
        remote.remote_stats().degraded,
        degraded_before,
        "post-retire traffic must not degrade"
    );

    proxy.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn membership_refuses_the_degenerate_edges() {
    let a = start_server();
    let b = start_server();
    let remote = RemoteEngine::connect(
        vec![
            EndpointConfig::serve_only(a.serve_addr()),
            EndpointConfig::serve_only(b.serve_addr()),
        ],
        fast_remote_config(),
    );

    let unknown: SocketAddr = "127.0.0.1:1".parse().unwrap();
    assert_eq!(
        remote.retire_endpoint(unknown),
        Err(EndpointSetError::Unknown(unknown))
    );

    remote.retire_endpoint(b.serve_addr()).expect("retire B");
    assert_eq!(
        remote.retire_endpoint(a.serve_addr()),
        Err(EndpointSetError::LastEndpoint),
        "an empty tier cannot degrade, only error — refuse the last retire"
    );
    assert_eq!(remote.endpoint_count(), 1);

    // The refusals left the tier serviceable.
    match remote.remote_suggest(7, 1, 1_000) {
        RemoteOutcome::Answered(_) => {}
        other => panic!("survivor must still answer, got {other:?}"),
    }

    a.shutdown();
    b.shutdown();
}
