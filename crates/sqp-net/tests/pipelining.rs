//! Pipelined frames over a raw socket (WIRE.md § Overload semantics).
//!
//! A client may send many frames before reading any reply. The server
//! answers each one exactly once and in order: the frames one socket
//! read brings in past `queue_depth` are shed with `R_OVERLOADED
//! { limit: 0 }` without engine work, and `queue_shed` counts exactly
//! those. A client that pipelines and never reads its replies is
//! disconnected once a reply write times out, and its connection is
//! unregistered.

use sqp_logsim::RawLogRecord;
use sqp_net::frame::{write_frame, FrameRead, FrameReader};
use sqp_net::wire::{self, Reply};
use sqp_net::{NetServer, ServerConfig};
use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const QUEUE_DEPTH: usize = 8;
const PIPELINED: usize = 200;
const QUERIES: usize = 50;
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

fn query(i: usize) -> String {
    format!("query number {:02}", i % QUERIES)
}

/// Every `query(i)` is followed by its own `::next`, so each frame's
/// answer names the frame it answers.
fn snapshot() -> Arc<ModelSnapshot> {
    let rec = |machine, ts, q: String| RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q,
        clicks: vec![],
    };
    let mut logs = Vec::new();
    for u in 0..(2 * QUERIES) as u64 {
        logs.push(rec(u, 100, query(u as usize)));
        logs.push(rec(u, 130, format!("{}::next", query(u as usize))));
    }
    let cfg = TrainingConfig {
        model: ModelSpec::Adjacency,
        ..TrainingConfig::default()
    };
    Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg))
}

/// `n` `TRACK_SUGGEST` frames, frame `i` for user `first_user + i`.
fn pipelined_frames(first_user: u64, n: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut body = Vec::new();
    for i in 0..n {
        body.clear();
        wire::encode_track_suggest(&mut body, first_user + i as u64, &query(i), 3, 1_000);
        write_frame(&mut bytes, &body, wire::DEFAULT_MAX_FRAME).unwrap();
    }
    bytes
}

#[test]
fn pipelined_frames_get_one_in_order_reply_each_and_a_non_reader_is_cut_off() {
    let snap = snapshot();
    let server = NetServer::start(
        Arc::new(ServeEngine::new(Arc::clone(&snap), EngineConfig::default())),
        ServerConfig {
            queue_depth: QUEUE_DEPTH,
            write_timeout: Some(WRITE_TIMEOUT),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let reference = ServeEngine::new(snap, EngineConfig::default());

    // --- one write of PIPELINED frames, then read every reply ---
    let mut pipeliner = TcpStream::connect(server.serve_addr()).unwrap();
    pipeliner.set_nodelay(true).unwrap();
    pipeliner
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    pipeliner
        .write_all(&pipelined_frames(0, PIPELINED))
        .expect("one pipelined write");

    let mut reader = FrameReader::new(wire::DEFAULT_MAX_FRAME);
    let mut shed = 0u64;
    for i in 0..PIPELINED {
        let body = match reader.read_frame(&mut pipeliner).expect("reply") {
            FrameRead::Frame(body) => body,
            other => panic!("frame {i}: expected a reply, got {other:?}"),
        };
        match wire::decode_reply(body).expect("decodable reply") {
            Reply::Overloaded { limit } => {
                assert_eq!(limit, 0, "frame {i}: only the queue may shed here");
                shed += 1;
            }
            Reply::Suggestions(list) => {
                let got: Vec<(f64, &str)> = list.iter().collect();
                let want = reference.track_and_suggest(i as u64, &query(i), 3, 1_000);
                let want: Vec<(f64, &str)> =
                    want.iter().map(|s| (s.score, s.query.as_str())).collect();
                assert_eq!(got, want, "frame {i}: answered out of order or wrongly");
            }
            other => panic!("frame {i}: unexpected reply {other:?}"),
        }
    }
    assert!(
        shed > 0 && shed <= (PIPELINED - QUEUE_DEPTH) as u64,
        "a {PIPELINED}-frame burst over a {QUEUE_DEPTH}-deep queue sheds some, not all: {shed}"
    );
    // The reply counter ticks just after each write, so let it settle.
    let settle = Instant::now();
    while server.stats().replies_out < PIPELINED as u64 {
        assert!(
            settle.elapsed() < Duration::from_secs(10),
            "replies_out lags"
        );
        thread::yield_now();
    }
    let stats = server.stats();
    assert_eq!(stats.queue_shed, shed, "queue_shed counts the shed replies");
    assert_eq!(stats.frames_in, PIPELINED as u64);
    assert_eq!(stats.replies_out, PIPELINED as u64, "one reply per frame");
    assert_eq!(stats.engine_shed, 0);

    // --- a second client pipelines forever and never reads ---
    let before = server.active_connections();
    let mut flooder = TcpStream::connect(server.serve_addr()).unwrap();
    flooder
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let chunk = pipelined_frames(1_000_000, 2_000);
    let writer = thread::spawn(move || loop {
        if let Err(e) = flooder.write_all(&chunk) {
            return e;
        }
    });

    let registered = Instant::now();
    while server.active_connections() == before {
        assert!(
            registered.elapsed() < Duration::from_secs(10),
            "never accepted"
        );
        thread::yield_now();
    }
    // The server's last successful reply write marks when the flooder
    // stalled it; from there, one reply write timing out cuts it off.
    let mut last_reply = (server.stats().replies_out, Instant::now());
    while server.active_connections() != before {
        assert!(
            registered.elapsed() < Duration::from_secs(60),
            "the non-reading client was never cut off"
        );
        let replies = server.stats().replies_out;
        if replies != last_reply.0 {
            last_reply = (replies, Instant::now());
        }
        thread::sleep(Duration::from_millis(2));
    }
    let stalled_for = last_reply.1.elapsed();
    let err = writer.join().expect("writer thread");
    // SO_SNDTIMEO bounds each write without progress, and the last reply
    // may take two writes (a partial one, then the rest).
    assert!(
        stalled_for < 2 * WRITE_TIMEOUT + Duration::from_millis(500),
        "a non-reading client must be cut off once a reply write times out \
         (took {stalled_for:?}; its writer ended with: {err})"
    );
    assert_eq!(server.active_connections(), before);

    // The well-behaved pipeliner is still served, and its next reply is
    // this pong: it got exactly one reply per pipelined frame.
    let mut body = Vec::new();
    wire::encode_ping(&mut body);
    write_frame(&mut pipeliner, &body, wire::DEFAULT_MAX_FRAME).unwrap();
    match reader.read_frame(&mut pipeliner).expect("pong") {
        FrameRead::Frame(body) => assert!(matches!(wire::decode_reply(body), Ok(Reply::Pong))),
        other => panic!("expected a pong, got {other:?}"),
    }
    server.shutdown();
}
