//! Workload inputs, generated from the seed by `sqp-logsim`, and the
//! bookkeeping that checks and describes them: answer digests, computed
//! reply sizes, a shadow session tracker and workload properties.

use crate::json::Json;
use sqp_logsim::{RawLogRecord, SimConfig};
use sqp_serve::{ModelSnapshot, Suggestion, TrackerConfig};
use std::collections::{HashMap, HashSet, VecDeque};

/// Suggestions requested per suggest.
pub const K: usize = 5;

/// Corpus size. `Paper` is `SimConfig::default()`, the paper-shaped corpus
/// every measured run uses; `Smoke` is a tiny corpus for the benchmark's
/// own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Smoke,
}

/// One test-epoch query as a request: who issued it, when, and what.
pub struct StreamRecord {
    pub user: u64,
    pub now: u64,
    pub query: String,
}

pub struct Corpus {
    /// The training epoch, in timestamp order.
    pub train: Vec<RawLogRecord>,
    /// The held-out test epoch, in timestamp order.
    pub test: Vec<StreamRecord>,
}

pub fn corpus(seed: u64, scale: Scale) -> Corpus {
    let cfg = match scale {
        Scale::Paper => SimConfig {
            seed,
            ..SimConfig::default()
        },
        Scale::Smoke => SimConfig::small(4_000, 1_000, seed),
    };
    let logs = sqp_logsim::generate(&cfg);
    let mut train = logs.train;
    train.sort_by_key(|r| (r.timestamp, r.machine_id));
    let mut test: Vec<StreamRecord> = logs
        .test
        .into_iter()
        .map(|r| StreamRecord {
            user: r.machine_id,
            now: r.timestamp,
            query: r.query,
        })
        .collect();
    test.sort_by_key(|r| (r.now, r.user));
    Corpus { train, test }
}

/// The test epoch replayed in timestamp order as an endless request
/// stream. Each lap repeats the epoch shifted past its own span plus two
/// idle cutoffs, so every session of a lap starts fresh.
pub struct Stream<'a> {
    records: &'a [StreamRecord],
    lap: u64,
}

impl<'a> Stream<'a> {
    pub fn new(records: &'a [StreamRecord]) -> Self {
        let span = records.last().map_or(0, |r| r.now) - records.first().map_or(0, |r| r.now);
        Self {
            records,
            lap: span + 2 * cutoff_secs() + 1,
        }
    }

    /// Request `i`: `(user, query, now)`.
    pub fn op(&self, i: usize) -> (u64, &'a str, u64) {
        let n = self.records.len();
        let r = &self.records[i % n];
        (r.user, &r.query, r.now + (i / n) as u64 * self.lap)
    }
}

pub fn cutoff_secs() -> u64 {
    TrackerConfig::default().idle_cutoff_secs
}

/// Which of `threads` generator threads owns `user`: a hash split, so one
/// user's requests always go out in order from one thread.
pub fn owner(user: u64, threads: usize) -> usize {
    let mut z = user.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % threads as u64) as usize
}

/// Digest of one answer: every suggestion's query text and score bits, in
/// order.
pub fn digest(list: &[Suggestion]) -> u64 {
    let mut buf = Vec::with_capacity(list.len() * 32);
    for s in list {
        buf.extend_from_slice(s.query.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&s.score.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(&(list.len() as u64).to_le_bytes());
    sqp_store::checksum_fnv1a(&buf)
}

/// Digest of a batch answer.
pub fn batch_digest(lists: &[Vec<Suggestion>]) -> u64 {
    let digests: Vec<u64> = lists.iter().map(|l| digest(l)).collect();
    combine_digests(&digests)
}

/// Digest of a batch answer from its entries' [`digest`]s, in order.
pub fn combine_digests(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    sqp_store::checksum_fnv1a(&bytes)
}

fn uvarint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

/// Bytes of one suggestion list inside a reply body.
pub fn list_bytes(list: &[Suggestion]) -> usize {
    uvarint_len(list.len() as u64)
        + list
            .iter()
            .map(|s| 8 + uvarint_len(s.query.len() as u64) + s.query.len())
            .sum::<usize>()
}

/// Bytes of the `R_SUGGESTIONS` reply frame carrying `list`, computed
/// from WIRE.md: 4-byte length prefix, opcode, `uvarint` count, then per
/// suggestion an `f64` score and a length-prefixed string.
pub fn reply_bytes(list: &[Suggestion]) -> usize {
    5 + list_bytes(list)
}

/// Bytes of an `R_BATCH` frame of `count` lists taking `lists_bytes`.
pub fn batch_frame_bytes(count: usize, lists_bytes: usize) -> usize {
    5 + uvarint_len(count as u64) + lists_bytes
}

/// The session rule of `sqp-serve`'s tracker (idle cutoff, bounded
/// context), kept on the benchmark's side so it can drive the model
/// stages directly and describe the contexts it sends.
#[derive(Default)]
pub struct ShadowSessions {
    cfg: TrackerConfig,
    users: HashMap<u64, (u64, VecDeque<String>)>,
}

impl ShadowSessions {
    /// Track `query` and return the context after it, oldest first.
    pub fn track(&mut self, user: u64, query: &str, now: u64) -> &VecDeque<String> {
        let (last_seen, ring) = self.users.entry(user).or_insert((now, VecDeque::new()));
        if !ring.is_empty() && now.saturating_sub(*last_seen) > self.cfg.idle_cutoff_secs {
            ring.clear();
        }
        if ring.len() == self.cfg.context_capacity {
            ring.pop_front();
        }
        ring.push_back(query.to_owned());
        *last_seen = now;
        ring
    }

    /// The live context of `user` at `now`, if any.
    pub fn context(&self, user: u64, now: u64) -> Option<&VecDeque<String>> {
        self.users
            .get(&user)
            .filter(|(seen, ring)| {
                !ring.is_empty() && now.saturating_sub(*seen) <= self.cfg.idle_cutoff_secs
            })
            .map(|(_, ring)| ring)
    }
}

/// Properties of the requests a workload sent, which later claims depend
/// on. Each suggest request is counted once, a batch entry included.
#[derive(Default)]
pub struct Properties {
    requests: u64,
    final_in_vocab: u64,
    depth_sum: u64,
    users: HashSet<u64>,
    replies: u64,
    suggestions: u64,
    reply_bytes: u64,
}

impl Properties {
    /// Note one suggest request with context `context` for `user`.
    pub fn request(&mut self, snapshot: &ModelSnapshot, user: u64, context: &[&str]) {
        self.requests += 1;
        self.users.insert(user);
        self.depth_sum += context.len() as u64;
        if let Some(last) = context.last() {
            self.final_in_vocab += snapshot.interner().get(last).is_some() as u64;
        }
    }

    /// Note one reply frame of `bytes` carrying `suggestions`.
    pub fn reply(&mut self, suggestions: usize, bytes: usize) {
        self.replies += 1;
        self.suggestions += suggestions as u64;
        self.reply_bytes += bytes as u64;
    }

    pub fn reply_bytes_per_op(&self) -> f64 {
        self.reply_bytes as f64 / self.replies.max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        let per = |x: u64, n: u64| Json::Num(x as f64 / n.max(1) as f64);
        Json::obj([
            ("requests", Json::Int(self.requests)),
            (
                "final_query_in_vocab_share",
                per(self.final_in_vocab, self.requests),
            ),
            ("mean_context_depth", per(self.depth_sum, self.requests)),
            ("distinct_users", Json::Int(self.users.len() as u64)),
            ("suggestions_per_reply", per(self.suggestions, self.replies)),
            ("reply_bytes_per_op", Json::Num(self.reply_bytes_per_op())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q: &str) -> Suggestion {
        Suggestion {
            query: q.into(),
            score: 0.5,
        }
    }

    #[test]
    fn reply_bytes_follow_the_wire_spec() {
        // WIRE.md's worked example: one suggestion "rust book" at 0.5 is a
        // 24-byte frame (4-byte prefix + 20-byte body).
        assert_eq!(reply_bytes(&[s("rust book")]), 24);
        assert_eq!(reply_bytes(&[]), 6);
        assert_eq!(uvarint_len(127), 1);
        assert_eq!(uvarint_len(128), 2);
        let long = "q".repeat(200);
        assert_eq!(reply_bytes(&[s(&long)]), 5 + 1 + 8 + 2 + 200);
        let lists = list_bytes(&[s("a")]) + list_bytes(&[]);
        assert_eq!(batch_frame_bytes(2, lists), 5 + 1 + 11 + 1);
    }

    #[test]
    fn shadow_sessions_apply_cutoff_and_capacity() {
        let mut sh = ShadowSessions::default();
        for i in 0..10 {
            sh.track(1, &format!("q{i}"), 100 + i);
        }
        let ctx: Vec<_> = sh.context(1, 200).unwrap().iter().cloned().collect();
        assert_eq!(ctx.len(), 8);
        assert_eq!(ctx[0], "q2");
        assert!(sh.context(1, 109 + cutoff_secs() + 1).is_none());
        assert_eq!(sh.track(1, "fresh", 10_000).len(), 1);
    }

    #[test]
    fn stream_laps_start_fresh_sessions() {
        let recs: Vec<StreamRecord> = (0..3)
            .map(|i| StreamRecord {
                user: i,
                now: 1_000 + i * 10,
                query: format!("q{i}"),
            })
            .collect();
        let st = Stream::new(&recs);
        assert_eq!(st.op(1), (1, "q1", 1_010));
        let (_, _, later) = st.op(4);
        assert!(later - 1_010 > 2 * cutoff_secs());
    }
}
