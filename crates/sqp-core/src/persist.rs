//! Binary persistence for trained models — the model payloads of snapshots.
//!
//! §V-F.2 of the paper: *"The PST learnt by a trained VMM model must be
//! loaded into RAM for real-time online query prediction."* A deployment
//! therefore trains offline, serializes once, and loads in every serving
//! process. This module provides the **model payload** codecs that the
//! snapshot container format builds on:
//!
//! * [`model_to_bytes`] / [`model_from_bytes`] — serialize any supported
//!   [`Recommender`] behind a [`ModelKind`] tag. The VMM uses the
//!   fixed-size-row format below; the pair-wise and N-gram baselines
//!   serialize their raw count tables (reconstruction is exact because
//!   ranked lists and smoothing are deterministic functions of the counts).
//!
//! The VMM payload is a small, versioned, length-prefixed binary layout;
//! reconstruction is exact because node distributions are rebuilt from the
//! stored raw counts through the same deterministic smoothing used at
//! training time, and the window trie is stored as its canonical
//! breadth-first `(parent, key, total, at-start)` rows (one fixed-size row
//! per node — no per-window key sequences, which shrinks the escape-table
//! section from O(Σ|w|) to O(#windows)).
//!
//! ## From bare models (v2) to snapshots (v3)
//!
//! A model blob alone cannot boot a serving process: its `QueryId`s are
//! indices into the [`Interner`](sqp_common::Interner) it was trained
//! against, which the v2 format does not carry. The `sqp-store` crate wraps
//! these payloads in the **snapshot v3** container — interner block, model
//! payload behind its [`ModelKind`] tag, lifecycle metadata, and a
//! whole-file checksum — specified byte-by-byte in the repository's
//! `FORMAT.md`. Serving code persists through `sqp_store::save_snapshot`
//! / `sqp_store::load_snapshot`; the payload codecs here serve id-level
//! tooling that manages its own interner.

use crate::model::Recommender;
use crate::pst::{NodeDist, Pst};
use crate::vmm::{Vmm, VmmConfig};
use crate::{Adjacency, BackoffConfig, BackoffNgram, Cooccurrence, NGram};
use sqp_common::arena::SuffixTrie;
use sqp_common::bytes::{Bytes, BytesMut};
use sqp_common::{FxHashMap, QueryId, QuerySeq};

const MAGIC: &[u8; 4] = b"SQPV";
/// Version 2: trie-row escape table (version 1 stored owned window keys).
const VERSION: u32 = 2;

/// Which concrete model a serialized payload reconstructs — the model-kind
/// tag of the snapshot v3 `MODEL` section (see `FORMAT.md`).
///
/// The mixture models (MVMM, HMM) are deliberately absent: they are built
/// from per-component VMMs whose training is cheap to re-run, and their
/// Newton-fitted weights depend on corpus statistics the count tables do
/// not carry. [`model_to_bytes`] reports them as unsupported rather than
/// persisting an approximation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// [`Vmm`] — fixed-size-row PST + window-trie payload (format v2).
    Vmm,
    /// [`Adjacency`] — successor count table.
    Adjacency,
    /// [`Cooccurrence`] — co-occurrence count table.
    Cooccurrence,
    /// [`NGram`] — prefix-state count table.
    NGram,
    /// [`BackoffNgram`] — window-state count table + unigram floor + config.
    Backoff,
}

impl ModelKind {
    /// Every kind the persistence layer supports, in tag order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::Vmm,
        ModelKind::Adjacency,
        ModelKind::Cooccurrence,
        ModelKind::NGram,
        ModelKind::Backoff,
    ];

    /// The on-disk tag (`u32`, little-endian) identifying this kind.
    pub fn code(self) -> u32 {
        match self {
            ModelKind::Vmm => 1,
            ModelKind::Adjacency => 2,
            ModelKind::Cooccurrence => 3,
            ModelKind::NGram => 4,
            ModelKind::Backoff => 5,
        }
    }

    /// Inverse of [`ModelKind::code`]; `None` for unknown tags.
    pub fn from_code(code: u32) -> Option<ModelKind> {
        ModelKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Stable human-readable label (used in errors and ops tooling).
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Vmm => "vmm",
            ModelKind::Adjacency => "adjacency",
            ModelKind::Cooccurrence => "cooccurrence",
            ModelKind::NGram => "ngram",
            ModelKind::Backoff => "backoff",
        }
    }

    /// Detect the kind of a model behind the trait object, `None` when the
    /// concrete type has no persistable form (MVMM, HMM, ad-hoc impls).
    pub fn of(model: &dyn Recommender) -> Option<ModelKind> {
        let any = model.as_any()?;
        if any.is::<Vmm>() {
            Some(ModelKind::Vmm)
        } else if any.is::<Adjacency>() {
            Some(ModelKind::Adjacency)
        } else if any.is::<Cooccurrence>() {
            Some(ModelKind::Cooccurrence)
        } else if any.is::<NGram>() {
            Some(ModelKind::NGram)
        } else if any.is::<BackoffNgram>() {
            Some(ModelKind::Backoff)
        } else {
            None
        }
    }
}

/// Serialize any supported [`Recommender`] into `(kind tag, payload)`.
///
/// Payload bytes are deterministic for identically-trained models (count
/// tables are written in sorted key order), so identical corpora produce
/// bit-identical snapshots. Returns an error naming the model when its
/// concrete type is not persistable — see [`ModelKind`] for why the
/// mixtures are excluded.
pub fn model_to_bytes(model: &dyn Recommender) -> Result<(ModelKind, Bytes), String> {
    // `ModelKind::of` is the single authoritative type list; a `Some` kind
    // guarantees `as_any` is `Some` and the matching downcast succeeds, so
    // the expects below are in-memory invariants, not input validation.
    let kind = ModelKind::of(model).ok_or_else(|| {
        format!(
            "model '{}' has no persistable form (supported kinds: vmm, \
             adjacency, cooccurrence, ngram, backoff)",
            model.name()
        )
    })?;
    let any = model.as_any().expect("ModelKind::of implies as_any");
    let payload = match kind {
        ModelKind::Vmm => vmm_to_bytes(any.downcast_ref().expect("kind tag matches type")),
        ModelKind::Adjacency => {
            lists_to_bytes(&any.downcast_ref::<Adjacency>().expect("kind tag").lists)
        }
        ModelKind::Cooccurrence => {
            lists_to_bytes(&any.downcast_ref::<Cooccurrence>().expect("kind tag").lists)
        }
        ModelKind::NGram => ngram_to_bytes(any.downcast_ref().expect("kind tag matches type")),
        ModelKind::Backoff => backoff_to_bytes(any.downcast_ref().expect("kind tag matches type")),
    };
    Ok((kind, payload))
}

/// Reconstruct a model serialized by [`model_to_bytes`] from its kind tag
/// and payload. The payload must be exactly one model — trailing bytes are
/// an error for the count-table kinds (the VMM payload is self-delimiting
/// via its own header).
pub fn model_from_bytes(kind: ModelKind, data: Bytes) -> Result<Box<dyn Recommender>, String> {
    match kind {
        ModelKind::Vmm => Ok(Box::new(vmm_from_bytes(data)?)),
        ModelKind::Adjacency => {
            let mut data = data;
            let lists = lists_from_bytes(&mut data)?;
            expect_consumed(&data)?;
            Ok(Box::new(Adjacency { lists }))
        }
        ModelKind::Cooccurrence => {
            let mut data = data;
            let lists = lists_from_bytes(&mut data)?;
            expect_consumed(&data)?;
            Ok(Box::new(Cooccurrence { lists }))
        }
        ModelKind::NGram => Ok(Box::new(ngram_from_bytes(data)?)),
        ModelKind::Backoff => Ok(Box::new(backoff_from_bytes(data)?)),
    }
}

/// Sum stored counts without trusting them: a crafted file (valid
/// checksum, hostile payload) must produce `Err`, not a debug-build
/// overflow panic or a silently wrapped total.
fn checked_total(counts: &[(QueryId, u64)], label: &str) -> Result<u64, String> {
    counts
        .iter()
        .try_fold(0u64, |acc, (_, c)| acc.checked_add(*c))
        .ok_or_else(|| format!("{label} count total overflows u64"))
}

fn expect_consumed(data: &Bytes) -> Result<(), String> {
    if data.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} trailing bytes after model payload",
            data.remaining()
        ))
    }
}

fn put_seq(buf: &mut BytesMut, seq: &[QueryId]) {
    buf.put_u32_le(seq.len() as u32);
    for q in seq {
        buf.put_u32_le(q.0);
    }
}

fn get_seq(data: &mut Bytes) -> Result<QuerySeq, String> {
    if data.remaining() < 4 {
        return Err("truncated sequence length".into());
    }
    let len = data.get_u32_le() as usize;
    if data.remaining() < len * 4 {
        return Err("truncated sequence body".into());
    }
    Ok((0..len).map(|_| QueryId(data.get_u32_le())).collect())
}

/// Write a ranked `(query, count)` list, preserving its stored order (the
/// training-time descending-count, ascending-id order is part of model
/// behaviour and must survive the round trip).
fn put_counts(buf: &mut BytesMut, counts: &[(QueryId, u64)]) {
    buf.put_u32_le(counts.len() as u32);
    for &(q, c) in counts {
        buf.put_u32_le(q.0);
        buf.put_u64_le(c);
    }
}

fn get_counts(data: &mut Bytes) -> Result<Box<[(QueryId, u64)]>, String> {
    if data.remaining() < 4 {
        return Err("truncated count-list length".into());
    }
    let n = data.get_u32_le() as usize;
    if data.remaining() < n * 12 {
        return Err("truncated count-list body".into());
    }
    Ok((0..n)
        .map(|_| {
            let q = QueryId(data.get_u32_le());
            let c = data.get_u64_le();
            (q, c)
        })
        .collect())
}

/// The pair-wise count-table shape shared by Adjacency and Co-occurrence.
type RankedLists = FxHashMap<QueryId, Box<[(QueryId, u64)]>>;

/// The shared pair-wise count-table layout (Adjacency, Co-occurrence):
/// `n_lists: u32`, then per source query (ascending id for determinism)
/// `source: u32` followed by its ranked continuation list.
fn lists_to_bytes(lists: &RankedLists) -> Bytes {
    let entries: usize = lists.values().map(|l| l.len()).sum();
    let mut buf = BytesMut::with_capacity(8 + lists.len() * 8 + entries * 12);
    let mut keys: Vec<QueryId> = lists.keys().copied().collect();
    keys.sort_unstable();
    buf.put_u32_le(keys.len() as u32);
    for q in keys {
        buf.put_u32_le(q.0);
        put_counts(&mut buf, &lists[&q]);
    }
    buf.freeze()
}

fn lists_from_bytes(data: &mut Bytes) -> Result<RankedLists, String> {
    if data.remaining() < 4 {
        return Err("truncated list-table header".into());
    }
    let n = data.get_u32_le() as usize;
    if data.remaining() < n * 8 {
        return Err("truncated list table".into());
    }
    let mut lists = FxHashMap::default();
    lists.reserve(n);
    for _ in 0..n {
        if data.remaining() < 4 {
            return Err("truncated list source id".into());
        }
        let q = QueryId(data.get_u32_le());
        let counts = get_counts(data)?;
        if lists.insert(q, counts).is_some() {
            return Err(format!("duplicate list for query {}", q.0));
        }
    }
    Ok(lists)
}

/// N-gram payload: `n_states: u32`, then per state (sorted by context
/// length then lexicographic id order) the context sequence followed by its
/// ranked continuation list. `max_order` is recomputed on load.
fn ngram_to_bytes(model: &NGram) -> Bytes {
    let mut states: Vec<(&QuerySeq, &[(QueryId, u64)])> = model
        .states
        .iter()
        .map(|(ctx, counts)| (ctx, counts.as_ref()))
        .collect();
    states.sort_by_key(|(ctx, _)| (ctx.len(), (*ctx).clone()));
    let mut buf = BytesMut::with_capacity(8 + states.len() * 32);
    buf.put_u32_le(states.len() as u32);
    for (ctx, counts) in states {
        put_seq(&mut buf, ctx);
        put_counts(&mut buf, counts);
    }
    buf.freeze()
}

fn ngram_from_bytes(mut data: Bytes) -> Result<NGram, String> {
    if data.remaining() < 4 {
        return Err("truncated n-gram header".into());
    }
    let n = data.get_u32_le() as usize;
    if data.remaining() < n * 8 {
        return Err("truncated n-gram state table".into());
    }
    let mut states = FxHashMap::default();
    states.reserve(n);
    let mut max_order = 0;
    for _ in 0..n {
        let ctx = get_seq(&mut data)?;
        let counts = get_counts(&mut data)?;
        max_order = max_order.max(ctx.len());
        if states.insert(ctx, counts).is_some() {
            return Err("duplicate n-gram state".into());
        }
    }
    expect_consumed(&data)?;
    Ok(NGram { states, max_order })
}

/// Back-off payload: config (`max_order` with `u64::MAX` = unbounded,
/// `discount`, `min_support`), `n_queries`, the unigram floor, then the
/// window states sorted like the N-gram payload. Totals are recomputed.
fn backoff_to_bytes(model: &BackoffNgram) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + model.states.len() * 32);
    buf.put_u64_le(model.config.max_order.map(|d| d as u64).unwrap_or(u64::MAX));
    buf.put_f64_le(model.config.discount);
    buf.put_u64_le(model.config.min_support);
    buf.put_u64_le(model.n_queries as u64);
    put_counts(&mut buf, &model.unigrams);
    let mut states: Vec<&QuerySeq> = model.states.keys().collect();
    states.sort_by_key(|ctx| (ctx.len(), (*ctx).clone()));
    buf.put_u32_le(states.len() as u32);
    for ctx in states {
        put_seq(&mut buf, ctx);
        put_counts(&mut buf, &model.states[ctx].next);
    }
    buf.freeze()
}

fn backoff_from_bytes(mut data: Bytes) -> Result<BackoffNgram, String> {
    if data.remaining() < 32 {
        return Err("truncated back-off config".into());
    }
    let max_order_raw = data.get_u64_le();
    let discount = data.get_f64_le();
    let min_support = data.get_u64_le();
    let n_queries = data.get_u64_le() as usize;
    let config = BackoffConfig {
        max_order: (max_order_raw != u64::MAX).then_some(max_order_raw as usize),
        discount,
        min_support,
    };
    let unigrams = get_counts(&mut data)?;
    let unigram_total = checked_total(&unigrams, "back-off unigram")?;
    if data.remaining() < 4 {
        return Err("truncated back-off state count".into());
    }
    let n = data.get_u32_le() as usize;
    if data.remaining() < n * 8 {
        return Err("truncated back-off state table".into());
    }
    let mut states = FxHashMap::default();
    states.reserve(n);
    for _ in 0..n {
        let ctx = get_seq(&mut data)?;
        let next = get_counts(&mut data)?;
        let total = checked_total(&next, "back-off state")?;
        if states
            .insert(ctx, crate::backoff::State { next, total })
            .is_some()
        {
            return Err("duplicate back-off state".into());
        }
    }
    expect_consumed(&data)?;
    Ok(BackoffNgram {
        states,
        unigrams,
        unigram_total,
        config,
        n_queries,
    })
}

/// Serialize a trained VMM as a self-delimiting v2 payload (magic,
/// version, config, PST nodes, window-trie rows).
pub(crate) fn vmm_to_bytes(model: &Vmm) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + model.node_count() * 48);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);

    // Config + corpus constants.
    buf.put_f64_le(model.config.epsilon);
    buf.put_u64_le(model.config.max_depth.map(|d| d as u64).unwrap_or(u64::MAX));
    buf.put_u64_le(model.config.min_support);
    buf.put_u64_le(model.total_sessions);
    buf.put_u64_le(model.total_occurrences);
    buf.put_u64_le(model.n_queries as u64);

    // Nodes in (length, context) order so reinsertion finds parents.
    let mut nodes: Vec<_> = model.pst.iter().collect();
    nodes.sort_by_key(|n| (n.context.len(), n.context.clone()));
    buf.put_u64_le(nodes.len() as u64);
    for node in nodes {
        put_seq(&mut buf, &node.context);
        let raw = node.dist.raw_counts();
        buf.put_u32_le(raw.len() as u32);
        for &(q, c) in raw {
            buf.put_u32_le(q.0);
            buf.put_u64_le(c);
        }
    }

    // Window trie (escape table): canonical BFS rows, already
    // deterministic by construction.
    buf.put_u32_le(model.windows.window_len() as u32);
    buf.put_u64_le((model.windows.len() - 1) as u64);
    for (parent, key, total, at_start) in model.windows.parts() {
        buf.put_u32_le(parent);
        buf.put_u32_le(key);
        buf.put_u64_le(total);
        buf.put_u64_le(at_start);
    }
    buf.freeze()
}

/// Reconstruct a VMM serialized with [`vmm_to_bytes`].
pub(crate) fn vmm_from_bytes(mut data: Bytes) -> Result<Vmm, String> {
    if data.remaining() < 8 {
        return Err("truncated header".into());
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err("bad magic — not a serialized VMM".into());
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    if data.remaining() < 8 * 6 {
        return Err("truncated config".into());
    }
    let epsilon = data.get_f64_le();
    let max_depth_raw = data.get_u64_le();
    let min_support = data.get_u64_le();
    let total_sessions = data.get_u64_le();
    let total_occurrences = data.get_u64_le();
    let n_queries = data.get_u64_le() as usize;
    let config = VmmConfig {
        epsilon,
        max_depth: (max_depth_raw != u64::MAX).then_some(max_depth_raw as usize),
        min_support,
        ..VmmConfig::default()
    };

    if data.remaining() < 8 {
        return Err("truncated node count".into());
    }
    let n_nodes = data.get_u64_le() as usize;
    if n_nodes == 0 {
        return Err("serialized VMM has no root".into());
    }
    let mut pst: Option<Pst> = None;
    for i in 0..n_nodes {
        let context = get_seq(&mut data)?;
        if data.remaining() < 4 {
            return Err("truncated node distribution".into());
        }
        let n_raw = data.get_u32_le() as usize;
        if data.remaining() < n_raw * 12 {
            return Err("truncated node counts".into());
        }
        let raw: Vec<(QueryId, u64)> = (0..n_raw)
            .map(|_| {
                let q = QueryId(data.get_u32_le());
                let c = data.get_u64_le();
                (q, c)
            })
            .collect();
        let dist = NodeDist::from_counts(raw, n_queries);
        if i == 0 {
            if !context.is_empty() {
                return Err("first node must be the root".into());
            }
            pst = Some(Pst::new(dist));
        } else {
            let tree = pst.as_mut().ok_or("root missing")?;
            if context.is_empty() {
                return Err("duplicate root".into());
            }
            tree.insert(context, dist);
        }
    }
    let pst = pst.ok_or("root missing")?;

    if data.remaining() < 12 {
        return Err("truncated trie header".into());
    }
    let window_len = data.get_u32_le();
    let n_rows = data.get_u64_le() as usize;
    // checked: a corrupt count must produce Err, not an overflow panic
    // or a capacity-overflow abort in the collect below.
    let rows_bytes = n_rows.checked_mul(24).ok_or("trie row count overflows")?;
    if data.remaining() < rows_bytes {
        return Err("truncated trie rows".into());
    }
    let rows: Vec<(u32, u32, u64, u64)> = (0..n_rows)
        .map(|_| {
            let parent = data.get_u32_le();
            let key = data.get_u32_le();
            let total = data.get_u64_le();
            let at_start = data.get_u64_le();
            (parent, key, total, at_start)
        })
        .collect();
    let windows = SuffixTrie::from_parts(window_len, &rows)?;

    Ok(Vmm {
        pst,
        windows,
        total_sessions,
        total_occurrences,
        n_queries,
        name: config.display_name(),
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Recommender, SequenceScorer};
    use crate::toy::{toy_corpus, toy_test_sequence, TOY_EPSILON};
    use sqp_common::seq;

    fn trained() -> Vmm {
        Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(TOY_EPSILON))
    }

    /// A VMM's v2 payload, through the tagged codec.
    fn vmm_blob(model: &Vmm) -> Bytes {
        let (kind, blob) = model_to_bytes(model).unwrap();
        assert_eq!(kind, ModelKind::Vmm);
        blob
    }

    /// Decode a v2 payload through the tagged codec.
    fn vmm_load(blob: Bytes) -> Result<Box<dyn Recommender>, String> {
        model_from_bytes(ModelKind::Vmm, blob)
    }

    /// The concrete `Vmm` behind a decoded VMM payload.
    fn as_vmm(model: &dyn Recommender) -> &Vmm {
        let any = model.as_any().expect("a VMM is persistable");
        any.downcast_ref().expect("kind tag matches type")
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let original = trained();
        let loaded = vmm_load(vmm_blob(&original)).expect("roundtrip");
        let restored = as_vmm(loaded.as_ref());

        assert_eq!(restored.node_count(), original.node_count());
        assert_eq!(restored.name(), original.name());
        assert_eq!(restored.n_queries(), original.n_queries());
        assert_eq!(restored.config(), original.config());
        assert_eq!(restored.window_trie(), original.window_trie());

        // Identical probabilities, escapes, recommendations, scores.
        for ctx in [
            &[][..],
            &seq(&[0]),
            &seq(&[1]),
            &seq(&[1, 0]),
            &seq(&[1, 1]),
        ] {
            for q in [QueryId(0), QueryId(1), QueryId(7)] {
                assert_eq!(original.cond_prob(ctx, q), restored.cond_prob(ctx, q));
                assert_eq!(
                    original.cond_prob_escaped(ctx, q),
                    restored.cond_prob_escaped(ctx, q)
                );
            }
            let a = original.recommend(ctx, 5);
            let b = restored.recommend(ctx, 5);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.query, y.query);
                assert_eq!(x.score, y.score);
            }
        }
        assert_eq!(
            original.sequence_log10_prob(&toy_test_sequence()),
            restored.sequence_log10_prob(&toy_test_sequence())
        );
        assert_eq!(original.memory_bytes(), restored.memory_bytes());
    }

    #[test]
    fn roundtrip_on_simulated_corpus() {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(3_000, 500, 21));
        let p = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        let original = Vmm::train(&p.train.aggregated.sessions, VmmConfig::bounded(3, 0.02));
        let loaded = vmm_load(vmm_blob(&original)).unwrap();
        let restored = as_vmm(loaded.as_ref());
        assert_eq!(restored.node_count(), original.node_count());
        for e in p.ground_truth.entries.iter().take(200) {
            let a = original.recommend(&e.context, 5);
            let b = restored.recommend(&e.context, 5);
            assert_eq!(
                a.iter().map(|r| r.query).collect::<Vec<_>>(),
                b.iter().map(|r| r.query).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let m = trained();
        assert_eq!(vmm_blob(&m), vmm_blob(&m));
        // Two identically-trained models serialize identically.
        assert_eq!(vmm_blob(&trained()), vmm_blob(&m));
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(vmm_load(Bytes::from_static(b"")).is_err());
        assert!(vmm_load(Bytes::from_static(b"NOPE0000")).is_err());
        let blob = vmm_blob(&trained());
        for cut in [3, 8, 20, blob.len() / 2, blob.len() - 1] {
            assert!(
                vmm_load(blob.slice(0..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let mut raw = vmm_blob(&trained()).to_vec();
        raw[4] = 99; // bump the version field
        assert!(vmm_load(Bytes::from(raw)).is_err());
    }

    #[test]
    fn unbounded_and_bounded_configs_roundtrip() {
        for cfg in [
            VmmConfig::with_epsilon(0.0),
            VmmConfig::bounded(2, 0.1),
            VmmConfig {
                epsilon: 0.3,
                max_depth: Some(1),
                min_support: 4,
                ..VmmConfig::default()
            },
        ] {
            let m = Vmm::train(&toy_corpus(), cfg);
            let loaded = vmm_load(vmm_blob(&m)).unwrap();
            let r = as_vmm(loaded.as_ref());
            assert_eq!(r.config(), &cfg);
            assert_eq!(r.node_count(), m.node_count());
        }
    }

    // ---- generalized (tagged) model persistence ----

    fn sim_sessions() -> Vec<(QuerySeq, u64)> {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(1_500, 300, 9));
        let p = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        p.train.aggregated.sessions.clone()
    }

    fn trained_kind(kind: ModelKind, sessions: &[(QuerySeq, u64)]) -> Box<dyn Recommender> {
        match kind {
            ModelKind::Vmm => Box::new(Vmm::train(sessions, VmmConfig::bounded(3, 0.05))),
            ModelKind::Adjacency => Box::new(Adjacency::train(sessions)),
            ModelKind::Cooccurrence => Box::new(Cooccurrence::train(sessions)),
            ModelKind::NGram => Box::new(NGram::train(sessions)),
            ModelKind::Backoff => Box::new(BackoffNgram::train(sessions, BackoffConfig::default())),
        }
    }

    #[test]
    fn every_kind_roundtrips_bit_identically() {
        let sessions = sim_sessions();
        let contexts: Vec<QuerySeq> = {
            let mut out: Vec<QuerySeq> = Vec::new();
            for (s, _) in sessions.iter().take(100) {
                for i in 1..s.len() {
                    out.push(s[..i].into());
                }
            }
            out.push(seq(&[]));
            out.push(seq(&[9_999_999]));
            out
        };
        for kind in ModelKind::ALL {
            let original = trained_kind(kind, &sessions);
            let (tagged, blob) = model_to_bytes(original.as_ref()).unwrap();
            assert_eq!(tagged, kind);
            let restored = model_from_bytes(kind, blob).unwrap();
            assert_eq!(restored.name(), original.name(), "{kind:?}");
            assert_eq!(restored.memory_bytes(), original.memory_bytes(), "{kind:?}");
            for ctx in &contexts {
                let a = original.recommend(ctx, 5);
                let b = restored.recommend(ctx, 5);
                assert_eq!(a.len(), b.len(), "{kind:?} ctx {ctx:?}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!((x.query, x.score), (y.query, y.score), "{kind:?}");
                }
                assert_eq!(original.covers(ctx), restored.covers(ctx), "{kind:?}");
            }
        }
    }

    #[test]
    fn tagged_serialization_is_deterministic() {
        let sessions = sim_sessions();
        for kind in ModelKind::ALL {
            let a = model_to_bytes(trained_kind(kind, &sessions).as_ref()).unwrap();
            let b = model_to_bytes(trained_kind(kind, &sessions).as_ref()).unwrap();
            assert_eq!(a.1.as_slice(), b.1.as_slice(), "{kind:?} not deterministic");
        }
    }

    #[test]
    fn kind_codes_roundtrip_and_detect() {
        let sessions = sim_sessions();
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::from_code(kind.code()), Some(kind));
            let model = trained_kind(kind, &sessions);
            assert_eq!(ModelKind::of(model.as_ref()), Some(kind));
        }
        assert_eq!(ModelKind::from_code(0), None);
        assert_eq!(ModelKind::from_code(99), None);
    }

    #[test]
    fn mixtures_are_reported_unsupported() {
        let sessions = toy_corpus();
        let mvmm = crate::Mvmm::train(&sessions, &crate::MvmmConfig::small());
        assert_eq!(ModelKind::of(&mvmm), None);
        let err = model_to_bytes(&mvmm).unwrap_err();
        assert!(err.contains("no persistable form"), "{err}");
    }

    #[test]
    fn crafted_overflowing_counts_are_rejected_not_panicked() {
        // A syntactically valid Backoff payload whose unigram counts sum
        // past u64::MAX — load must return Err (never a debug-build panic
        // or a wrapped total).
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u64_le(u64::MAX); // max_order: unbounded
        buf.put_f64_le(0.5); // discount
        buf.put_u64_le(1); // min_support
        buf.put_u64_le(2); // n_queries
        buf.put_u32_le(2); // unigram entries
        for q in 0..2u32 {
            buf.put_u32_le(q);
            buf.put_u64_le(u64::MAX);
        }
        buf.put_u32_le(0); // no states
        let err = match model_from_bytes(ModelKind::Backoff, buf.freeze()) {
            Err(e) => e,
            Ok(_) => panic!("overflowing counts loaded successfully"),
        };
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn tagged_payloads_reject_truncation() {
        let sessions = sim_sessions();
        for kind in ModelKind::ALL {
            let (_, blob) = model_to_bytes(trained_kind(kind, &sessions).as_ref()).unwrap();
            for cut in [0, 3, 7, blob.len() / 3, blob.len() / 2, blob.len() - 1] {
                assert!(
                    model_from_bytes(kind, blob.slice(0..cut)).is_err(),
                    "{kind:?} cut at {cut} should fail"
                );
            }
            // Trailing garbage after a complete payload must be rejected for
            // the length-delimited kinds (the VMM blob is self-delimiting).
            if kind != ModelKind::Vmm {
                let mut raw = blob.to_vec();
                raw.extend_from_slice(&[0u8; 3]);
                assert!(
                    model_from_bytes(kind, Bytes::from(raw)).is_err(),
                    "{kind:?} should reject trailing bytes"
                );
            }
        }
    }
}
