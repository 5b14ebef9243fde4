//! The operation families every workload is built from. Each drives the engine
//! through its public functions only and times nothing but the engine calls;
//! answers are recorded for the oracle, which runs afterwards.
//!
//! Families are resumable: [`interleave`] runs them in rounds and each family
//! keeps to a schedule, doing by the end of round `r` the share `r / ROUNDS` of
//! its work, so that every metric's samples are spread evenly over the whole run
//! instead of one window of it. The host's speed drifts over seconds; spreading
//! keeps one slow window from moving a single metric.

use crate::inputs::{pattern, Mutation, PairOp, QueryOp, VcCase, K4};
use crate::stats::{min_samples, Decimated};
use planar_subiso::{
    st_connectivity_capped, ConnectivityResult, IndexedEngine, Pattern, Psi, PsiIndex, PsiSnapshot,
    CONNECTIVITY_CAP,
};
use psi_graph::{CsrGraph, Vertex};
use psi_planar::Embedding;
use std::collections::HashMap;
use std::time::Instant;

/// Rounds over which [`interleave`] spreads each family's work.
pub const ROUNDS: usize = 24;

/// Shortest slice of a timed family once its schedule is met but its
/// percentiles still lack samples.
const MIN_SLICE_S: f64 = 0.02;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Times one call inside a benchmark-side span (recorded only while tracing is on).
pub fn timed_span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = psi_obs::span!(name);
    timed(f)
}

/// A resumable unit of a workload.
pub trait Family {
    /// Catches up with the schedule: does work until the share `due` (in `0..=1`)
    /// of the family's target is done. At `due == 1` a family that is done with
    /// its target but still lacks samples does one more short slice.
    fn slice(&mut self, due: f64);
    /// Whether the family has measured for its target and has the samples its
    /// percentiles need.
    fn done(&self) -> bool;
}

/// Runs rounds until every family is done; in round `r` each unfinished family
/// catches up with the share `min(r / ROUNDS, 1)` of its target.
pub fn interleave(families: &mut [&mut dyn Family]) {
    for round in 1.. {
        let due = (round as f64 / ROUNDS as f64).min(1.0);
        let mut ran = false;
        for f in families.iter_mut() {
            if !f.done() {
                f.slice(due);
                ran = true;
            }
        }
        if !ran {
            return;
        }
    }
}

/// Seconds a timed family with `target_s` and `active_s` so far should run now:
/// none while it is ahead of its schedule, and at least [`MIN_SLICE_S`] once the
/// schedule is complete (it runs on only to collect samples).
fn slice_seconds(target_s: f64, active_s: f64, due: f64) -> f64 {
    let behind = target_s * due - active_s;
    if due < 1.0 {
        behind
    } else {
        behind.max(MIN_SLICE_S)
    }
}

/// Calls a counted family should have made by share `due` of its `target`.
fn due_count(target: usize, due: f64) -> usize {
    ((target as f64 * due).round() as usize).min(target)
}

/// A call repeated `target` times, spread over the rounds: set-ups and artifact
/// loads.
pub struct Repeat<F: FnMut() -> f64> {
    f: F,
    pub times: Vec<f64>,
    target: usize,
}

impl<F: FnMut() -> f64> Repeat<F> {
    pub fn new(target: usize, f: F) -> Self {
        Repeat {
            f,
            times: Vec::new(),
            target,
        }
    }
}

impl<F: FnMut() -> f64> Family for Repeat<F> {
    fn slice(&mut self, due: f64) {
        while self.times.len() < due_count(self.target, due) {
            self.times.push((self.f)());
        }
    }

    fn done(&self) -> bool {
        self.times.len() >= self.target
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Decide(bool),
    Find(Option<Vec<Vertex>>),
    Error(String),
}

fn ask(
    op: QueryOp,
    p: &Pattern,
    decide: impl FnOnce(&Pattern) -> Result<bool, String>,
    find: impl FnOnce(&Pattern) -> Result<Option<Vec<Vertex>>, String>,
) -> Answer {
    let r = if op.find {
        find(p).map(Answer::Find)
    } else {
        decide(p).map(Answer::Decide)
    };
    r.unwrap_or_else(Answer::Error)
}

/// Runs one closed-loop client per stream for `seconds`, each resuming at its
/// position in `pos`; returns each client's outputs in client order.
fn clients<Op: Sync, R: Send>(
    streams: &[Vec<Op>],
    pos: &mut [usize],
    seconds: f64,
    call: impl Fn(usize, &Op) -> R + Sync,
) -> Vec<Vec<R>> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let call = &call;
        let handles: Vec<_> = streams
            .iter()
            .zip(pos.iter_mut())
            .map(|(stream, pos)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while secs(start) < seconds {
                        out.push(call(*pos, &stream[*pos % stream.len()]));
                        *pos += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Parse + embed: the set-up every workload starts with.
pub fn parse_and_embed(text: &str) -> (CsrGraph, Embedding, [f64; 2]) {
    let (graph, parse_s) = timed_span("bench.io.parse", || {
        psi_graph::parse_graph(text).expect("generated text parses")
    });
    let (embedding, embed_s) = timed_span("bench.planar.embed", || {
        psi_planar::planar_embedding(&graph).expect("generated targets are planar")
    });
    (graph, embedding, [parse_s, embed_s])
}

/// The motif cold start: parse, embed, `PsiIndex::build`, `to_bytes`, `from_bytes`.
pub struct ColdStart {
    pub loaded: PsiIndex,
    pub bytes: Vec<u8>,
}

pub fn cold_start(text: &str) -> ColdStart {
    let (_graph, embedding, _) = parse_and_embed(text);
    let (index, _) = timed_span("bench.index.build", || {
        PsiIndex::build(&embedding, Default::default())
    });
    let (bytes, _) = timed_span("bench.index.to_bytes", || index.to_bytes());
    let (loaded, _) = timed_span("bench.index.from_bytes", || {
        PsiIndex::from_bytes(&bytes).expect("fresh artifact loads")
    });
    ColdStart { loaded, bytes }
}

// ---------------------------------------------------------------------------
// Query serving
// ---------------------------------------------------------------------------

pub struct QueryRecord {
    pub op: QueryOp,
    pub answer: Answer,
    pub secs: f64,
}

/// Closed-loop motif serving: one client thread per stream queries one shared
/// [`IndexedEngine`], for `target_s` seconds in total and on until there are
/// enough positive and negative samples for the reported percentiles.
pub struct QueryRun<'a> {
    index: &'a PsiIndex,
    streams: &'a [Vec<QueryOp>],
    pos: Vec<usize>,
    target_s: f64,
    pub records: Vec<QueryRecord>,
    pub active_s: f64,
}

impl<'a> QueryRun<'a> {
    pub fn new(index: &'a PsiIndex, streams: &'a [Vec<QueryOp>], target_s: f64) -> Self {
        QueryRun {
            index,
            streams,
            pos: vec![0; streams.len()],
            target_s,
            records: Vec::new(),
            active_s: 0.0,
        }
    }

    pub fn latencies(&self, negative: bool) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| (r.op.pattern == K4) == negative)
            .map(|r| r.secs)
            .collect()
    }
}

impl Family for QueryRun<'_> {
    fn slice(&mut self, due: f64) {
        let slice_s = slice_seconds(self.target_s, self.active_s, due);
        if slice_s <= 0.0 {
            return;
        }
        let engine = IndexedEngine::new(self.index);
        let patterns: Vec<Pattern> = (0..7).map(pattern).collect();
        let (per_client, s) = timed(|| {
            clients(self.streams, &mut self.pos, slice_s, |_, op| {
                let p = &patterns[op.pattern as usize];
                let (answer, secs) = timed_span("bench.query", || {
                    ask(
                        *op,
                        p,
                        |p| engine.decide(p).map_err(|e| e.to_string()),
                        |p| engine.find_one(p).map_err(|e| e.to_string()),
                    )
                });
                QueryRecord {
                    op: *op,
                    answer,
                    secs,
                }
            })
        });
        self.active_s += s;
        self.records.extend(per_client.into_iter().flatten());
    }

    fn done(&self) -> bool {
        let neg = self.records.iter().filter(|r| r.op.pattern == K4).count();
        self.active_s >= self.target_s
            && neg >= min_samples(0.9)
            && self.records.len() - neg >= min_samples(0.99)
    }
}

// ---------------------------------------------------------------------------
// s–t connectivity
// ---------------------------------------------------------------------------

pub struct PairRecord {
    /// Client and position in its stream.
    pub client: usize,
    pub index: usize,
    pub op: PairOp,
    pub answer: usize,
    pub secs: f64,
}

/// Closed-loop s–t connectivity: one client thread per stream, each pair through
/// `st_connectivity_capped` with the planar cap, for `target_s` seconds in total
/// and on until the p90 has its samples.
pub struct PairRun<'a> {
    graph: &'a CsrGraph,
    streams: &'a [Vec<PairOp>],
    pos: Vec<usize>,
    target_s: f64,
    pub records: Vec<PairRecord>,
    pub active_s: f64,
}

impl<'a> PairRun<'a> {
    pub fn new(graph: &'a CsrGraph, streams: &'a [Vec<PairOp>], target_s: f64) -> Self {
        PairRun {
            graph,
            streams,
            pos: vec![0; streams.len()],
            target_s,
            records: Vec::new(),
            active_s: 0.0,
        }
    }
}

impl Family for PairRun<'_> {
    fn slice(&mut self, due: f64) {
        let slice_s = slice_seconds(self.target_s, self.active_s, due);
        if slice_s <= 0.0 {
            return;
        }
        let graph = self.graph;
        let (per_client, s) = timed(|| {
            clients(self.streams, &mut self.pos, slice_s, |index, op| {
                let (answer, secs) = timed_span("bench.flow", || {
                    st_connectivity_capped(graph, op.s, op.t, CONNECTIVITY_CAP)
                });
                (index, *op, answer, secs)
            })
        });
        self.active_s += s;
        for (client, out) in per_client.into_iter().enumerate() {
            self.records
                .extend(out.into_iter().map(|(index, op, answer, secs)| PairRecord {
                    client,
                    index: index % self.streams[client].len(),
                    op,
                    answer,
                    secs,
                }));
        }
    }

    fn done(&self) -> bool {
        self.active_s >= self.target_s && self.records.len() >= min_samples(0.9)
    }
}

// ---------------------------------------------------------------------------
// Whole-graph connectivity
// ---------------------------------------------------------------------------

pub type VcResult = (Result<ConnectivityResult, String>, f64);

fn vc_case(case: &VcCase, seed: u64) -> VcResult {
    timed_span("bench.vc", || {
        Psi::vertex_connectivity_of(&case.graph, case.mode, seed).map_err(|e| e.to_string())
    })
}

/// The fixed whole-graph set, `passes` times, one case per slice.
pub struct VcRun<'a> {
    cases: &'a [VcCase],
    seed: u64,
    target: usize,
    /// Per case, every pass's result.
    pub results: Vec<Vec<VcResult>>,
    done_cases: usize,
}

impl<'a> VcRun<'a> {
    pub fn new(cases: &'a [VcCase], seed: u64, passes: usize) -> Self {
        VcRun {
            cases,
            seed,
            target: passes * cases.len(),
            results: cases.iter().map(|_| Vec::new()).collect(),
            done_cases: 0,
        }
    }
}

impl Family for VcRun<'_> {
    fn slice(&mut self, due: f64) {
        while self.done_cases < due_count(self.target, due) {
            let i = self.done_cases % self.cases.len();
            self.results[i].push(vc_case(&self.cases[i], self.seed));
            self.done_cases += 1;
        }
    }

    fn done(&self) -> bool {
        self.done_cases >= self.target
    }
}

// ---------------------------------------------------------------------------
// Churn: one writer, optionally one snapshot reader
// ---------------------------------------------------------------------------

/// One applied mutation: the op, whether the engine accepted it, the epoch after
/// it, and its latency.
pub struct Applied {
    pub op: Mutation,
    pub ok: bool,
    pub epoch: u64,
    pub secs: f64,
    pub affected_clusters: usize,
}

/// A distinct reader answer: every query of `pattern` against the snapshot of
/// `epoch` returned `answer` (`count` times).
pub struct ReaderAnswer {
    pub epoch: u64,
    pub op: QueryOp,
    pub answer: Answer,
    pub count: u64,
}

/// Times each checkpoint is loaded back; `load_s` is the median over them all.
const LOADS_PER_CHECKPOINT: usize = 3;

/// Reader latencies kept per run (a uniform sample beyond this).
const READER_SAMPLES: usize = 1 << 18;

/// The reader runs a burst of [`READ_BURST`] queries after every [`READ_EVERY`]
/// mutations, on the writer's thread. As a second busy thread on a two-thread
/// host, its median read moved between about 0.35 and 0.6 µs from run to run
/// with where the host placed the two threads. The bursts are long, so the few
/// cold reads right after a mutation stay below the reader's p99.
const READ_EVERY: usize = 32;
const READ_BURST: usize = 256;

/// The churn reader: queries the latest published snapshot, resuming its stream
/// where the last burst stopped. Answers repeated at one epoch are counted, not
/// stored; one that differs from the epoch's first answer is counted as
/// inconsistent.
pub struct Reader<'a> {
    stream: &'a [QueryOp],
    pos: usize,
    patterns: Vec<Pattern>,
    published: PsiSnapshot,
    pub secs: Decimated,
    /// Queries run and the seconds they took in total.
    pub queries: usize,
    pub busy_s: f64,
    pub answers: Vec<ReaderAnswer>,
    /// Distinct answers of the current epoch, keyed by op (index into `answers`).
    current: HashMap<QueryOp, usize>,
    epoch: u64,
    pub inconsistent: u64,
}

impl<'a> Reader<'a> {
    fn new(stream: &'a [QueryOp], published: PsiSnapshot) -> Self {
        Reader {
            stream,
            pos: 0,
            patterns: (0..7).map(pattern).collect(),
            published,
            secs: Decimated::new(READER_SAMPLES),
            queries: 0,
            busy_s: 0.0,
            answers: Vec::new(),
            current: HashMap::new(),
            epoch: u64::MAX,
            inconsistent: 0,
        }
    }

    fn burst(&mut self) {
        let snap = &self.published;
        if snap.epoch() != self.epoch {
            self.epoch = snap.epoch();
            self.current.clear();
        }
        for _ in 0..READ_BURST {
            let op = self.stream[self.pos % self.stream.len()];
            self.pos += 1;
            let p = &self.patterns[op.pattern as usize];
            let (answer, secs) = timed_span("bench.query.snapshot_read", || {
                ask(
                    op,
                    p,
                    |p| snap.decide(p).map_err(|e| e.to_string()),
                    |p| snap.find_one(p).map_err(|e| e.to_string()),
                )
            });
            self.secs.push(secs);
            self.queries += 1;
            self.busy_s += secs;
            match self.current.get(&op) {
                Some(&i) if self.answers[i].answer == answer => self.answers[i].count += 1,
                Some(_) => self.inconsistent += 1,
                None => {
                    self.current.insert(op, self.answers.len());
                    self.answers.push(ReaderAnswer {
                        epoch: self.epoch,
                        op,
                        answer,
                        count: 1,
                    });
                }
            }
        }
    }
}

/// The churn loop. The writer applies `ops` in groups of `group`; after each
/// group it calls `flush()` then `snapshot()` and publishes the snapshot, and
/// every `checkpoint_every` groups it checkpoints with `freeze().to_bytes()` and
/// times loading the checkpoint back.
/// With a `reader` stream, the reader queries the latest published snapshot
/// between mutations (see [`READ_EVERY`]), so it reads an epoch behind the
/// writer's pending changes. Runs for `target_s` seconds in total and on until
/// the mutation p99, the publish p50 and the reader's p99 have their samples (or
/// the stream ends).
pub struct ChurnRun<'a> {
    psi: &'a mut Psi,
    ops: &'a [Mutation],
    group: usize,
    checkpoint_every: usize,
    pub reader: Option<Reader<'a>>,
    target_s: f64,
    next_op: usize,
    pub applied: Vec<Applied>,
    pub flush_s: Vec<f64>,
    pub snapshot_s: Vec<f64>,
    pub reemitted: Vec<usize>,
    pub freeze_s: Vec<f64>,
    /// `from_bytes` of each checkpoint right after it is taken, [`LOADS_PER_CHECKPOINT`]
    /// times: the restart cost.
    pub load_s: Vec<f64>,
    pub last_checkpoint: Vec<u8>,
    pub active_s: f64,
}

impl<'a> ChurnRun<'a> {
    pub fn new(
        psi: &'a mut Psi,
        ops: &'a [Mutation],
        group: usize,
        checkpoint_every: usize,
        reader: Option<&'a [QueryOp]>,
        target_s: f64,
    ) -> Self {
        let reader = reader.map(|stream| Reader::new(stream, psi.snapshot()));
        ChurnRun {
            psi,
            ops,
            group,
            checkpoint_every,
            reader,
            target_s,
            next_op: 0,
            applied: Vec::new(),
            flush_s: Vec::new(),
            snapshot_s: Vec::new(),
            reemitted: Vec::new(),
            freeze_s: Vec::new(),
            load_s: Vec::new(),
            last_checkpoint: Vec::new(),
            active_s: 0.0,
        }
    }

    pub fn publish_s(&self) -> Vec<f64> {
        self.flush_s
            .iter()
            .zip(&self.snapshot_s)
            .map(|(f, s)| f + s)
            .collect()
    }

    /// The final artifact: a last checkpoint if none was taken, then `freeze()`.
    pub fn finish(&mut self) -> Vec<u8> {
        if self.last_checkpoint.is_empty() {
            self.checkpoint();
        }
        self.psi.freeze().to_bytes()
    }

    pub fn psi(&mut self) -> &mut Psi {
        self.psi
    }

    fn checkpoint(&mut self) {
        let (frozen, freeze_s) = timed_span("bench.dynamic.freeze", || self.psi.freeze());
        let (bytes, _) = timed_span("bench.index.to_bytes", || frozen.to_bytes());
        for _ in 0..LOADS_PER_CHECKPOINT {
            let (_, load_s) = timed_span("bench.index.from_bytes", || {
                PsiIndex::from_bytes(&bytes).expect("checkpoint loads")
            });
            self.load_s.push(load_s);
        }
        self.freeze_s.push(freeze_s);
        self.last_checkpoint = bytes;
    }

    /// Applies one group, with the reader's bursts between its mutations, then
    /// flushes, snapshots and publishes.
    fn group(&mut self) {
        let end = (self.next_op + self.group).min(self.ops.len());
        for (i, &op) in self.ops[self.next_op..end].iter().enumerate() {
            let psi = &mut *self.psi;
            let (result, secs) = timed_span("bench.dynamic.mutate", || match op {
                Mutation::Insert(u, v) => psi.insert_edge(u, v),
                Mutation::Delete(u, v) => psi.delete_edge(u, v),
            });
            self.applied.push(Applied {
                op,
                ok: result.is_ok(),
                epoch: psi.epoch(),
                secs,
                affected_clusters: result.map(|s| s.affected_clusters).unwrap_or(0),
            });
            if (self.next_op + i + 1).is_multiple_of(READ_EVERY) {
                if let Some(reader) = &mut self.reader {
                    reader.burst();
                }
            }
        }
        self.next_op = end;
        let psi = &mut *self.psi;
        let (reemitted, flush_s) = timed_span("bench.dynamic.flush", || psi.flush());
        let (snapshot, snapshot_s) = timed_span("bench.snapshot.create", || psi.snapshot());
        if let Some(reader) = &mut self.reader {
            reader.published = snapshot;
        }
        self.flush_s.push(flush_s);
        self.snapshot_s.push(snapshot_s);
        self.reemitted.push(reemitted);
        if self.flush_s.len().is_multiple_of(self.checkpoint_every) {
            self.checkpoint();
        }
    }
}

impl Family for ChurnRun<'_> {
    fn slice(&mut self, due: f64) {
        // The publish p50 needs its groups whatever the time target, so the
        // groups keep to the schedule too.
        let due_groups = due_count(min_samples(0.5), due);
        let slice_s = slice_seconds(self.target_s, self.active_s, due);
        let start = Instant::now();
        while (secs(start) < slice_s || self.flush_s.len() < due_groups)
            && self.next_op < self.ops.len()
        {
            self.group();
        }
        self.active_s += secs(start);
    }

    fn done(&self) -> bool {
        self.next_op >= self.ops.len()
            || (self.active_s >= self.target_s
                && self.applied.len() >= min_samples(0.99)
                && self.flush_s.len() >= min_samples(0.5)
                && self
                    .reader
                    .as_ref()
                    .is_none_or(|r| r.queries >= min_samples(0.99)))
    }
}
