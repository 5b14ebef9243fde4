//! The traced run's per-layer probes: a decomposed replica of `PsiIndex::build`,
//! direct calls into the query, DP and separating layers, and aggregation of every
//! recorded span (the benchmark's own and the engine's) into count, total and self
//! time per span name.

use crate::families::{timed, timed_span};
use crate::inputs::{pattern, C4, K4};
use crate::stats::median;
use planar_subiso::{
    find_separating_occurrence_with_stats, map_cover_batches, run_sequential, IndexParams,
    IndexedEngine, Pattern, PsiIndex, PsiSnapshot, SepStats, SeparatingInstance,
};
use psi_graph::Vertex;
use psi_obs::SpanRecord;
use psi_planar::Embedding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The per-layer split of one index build, each layer a separate public call.
#[derive(Debug, Default)]
pub struct Replica {
    pub cover_rounds_s: f64,
    pub batches: usize,
    /// Vertices stored over all batches, divided by the target's vertex count.
    pub stored_per_vertex: f64,
    pub decompose_s: f64,
    pub nodes: usize,
    pub max_width: usize,
    pub build_s: f64,
    pub to_bytes_s: f64,
    pub from_bytes_s: f64,
    pub bytes: usize,
    /// Whether the replica's batch and node counts equal the real build's.
    pub matches_build: bool,
}

/// The clustering seed `PsiIndex::build` uses for `round` (documented to equal the
/// classic query path's per-round seed).
fn round_seed(params: &IndexParams, round: u32) -> u64 {
    params
        .seed
        .wrapping_add(u64::from(round))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Replays `PsiIndex::build` layer by layer on an embedded target: cover rounds
/// with a no-op consumer, then every batch's decomposition, then the real build
/// (for the counts it must match) and its serialisation. The face–vertex graph is
/// timed on the workload's own target instead, by the caller.
pub fn replica(embedding: &Embedding, params: IndexParams) -> Replica {
    let g = &embedding.graph;
    let (k, d, budget) = (
        params.k as usize,
        params.d as usize,
        params.batch_budget as usize,
    );
    let mut r = Replica::default();
    let mut stored = 0usize;
    for round in 0..params.rounds {
        let seed = round_seed(&params, round);
        let (_, s) = timed_span("bench.cover.round", || {
            map_cover_batches(g, k, d, seed, 1, budget, |_| ())
        });
        r.cover_rounds_s += s;
        let (batches, _) = map_cover_batches(g, k, d, seed, 1, budget, |b| b);
        for batch in &batches {
            let ((btd, _), s) = timed_span("bench.treedecomp.decompose", || {
                batch.decomposition_described()
            });
            r.decompose_s += s;
            r.nodes += btd.num_nodes();
            r.max_width = r.max_width.max(btd.width());
            stored += batch.local_to_global.len();
        }
        r.batches += batches.len();
    }
    r.stored_per_vertex = stored as f64 / g.num_vertices().max(1) as f64;
    let (index, s) = timed_span("bench.index.build", || PsiIndex::build(embedding, params));
    r.build_s = s;
    let (bytes, s) = timed_span("bench.index.to_bytes", || index.to_bytes());
    r.to_bytes_s = s;
    let (_, s) = timed_span("bench.index.from_bytes", || {
        PsiIndex::from_bytes(&bytes).expect("fresh artifact loads")
    });
    r.from_bytes_s = s;
    r.bytes = bytes.len();
    let stats = index.stats();
    r.matches_build = stats.batches == r.batches && stats.decomposition_nodes == r.nodes;
    r
}

/// Median seconds of `reps` calls of `f`.
fn median_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&samples).expect("reps > 0")
}

/// Median latency of a first-hit `decide(pattern)` on `index`.
pub fn first_hit_s(index: &PsiIndex, id: u8) -> f64 {
    let engine = IndexedEngine::new(index);
    let p = pattern(id);
    median_of(201, || {
        let _span = psi_obs::span!("bench.query.first_hit");
        assert!(engine.decide(&p).expect("admissible pattern"));
    })
}

/// Median latency of the exhaustive K4 scan on `index`.
pub fn neg_scan_s(index: &PsiIndex) -> f64 {
    let engine = IndexedEngine::new(index);
    let p = pattern(K4);
    median_of(5, || {
        let _span = psi_obs::span!("bench.query.neg_scan");
        assert!(!engine.decide(&p).expect("admissible pattern"));
    })
}

/// Median latency of a `decide(C4)` against a published snapshot.
pub fn snapshot_read_s(snapshot: &PsiSnapshot) -> f64 {
    let p = pattern(C4);
    median_of(1001, || {
        let _span = psi_obs::span!("bench.query.snapshot_read");
        assert!(snapshot.decide(&p).expect("admissible pattern"));
    })
}

/// Median time of the DP fallback (K4, sequential) over an even sample of up to
/// 33 stored batches, each with its stored decomposition.
pub fn dp_batch_s(index: &PsiIndex) -> f64 {
    let batches: Vec<_> = index.rounds().iter().flat_map(|r| r.iter()).collect();
    let step = (batches.len() / 33).max(1);
    let k4 = pattern(K4);
    let samples: Vec<f64> = batches
        .iter()
        .step_by(step)
        .take(33)
        .map(|ib| {
            let btd = ib.decomp.to_binary(ib.batch.graph.num_vertices());
            timed_span("bench.dp.batch", || {
                run_sequential(&ib.batch.graph, &k4, &btd, false)
            })
            .1
        })
        .collect();
    median(&samples).expect("an index stores batches")
}

/// The separating searches behind whole-graph connectivity, one per cycle length,
/// on the face–vertex graph of `embedding`: seconds per length and the merged
/// state-engine counters.
pub fn separating(embedding: &Embedding) -> ([f64; 3], SepStats) {
    let fv = psi_planar::face_vertex_graph(embedding);
    let n = fv.graph.num_vertices();
    let in_s: Vec<bool> = (0..n).map(|v| fv.is_original(v as Vertex)).collect();
    let allowed = vec![true; n];
    let instance = SeparatingInstance {
        graph: &fv.graph,
        in_s: &in_s,
        allowed: &allowed,
    };
    let mut times = [0.0; 3];
    let mut agg = SepStats::default();
    for (i, len) in [4usize, 6, 8].into_iter().enumerate() {
        let cycle = Pattern::cycle(len);
        let ((_, stats), s) = timed_span("bench.sep.search", || {
            find_separating_occurrence_with_stats(&instance, &cycle)
        });
        times[i] = s;
        agg.absorb(&stats);
    }
    (times, agg)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Count, total and self time per span name. A span's self time is its duration
/// minus that of its direct children on the same thread.
pub fn aggregate(spans: &[SpanRecord]) -> BTreeMap<&'static str, SpanAgg> {
    let mut agg: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    let mut by_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.instant) {
        by_thread.entry(s.tid).or_default().push(s);
    }
    for (_, mut list) in by_thread {
        list.sort_by_key(|s| (s.start_us, s.depth));
        let mut child_us = vec![0u64; list.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..list.len() {
            let s = list[i];
            while let Some(&top) = stack.last() {
                let t = list[top];
                if t.depth < s.depth && s.start_us <= t.start_us + t.dur_us {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                if list[top].depth + 1 == s.depth {
                    child_us[top] += s.dur_us;
                }
            }
            stack.push(i);
        }
        for (i, s) in list.iter().enumerate() {
            let e = agg.entry(s.name).or_default();
            e.count += 1;
            e.total_us += s.dur_us;
            e.self_us += s.dur_us.saturating_sub(child_us[i]);
        }
    }
    agg
}

pub fn span_table(agg: &BTreeMap<&'static str, SpanAgg>, dropped: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# spans (name, count, total ms, self ms); {dropped} overwritten by ring wrap-around"
    );
    for (name, a) in agg {
        let _ = writeln!(
            out,
            "# span {name:<32} {:>9} {:>12.3} {:>12.3}",
            a.count,
            a.total_us as f64 / 1e3,
            a.self_us as f64 / 1e3
        );
    }
    out
}
