//! The one read path behind every query front end.
//!
//! [`crate::IndexedEngine`] (a frozen [`crate::PsiIndex`]), [`crate::PsiSnapshot`]
//! (a pinned epoch), and [`crate::DynamicPsiIndex`] (the live engine, after its
//! flush) all answer queries the same way: admit the pattern against the index
//! parameters, then scan the canonical batch stream — rounds in order, clusters
//! in ascending centre order, batches in emission order — with the exhaustive
//! backtracking fast path first and the decomposition DP as the fallback. The
//! first hit in that order is the witness, so answers are bit-identical across
//! front ends and thread counts.
//!
//! Each front end implements [`ServeState`]: it supplies its parameters, DP
//! strategy, vertex count, target, batch stream, face–vertex graph, and the span
//! and histogram names it reports under ([`Instruments`]). Admission, spans,
//! the queries counter, latency samples, endpoint validation, and the pool
//! fan-out live here once.

use crate::connectivity::{
    st_connectivity_capped, vertex_connectivity_with_fv, ConnectivityMode, ConnectivityResult,
};
use crate::index::{
    backtrack_step, batch_can_host, IndexParams, IndexedBatch, MatchPlan, QueryError,
    CONNECTIVITY_CAP, FAST_PATH_NODE_BUDGET,
};
use crate::isomorphism::{decide_decomposed, search_decomposed_with, DpStrategy};
use crate::obs::CoreMetrics;
use crate::pattern::{verify_occurrence, Pattern};
use psi_graph::{CsrGraph, Vertex};
use psi_obs::trace::SpanGuard;
use psi_obs::Histogram;
use psi_planar::FaceVertexGraph;
use rayon::prelude::*;
use std::borrow::Cow;
use std::time::Instant;

/// The span names and latency histograms one front end reports under.
pub(crate) struct Instruments {
    decide: &'static str,
    find_one: &'static str,
    vertex_connectivity: &'static str,
    decide_ns: fn(&CoreMetrics) -> &Histogram,
    find_one_ns: fn(&CoreMetrics) -> &Histogram,
    connectivity_ns: fn(&CoreMetrics) -> &Histogram,
}

/// The frozen and live engines' names: `query.*` spans, per-operation histograms.
pub(crate) const QUERY: Instruments = Instruments {
    decide: "query.decide",
    find_one: "query.find_one",
    vertex_connectivity: "query.vertex_connectivity",
    decide_ns: |m| &m.query_decide_ns,
    find_one_ns: |m| &m.query_find_one_ns,
    connectivity_ns: |m| &m.query_connectivity_ns,
};

/// The snapshots' names: `snapshot.*` spans, one shared histogram.
pub(crate) const SNAPSHOT: Instruments = Instruments {
    decide: "snapshot.decide",
    find_one: "snapshot.find_one",
    vertex_connectivity: "snapshot.vertex_connectivity",
    decide_ns: |m| &m.snapshot_query_ns,
    find_one_ns: |m| &m.snapshot_query_ns,
    connectivity_ns: |m| &m.snapshot_query_ns,
};

/// What a servable state supplies to the shared read path.
pub(crate) trait ServeState: Sync {
    /// The span and histogram names queries on this state report under.
    const INSTRUMENTS: Instruments;

    fn params(&self) -> &IndexParams;
    fn strategy(&self) -> DpStrategy;
    /// Vertex count of the target; must not force a CSR rebuild.
    fn num_vertices(&self) -> usize;
    fn target(&self) -> &CsrGraph;
    /// The canonical batch stream: rounds in order, then centres ascending,
    /// then emission order.
    fn batches(&self) -> impl Iterator<Item = &IndexedBatch>;
    fn face_vertex_graph(&self) -> Cow<'_, FaceVertexGraph>;
    /// Extra span fields (e.g. the pinned epoch); none by default.
    fn tag_span(&self, _span: &mut SpanGuard) {}
}

/// Checks that an index built with `params` over an `n`-vertex target can serve
/// `pattern`; `Ok(Some(answer))` short-circuits trivial cases (empty pattern,
/// pattern larger than the target).
fn admit_pattern(
    params: &IndexParams,
    target_n: usize,
    pattern: &Pattern,
) -> Result<Option<Option<Vec<Vertex>>>, QueryError> {
    let k = pattern.k();
    if k == 0 {
        return Ok(Some(Some(Vec::new())));
    }
    if k > target_n {
        return Ok(Some(None));
    }
    if !pattern.is_connected() {
        return Err(QueryError::DisconnectedPattern);
    }
    if k > params.k as usize {
        return Err(QueryError::PatternTooLarge {
            k,
            max_k: params.k as usize,
        });
    }
    let diameter = pattern.diameter();
    if diameter > params.d as usize {
        return Err(QueryError::DiameterTooLarge {
            diameter,
            max_d: params.d as usize,
        });
    }
    Ok(None)
}

/// Runs one admitted pattern query: counts it, times it, and records the
/// latency sample unless admission rejected the pattern.
fn timed<R>(
    histogram: fn(&CoreMetrics) -> &Histogram,
    query: impl FnOnce() -> Result<R, QueryError>,
) -> Result<R, QueryError> {
    let metrics = crate::obs::metrics();
    metrics.queries_total.add(1);
    let start = Instant::now();
    let answer = query()?;
    histogram(metrics).record_duration(start.elapsed());
    Ok(answer)
}

/// Decides whether `pattern` occurs in the state's target. "Yes" answers are
/// certain; a "no" is wrong with probability at most `2^−rounds` per fixed
/// occurrence.
pub(crate) fn decide<S: ServeState>(state: &S, pattern: &Pattern) -> Result<bool, QueryError> {
    let mut span = psi_obs::span!(S::INSTRUMENTS.decide, k = pattern.k());
    state.tag_span(&mut span);
    timed(S::INSTRUMENTS.decide_ns, || {
        if let Some(short) = admit_pattern(state.params(), state.num_vertices(), pattern)? {
            return Ok(short.is_some());
        }
        Ok(decide_in_batches(state, pattern))
    })
}

/// Finds one occurrence (pattern vertex `i` ↦ `mapping[i]`): the first hit in
/// stored scan order, independent of thread count.
pub(crate) fn find_one<S: ServeState>(
    state: &S,
    pattern: &Pattern,
) -> Result<Option<Vec<Vertex>>, QueryError> {
    let mut span = psi_obs::span!(S::INSTRUMENTS.find_one, k = pattern.k());
    state.tag_span(&mut span);
    timed(S::INSTRUMENTS.find_one_ns, || {
        if let Some(short) = admit_pattern(state.params(), state.num_vertices(), pattern)? {
            return Ok(short);
        }
        Ok(find_in_batches(state, pattern))
    })
}

/// [`decide`] over many patterns on the work-stealing pool, answers in input order.
pub(crate) fn decide_batch<S: ServeState>(
    state: &S,
    patterns: &[Pattern],
) -> Vec<Result<bool, QueryError>> {
    patterns.par_iter().map(|p| decide(state, p)).collect()
}

/// [`find_one`] over many patterns (input order, deterministic witnesses).
pub(crate) fn find_one_batch<S: ServeState>(
    state: &S,
    patterns: &[Pattern],
) -> Vec<Result<Option<Vec<Vertex>>, QueryError>> {
    patterns.par_iter().map(|p| find_one(state, p)).collect()
}

/// Capped pairwise s–t vertex connectivity (the planar cap of
/// [`CONNECTIVITY_CAP`]) for many pairs against the state's target, in input order.
pub(crate) fn connectivity_batch<S: ServeState>(
    state: &S,
    pairs: &[(Vertex, Vertex)],
) -> Vec<Result<usize, QueryError>> {
    let target = state.target();
    let n = target.num_vertices();
    pairs
        .par_iter()
        .map(|&(s, t)| {
            for x in [s, t] {
                if x as usize >= n {
                    return Err(QueryError::VertexOutOfRange { vertex: x, n });
                }
            }
            if s == t {
                return Err(QueryError::IdenticalEndpoints { vertex: s });
            }
            Ok(st_connectivity_capped(target, s, t, CONNECTIVITY_CAP))
        })
        .collect()
}

/// Global vertex connectivity from the state's face–vertex graph (Lemma 5.1).
pub(crate) fn vertex_connectivity<S: ServeState>(
    state: &S,
    mode: ConnectivityMode,
    seed: u64,
) -> ConnectivityResult {
    let mut span = psi_obs::span!(S::INSTRUMENTS.vertex_connectivity, n = state.num_vertices());
    state.tag_span(&mut span);
    let metrics = crate::obs::metrics();
    metrics.queries_total.add(1);
    let start = Instant::now();
    let fv = state.face_vertex_graph();
    let result = vertex_connectivity_with_fv(state.target(), &fv, mode, seed);
    (S::INSTRUMENTS.connectivity_ns)(metrics).record_duration(start.elapsed());
    result
}

/// The per-batch decision scan: the exhaustive backtracking fast path first,
/// the decomposition DP as the polynomial fallback. Short-circuits on the
/// first hit.
fn decide_in_batches<S: ServeState>(state: &S, pattern: &Pattern) -> bool {
    let k = pattern.k();
    let plan = MatchPlan::new(pattern);
    let mut assigned = Vec::with_capacity(k);
    for ib in state.batches() {
        if !batch_can_host(ib, k) {
            continue;
        }
        assigned.clear();
        let mut budget = FAST_PATH_NODE_BUDGET;
        match backtrack_step(&plan, &ib.batch.graph, 0, &mut assigned, &mut budget) {
            Ok(true) => return true,
            Ok(false) => continue,
            Err(()) => {}
        }
        let btd = ib.decomp.to_binary(ib.batch.graph.num_vertices());
        if decide_decomposed(state.strategy(), pattern, &ib.batch.graph, &btd) {
            return true;
        }
    }
    false
}

/// The per-batch search scan. The witness is the first occurrence in stored
/// scan order; the target is only read to cross-check it in debug builds.
fn find_in_batches<S: ServeState>(state: &S, pattern: &Pattern) -> Option<Vec<Vertex>> {
    let k = pattern.k();
    let plan = MatchPlan::new(pattern);
    let mut assigned = Vec::with_capacity(k);
    for ib in state.batches() {
        if !batch_can_host(ib, k) {
            continue;
        }
        assigned.clear();
        let mut budget = FAST_PATH_NODE_BUDGET;
        match backtrack_step(&plan, &ib.batch.graph, 0, &mut assigned, &mut budget) {
            Ok(true) => {
                let mut occ = plan.to_occurrence(&assigned);
                for v in &mut occ {
                    *v = ib.batch.local_to_global[*v as usize];
                }
                debug_assert!(verify_occurrence(pattern, state.target(), &occ));
                return Some(occ);
            }
            Ok(false) => continue,
            Err(()) => {}
        }
        let btd = ib.decomp.to_binary(ib.batch.graph.num_vertices());
        if let Some(occ) = search_decomposed_with(
            state.strategy(),
            pattern,
            &ib.batch.graph,
            &btd,
            Some(&ib.batch.local_to_global),
        ) {
            debug_assert!(verify_occurrence(pattern, state.target(), &occ));
            return Some(occ);
        }
    }
    None
}
