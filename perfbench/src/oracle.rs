//! The answer oracle. Every check runs after the timed regions, against the
//! generator's graphs and independent baselines, never against the engine's own
//! view of its target.

use crate::families::{Answer, ChurnRun, PairRecord, QueryRun, ReaderAnswer};
use crate::inputs::{pattern, Mutation, Target, VcCase, K4};
use planar_subiso::connectivity::is_vertex_cut;
use planar_subiso::{verify_occurrence, ConnectivityResult, IndexParams, PsiIndex};
use psi_baselines::maxflow::local_vertex_connectivity;
use psi_graph::{CsrGraph, GraphBuilder, Vertex};
use std::collections::HashMap;

/// Wrong answers against operations attempted. Checks run outside every timed
/// region.
#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Oracle {
    /// Records `ops` attempted operations, `wrong` of which failed.
    pub fn tally(&mut self, what: &str, ops: u64, wrong: u64) {
        self.attempted += ops;
        self.failed += wrong;
        if wrong > 0 {
            self.notes.push(format!("{what}: {wrong} of {ops} wrong"));
        }
    }

    /// One operation, failed unless `ok`.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.tally(what, 1, u64::from(!ok));
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Whether `g` contains no K4: no edge has two adjacent common neighbours.
pub fn k4_free(g: &CsrGraph) -> bool {
    g.edges().all(|(u, v)| {
        let common: Vec<Vertex> = g
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&w| g.has_edge(v, w))
            .collect();
        common
            .iter()
            .enumerate()
            .all(|(i, &a)| common[i + 1..].iter().all(|&b| !g.has_edge(a, b)))
    })
}

/// Whether `answer` is right for `pattern_id` on `target`, where K4 is the only
/// absent pattern. Witnesses are verified with `verify_occurrence`.
fn query_answer_ok(pattern_id: u8, answer: &Answer, target: &CsrGraph) -> bool {
    let present = pattern_id != K4;
    match answer {
        Answer::Decide(yes) => *yes == present,
        Answer::Find(None) => !present,
        Answer::Find(Some(w)) => present && verify_occurrence(&pattern(pattern_id), target, w),
        Answer::Error(_) => false,
    }
}

/// Motif answers: every witness verified, every verdict as expected, and K4
/// absent from the target by construction.
pub fn check_queries(oracle: &mut Oracle, what: &str, run: &QueryRun, target: &Target) {
    oracle.check(
        &format!("{what}: target is K4-free"),
        k4_free(&target.graph),
    );
    let wrong = run
        .records
        .iter()
        .filter(|r| !query_answer_ok(r.op.pattern, &r.answer, &target.graph))
        .count();
    oracle.tally(what, run.records.len() as u64, wrong as u64);
}

/// s–t answers: all in 3..=5 (the targets are triangulations, hence
/// 3-connected, and planar, hence at most 5-connected), and the sampled ones
/// equal to max-flow.
pub fn check_pairs(
    oracle: &mut Oracle,
    what: &str,
    records: &[PairRecord],
    graph: &CsrGraph,
    samples: &[usize],
) {
    let wrong = records
        .iter()
        .filter(|r| !(3..=5).contains(&r.answer))
        .count();
    oracle.tally(what, records.len() as u64, wrong as u64);
    for &i in samples {
        if let Some(r) = records.iter().find(|r| r.client == 0 && r.index == i) {
            let truth = local_vertex_connectivity(graph, r.op.s, r.op.t, 5);
            oracle.check(&format!("{what}: max-flow cross-check"), truth == r.answer);
        }
    }
}

/// Whole-graph answers: the known connectivity, and a cut that really disconnects.
pub fn check_vc(
    oracle: &mut Oracle,
    cases: &[VcCase],
    results: &[(Result<ConnectivityResult, String>, f64)],
) {
    for (case, (result, _)) in cases.iter().zip(results) {
        let ok = match result {
            Ok(r) => {
                r.connectivity == case.expected
                    && (r.cut.is_empty()
                        || (r.cut.len() == r.connectivity && is_vertex_cut(&case.graph, &r.cut)))
            }
            Err(_) => false,
        };
        oracle.check(&format!("vertex connectivity of {}", case.name), ok);
    }
}

/// `to_bytes(from_bytes(bytes)) == bytes`.
pub fn check_roundtrip(oracle: &mut Oracle, what: &str, bytes: &[u8]) {
    let ok = PsiIndex::from_bytes(bytes).is_ok_and(|index| index.to_bytes() == bytes);
    oracle.check(&format!("{what}: artifact round-trips byte-equal"), ok);
}

/// The edge set of the churn target over epochs, rebuilt from the initial graph
/// and the writer's log.
pub struct EdgeHistory {
    initial: CsrGraph,
    /// Per changed edge: `(epoch, present)` in epoch order.
    changes: HashMap<(Vertex, Vertex), Vec<(u64, bool)>>,
}

fn key(u: Vertex, v: Vertex) -> (Vertex, Vertex) {
    (u.min(v), u.max(v))
}

impl EdgeHistory {
    pub fn new(initial: &CsrGraph, run: &ChurnRun) -> EdgeHistory {
        let mut changes: HashMap<(Vertex, Vertex), Vec<(u64, bool)>> = HashMap::new();
        for a in run.applied.iter().filter(|a| a.ok) {
            let (k, present) = match a.op {
                Mutation::Insert(u, v) => (key(u, v), true),
                Mutation::Delete(u, v) => (key(u, v), false),
            };
            changes.entry(k).or_default().push((a.epoch, present));
        }
        EdgeHistory {
            initial: initial.clone(),
            changes,
        }
    }

    pub fn has_edge(&self, u: Vertex, v: Vertex, epoch: u64) -> bool {
        match self.changes.get(&key(u, v)) {
            Some(log) => match log.partition_point(|&(e, _)| e <= epoch) {
                0 => self.initial.has_edge(u, v),
                i => log[i - 1].1,
            },
            None => self.initial.has_edge(u, v),
        }
    }

    /// The final graph, after every logged mutation.
    pub fn final_graph(&self) -> CsrGraph {
        let mut b =
            GraphBuilder::with_capacity(self.initial.num_vertices(), self.initial.num_edges());
        b.extend_edges(
            self.initial
                .edges()
                .filter(|&(u, v)| self.has_edge(u, v, u64::MAX)),
        );
        b.extend_edges(
            self.changes
                .iter()
                .filter(|(_, log)| log.last().is_some_and(|l| l.1))
                .map(|(k, _)| *k),
        );
        b.ensure_vertex(self.initial.num_vertices() as Vertex - 1);
        b.build()
    }
}

/// A reader answer is right when its witness is injective and every pattern
/// edge is present in the edge set of the snapshot's epoch (all reader patterns
/// always occur in a grid).
fn reader_answer_ok(a: &ReaderAnswer, history: &EdgeHistory) -> bool {
    match &a.answer {
        Answer::Decide(yes) => *yes,
        Answer::Find(Some(w)) => {
            let p = pattern(a.op.pattern);
            let mut sorted = w.clone();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.len() == w.len()
                && w.len() == p.k()
                && p.edges()
                    .iter()
                    .all(|&(x, y)| history.has_edge(w[x], w[y], a.epoch))
        }
        Answer::Find(None) | Answer::Error(_) => false,
    }
}

/// Churn: every mutation accepted, every reader answer right for its epoch,
/// repeated answers at one epoch identical, the last checkpoint round-trips, and
/// the final `freeze()` byte-equal to a fresh build of the final graph.
pub fn check_churn(
    oracle: &mut Oracle,
    what: &str,
    initial: &CsrGraph,
    run: &ChurnRun,
    final_freeze: &[u8],
    params: IndexParams,
) {
    let rejected = run.applied.iter().filter(|a| !a.ok).count();
    oracle.tally(
        &format!("{what}: mutations"),
        run.applied.len() as u64,
        rejected as u64,
    );
    let history = EdgeHistory::new(initial, run);
    if let Some(reader) = &run.reader {
        let reads: u64 = reader.answers.iter().map(|a| a.count).sum::<u64>() + reader.inconsistent;
        let wrong: u64 = reader
            .answers
            .iter()
            .filter(|a| !reader_answer_ok(a, &history))
            .map(|a| a.count)
            .sum::<u64>()
            + reader.inconsistent;
        oracle.tally(&format!("{what}: reader answers"), reads, wrong);
    }
    check_roundtrip(oracle, &format!("{what}: checkpoint"), &run.last_checkpoint);
    let fresh = psi_planar::planar_embedding(&history.final_graph())
        .map(|embedding| PsiIndex::build(&embedding, params).to_bytes());
    let ok = fresh.is_ok_and(|bytes| bytes == final_freeze);
    oracle.check(&format!("{what}: final freeze equals a fresh build"), ok);
}
