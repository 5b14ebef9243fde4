//! The four query front ends — a frozen [`IndexedEngine`], a pinned
//! [`PsiSnapshot`](planar_subiso::PsiSnapshot), the live [`DynamicPsiIndex`],
//! and the [`Psi`] facade — serve one read path, so one query table must get
//! one set of answers from all of them: the same verdicts and witnesses, the
//! same `QueryError` for every malformed query, the same short-circuits, and
//! the same spans and counters for live and frozen queries.

use planar_subiso::{
    ConnectivityMode, DynamicPsiIndex, IndexParams, IndexedEngine, Pattern, Psi, PsiError,
    PsiIndex, QueryError, CONNECTIVITY_CAP,
};
use psi_baselines::maxflow::{flow_vertex_connectivity, local_vertex_connectivity};
use psi_graph::{generators as gg, CsrGraph, Vertex};
use psi_obs::trace;
use psi_planar::planar_embedding;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The tracing gate and the metrics registry are process-global; the tests in
/// this file serialise so one test's queries never move another's counters.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

type Decided = Result<bool, QueryError>;
type Found = Result<Option<Vec<Vertex>>, QueryError>;
/// A pattern and its expected verdict.
type PatternRow = (Pattern, Decided);
/// An s–t pair and its expected rejection (`None`: answered like max-flow).
type PairRow = ((Vertex, Vertex), Option<QueryError>);

/// Everything one front end answers for the query table.
#[derive(Debug, PartialEq)]
struct Answers {
    decide: Vec<Decided>,
    find_one: Vec<Found>,
    decide_batch: Vec<Decided>,
    find_one_batch: Vec<Found>,
    connectivity_batch: Vec<Result<usize, QueryError>>,
    vertex_connectivity: usize,
}

fn query_error(e: PsiError) -> QueryError {
    match e {
        PsiError::Query(e) => e,
        other => panic!("expected a query error, got {other:?}"),
    }
}

/// Runs the table through each front end, all opened over one embedding with
/// one set of parameters, and returns `(name, answers)` per front end.
fn answers_of_every_front_end(
    target: &CsrGraph,
    patterns: &[Pattern],
    pairs: &[(Vertex, Vertex)],
) -> Vec<(&'static str, Answers)> {
    let embedding = planar_embedding(target).expect("table targets are planar");
    let params = IndexParams::default();
    let mode = ConnectivityMode::WholeGraph;

    let index = PsiIndex::build(&embedding, params);
    let frozen = IndexedEngine::new(&index);
    let frozen_answers = Answers {
        decide: patterns.iter().map(|p| frozen.decide(p)).collect(),
        find_one: patterns.iter().map(|p| frozen.find_one(p)).collect(),
        decide_batch: frozen.decide_batch(patterns),
        find_one_batch: frozen.find_one_batch(patterns),
        connectivity_batch: frozen.connectivity_batch(pairs),
        vertex_connectivity: frozen.vertex_connectivity(mode, 1).connectivity,
    };

    let mut live = DynamicPsiIndex::build(&embedding, params);
    let snap = live.snapshot();
    let snapshot_answers = Answers {
        decide: patterns.iter().map(|p| snap.decide(p)).collect(),
        find_one: patterns.iter().map(|p| snap.find_one(p)).collect(),
        decide_batch: snap.decide_batch(patterns),
        find_one_batch: snap.find_one_batch(patterns),
        connectivity_batch: snap.connectivity_batch(pairs),
        vertex_connectivity: snap.vertex_connectivity(mode, 1).connectivity,
    };
    let live_answers = Answers {
        decide: patterns.iter().map(|p| live.decide(p)).collect(),
        find_one: patterns.iter().map(|p| live.find_one(p)).collect(),
        decide_batch: live.decide_batch(patterns),
        find_one_batch: live.find_one_batch(patterns),
        connectivity_batch: live.connectivity_batch(pairs),
        vertex_connectivity: live.vertex_connectivity(mode, 1).connectivity,
    };

    let mut psi = Psi::builder()
        .open_embedded(&embedding)
        .expect("table targets are planar");
    let facade_answers = Answers {
        decide: patterns
            .iter()
            .map(|p| psi.decide(p).map_err(query_error))
            .collect(),
        find_one: patterns
            .iter()
            .map(|p| psi.find_one(p).map_err(query_error))
            .collect(),
        decide_batch: psi.decide_batch(patterns),
        find_one_batch: psi.find_one_batch(patterns),
        connectivity_batch: psi.connectivity_batch(pairs),
        vertex_connectivity: psi.vertex_connectivity(mode, 1).connectivity,
    };

    vec![
        ("IndexedEngine", frozen_answers),
        ("PsiSnapshot", snapshot_answers),
        ("DynamicPsiIndex", live_answers),
        ("Psi", facade_answers),
    ]
}

#[test]
fn every_front_end_answers_the_table_identically() {
    use QueryError::*;
    let _guard = obs_lock();
    // Per target: (pattern, expected verdict) and (s–t pair, expected
    // rejection) rows; accepted pairs must match max-flow. The default index
    // serves k ≤ 4, d ≤ 2.
    let table: Vec<(CsrGraph, Vec<PatternRow>, Vec<PairRow>)> = vec![
        (
            gg::triangulated_grid(5, 5),
            vec![
                (Pattern::triangle(), Ok(true)),
                (Pattern::cycle(4), Ok(true)),
                (Pattern::path(3), Ok(true)),
                (Pattern::star(4), Ok(true)),
                (Pattern::clique(4), Ok(false)),
                (Pattern::empty(), Ok(true)),
                (Pattern::cycle(5), Err(PatternTooLarge { k: 5, max_k: 4 })),
                (
                    Pattern::path(4),
                    Err(DiameterTooLarge {
                        diameter: 3,
                        max_d: 2,
                    }),
                ),
                (
                    Pattern::from_edges(4, &[(0, 1), (2, 3)]),
                    Err(DisconnectedPattern),
                ),
            ],
            vec![
                ((0, 24), None),
                ((6, 18), None),
                ((0, 25), Some(VertexOutOfRange { vertex: 25, n: 25 })),
                ((40, 3), Some(VertexOutOfRange { vertex: 40, n: 25 })),
                ((7, 7), Some(IdenticalEndpoints { vertex: 7 })),
            ],
        ),
        (
            gg::cycle(4),
            // k > n short-circuits to "absent" before any servability check.
            vec![
                (Pattern::cycle(5), Ok(false)),
                (Pattern::from_edges(5, &[(0, 1), (2, 3)]), Ok(false)),
                (Pattern::empty(), Ok(true)),
            ],
            vec![((0, 2), None)],
        ),
    ];

    for (target, rows, pair_rows) in &table {
        let patterns: Vec<Pattern> = rows.iter().map(|r| r.0.clone()).collect();
        let pairs: Vec<(Vertex, Vertex)> = pair_rows.iter().map(|r| r.0).collect();
        let surfaces = answers_of_every_front_end(target, &patterns, &pairs);
        let (_, reference) = &surfaces[0];

        let verdicts: Vec<Decided> = rows.iter().map(|r| r.1.clone()).collect();
        assert_eq!(reference.decide, verdicts);
        let expected_pairs: Vec<_> = pair_rows
            .iter()
            .map(|((s, t), rejection)| match rejection {
                Some(e) => Err(e.clone()),
                None => Ok(local_vertex_connectivity(target, *s, *t, CONNECTIVITY_CAP)),
            })
            .collect();
        assert_eq!(reference.connectivity_batch, expected_pairs);
        assert_eq!(
            reference.vertex_connectivity,
            flow_vertex_connectivity(target, CONNECTIVITY_CAP)
        );
        for ((pattern, verdict), found) in rows.iter().zip(&reference.find_one) {
            match found {
                Ok(Some(occ)) => assert!(planar_subiso::verify_occurrence(pattern, target, occ)),
                Ok(None) => assert_eq!(verdict, &Ok(false)),
                Err(e) => assert_eq!(verdict, &Err(e.clone())),
            }
        }
        assert_eq!(reference.decide_batch, reference.decide);
        assert_eq!(reference.find_one_batch, reference.find_one);

        for (name, answers) in &surfaces[1..] {
            assert_eq!(answers, reference, "{name} diverged from IndexedEngine");
        }
    }
}

#[test]
fn live_vertex_connectivity_is_traced_and_counted() {
    let _guard = obs_lock();
    let psi = Psi::builder()
        .open(&gg::grid(4, 4))
        .expect("grid is planar");
    let registry = psi_obs::registry();
    let queries = registry.counter("psi_queries_total");
    let latency = registry.histogram("psi_query_connectivity_ns");
    let (queries_before, samples_before) = (queries.get(), latency.count());

    trace::clear();
    Psi::set_tracing(true);
    let result = psi.vertex_connectivity(ConnectivityMode::WholeGraph, 1);
    Psi::set_tracing(false);
    let spans = trace::snapshot_spans();
    trace::clear();

    assert_eq!(result.connectivity, 2);
    let span = spans
        .iter()
        .find(|s| s.name == "query.vertex_connectivity")
        .expect("live vertex connectivity recorded no span");
    assert!(span.fields().contains(&("n", 16)));
    assert_eq!(queries.get(), queries_before + 1);
    assert_eq!(latency.count(), samples_before + 1);
}
