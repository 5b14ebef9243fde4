//! The three workloads. Each runs its focus families on its own target for the
//! run's `--seconds`. Every end-to-end metric is reported on every workload, so
//! the families outside a workload's focus run on small fixed side targets for
//! `Scale::side_seconds`. All families of a run are interleaved (see
//! [`families::interleave`]). The output says which part of the run measured each
//! metric.

use crate::families::{
    self, cold_start, interleave, parse_and_embed, timed, timed_span, ChurnRun, PairRecord,
    PairRun, QueryRun, Repeat, VcRun,
};
use crate::inputs::{
    Inputs, Mutation, Scale, Target, Workload, C3, C4, DIAMOND, PAW, STAR, VC_SEED,
};
use crate::layers;
use crate::oracle::{self, Oracle};
use crate::report::Report;
use crate::stats::{median, percentile};
use planar_subiso::{IndexParams, Psi, PsiIndex};
use psi_graph::CsrGraph;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

const MAIN: &str = "main";
const SIDE: &str = "side";
const FIXED: &str = "fixed set";

const FIRST_HIT: [(u8, &str); 5] = [
    (C3, "query.first_hit_us.c3"),
    (C4, "query.first_hit_us.c4"),
    (STAR, "query.first_hit_us.star"),
    (PAW, "query.first_hit_us.paw"),
    (DIAMOND, "query.first_hit_us.diamond"),
];

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// Percentile under the ten-beyond rule; NaN (reported as missing) otherwise.
fn pct(xs: &[f64], q: f64) -> f64 {
    percentile(xs, q).unwrap_or(f64::NAN)
}

fn parse(text: &str) -> CsrGraph {
    psi_graph::parse_graph(text).expect("generated text parses")
}

/// Opens the single-threaded writer engine the churn families mutate.
fn open_writer(graph: &CsrGraph) -> Psi {
    timed_span("bench.dynamic.open", || {
        Psi::builder()
            .threads(1)
            .open(graph)
            .expect("grid targets are planar")
    })
    .0
}

fn load_once(bytes: &[u8]) -> f64 {
    timed_span("bench.index.from_bytes", || {
        PsiIndex::from_bytes(bytes).expect("artifact loads")
    })
    .1
}

/// The workload's set-up, once: what the run goes on to use, and its time.
fn setup_once(workload: Workload, text: &str) -> (Setup, f64) {
    timed(|| match workload {
        Workload::MotifServe => Setup::Motif(cold_start(text)),
        Workload::Connectivity => Setup::Graph(parse_and_embed(text).0),
        Workload::Churn => Setup::Writer(Box::new(open_writer(&parse(text)))),
    })
}

enum Setup {
    Motif(families::ColdStart),
    Graph(CsrGraph),
    Writer(Box<Psi>),
}

fn report_queries(rep: &mut Report, run: &QueryRun, source: &'static str, all: bool) {
    let neg = run.latencies(true);
    rep.set("neg_query_p50_ms", pct(&neg, 0.5) * 1e3, neg.len(), source);
    rep.set("neg_query_p90_ms", pct(&neg, 0.9) * 1e3, neg.len(), source);
    if all {
        let pos = run.latencies(false);
        rep.set(
            "query_qps",
            run.records.len() as f64 / run.active_s,
            run.records.len(),
            source,
        );
        rep.set("pos_query_p50_us", pct(&pos, 0.5) * 1e6, pos.len(), source);
        rep.set("pos_query_p99_us", pct(&pos, 0.99) * 1e6, pos.len(), source);
    }
}

fn report_pairs(rep: &mut Report, records: &[PairRecord], source: &'static str) {
    let lat: Vec<f64> = records.iter().map(|r| r.secs).collect();
    rep.set("st_conn_p50_ms", pct(&lat, 0.5) * 1e3, lat.len(), source);
    rep.set("st_conn_p90_ms", pct(&lat, 0.9) * 1e3, lat.len(), source);
}

fn report_churn(rep: &mut Report, run: &ChurnRun, source: &'static str) {
    let lat: Vec<f64> = run.applied.iter().map(|a| a.secs).collect();
    rep.set("mutate_p50_us", pct(&lat, 0.5) * 1e6, lat.len(), source);
    rep.set("mutate_p99_us", pct(&lat, 0.99) * 1e6, lat.len(), source);
    let publish = run.publish_s();
    rep.set(
        "publish_p50_ms",
        pct(&publish, 0.5) * 1e3,
        publish.len(),
        source,
    );
}

fn report_artifact(rep: &mut Report, bytes: &[u8], loads: &[f64], source: &'static str) {
    rep.set("artifact_mb", bytes.len() as f64 / 1e6, 0, source);
    rep.set("load_s", med(loads), loads.len(), source);
}

/// `vc_total_s` sums each fixed case's median time over the passes.
fn report_vc(rep: &mut Report, oracle: &mut Oracle, run: &VcRun, scale: &Scale) {
    let total: f64 = run
        .results
        .iter()
        .map(|r| med(&r.iter().map(|(_, s)| *s).collect::<Vec<_>>()))
        .sum();
    rep.set(
        "vc_total_s",
        total,
        run.results.iter().map(Vec::len).sum(),
        FIXED,
    );
    for pass in 0..scale.vc_passes {
        let results: Vec<_> = run.results.iter().map(|r| r[pass].clone()).collect();
        oracle::check_vc(oracle, &scale.vc_cases, &results);
    }
}

/// Freezes the churn engine and checks the run; in a traced run also reports the
/// dynamic layer's metrics.
fn finish_churn(
    rep: &mut Report,
    oracle: &mut Oracle,
    run: &mut ChurnRun,
    initial: &CsrGraph,
    what: &str,
    traced: bool,
    source: &'static str,
) {
    let frozen = run.finish();
    let params = run.psi().params();
    oracle::check_churn(oracle, what, initial, run, &frozen, params);
    if traced {
        dynamic_layer(rep, run, source);
    }
}

/// Peak resident set size (VmHWM) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// What the per-layer probes of a traced run need from the workload.
struct LayerInputs {
    /// Index the query, DP and first-hit probes run against, and its source.
    query_index: PsiIndex,
    query_source: &'static str,
    /// Target the decomposed-build replica runs on, and its source.
    replica_target: Target,
    replica_source: &'static str,
    /// The s–t records of the run, and their source.
    pairs: Vec<PairRecord>,
    pair_source: &'static str,
}

fn motif_serve(
    cfg: &RunConfig,
    inputs: &Inputs,
    rep: &mut Report,
    oracle: &mut Oracle,
) -> (Vec<f64>, LayerInputs) {
    let scale = &cfg.scale;
    let (Setup::Motif(first), t0) = setup_once(cfg.workload, &inputs.main.text) else {
        unreachable!()
    };
    let side_graph = parse(&inputs.side_stacked.text);
    let mut side_psi = open_writer(&parse(&inputs.side_grid.text));

    let mut setups = Repeat::new(scale.setups_of(cfg.workload) - 1, || {
        setup_once(cfg.workload, &inputs.main.text).1
    });
    let mut loads = Repeat::new(scale.loads, || load_once(&first.bytes));
    let mut queries = QueryRun::new(&first.loaded, &inputs.queries, cfg.seconds);
    let mut pairs = PairRun::new(&side_graph, &inputs.pairs, scale.side_seconds);
    let mut vc = VcRun::new(&scale.vc_cases, VC_SEED, scale.vc_passes);
    let mut churn = ChurnRun::new(
        &mut side_psi,
        &inputs.mutations,
        scale.group,
        scale.checkpoint_every,
        None,
        scale.side_seconds,
    );
    interleave(&mut [
        &mut setups,
        &mut loads,
        &mut queries,
        &mut pairs,
        &mut vc,
        &mut churn,
    ]);

    report_queries(rep, &queries, MAIN, true);
    report_artifact(rep, &first.bytes, &loads.times, MAIN);
    report_pairs(rep, &pairs.records, SIDE);
    report_vc(rep, oracle, &vc, scale);
    report_churn(rep, &churn, SIDE);
    oracle::check_queries(oracle, "queries", &queries, &inputs.main);
    oracle::check_roundtrip(oracle, "artifact", &first.bytes);
    oracle::check_pairs(
        oracle,
        "side s-t pairs",
        &pairs.records,
        &inputs.side_stacked.graph,
        &inputs.flow_checks,
    );
    finish_churn(
        rep,
        oracle,
        &mut churn,
        &inputs.side_grid.graph,
        "side churn",
        cfg.traced,
        SIDE,
    );

    let mut times = vec![t0];
    times.extend(&setups.times);
    let layer = LayerInputs {
        query_index: first.loaded,
        query_source: MAIN,
        replica_target: inputs.main.clone(),
        replica_source: MAIN,
        pairs: pairs.records,
        pair_source: SIDE,
    };
    (times, layer)
}

fn connectivity(
    cfg: &RunConfig,
    inputs: &Inputs,
    rep: &mut Report,
    oracle: &mut Oracle,
) -> (Vec<f64>, LayerInputs) {
    let scale = &cfg.scale;
    let (Setup::Graph(graph), t0) = setup_once(cfg.workload, &inputs.main.text) else {
        unreachable!()
    };
    let side = cold_start(&inputs.side_tri.text);
    let mut side_psi = open_writer(&parse(&inputs.side_grid.text));

    let mut setups = Repeat::new(scale.setups_of(cfg.workload) - 1, || {
        setup_once(cfg.workload, &inputs.main.text).1
    });
    let mut pairs = PairRun::new(&graph, &inputs.pairs, cfg.seconds);
    let mut vc = VcRun::new(&scale.vc_cases, VC_SEED, scale.vc_passes);
    let mut loads = Repeat::new(scale.loads, || load_once(&side.bytes));
    let mut queries = QueryRun::new(&side.loaded, &inputs.queries, scale.side_seconds);
    let mut churn = ChurnRun::new(
        &mut side_psi,
        &inputs.mutations,
        scale.group,
        scale.checkpoint_every,
        None,
        scale.side_seconds,
    );
    interleave(&mut [
        &mut setups,
        &mut pairs,
        &mut vc,
        &mut loads,
        &mut queries,
        &mut churn,
    ]);

    report_pairs(rep, &pairs.records, MAIN);
    report_vc(rep, oracle, &vc, scale);
    report_artifact(rep, &side.bytes, &loads.times, SIDE);
    report_queries(rep, &queries, SIDE, true);
    report_churn(rep, &churn, SIDE);
    oracle::check_pairs(
        oracle,
        "s-t pairs",
        &pairs.records,
        &inputs.main.graph,
        &inputs.flow_checks,
    );
    oracle::check_queries(oracle, "side queries", &queries, &inputs.side_tri);
    oracle::check_roundtrip(oracle, "side artifact", &side.bytes);
    finish_churn(
        rep,
        oracle,
        &mut churn,
        &inputs.side_grid.graph,
        "side churn",
        cfg.traced,
        SIDE,
    );

    let mut times = vec![t0];
    times.extend(&setups.times);
    let layer = LayerInputs {
        query_index: side.loaded,
        query_source: SIDE,
        replica_target: inputs.side_tri.clone(),
        replica_source: SIDE,
        pairs: pairs.records,
        pair_source: MAIN,
    };
    (times, layer)
}

fn churn(
    cfg: &RunConfig,
    inputs: &Inputs,
    rep: &mut Report,
    oracle: &mut Oracle,
) -> (Vec<f64>, LayerInputs) {
    let scale = &cfg.scale;
    let (Setup::Writer(mut psi), t0) = setup_once(cfg.workload, &inputs.main.text) else {
        unreachable!()
    };
    let side = cold_start(&inputs.side_tri.text);
    let side_graph = parse(&inputs.side_stacked.text);

    let mut setups = Repeat::new(scale.setups_of(cfg.workload) - 1, || {
        setup_once(cfg.workload, &inputs.main.text).1
    });
    let mut churn = ChurnRun::new(
        &mut psi,
        &inputs.mutations,
        scale.group,
        scale.checkpoint_every,
        Some(&inputs.reader),
        cfg.seconds,
    );
    let mut queries = QueryRun::new(&side.loaded, &inputs.queries, scale.side_seconds);
    let mut pairs = PairRun::new(&side_graph, &inputs.pairs, scale.side_seconds);
    let mut vc = VcRun::new(&scale.vc_cases, VC_SEED, scale.vc_passes);
    interleave(&mut [&mut setups, &mut churn, &mut queries, &mut pairs, &mut vc]);

    report_churn(rep, &churn, MAIN);
    let reader = churn
        .reader
        .as_ref()
        .expect("the churn workload has a reader");
    let reads = reader.secs.samples();
    rep.set(
        "query_qps",
        reader.queries as f64 / reader.busy_s,
        reader.queries,
        MAIN,
    );
    rep.set(
        "pos_query_p50_us",
        pct(&reads, 0.5) * 1e6,
        reads.len(),
        MAIN,
    );
    rep.set(
        "pos_query_p99_us",
        pct(&reads, 0.99) * 1e6,
        reads.len(),
        MAIN,
    );
    report_queries(rep, &queries, SIDE, false);
    report_pairs(rep, &pairs.records, SIDE);
    report_vc(rep, oracle, &vc, scale);
    oracle::check_queries(oracle, "side queries", &queries, &inputs.side_tri);
    oracle::check_roundtrip(oracle, "side artifact", &side.bytes);
    oracle::check_pairs(
        oracle,
        "side s-t pairs",
        &pairs.records,
        &inputs.side_stacked.graph,
        &inputs.flow_checks,
    );
    finish_churn(
        rep,
        oracle,
        &mut churn,
        &inputs.main.graph,
        "churn",
        cfg.traced,
        MAIN,
    );
    report_artifact(rep, &churn.last_checkpoint, &churn.load_s, MAIN);

    let mut times = vec![t0];
    times.extend(&setups.times);
    let layer = LayerInputs {
        query_index: side.loaded,
        query_source: SIDE,
        replica_target: inputs.main.clone(),
        replica_source: MAIN,
        pairs: pairs.records,
        pair_source: SIDE,
    };
    (times, layer)
}

/// Runs one workload and returns its report and oracle tally.
pub fn run(cfg: &RunConfig) -> (Report, Oracle) {
    let mut rep = Report::default();
    let mut oracle = Oracle::default();
    let inputs = Inputs::generate(cfg.workload, &cfg.scale, cfg.seed);
    rep.record("workload", cfg.workload.name());
    rep.record("seed", cfg.seed);
    rep.record("seconds", cfg.seconds);
    rep.record("traced", cfg.traced);
    rep.record("n", inputs.main.graph.num_vertices());
    rep.record("m", inputs.main.graph.num_edges());
    rep.record(
        "PSI_THREADS",
        std::env::var("PSI_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    rep.record(
        "host_threads",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    rep.record("pool_threads", rayon::current_num_threads());
    rep.record("clients", crate::inputs::CLIENTS);
    rep.record("inputs_digest", format!("{:016x}", inputs.digest()));

    let pool_before = rayon::pool_stats();
    let mut untraced_setup = Vec::new();
    if cfg.traced {
        untraced_setup = (0..cfg.scale.setups_of(cfg.workload))
            .map(|_| setup_once(cfg.workload, &inputs.main.text).1)
            .collect();
        psi_obs::trace::clear();
        psi_obs::set_tracing(true);
    }
    let (setup_times, layer) = match cfg.workload {
        Workload::MotifServe => motif_serve(cfg, &inputs, &mut rep, &mut oracle),
        Workload::Connectivity => connectivity(cfg, &inputs, &mut rep, &mut oracle),
        Workload::Churn => churn(cfg, &inputs, &mut rep, &mut oracle),
    };
    rep.set("setup_s", med(&setup_times), setup_times.len(), MAIN);

    if cfg.traced {
        rep.set(
            "obs.trace_overhead",
            (med(&setup_times) - med(&untraced_setup)) * 1e3,
            setup_times.len(),
            "set-up, traced minus untraced",
        );
        per_layer(cfg, &inputs, &layer, &mut rep, &mut oracle);
        psi_obs::set_tracing(false);
        let spans = psi_obs::trace::snapshot_spans();
        rep.set_span_table(layers::span_table(
            &layers::aggregate(&spans),
            psi_obs::trace::dropped_spans(),
        ));
        let pool = rayon::pool_stats();
        rep.set(
            "pool.steals",
            (pool.steals - pool_before.steals) as f64,
            0,
            "whole run",
        );
        rep.set(
            "pool.idle_spins",
            (pool.idle_spins - pool_before.idle_spins) as f64,
            0,
            "whole run",
        );
    }
    rep.set("peak_rss_mb", peak_rss_mb(), 0, "whole run");
    (rep, oracle)
}

/// The dynamic engine's and snapshot layer's metrics, from a finished churn run.
fn dynamic_layer(rep: &mut Report, run: &mut ChurnRun, source: &'static str) {
    let of = |insert: bool| -> Vec<f64> {
        run.applied
            .iter()
            .filter(|a| matches!(a.op, Mutation::Insert(..)) == insert)
            .map(|a| a.secs)
            .collect()
    };
    let (ins, del) = (of(true), of(false));
    rep.set("dynamic.insert_us", med(&ins) * 1e6, ins.len(), source);
    rep.set("dynamic.delete_us", med(&del) * 1e6, del.len(), source);
    let affected: usize = run.applied.iter().map(|a| a.affected_clusters).sum();
    rep.set(
        "dynamic.affected_clusters",
        affected as f64 / run.applied.len().max(1) as f64,
        run.applied.len(),
        source,
    );
    rep.set(
        "dynamic.flush_ms",
        med(&run.flush_s) * 1e3,
        run.flush_s.len(),
        source,
    );
    let reemitted: usize = run.reemitted.iter().sum();
    rep.set(
        "dynamic.reemitted_batches",
        reemitted as f64 / run.reemitted.len().max(1) as f64,
        run.reemitted.len(),
        source,
    );
    rep.set(
        "dynamic.freeze_ms",
        med(&run.freeze_s) * 1e3,
        run.freeze_s.len(),
        source,
    );
    rep.set(
        "snapshot.create_ms",
        med(&run.snapshot_s) * 1e3,
        run.snapshot_s.len(),
        source,
    );
    let cache = run.psi().dynamic().decomp_cache_metrics();
    let lookups = cache.hits + cache.misses;
    rep.set(
        "dynamic.cache_hit_ratio",
        cache.hits as f64 / lookups.max(1) as f64,
        lookups as usize,
        source,
    );
    let snapshot = run.psi().snapshot();
    rep.set(
        "query.snapshot_read_us",
        layers::snapshot_read_s(&snapshot) * 1e6,
        1001,
        source,
    );
}

/// The traced run's per-layer probes.
fn per_layer(
    cfg: &RunConfig,
    inputs: &Inputs,
    layer: &LayerInputs,
    rep: &mut Report,
    oracle: &mut Oracle,
) {
    // io + planar on the workload's own target.
    let mut parse_s = Vec::new();
    let mut embed_s = Vec::new();
    let mut embedding = None;
    for _ in 0..cfg.scale.setups {
        let (_, e, [p, s]) = parse_and_embed(&inputs.main.text);
        parse_s.push(p);
        embed_s.push(s);
        embedding = Some(e);
    }
    rep.set("io.parse_ms", med(&parse_s) * 1e3, parse_s.len(), MAIN);
    rep.set("planar.embed_ms", med(&embed_s) * 1e3, embed_s.len(), MAIN);
    let embedding = embedding.expect("at least one set-up");
    let (_, fv_s) = timed_span("bench.planar.face_vertex", || {
        psi_planar::face_vertex_graph(&embedding)
    });
    rep.set("planar.face_vertex_ms", fv_s * 1e3, 1, MAIN);

    // cover + treedecomp + index: the decomposed-build replica.
    let source = layer.replica_source;
    let (_, replica_embedding, _) = parse_and_embed(&layer.replica_target.text);
    let r = layers::replica(&replica_embedding, IndexParams::default());
    oracle.check(
        "replica batch and node counts equal PsiIndex::build",
        r.matches_build,
    );
    rep.set("cover.rounds_ms", r.cover_rounds_s * 1e3, 0, source);
    rep.set("cover.batches", r.batches as f64, 0, source);
    rep.set("cover.stored_per_vertex", r.stored_per_vertex, 0, source);
    rep.set(
        "treedecomp.decompose_ms",
        r.decompose_s * 1e3,
        r.batches,
        source,
    );
    rep.set("treedecomp.nodes", r.nodes as f64, 0, source);
    rep.set("treedecomp.max_width", r.max_width as f64, 0, source);
    rep.set("index.build_ms", r.build_s * 1e3, 1, source);
    rep.set("index.to_bytes_ms", r.to_bytes_s * 1e3, 1, source);
    rep.set("index.from_bytes_ms", r.from_bytes_s * 1e3, 1, source);
    rep.set("index.bytes", r.bytes as f64, 0, source);

    // Query fast path and DP fallback on the served index.
    let (index, source) = (&layer.query_index, layer.query_source);
    for (id, name) in FIRST_HIT {
        rep.set(name, layers::first_hit_s(index, id) * 1e6, 201, source);
    }
    rep.set(
        "query.neg_scan_ms",
        layers::neg_scan_s(index) * 1e3,
        5,
        source,
    );
    rep.set("dp.batch_ms", layers::dp_batch_s(index) * 1e3, 33, source);

    // Flow, from the run's s–t records.
    let near: Vec<f64> = layer
        .pairs
        .iter()
        .filter(|p| p.op.near)
        .map(|p| p.secs)
        .collect();
    let far: Vec<f64> = layer
        .pairs
        .iter()
        .filter(|p| !p.op.near)
        .map(|p| p.secs)
        .collect();
    rep.set(
        "flow.near_ms",
        med(&near) * 1e3,
        near.len(),
        layer.pair_source,
    );
    rep.set("flow.far_ms", med(&far) * 1e3, far.len(), layer.pair_source);

    // Separating searches on the first fixed whole-graph case.
    let case = &cfg.scale.vc_cases[0];
    let case_embedding = psi_planar::planar_embedding(&case.graph).expect("fixed cases are planar");
    let (times, stats) = layers::separating(&case_embedding);
    rep.set("sep.c4_ms", times[0] * 1e3, 1, FIXED);
    rep.set("sep.c6_ms", times[1] * 1e3, 1, FIXED);
    rep.set("sep.c8_ms", times[2] * 1e3, 1, FIXED);
    rep.set("sep.states", stats.sep_states as f64, 0, FIXED);
    rep.set("sep.arena_bytes", stats.arena.bytes as f64, 0, FIXED);
}
