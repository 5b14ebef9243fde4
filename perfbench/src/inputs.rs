//! Seeded inputs. Everything a workload feeds the engine is generated here, before
//! any clock starts: edge-list texts, pattern streams, pair streams and mutation
//! streams. The same seed gives the same inputs.

use crate::rng::Rng;
use planar_subiso::{ConnectivityMode, Pattern};
use psi_graph::{generators, CsrGraph, Vertex};

/// The three workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MotifServe,
    Connectivity,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MotifServe,
        Workload::Connectivity,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MotifServe => "motif_serve",
            Workload::Connectivity => "connectivity",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Pattern ids used by the query streams.
pub const C3: u8 = 0;
pub const C4: u8 = 1;
pub const STAR: u8 = 2;
pub const PAW: u8 = 3;
pub const DIAMOND: u8 = 4;
pub const K4: u8 = 5;
pub const P3: u8 = 6;

/// The admissible positive patterns of the motif mix (all occur in a triangulated grid).
pub const POSITIVES: [u8; 5] = [C3, C4, STAR, PAW, DIAMOND];
/// Triangle-free patterns that always occur in a grid, whatever diagonals it has.
pub const TRIANGLE_FREE: [u8; 3] = [C4, STAR, P3];

pub fn pattern(id: u8) -> Pattern {
    match id {
        C3 => Pattern::triangle(),
        C4 => Pattern::cycle(4),
        STAR => Pattern::star(4),
        PAW => Pattern::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]),
        DIAMOND => Pattern::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        K4 => Pattern::clique(4),
        P3 => Pattern::path(3),
        _ => panic!("unknown pattern id {id}"),
    }
}

/// Sizes of one benchmark scale. `full` is what the benchmark runs; `tiny` keeps
/// the same structure at sizes the benchmark's own tests can afford.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Side of the motif target (a triangulated grid).
    pub motif_side: usize,
    /// Vertices of the connectivity target (a random stacked triangulation).
    pub conn_n: usize,
    /// Side of the churn target (a plain grid).
    pub churn_side: usize,
    /// Side of the triangulated grid behind the side query family.
    pub side_tri_side: usize,
    /// Vertices of the stacked triangulation behind the side pair family.
    pub side_stacked_n: usize,
    /// Side of the plain grid behind the side mutation family.
    pub side_grid_side: usize,
    /// Set-ups per run of the motif and churn workloads; `setup_s` is their
    /// median. See [`Scale::setups_of`].
    pub setups: usize,
    /// Artifact loads per run; `load_s` is their median. The churn workload
    /// times loading its checkpoints instead.
    pub loads: usize,
    /// Minimum seconds each side family measures for, so that its percentiles
    /// average over the host's speed fluctuations and not one short window.
    pub side_seconds: f64,
    /// Passes over the whole-graph set; `vc_total_s` sums the per-case medians.
    pub vc_passes: usize,
    /// Mutations per flush + snapshot publication. A flush costs nearly the same
    /// whatever the group's size, so larger groups give the mutation p99 more
    /// samples per second of flushing and fewer of them sit right after a flush.
    /// The side grid's stream must hold the 20 groups the publish p50 needs.
    pub group: usize,
    /// Groups between `freeze().to_bytes()` checkpoints.
    pub checkpoint_every: usize,
    /// s–t answers cross-checked against max-flow per run.
    pub flow_checks: usize,
    /// Whole-graph connectivity cases (graph, mode, known connectivity).
    pub vc_cases: Vec<VcCase>,
}

#[derive(Clone, Debug)]
pub struct VcCase {
    pub name: &'static str,
    pub graph: CsrGraph,
    pub mode: ConnectivityMode,
    pub expected: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            motif_side: 128,
            conn_n: 65_536,
            churn_side: 256,
            side_tri_side: 32,
            side_stacked_n: 4096,
            side_grid_side: 128,
            setups: 3,
            loads: 25,
            side_seconds: 3.0,
            vc_passes: 2,
            group: 768,
            checkpoint_every: 5,
            flow_checks: 12,
            vc_cases: vec![
                VcCase {
                    name: "icosahedron",
                    graph: psi_planar::generators::icosahedron().graph,
                    mode: ConnectivityMode::WholeGraph,
                    expected: 5,
                },
                VcCase {
                    name: "octahedron",
                    graph: psi_planar::generators::octahedron().graph,
                    mode: ConnectivityMode::WholeGraph,
                    expected: 4,
                },
                VcCase {
                    name: "stacked256",
                    graph: generators::random_stacked_triangulation(256, 0x5AC4),
                    mode: ConnectivityMode::Cover { repetitions: 1 },
                    expected: 3,
                },
            ],
        }
    }

    /// Set-ups per run of `workload`. The connectivity set-up (parse and embed)
    /// takes a quarter of the others' time, so it is repeated three times as
    /// often and its median averages over about as long a stretch of the run.
    pub fn setups_of(&self, workload: Workload) -> usize {
        match workload {
            Workload::Connectivity => 3 * self.setups,
            Workload::MotifServe | Workload::Churn => self.setups,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            motif_side: 10,
            conn_n: 400,
            churn_side: 48,
            side_tri_side: 8,
            side_stacked_n: 200,
            side_grid_side: 48,
            setups: 2,
            loads: 2,
            side_seconds: 0.0,
            vc_passes: 1,
            group: 16,
            checkpoint_every: 4,
            flow_checks: 4,
            vc_cases: vec![
                VcCase {
                    name: "wheel8",
                    graph: generators::wheel(8),
                    mode: ConnectivityMode::WholeGraph,
                    expected: 3,
                },
                VcCase {
                    name: "stacked40",
                    graph: generators::random_stacked_triangulation(40, 0x5AC4),
                    mode: ConnectivityMode::Cover { repetitions: 1 },
                    expected: 3,
                },
            ],
        }
    }
}

/// Seed of the cover randomness in the whole-graph set: the set is fixed, so
/// every run does the same work on it whatever its own seed.
pub const VC_SEED: u64 = 0x5EED;

/// Generator seed of the connectivity target. Like the other workloads' targets
/// it is fixed and the run's seed draws only the op streams, so runs differ in
/// their operations, not in the graph every s–t cost depends on.
pub const CONN_TARGET_SEED: u64 = 0xC077;

/// One query of a client stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryOp {
    pub pattern: u8,
    /// `find_one` when set, `decide` otherwise.
    pub find: bool,
}

/// One s–t connectivity query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairOp {
    pub s: Vertex,
    pub t: Vertex,
    /// At distance 2 (answers 3–5) rather than uniformly random.
    pub near: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    Insert(Vertex, Vertex),
    Delete(Vertex, Vertex),
}

/// A target: the edge-list text the program parses, and the generator's graph the
/// oracle checks answers against.
#[derive(Clone, Debug)]
pub struct Target {
    pub text: String,
    pub graph: CsrGraph,
}

impl Target {
    fn new(graph: CsrGraph) -> Target {
        Target {
            text: psi_graph::io::write_edge_list(&graph),
            graph,
        }
    }
}

/// Query streams per client: every `neg_every`-th query is the K4 negative (a
/// fixed share, so the scan work per run does not depend on the seed), the rest
/// `decide` and `find_one` of every pattern of `positives`, in blocks that hold
/// each of them once in a seeded order. The mix is the same for every seed, so
/// the seed moves no percentile by changing the shares of fast and slow queries.
fn query_streams(
    rng: &mut Rng,
    clients: usize,
    len: usize,
    positives: &[u8],
    neg_every: usize,
) -> Vec<Vec<QueryOp>> {
    (0..clients)
        .map(|_| {
            let mut block: Vec<QueryOp> = Vec::new();
            (0..len)
                .map(|i| {
                    if neg_every > 0 && i % neg_every == neg_every - 1 {
                        return QueryOp {
                            pattern: K4,
                            find: (i / neg_every) % 2 == 1,
                        };
                    }
                    if block.is_empty() {
                        block = positives
                            .iter()
                            .flat_map(|&pattern| {
                                [false, true].map(|find| QueryOp { pattern, find })
                            })
                            .collect();
                        for j in (1..block.len()).rev() {
                            block.swap(j, rng.below(j + 1));
                        }
                    }
                    block.pop().expect("a refilled block is not empty")
                })
                .collect()
        })
        .collect()
}

/// Distinct pairs every pair stream cycles through, and their generator seed.
const PAIR_POOL: usize = 96;
const PAIR_POOL_SEED: u64 = 0x9A1B;

/// Pair streams per client: cycles through one fixed pool of [`PAIR_POOL`] pairs,
/// each cycle in a fresh order drawn from `rng`. The cost of a pair varies
/// several-fold with the degrees around it, so a run's few hundred freshly drawn
/// pairs moved the st_conn p50 by a tenth from seed to seed; with one pool every
/// run measures nearly the same pairs. Two pool pairs in three are near, one far:
/// a far pair costs about three near ones, so with half of each the p50 fell in
/// the gap between the two; with two thirds near it lies among the near pairs and
/// the p90 among the far ones. Pairs are never adjacent, so every answer is a
/// vertex-cut size.
fn pair_streams(rng: &mut Rng, g: &CsrGraph, clients: usize, len: usize) -> Vec<Vec<PairOp>> {
    let n = g.num_vertices();
    let mut pool_rng = Rng::new(PAIR_POOL_SEED);
    let pool: Vec<PairOp> = (0..PAIR_POOL)
        .map(|i| {
            let rng = &mut pool_rng;
            let near = i % 3 != 2;
            loop {
                let s = rng.below(n) as Vertex;
                let t = if near {
                    let ns = g.neighbors(s);
                    let mid = ns[rng.below(ns.len())];
                    let nm = g.neighbors(mid);
                    nm[rng.below(nm.len())]
                } else {
                    rng.below(n) as Vertex
                };
                if t != s && !g.has_edge(s, t) {
                    return PairOp { s, t, near };
                }
            }
        })
        .collect();
    (0..clients)
        .map(|_| {
            let mut stream = Vec::with_capacity(len);
            while stream.len() < len {
                let mut cycle = pool.clone();
                for j in (1..cycle.len()).rev() {
                    cycle.swap(j, rng.below(j + 1));
                }
                stream.extend(cycle);
            }
            stream.truncate(len);
            stream
        })
        .collect()
}

/// Diagonal inserts and deletes on a `side × side` plain grid, in fixed blocks of
/// four: two diagonals inserted into fresh cells anywhere on the grid (new cluster
/// content: decomposition-cache misses), then one of the 32 most recently inserted
/// diagonals deleted and inserted again (restoring earlier content: cache hits).
/// The shares of inserts, deletes and restores are the same for every seed. Every
/// op is valid: inserts are co-facial, deletes remove a present diagonal.
fn mutation_stream(rng: &mut Rng, side: usize, len: usize) -> Vec<Mutation> {
    let cells = (side - 1) * (side - 1);
    let diagonal = |cell: usize, orient: u8| -> (Vertex, Vertex) {
        let (r, c) = (cell / (side - 1), cell % (side - 1));
        let v = (r * side + c) as Vertex;
        if orient == 0 {
            (v, v + side as Vertex + 1)
        } else {
            (v + 1, v + side as Vertex)
        }
    };
    // Per cell: its diagonal's orientation, if it has one.
    let mut current: Vec<Option<u8>> = vec![None; cells];
    let mut recent: Vec<usize> = Vec::new();
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        match ops.len() % 4 {
            0 | 1 => {
                // The first free cell from a random start (callers keep `len` at
                // most the cell count, so at most half the cells ever fill).
                let start = rng.below(cells);
                let cell = (0..cells)
                    .map(|i| (start + i) % cells)
                    .find(|&c| current[c].is_none())
                    .expect("grid has a free cell");
                let orient = rng.below(2) as u8;
                current[cell] = Some(orient);
                let (u, v) = diagonal(cell, orient);
                ops.push(Mutation::Insert(u, v));
                if recent.len() == 32 {
                    recent.remove(0);
                }
                recent.push(cell);
            }
            2 => {
                let cell = recent[rng.below(recent.len())];
                let (u, v) = diagonal(cell, current[cell].expect("recent cells hold a diagonal"));
                ops.push(Mutation::Delete(u, v));
                ops.push(Mutation::Insert(u, v));
            }
            _ => unreachable!("restores are pushed with their delete"),
        }
    }
    ops.truncate(len);
    ops
}

/// Every input of one run.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The workload's own target, as parsed during set-up.
    pub main: Target,
    /// Query streams of the serving clients (over the motif target, or over
    /// the side triangulated grid when the workload's focus is elsewhere).
    pub queries: Vec<Vec<QueryOp>>,
    /// Pair streams of the connectivity clients.
    pub pairs: Vec<Vec<PairOp>>,
    /// The writer's mutation stream.
    pub mutations: Vec<Mutation>,
    /// The churn reader's triangle-free query stream.
    pub reader: Vec<QueryOp>,
    /// Indices (into `pairs[0]`) of the answers cross-checked against max-flow.
    pub flow_checks: Vec<usize>,
    /// Side targets for the families outside the workload's focus.
    pub side_tri: Target,
    pub side_stacked: Target,
    pub side_grid: Target,
}

/// Clients per serving family. One: with a second busy client on a two-thread
/// host the clients measure each other and the host's scheduler, and their
/// latencies spread far more from run to run.
pub const CLIENTS: usize = 1;

/// Every `NEG_EVERY`-th query of a motif stream is the exhaustive K4 negative.
/// A scan takes the time of 10^4 to 10^5 first-hit queries, so the negatives still take
/// nearly all of a client's time, while the rare positive query that follows a
/// scan on a cold cache stays out of the positive p99.
pub const NEG_EVERY: usize = 1024;

impl Inputs {
    pub fn generate(workload: Workload, scale: &Scale, seed: u64) -> Inputs {
        let side_tri = Target::new(generators::triangulated_grid(
            scale.side_tri_side,
            scale.side_tri_side,
        ));
        let side_stacked = Target::new(generators::random_stacked_triangulation(
            scale.side_stacked_n,
            0x51DE,
        ));
        let side_grid = Target::new(generators::grid(scale.side_grid_side, scale.side_grid_side));
        let main = match workload {
            Workload::MotifServe => Target::new(generators::triangulated_grid(
                scale.motif_side,
                scale.motif_side,
            )),
            Workload::Connectivity => Target::new(generators::random_stacked_triangulation(
                scale.conn_n,
                CONN_TARGET_SEED,
            )),
            Workload::Churn => Target::new(generators::grid(scale.churn_side, scale.churn_side)),
        };
        let pair_graph = match workload {
            Workload::Connectivity => &main.graph,
            _ => &side_stacked.graph,
        };
        let grid_side = match workload {
            Workload::Churn => scale.churn_side,
            _ => scale.side_grid_side,
        };
        let pairs = pair_streams(&mut Rng::derive(seed, 3), pair_graph, CLIENTS, 4096);
        let mut check_rng = Rng::derive(seed, 6);
        let flow_checks = (0..scale.flow_checks)
            .map(|_| check_rng.below(pairs[0].len().min(64)))
            .collect();
        Inputs {
            queries: query_streams(
                &mut Rng::derive(seed, 2),
                CLIENTS,
                1 << 14,
                &POSITIVES,
                NEG_EVERY,
            ),
            pairs,
            // One op per cell keeps at most half the cells filled.
            mutations: mutation_stream(
                &mut Rng::derive(seed, 4),
                grid_side,
                (grid_side - 1).pow(2),
            ),
            reader: query_streams(&mut Rng::derive(seed, 5), 1, 1 << 12, &TRIANGLE_FREE, 0)
                .remove(0),
            flow_checks,
            main,
            side_tri,
            side_stacked,
            side_grid,
        }
    }

    /// A digest of every op stream and text, for the determinism check.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for t in [
            &self.main,
            &self.side_tri,
            &self.side_stacked,
            &self.side_grid,
        ] {
            text.push_str(&t.text);
        }
        text.push_str(&format!(
            "{:?}{:?}{:?}{:?}{:?}",
            self.queries, self.pairs, self.mutations, self.reader, self.flow_checks
        ));
        psi_graph::io::fnv1a64(text.as_bytes())
    }
}
