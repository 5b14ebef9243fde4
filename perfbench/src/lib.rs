//! Seeded end-to-end and per-layer benchmark of the planar subgraph-isomorphism
//! engine. Three workloads (`motif_serve`, `connectivity`, `churn`) drive the engine
//! through its public functions, check every answer, and report the metrics that
//! `BENCHMARK.json` declares. Run through `perfbench/run.py`.

pub mod families;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod stats;
pub mod workloads;

#[cfg(test)]
mod tests;
