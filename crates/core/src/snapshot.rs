//! Epoch snapshots: lock-free concurrent serving over the dynamic index.
//!
//! A [`crate::dynamic::DynamicPsiIndex`] is single-writer state: a reader of the
//! live engine must wait out any in-progress [`flush`](crate::dynamic::DynamicPsiIndex::flush)
//! (seconds for a large mutation backlog at n = 10⁶). This module decouples the
//! two sides with the snapshot-isolation shape production index servers (RCU,
//! epoch-based graph serving) use:
//!
//! * every servable product — the target CSR, the facial walks, the per-round
//!   batch maps — is held behind an `Arc`, so
//!   [`DynamicPsiIndex::snapshot`](crate::dynamic::DynamicPsiIndex::snapshot)
//!   hands out a [`PsiSnapshot`] with no batch copies: `O(rounds)`
//!   reference-count bumps for an unchanged engine, plus one `O(n + m)` CSR
//!   rebuild and face compaction for the first snapshot after a mutation;
//! * the writer never mutates published data: a flush rebuilds the dirty
//!   clusters' batches *off to the side* (copy-on-write round maps) and
//!   publishes each replacement map with a single `Arc` swap, advancing the
//!   engine's epoch;
//! * a retired epoch's batches are freed when the last snapshot holding them
//!   drops — no reclamation protocol beyond `Arc` itself.
//!
//! Consistency is enforced by ownership, not synchronisation: taking a snapshot
//! needs `&mut` on the engine, so it serialises with mutations on the writer
//! thread, and the `Arc` bundle it captures is frozen thereafter. A snapshot can
//! therefore never observe a partially published round set, and its answers are
//! bit-identical to a from-scratch [`PsiIndex::build`] of the target as of its
//! epoch — the invariant [`PsiSnapshot::to_frozen`] exposes and the snapshot
//! serving suite pins under `PSI_THREADS = {1, 4}`.

use crate::connectivity::{ConnectivityMode, ConnectivityResult};
use crate::index::{IndexParams, IndexedBatch, PsiIndex, QueryError};
use crate::isomorphism::DpStrategy;
use crate::pattern::Pattern;
use crate::serve::{self, Instruments, ServeState};
use psi_graph::{CsrGraph, Vertex};
use psi_obs::trace::SpanGuard;
use psi_planar::{face_vertex_graph, planar_embedding, Embedding, FaceVertexGraph};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One stored round, keyed by cluster centre. Values are `Arc`-shared so a
/// copy-on-write rebuild of the map re-uses every untouched cluster's batches.
pub(crate) type RoundMap = BTreeMap<Vertex, Arc<Vec<IndexedBatch>>>;

/// The immutable state of one published epoch: everything a query needs, frozen.
/// Shared between the engine's publication cache and every outstanding
/// [`PsiSnapshot`] through one `Arc`.
pub(crate) struct EpochState {
    pub(crate) epoch: u64,
    pub(crate) params: IndexParams,
    pub(crate) strategy: DpStrategy,
    pub(crate) target: Arc<CsrGraph>,
    /// Facial walks of the maintained embedding as of this epoch (valid, not
    /// necessarily canonical — exactly what the live engine serves from).
    pub(crate) faces: Arc<Vec<Vec<Vertex>>>,
    /// Face–vertex graph, derived lazily on the first connectivity query of the
    /// epoch and shared with the engine's own cache when already warm.
    pub(crate) fv: OnceLock<Arc<FaceVertexGraph>>,
    pub(crate) rounds: Vec<Arc<RoundMap>>,
}

/// The writer-side epoch bookkeeping: a monotone epoch counter plus the cached
/// publication of the current epoch (so repeated snapshots of an unchanged
/// engine are pure `Arc` bumps).
pub(crate) struct EpochManager {
    epoch: u64,
    published: Option<Arc<EpochState>>,
}

impl EpochManager {
    pub(crate) fn new() -> EpochManager {
        EpochManager {
            epoch: 0,
            published: None,
        }
    }

    /// The current epoch number.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// An accepted mutation: the graph changed, so the old publication is stale
    /// and the next snapshot belongs to a new epoch.
    pub(crate) fn advance(&mut self) {
        self.epoch += 1;
        self.published = None;
    }

    /// A configuration change (e.g. DP strategy) that does not move the graph:
    /// drop the publication without consuming an epoch number.
    pub(crate) fn invalidate(&mut self) {
        self.published = None;
    }

    /// The current epoch's cached publication, if any.
    pub(crate) fn published(&self) -> Option<Arc<EpochState>> {
        self.published.clone()
    }

    /// Cache and share a freshly built publication of the current epoch.
    pub(crate) fn store(&mut self, state: EpochState) -> Arc<EpochState> {
        debug_assert_eq!(state.epoch, self.epoch);
        let state = Arc::new(state);
        self.published = Some(state.clone());
        state
    }
}

/// A pinned, immutable view of the engine as of one epoch.
///
/// Cloning is one `Arc` bump; the snapshot is `Send + Sync`, so any number of
/// reader threads can query it while the writer that produced it keeps
/// mutating and flushing. Answers — verdicts, witnesses, and connectivity
/// values alike — are bit-identical to a frozen [`PsiIndex::build`] of the
/// target at the snapshot's epoch, for every `PSI_THREADS`.
#[derive(Clone)]
pub struct PsiSnapshot {
    state: Arc<EpochState>,
}

#[allow(dead_code)]
fn assert_auto_traits() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<PsiSnapshot>();
}

impl std::fmt::Debug for PsiSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsiSnapshot")
            .field("epoch", &self.state.epoch)
            .field("n", &self.state.target.num_vertices())
            .field("m", &self.state.target.num_edges())
            .field("rounds", &self.state.rounds.len())
            .finish()
    }
}

impl PsiSnapshot {
    pub(crate) fn new(state: Arc<EpochState>) -> PsiSnapshot {
        PsiSnapshot { state }
    }

    /// The epoch this snapshot pins. Strictly increases across accepted
    /// mutations; snapshots of an unchanged engine share the same epoch (and
    /// the same underlying state).
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The build parameters of the underlying index.
    pub fn params(&self) -> IndexParams {
        self.state.params
    }

    /// Number of target vertices as of this epoch.
    pub fn num_vertices(&self) -> usize {
        self.state.target.num_vertices()
    }

    /// Number of target edges as of this epoch.
    pub fn num_edges(&self) -> usize {
        self.state.target.num_edges()
    }

    /// The pinned target graph.
    pub fn target(&self) -> &CsrGraph {
        &self.state.target
    }

    /// Decides whether `pattern` occurs in the pinned target; same contract as
    /// [`crate::IndexedEngine::decide`].
    pub fn decide(&self, pattern: &Pattern) -> Result<bool, QueryError> {
        serve::decide(&*self.state, pattern)
    }

    /// Finds one occurrence in the pinned target (deterministic stored-order
    /// witness, identical to the frozen engine's).
    pub fn find_one(&self, pattern: &Pattern) -> Result<Option<Vec<Vertex>>, QueryError> {
        serve::find_one(&*self.state, pattern)
    }

    /// [`PsiSnapshot::decide`] over many patterns on the work-stealing pool,
    /// answers in input order.
    pub fn decide_batch(&self, patterns: &[Pattern]) -> Vec<Result<bool, QueryError>> {
        serve::decide_batch(&*self.state, patterns)
    }

    /// [`PsiSnapshot::find_one`] over many patterns (input order, deterministic
    /// witnesses).
    pub fn find_one_batch(
        &self,
        patterns: &[Pattern],
    ) -> Vec<Result<Option<Vec<Vertex>>, QueryError>> {
        serve::find_one_batch(&*self.state, patterns)
    }

    /// Capped pairwise s–t vertex connectivity against the pinned target, in
    /// input order (the planar cap of [`crate::CONNECTIVITY_CAP`] applies).
    pub fn connectivity_batch(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Result<usize, QueryError>> {
        serve::connectivity_batch(&*self.state, pairs)
    }

    /// Global vertex connectivity of the pinned target (Lemma 5.1). The
    /// face–vertex graph is derived once per epoch, on the first call, and
    /// shared across snapshot clones.
    pub fn vertex_connectivity(&self, mode: ConnectivityMode, seed: u64) -> ConnectivityResult {
        serve::vertex_connectivity(&*self.state, mode, seed)
    }

    /// Materialises the pinned epoch as a frozen [`PsiIndex`] — bit-identical
    /// (struct and byte stream) to [`PsiIndex::build`] of the target at this
    /// epoch. `O(index size)`; meant for tests and persistence of a pinned
    /// epoch, not the serving path.
    pub fn to_frozen(&self) -> PsiIndex {
        let embedding = planar_embedding(&self.state.target)
            .expect("the dynamic index maintains a planar target");
        let rounds: Vec<Vec<IndexedBatch>> = self
            .state
            .rounds
            .iter()
            .map(|round| {
                round
                    .values()
                    .flat_map(|batches| batches.iter())
                    .cloned()
                    .collect()
            })
            .collect();
        PsiIndex::from_parts(self.state.params, &embedding, rounds)
    }
}

impl ServeState for EpochState {
    const INSTRUMENTS: Instruments = serve::SNAPSHOT;

    fn params(&self) -> &IndexParams {
        &self.params
    }

    fn strategy(&self) -> DpStrategy {
        self.strategy
    }

    fn num_vertices(&self) -> usize {
        self.target.num_vertices()
    }

    fn target(&self) -> &CsrGraph {
        &self.target
    }

    fn batches(&self) -> impl Iterator<Item = &IndexedBatch> {
        self.rounds
            .iter()
            .flat_map(|round| round.values())
            .flat_map(|batches| batches.iter())
    }

    fn face_vertex_graph(&self) -> Cow<'_, FaceVertexGraph> {
        Cow::Borrowed(self.fv.get_or_init(|| {
            Arc::new(face_vertex_graph(&Embedding::new(
                (*self.target).clone(),
                (*self.faces).clone(),
            )))
        }))
    }

    fn tag_span(&self, span: &mut SpanGuard) {
        span.field("epoch", self.epoch);
    }
}
