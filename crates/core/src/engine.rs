//! The staged, artifact-caching selection engine.
//!
//! Grain's pipeline is model-free precompute: for a fixed graph and
//! feature matrix, every §3 artifact is a pure function of a few config
//! fields —
//!
//! | artifact | depends on |
//! |---|---|
//! | transition matrix `T` | `kernel.transition_kind()` |
//! | propagated features `X^(k)` | `kernel` |
//! | normalized embedding | `kernel` |
//! | influence rows `I_v(·, k)` | `kernel`, `influence_eps` |
//! | activation index `act[u]` | rows + `theta` |
//! | ball membership lists | embedding + `radius`; across epoch flips, repaired for the re-propagated embedding rows only |
//! | NN `d_max` constant | embedding |
//! | greedy trace | `gamma`, `diversity`, `algorithm`, `prune`, variant + the post-prune candidate pool (and every artifact above) |
//!
//! — and only the greedy maximization varies with `budget` and the
//! ablation variant. [`SelectionEngine`] materializes each artifact once,
//! keyed by exactly the fields above, and reuses it across `select` calls:
//! a budget sweep, a γ/θ sensitivity scan, or a serving loop answering
//! many selection requests over one corpus pays the heavy stages once.
//!
//! The greedy stage itself never reads the budget inside a round, so the
//! budget-`b` answer is the first `b` rounds of any longer run. The engine
//! keeps one budget-free **greedy trace** — the picks, `F(S)`, `D(S)` and
//! cumulative evaluations after every round, plus the round in which each
//! node of `σ` was first activated — and answers every budget the trace
//! covers by slicing it, bit-identically to a fresh run. A larger budget,
//! another candidate pool, or another greedy-stage field runs greedy again
//! and replaces the trace; any artifact change drops it.
//!
//! The artifact hot paths (propagation SpMM rounds, influence rows, the
//! activation-index inversion, ball lists, NN `d_max`) run over
//! [`GrainConfig::parallelism`] worker threads with row-range
//! partitioning and fixed-order reductions, so every artifact is
//! **bit-identical at any thread count** — which is why `parallelism` is
//! not part of any cache key or of the artifact fingerprint.

use crate::cancel::{CancelCause, CancelToken, OnDeadline};
use crate::config::{DiversityKind, GrainConfig, GrainVariant, GreedyAlgorithm, PruneStrategy};
use crate::diversity::{BallDiversity, DiversityFunction, NnDiversity, NullDiversity};
use crate::error::{DeadlineStage, GrainError, GrainResult};
use crate::fault;
use crate::greedy::{lazy_greedy, plain_greedy};
use crate::objective::{DimObjective, DiversityScope, MarginalObjective};
use crate::prune::prune_candidates;
use crate::selector::{Completion, SelectionOutcome, SelectionTimings};
use grain_graph::{transition_matrix, transition_rows, CsrMatrix, Graph, TransitionKind};
use grain_influence::walk::kernel_power_weights;
use grain_influence::{ActivationIndex, InfluenceRows, ThetaRule};
use grain_linalg::{distance, DenseMatrix};
use grain_prop::cache::PropagationCache;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Panic message for stage builds driven by a token nothing can trip.
const UNTRIPPED: &str = "a build under an untripped token cannot be cancelled";

/// Exact-`d_max` cutoff for NN diversity; beyond this row count the constant
/// is estimated by anchor sampling (see `grain-linalg::distance`).
pub(crate) const NN_DMAX_EXACT_LIMIT: usize = 2048;

/// Wall-clock breakdown of one `SelectionEngine::patched` migration —
/// what each artifact's incremental repair cost, surfaced per engine in
/// [`crate::streaming::EpochReport`] so operators can see which stage a
/// slow epoch flip spent its time in.
#[derive(Clone, Copy, Debug, Default)]
pub struct PatchTimings {
    /// Transition matrix rebuild (wholesale, cold code path).
    pub transition: Duration,
    /// Dirty-row re-propagation of `X^(k)`.
    pub propagation: Duration,
    /// Embedding clone + dirty-row re-normalization.
    pub embedding: Duration,
    /// Influence-row re-walk + CSR splice.
    pub influence: Duration,
    /// Activation-index masked merge.
    pub index: Duration,
}

/// How often each artifact class has been (re)built — the cache audit
/// trail. A warm budget sweep must increment nothing after its first call;
/// a config change must increment exactly the artifacts it invalidates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transition matrices `T` materialized.
    pub transition_builds: usize,
    /// Propagations `X^(k)` computed (per distinct kernel).
    pub propagation_builds: usize,
    /// L2-normalized embeddings derived from `X^(k)`.
    pub embedding_builds: usize,
    /// Influence-row computations.
    pub influence_builds: usize,
    /// Activation-index inversions.
    pub index_builds: usize,
    /// Full diversity precomputations (all-pairs ball lists or NN
    /// `d_max`).
    pub diversity_builds: usize,
    /// Ball lists repaired after an epoch flip
    /// ([`crate::service::GrainService::apply_update`]): only the pairs of
    /// the embedding rows the flips rewrote were re-measured. Counts no
    /// `diversity_builds`.
    pub ball_repairs: usize,
    /// `select` calls answered.
    pub selections: usize,
    /// Real greedy executions. Answers sliced from the cached greedy
    /// trace do not count, so a warm budget sweep adds exactly one. Not an
    /// artifact build: [`EngineStats::total_builds`] leaves it out.
    pub greedy_runs: usize,
}

impl EngineStats {
    /// The counter increments accumulated since `earlier` — the
    /// cache-miss breakdown of one request window. All-zero build counters
    /// mean the window was served entirely from warm artifacts.
    #[must_use]
    pub fn delta_since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            transition_builds: self.transition_builds - earlier.transition_builds,
            propagation_builds: self.propagation_builds - earlier.propagation_builds,
            embedding_builds: self.embedding_builds - earlier.embedding_builds,
            influence_builds: self.influence_builds - earlier.influence_builds,
            index_builds: self.index_builds - earlier.index_builds,
            diversity_builds: self.diversity_builds - earlier.diversity_builds,
            ball_repairs: self.ball_repairs - earlier.ball_repairs,
            selections: self.selections - earlier.selections,
            greedy_runs: self.greedy_runs - earlier.greedy_runs,
        }
    }

    /// Total artifact (re)builds in this window — zero for a fully warm
    /// request.
    #[must_use]
    pub fn total_builds(&self) -> usize {
        self.transition_builds
            + self.propagation_builds
            + self.embedding_builds
            + self.influence_builds
            + self.index_builds
            + self.diversity_builds
            + self.ball_repairs
    }
}

/// Cache key for artifacts derived from the propagation kernel. `f32`
/// parameters are compared by bit pattern via [`grain_prop::Kernel::cache_key`].
type KernelKey = String;

/// Exact resident heap bytes of each cached artifact class — the memory
/// ledger behind [`SelectionEngine::artifact_bytes`]. All counts are
/// *current* residency: an artifact not (yet) built counts zero. The flat
/// CSR influence layout makes its count exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArtifactBytes {
    /// Transition matrix `T` (CSR offsets + columns + values).
    pub transition: usize,
    /// Propagated features `X^(k)` for the active kernel (dense f32).
    pub propagation: usize,
    /// L2-normalized embedding (dense f32).
    pub embedding: usize,
    /// Influence rows in the flat CSR layout (exact).
    pub influence_rows: usize,
    /// Activation index (flat CSR offsets + items).
    pub activation_index: usize,
    /// Ball membership lists (per-ball `Vec` headers + entries) plus the
    /// rows pending repair.
    pub balls: usize,
    /// The cached greedy trace: its candidate-pool key plus every
    /// per-round and per-`σ`-node record. Grows with the trace's length;
    /// zero once the trace is invalidated.
    pub greedy_trace: usize,
}

impl ArtifactBytes {
    /// Total resident bytes across all artifact classes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.transition
            + self.propagation
            + self.embedding
            + self.influence_rows
            + self.activation_index
            + self.balls
            + self.greedy_trace
    }
}

/// Ball membership lists keyed by (kernel, radius bits), shared with the
/// per-selection `BallDiversity` instances without copying; the union
/// coverage bound rides along so warm selects touch no list.
struct BallLists {
    key: (KernelKey, u32),
    lists: Arc<Vec<Vec<u32>>>,
    bound: usize,
    /// Sorted embedding rows rewritten since `lists` was built — the
    /// union of every epoch flip's `X^(k)` dirty rows (see
    /// [`SelectionEngine::patched`]); every other row kept its bits.
    /// Non-empty lists are stale; the next `ensure_balls` repairs exactly
    /// these rows' pairs.
    pending: Vec<u32>,
}

/// The greedy-stage inputs a cached trace answers for: every config field
/// that steers the maximization without touching an artifact, the
/// effective variant, and the exact post-prune candidate pool (compared
/// element by element). Artifact fields are not part of the key — an
/// artifact change drops the trace instead.
#[derive(PartialEq)]
struct TraceKey {
    gamma: u64,
    diversity: DiversityKind,
    algorithm: GreedyAlgorithm,
    prune: Option<PruneStrategy>,
    variant: GrainVariant,
    pool: Vec<u32>,
}

impl TraceKey {
    fn new(config: &GrainConfig, variant: GrainVariant, pool: Vec<u32>) -> Self {
        Self {
            gamma: config.gamma.to_bits(),
            diversity: config.diversity,
            algorithm: config.algorithm,
            prune: config.prune,
            variant,
            pool,
        }
    }
}

/// One budget-free greedy run under the engine's current artifacts,
/// recorded so that every budget it covers is answered by slicing. Each
/// slice is bit-identical to a fresh run at that budget in every
/// [`SelectionOutcome`] field except the timings.
///
/// A run cancelled mid-greedy may be kept too: its picks are an exact
/// prefix of the uncancelled run (see [`crate::greedy::GreedyTrace`]), so
/// it answers every budget up to its length.
struct PrefixTrace {
    key: TraceKey,
    /// Picks in order.
    selected: Vec<u32>,
    /// `F(S)` after each pick.
    objective_trace: Vec<f64>,
    /// `D(S)` after 0, 1, …, `selected.len()` picks.
    diversity: Vec<f64>,
    /// Cumulative evaluations after 0, 1, …, `selected.len()` picks.
    evaluations: Vec<usize>,
    /// `σ` of the whole trace, sorted.
    sigma: Vec<u32>,
    /// The 0-based pick that first activated each node of `sigma`, so
    /// `σ(S_b)` is the nodes whose round is below `b`.
    sigma_round: Vec<u32>,
    /// The run stopped because candidates ran out: every larger budget
    /// has the same answer.
    exhausted: bool,
}

impl PrefixTrace {
    fn answers(&self, budget: usize) -> bool {
        budget <= self.selected.len() || self.exhausted
    }

    /// The outcome of a fresh run at `budget` (timings left zero).
    fn slice(&self, budget: usize) -> SelectionOutcome {
        let b = budget.min(self.selected.len());
        SelectionOutcome {
            selected: self.selected[..b].to_vec(),
            objective_trace: self.objective_trace[..b].to_vec(),
            sigma: self
                .sigma
                .iter()
                .zip(&self.sigma_round)
                .filter(|&(_, &round)| (round as usize) < b)
                .map(|(&v, _)| v)
                .collect(),
            diversity_value: self.diversity[b],
            evaluations: self.evaluations[b],
            candidates_after_prune: self.key.pool.len(),
            timings: SelectionTimings::default(),
            completion: Completion::Complete,
        }
    }

    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.key.pool.len() + self.selected.len() + self.sigma.len() + self.sigma_round.len())
            * size_of::<u32>()
            + (self.objective_trace.len() + self.diversity.len()) * size_of::<f64>()
            + self.evaluations.len() * size_of::<usize>()
    }
}

/// The DIM objective with `D(S)` recorded after every pick — the one
/// per-round quantity greedy does not report itself.
struct RecordDiversity<O> {
    objective: O,
    after_pick: Vec<f64>,
}

impl<D: DiversityFunction> MarginalObjective for RecordDiversity<DimObjective<'_, D>> {
    fn marginal_gain(&mut self, candidate: u32) -> f64 {
        self.objective.marginal_gain(candidate)
    }

    fn add(&mut self, candidate: u32) {
        self.objective.add(candidate);
        self.after_pick.push(self.objective.diversity_value());
    }

    fn value(&self) -> f64 {
        self.objective.value()
    }
}

/// Bit equality of two outcomes in every field but the timings.
fn same_answer(a: &SelectionOutcome, b: &SelectionOutcome) -> bool {
    let bits = |trace: &[f64]| trace.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.selected == b.selected
        && bits(&a.objective_trace) == bits(&b.objective_trace)
        && a.sigma == b.sigma
        && a.diversity_value.to_bits() == b.diversity_value.to_bits()
        && a.evaluations == b.evaluations
        && a.candidates_after_prune == b.candidates_after_prune
        && a.completion == b.completion
}

/// For each node of the sorted `sigma`, the 0-based pick that first
/// activated it: a post-pass over `act[s]` of the picks.
fn first_activation_rounds(index: &ActivationIndex, picks: &[u32], sigma: &[u32]) -> Vec<u32> {
    let mut rounds = vec![u32::MAX; sigma.len()];
    for (round, &seed) in picks.iter().enumerate() {
        for v in index.activated_by(seed as usize) {
            let pos = sigma
                .binary_search(v)
                .expect("σ(S) holds every node its seeds activate");
            if rounds[pos] == u32::MAX {
                rounds[pos] = round as u32;
            }
        }
    }
    rounds
}

/// Staged Grain pipeline with per-artifact caching over one (graph,
/// features) pair.
///
/// Build it once per corpus, then call [`SelectionEngine::select`] per
/// request; use [`SelectionEngine::set_config`] between calls to move
/// through config space while keeping every artifact the new config does
/// not invalidate.
///
/// The engine owns its corpus through [`Arc`] handles, so it can live in a
/// long-lived pool (see [`crate::service::EnginePool`]) and share the
/// underlying graph/features with other engines and with baseline
/// selectors at zero copy cost.
pub struct SelectionEngine {
    config: GrainConfig,
    graph: Arc<Graph>,
    features: Arc<DenseMatrix>,
    propagation: PropagationCache,
    transition: Option<(TransitionKind, CsrMatrix)>,
    embedding: Option<(KernelKey, Arc<DenseMatrix>)>,
    rows: Option<((KernelKey, u32, usize), InfluenceRows)>,
    index: Option<((KernelKey, u32, usize, ThetaRule), ActivationIndex)>,
    balls: Option<BallLists>,
    nn_dmax: Option<(KernelKey, f32)>,
    trace: Option<PrefixTrace>,
    stats: EngineStats,
}

impl SelectionEngine {
    /// An engine over borrowed `graph`/`features` with a validated
    /// configuration. The corpus is cloned into shared handles; callers
    /// that already hold `Arc`s (or can give up ownership) should use
    /// [`SelectionEngine::over`] instead, which copies nothing.
    pub fn new(config: GrainConfig, graph: &Graph, features: &DenseMatrix) -> GrainResult<Self> {
        Self::over(config, graph.clone(), features.clone())
    }

    /// An engine over shared corpus handles — the zero-copy constructor
    /// the serving tier uses. Accepts owned values or `Arc`s.
    pub fn over(
        config: GrainConfig,
        graph: impl Into<Arc<Graph>>,
        features: impl Into<Arc<DenseMatrix>>,
    ) -> GrainResult<Self> {
        config.validate()?;
        let graph = graph.into();
        let features = features.into();
        if features.rows() != graph.num_nodes() {
            return Err(GrainError::FeatureShape {
                feature_rows: features.rows(),
                num_nodes: graph.num_nodes(),
            });
        }
        let propagation = PropagationCache::new(Arc::clone(&graph), Arc::clone(&features));
        Ok(Self {
            config,
            graph,
            features,
            propagation,
            transition: None,
            embedding: None,
            rows: None,
            index: None,
            balls: None,
            nn_dmax: None,
            trace: None,
            stats: EngineStats::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &GrainConfig {
        &self.config
    }

    /// The graph this engine serves.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The raw (unpropagated) feature matrix.
    pub fn features(&self) -> &DenseMatrix {
        &self.features
    }

    /// Shared handle to the graph this engine serves.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Shared handle to the raw feature matrix.
    pub fn features_arc(&self) -> Arc<DenseMatrix> {
        Arc::clone(&self.features)
    }

    /// The propagated embedding `X^(k)` under the active kernel, built or
    /// cached — the shared artifact baseline selectors (FeatProp, KCG,
    /// core-set methods) smooth their distances on, so Grain and every
    /// baseline read bit-identical propagation from one store.
    pub fn propagated(&mut self) -> Arc<DenseMatrix> {
        self.ensure_transition();
        self.ensure_propagation(&CancelToken::new())
            .expect(UNTRIPPED);
        self.propagation
            .get_cached(self.config.kernel)
            .expect("propagation ensured")
    }

    /// Seeds the propagation cache with an externally computed `X^(k)`
    /// and its power ladder for the active kernel, sharing the
    /// allocations. Used when this engine is a companion of another
    /// engine that already holds the artifact (a pooled sibling, the
    /// source of a private detour), and when the store loads one, so it
    /// is never re-propagated here.
    ///
    /// Seeding is not a build: it bumps **no** build counter (the store's
    /// save-on-build hook keys off those counters, so an adopted artifact
    /// is never re-persisted). Returns `false` and seeds nothing if the
    /// artifact does not fit this corpus and kernel (see
    /// [`PropagationCache::seed`]); the next select then builds cold, as
    /// on any other miss.
    pub fn seed_propagated(
        &mut self,
        value: Arc<DenseMatrix>,
        ladder: Vec<Arc<DenseMatrix>>,
    ) -> bool {
        self.propagation.seed(self.config.kernel, value, ladder)
    }

    /// The cached `X^(k)` and power ladder for `kernel` if this engine has
    /// already propagated (or been seeded with) it — computes nothing on
    /// a miss, and the handles share the cached allocations. Siblings over
    /// the same corpus hand these to each other via
    /// [`SelectionEngine::seed_propagated`]; the store persists them.
    pub fn propagated_if_cached(
        &self,
        kernel: grain_prop::Kernel,
    ) -> Option<(Arc<DenseMatrix>, Vec<Arc<DenseMatrix>>)> {
        let value = self.propagation.get_cached(kernel)?;
        Some((value, self.propagation.cached_ladder(kernel)))
    }

    // ---- artifact-store adoption / extraction ---------------------------
    //
    // The load path of `crate::store`: a deserialized artifact is adopted
    // into the stage cache under the exact key `ensure_*` would have built
    // it with, so the next select reads it as warm — and, critically,
    // bumps **no** build counter (adoption is not a build; the
    // save-on-build hook keys off those counters to avoid re-persisting
    // what was just loaded). Every adopter is shape-defensive and returns
    // `false` instead of panicking on a mismatched artifact, which the
    // service treats like a miss (cold build proceeds). `X^(k)` is
    // adopted through the public `seed_propagated`.

    /// Adopts store-loaded influence rows under the active
    /// (kernel, eps, top-k) cache key.
    pub(crate) fn adopt_rows(&mut self, rows: InfluenceRows) -> bool {
        if rows.num_nodes() != self.graph.num_nodes() || rows.k() != self.config.kernel.steps() {
            return false;
        }
        let key = (
            self.config.kernel.cache_key(),
            self.config.influence_eps.to_bits(),
            self.config.influence_row_top_k,
        );
        self.rows = Some((key, rows));
        self.trace = None;
        true
    }

    /// Adopts a store-loaded activation index under the active
    /// (kernel, eps, top-k, theta) cache key.
    pub(crate) fn adopt_index(&mut self, index: ActivationIndex) -> bool {
        if index.num_nodes() != self.graph.num_nodes() || index.k() != self.config.kernel.steps() {
            return false;
        }
        let key = (
            self.config.kernel.cache_key(),
            self.config.influence_eps.to_bits(),
            self.config.influence_row_top_k,
            self.config.theta,
        );
        self.index = Some((key, index));
        self.trace = None;
        true
    }

    /// The cached influence rows iff their key matches the active config.
    pub(crate) fn persistable_rows(&self) -> Option<&InfluenceRows> {
        let key = (
            self.config.kernel.cache_key(),
            self.config.influence_eps.to_bits(),
            self.config.influence_row_top_k,
        );
        self.rows
            .as_ref()
            .filter(|(k, _)| *k == key)
            .map(|(_, r)| r)
    }

    /// The cached activation index iff its key matches the active config.
    pub(crate) fn persistable_index(&self) -> Option<&ActivationIndex> {
        let key = (
            self.config.kernel.cache_key(),
            self.config.influence_eps.to_bits(),
            self.config.influence_row_top_k,
            self.config.theta,
        );
        self.index
            .as_ref()
            .filter(|(k, _)| *k == key)
            .map(|(_, i)| i)
    }

    /// Swaps the configuration, keeping every cached artifact whose key
    /// fields are unchanged. Artifacts are rebuilt lazily on the next
    /// `select`, so sweeping e.g. `gamma` or `budget` rebuilds nothing and
    /// sweeping `theta` rebuilds only the activation index. A change to
    /// any artifact field also drops the greedy trace; greedy-stage fields
    /// are part of the trace's key instead.
    pub fn set_config(&mut self, config: GrainConfig) -> GrainResult<()> {
        config.validate()?;
        if config.artifact_fingerprint() != self.config.artifact_fingerprint() {
            self.trace = None;
        }
        self.config = config;
        Ok(())
    }

    /// Cache audit counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Exact resident heap bytes of every currently cached artifact —
    /// the measurement seam for size-aware pool accounting. Not-yet-built
    /// artifacts count zero, so a cold engine reports all zeros and the
    /// count grows as `select` materializes stages and lengthens the
    /// greedy trace.
    pub fn artifact_bytes(&self) -> ArtifactBytes {
        let dense_bytes = |m: &DenseMatrix| m.rows() * m.cols() * std::mem::size_of::<f32>();
        let transition = self.transition.as_ref().map_or(0, |(_, t)| {
            (t.rows() + 1) * std::mem::size_of::<usize>()
                + t.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
        });
        let propagation = self.propagation.resident_bytes(self.config.kernel);
        let embedding = self.embedding.as_ref().map_or(0, |(_, e)| dense_bytes(e));
        let influence_rows = self.rows.as_ref().map_or(0, |(_, r)| r.resident_bytes());
        let activation_index = self.index.as_ref().map_or(0, |(_, i)| i.resident_bytes());
        let balls = self.balls.as_ref().map_or(0, |b| {
            let entries: usize = b.lists.iter().map(Vec::len).sum::<usize>() + b.pending.len();
            b.lists.len() * std::mem::size_of::<Vec<u32>>() + entries * std::mem::size_of::<u32>()
        });
        ArtifactBytes {
            transition,
            propagation,
            embedding,
            influence_rows,
            activation_index,
            balls,
            greedy_trace: self.trace.as_ref().map_or(0, PrefixTrace::resident_bytes),
        }
    }

    /// Selects up to `budget` nodes from `candidates` under the active
    /// configuration, reusing every cached artifact that is still valid.
    ///
    /// # Panics
    /// Panics if a candidate id is out of range.
    pub fn select(&mut self, candidates: &[u32], budget: usize) -> SelectionOutcome {
        self.select_variant(self.config.variant, candidates, budget)
    }

    /// Like [`SelectionEngine::select`] with the variant overridden for
    /// this call only — Table 3 ablation sweeps share all artifacts, since
    /// the variant affects only the greedy objective.
    pub fn select_variant(
        &mut self,
        variant: GrainVariant,
        candidates: &[u32],
        budget: usize,
    ) -> SelectionOutcome {
        self.select_with_cancel(
            variant,
            candidates,
            budget,
            &CancelToken::new(),
            OnDeadline::Fail,
        )
        .expect("a selection with an untripped token cannot be cancelled")
    }

    /// [`SelectionEngine::select_variant`] under cooperative cancellation.
    ///
    /// `cancel` is polled at every stage boundary (before the propagation,
    /// influence-row, and activation-index builds, and before the greedy
    /// stage), **between SpMM power steps** inside propagation, **every 64
    /// rows** inside the influence-row build, and inside greedy at every
    /// round boundary plus every [`GrainConfig::cancel_check_every`]
    /// marginal-gain evaluations — so a trip is observed within one greedy
    /// round or one check block, whichever comes first.
    ///
    /// What a trip produces depends on *why* the token tripped, on the
    /// caller's degradation policy, and on whether the cached greedy trace
    /// answers the request (a *hit*: same greedy-stage fields and
    /// candidate pool, and a budget the trace covers):
    ///
    /// | cause | stage | result |
    /// |---|---|---|
    /// | caller ([`CancelToken::cancel`]) | any | [`GrainError::Cancelled`] |
    /// | deadline, [`OnDeadline::Fail`] | any | [`GrainError::DeadlineExceeded`] (`MidSelection`) |
    /// | deadline, [`OnDeadline::Partial`] | artifact build, or before greedy (hit or miss) | [`GrainError::DeadlineExceeded`] (`MidSelection`) |
    /// | deadline, [`OnDeadline::Partial`] | greedy (miss only) | `Ok` with [`Completion::Partial`] |
    ///
    /// A hit runs no greedy round, so it has no greedy stage to trip in:
    /// it is sliced from the trace and always [`Completion::Complete`],
    /// but a token that tripped before the greedy stage still fails it
    /// with the typed error above.
    ///
    /// Artifact builds are **never** partial: a build that observes the
    /// trip caches nothing, so the next request starts a fresh, complete
    /// build. A partial greedy result is byte-for-byte a prefix of the
    /// uncancelled run at the same config — submodularity makes the prefix
    /// a valid anytime answer with the `(1 - 1/e)` bound at its smaller
    /// effective budget (see [`SelectionOutcome::effective_budget`]). A
    /// cancelled miss keeps that exact prefix as the greedy trace when it
    /// is longer than the trace it replaces.
    ///
    /// An untripped token changes no bit of the result relative to
    /// [`SelectionEngine::select_variant`].
    ///
    /// # Panics
    /// Panics if a candidate id is out of range.
    pub fn select_with_cancel(
        &mut self,
        variant: GrainVariant,
        candidates: &[u32],
        budget: usize,
        cancel: &CancelToken,
        on_deadline: OnDeadline,
    ) -> GrainResult<SelectionOutcome> {
        let outcome = self.answer(variant, candidates, budget, cancel, on_deadline)?;
        self.stats.selections += 1;
        Ok(outcome)
    }

    /// Runs one warm budget sweep: one selection per budget, all sharing
    /// the cached artifacts and one greedy run. Selections are
    /// bit-identical to independent one-shot runs at the same budgets.
    pub fn select_budgets(
        &mut self,
        candidates: &[u32],
        budgets: &[usize],
    ) -> Vec<SelectionOutcome> {
        self.select_budgets_with_cancel(
            self.config.variant,
            candidates,
            budgets,
            &CancelToken::new(),
            OnDeadline::Fail,
        )
        .expect("a sweep with an untripped token cannot be cancelled")
    }

    /// [`SelectionEngine::select_budgets`] under cooperative cancellation,
    /// with the variant overridden for this call.
    ///
    /// Greedy runs at most once, at the largest budget (or not at all when
    /// the cached trace already covers it); every entry is then sliced from
    /// the trace, in the order given. A trip inside that one greedy run
    /// follows [`SelectionEngine::select_with_cancel`]: under
    /// [`OnDeadline::Partial`] the entries the kept prefix covers are
    /// answered complete, the first entry it does not cover receives the
    /// partial outcome (exactly what a fresh run at that budget would have
    /// returned on the same trip), and the sweep stops there — so the
    /// result may be shorter than `budgets`. Every other trip is the
    /// request's typed error.
    ///
    /// # Panics
    /// Panics if a candidate id is out of range.
    pub fn select_budgets_with_cancel(
        &mut self,
        variant: GrainVariant,
        candidates: &[u32],
        budgets: &[usize],
        cancel: &CancelToken,
        on_deadline: OnDeadline,
    ) -> GrainResult<Vec<SelectionOutcome>> {
        let Some(&largest) = budgets.iter().max() else {
            return Ok(Vec::new());
        };
        let mut largest_outcome =
            Some(self.answer(variant, candidates, largest, cancel, on_deadline)?);
        // `answer` leaves either no trace or this request's trace behind.
        let mut outcomes = Vec::with_capacity(budgets.len());
        for &budget in budgets {
            let t0 = Instant::now();
            let outcome = match self.trace.as_ref().filter(|t| t.answers(budget)) {
                // The run at the largest budget already answers this entry.
                _ if budget == largest && largest_outcome.is_some() => largest_outcome.take(),
                Some(trace) => {
                    let mut outcome = trace.slice(budget);
                    outcome.timings.greedy = t0.elapsed();
                    outcome.timings.total = outcome.timings.greedy;
                    Some(outcome)
                }
                // Only a run cut short leaves an entry uncovered, and a
                // fresh run at this budget would have stopped at that trip.
                None => largest_outcome.take(),
            }
            .expect("an uncovered entry ends the sweep");
            let partial = outcome.is_partial();
            outcomes.push(outcome);
            if partial {
                break;
            }
        }
        self.stats.selections += outcomes.len();
        Ok(outcomes)
    }

    /// One selection: stages 1–3, then greedy — sliced from the cached
    /// trace on a hit, run (and recorded as the new trace) on a miss.
    /// Counts no selection. On `Ok` the trace slot holds either nothing or
    /// a trace keyed by this request.
    fn answer(
        &mut self,
        variant: GrainVariant,
        candidates: &[u32],
        budget: usize,
        cancel: &CancelToken,
        on_deadline: OnDeadline,
    ) -> GrainResult<SelectionOutcome> {
        for &c in candidates {
            assert!(
                (c as usize) < self.graph.num_nodes(),
                "candidate {c} out of range"
            );
        }
        let t0 = Instant::now();
        cancel.checkpoint()?;

        // 1. Decoupled propagation (Eq. 6) on the kernel's transition matrix.
        self.ensure_transition();
        self.ensure_propagation(cancel)?;
        let propagation = t0.elapsed();

        // 2. Influence rows under the kernel Jacobian (Def. 3.1 / Eq. 9).
        let t1 = Instant::now();
        self.ensure_rows(cancel)?;
        let influence = t1.elapsed();

        // 3. Activation index (Def. 3.2) + diversity precomputation (§3.3).
        let t2 = Instant::now();
        self.ensure_index(cancel)?;
        self.ensure_embedding();
        let diversity = self.ensure_diversity(variant, cancel)?;
        // §3.4 candidate pruning is per-pool, not a cached artifact.
        let rows = &self.rows.as_ref().expect("rows ensured").1;
        let pool: Vec<u32> = match self.config.prune {
            Some(strategy) => prune_candidates(strategy, &self.graph, rows, candidates),
            None => candidates.to_vec(),
        };
        let indexing = t2.elapsed();

        // 4. Greedy DIM maximization (Algorithm 1 / CELF) — the only stage
        // that depends on budget and variant, and the only stage that may
        // degrade to a partial (anytime) result instead of failing.
        let t3 = Instant::now();
        cancel.checkpoint()?;
        let key = TraceKey::new(&self.config, variant, pool);
        let timings = |greedy: Duration| SelectionTimings {
            propagation,
            influence,
            indexing,
            greedy,
            total: t0.elapsed(),
        };
        if let Some(trace) = self
            .trace
            .as_ref()
            .filter(|t| t.key == key && t.answers(budget))
        {
            let mut outcome = trace.slice(budget);
            outcome.timings = timings(t3.elapsed());
            return Ok(outcome);
        }

        let (scope, magnitude_weight, gamma) = variant_parameters(variant, self.config.gamma);
        let index = &self.index.as_ref().expect("index ensured").1;
        let objective = DimObjective::with_variant(
            index,
            self.diversity_state(diversity),
            gamma,
            magnitude_weight,
            scope,
        );
        let mut recorded = RecordDiversity {
            after_pick: vec![objective.diversity_value()],
            objective,
        };
        let check_every = self.config.cancel_check_every;
        let run = match self.config.algorithm {
            GreedyAlgorithm::Plain => {
                plain_greedy(&mut recorded, &key.pool, budget, cancel, check_every)
            }
            GreedyAlgorithm::Lazy => {
                lazy_greedy(&mut recorded, &key.pool, budget, cancel, check_every)
            }
        };
        let greedy = t3.elapsed();
        self.stats.greedy_runs += 1;
        let objective = recorded.objective;
        let sigma = objective.sigma();
        let diversity_value = objective.diversity_value();
        let candidates_after_prune = key.pool.len();

        // Keep the run as the trace unless a longer one for the same key
        // is already cached (only a cancelled run can be shorter; an
        // equally long run may newly know it exhausted the pool). A lazy
        // run cancelled while seeding its heap has no round-0 count and
        // leaves no trace.
        let picks = run.selected.len();
        let keep_cached = self
            .trace
            .as_ref()
            .is_some_and(|t| t.key == key && t.selected.len() > picks);
        if !keep_cached {
            self.trace = (run.round_evaluations.len() == picks + 1).then(|| PrefixTrace {
                // A complete run stops short of its budget, or picks the
                // whole pool, only when the candidates ran out.
                exhausted: run.cancelled.is_none() && (picks < budget || picks == key.pool.len()),
                sigma_round: first_activation_rounds(index, &run.selected, &sigma),
                sigma: sigma.clone(),
                selected: run.selected.clone(),
                objective_trace: run.objective_trace.clone(),
                diversity: recorded.after_pick,
                evaluations: run.round_evaluations,
                key,
            });
        }

        let completion = match run.cancelled {
            None => Completion::Complete,
            Some(CancelCause::Deadline) if on_deadline == OnDeadline::Partial => {
                Completion::Partial {
                    cause: CancelCause::Deadline,
                }
            }
            Some(CancelCause::Deadline) => {
                return Err(GrainError::DeadlineExceeded {
                    stage: DeadlineStage::MidSelection,
                })
            }
            Some(CancelCause::Caller) => return Err(GrainError::Cancelled),
        };

        let outcome = SelectionOutcome {
            sigma,
            diversity_value,
            selected: run.selected,
            objective_trace: run.objective_trace,
            evaluations: run.evaluations,
            candidates_after_prune,
            completion,
            timings: timings(greedy),
        };
        debug_assert!(
            completion != Completion::Complete
                || self
                    .trace
                    .as_ref()
                    .is_some_and(|t| t.answers(budget) && same_answer(&t.slice(budget), &outcome)),
            "a complete run must be reproducible from the trace it leaves"
        );
        Ok(outcome)
    }

    /// The L2-normalized rows of `X^(k)` under the active kernel (built
    /// or cached) — the embedding Grain distances diversity on; layout /
    /// interpretability consumers read it from the same store instead of
    /// re-normalizing the propagation themselves.
    pub fn normalized_embedding(&mut self) -> Arc<DenseMatrix> {
        self.ensure_transition();
        self.ensure_propagation(&CancelToken::new())
            .expect(UNTRIPPED);
        self.ensure_embedding();
        Arc::clone(&self.embedding.as_ref().expect("embedding ensured").1)
    }

    /// The activation index under the current config (built or cached) —
    /// interpretability experiments read activation lists directly.
    pub fn activation_index(&mut self) -> &ActivationIndex {
        self.ensure_transition();
        let untripped = CancelToken::new();
        self.ensure_rows(&untripped).expect(UNTRIPPED);
        self.ensure_index(&untripped).expect(UNTRIPPED);
        &self.index.as_ref().expect("index ensured").1
    }

    /// The influence rows under the current config (built or cached).
    pub fn influence_rows(&mut self) -> &InfluenceRows {
        self.ensure_transition();
        self.ensure_rows(&CancelToken::new()).expect(UNTRIPPED);
        &self.rows.as_ref().expect("rows ensured").1
    }

    /// The ball membership lists `G_u` of Ball-D diversity under the
    /// active kernel and radius (built, repaired after an epoch flip, or
    /// cached) — the lists every `BallDiversity` of this engine reads.
    pub fn ball_lists(&mut self) -> Arc<Vec<Vec<u32>>> {
        self.ensure_transition();
        let untripped = CancelToken::new();
        self.ensure_propagation(&untripped).expect(UNTRIPPED);
        self.ensure_embedding();
        self.ensure_balls(&untripped).expect(UNTRIPPED);
        Arc::clone(&self.balls.as_ref().expect("balls ensured").lists)
    }

    /// Derives an engine over the mutated corpus `(graph, features)` by
    /// patching this engine's cached artifacts instead of rebuilding them
    /// — the streaming fast path behind
    /// [`crate::service::GrainService::apply_update`].
    ///
    /// `dirty_transition` / `dirty_propagation` / `dirty_influence` are
    /// sorted supersets of the transition rows, `X^(k)` rows, and
    /// influence rows whose values can differ between the old and mutated
    /// corpus (see [`crate::streaming`] for the dirty-set math). Per
    /// artifact:
    ///
    /// * **transition** — dirty rows recomputed row-locally via
    ///   [`grain_graph::transition_rows`] (bit-identical float path) and
    ///   spliced into the stale matrix with
    ///   [`CsrMatrix::with_replaced_rows`]; rebuilt cold only when no
    ///   transition of the right kind is cached;
    /// * **propagation** — dirty rows re-propagated level-locally via
    ///   [`PropagationCache::repropagate_rows_laddered`] against the
    ///   donor's power ladder (`O(k · |dirty|)` SpMM rows), clean rows
    ///   `memcpy`d;
    /// * **embedding** — clean rows `memcpy`d from the old embedding
    ///   (their `X^(k)` rows are bit-identical, so their normalizations
    ///   are too), dirty rows re-normalized with the same per-row op as
    ///   the full pass ([`grain_linalg::ops::l2_normalize_row`]);
    /// * **influence rows** — dirty rows re-walked via
    ///   [`InfluenceRows::with_rebuilt_rows`], clean row slices spliced;
    /// * **activation index** — inverted entries of dirty rows swapped via
    ///   [`ActivationIndex::repaired`];
    /// * **ball lists** — kept under their `(kernel, radius)` key, with the
    ///   dirty embedding rows added to the rows pending repair; the next
    ///   select that needs them repairs just those rows' pairs
    ///   ([`distance::radius_neighbors_repaired`]), so an update itself
    ///   measures no distance. Dropped when the embedding was not migrated
    ///   or the lists belong to another kernel;
    /// * **NN `d_max`** — dropped (rebuilt lazily on the next select that
    ///   needs it).
    ///
    /// Only artifacts cached under the *active* config are migrated; stale
    /// cache slots from earlier configs are dropped, and so is the greedy
    /// trace (the new epoch's engine starts without one). Callers must not
    /// invoke this for triangle-induced kernels (a single edge edit can
    /// dirty every triangle count, so those engines rebuild cold).
    pub(crate) fn patched(
        &self,
        graph: Arc<Graph>,
        features: Arc<DenseMatrix>,
        dirty_transition: &[u32],
        dirty_propagation: &[u32],
        dirty_influence: &[u32],
    ) -> (SelectionEngine, PatchTimings) {
        let config = self.config;
        let kind = config.kernel.transition_kind();
        debug_assert_ne!(
            kind,
            TransitionKind::TriangleInduced,
            "triangle-induced engines are rebuilt cold, not patched"
        );
        let kernel = config.kernel;
        let kernel_key = kernel.cache_key();
        let mut timings = PatchTimings::default();
        let stage = Instant::now();
        let t_new = match self.transition.as_ref().filter(|(k, _)| *k == kind) {
            Some((_, t_old)) => {
                t_old.with_replaced_rows(&transition_rows(&graph, kind, true, dirty_transition))
            }
            None => transition_matrix(&graph, kind, true),
        };
        timings.transition = stage.elapsed();
        let mut stats = self.stats;
        stats.transition_builds += 1;

        let mut propagation = PropagationCache::new(Arc::clone(&graph), Arc::clone(&features));
        let mut embedding = None;
        if let Some(old_x) = self.propagation.get_cached(kernel) {
            let stage = Instant::now();
            let old_ladder = self.propagation.cached_ladder(kernel);
            let patched_x = propagation.repropagate_rows_laddered(
                kernel,
                &t_new,
                &old_x,
                &old_ladder,
                dirty_propagation,
            );
            timings.propagation = stage.elapsed();
            stats.propagation_builds += 1;
            if let Some((_, old_e)) = self.embedding.as_ref().filter(|(k, _)| *k == kernel_key) {
                let stage = Instant::now();
                let mut e = (**old_e).clone();
                for &v in dirty_propagation {
                    let r = v as usize;
                    let row = e.row_mut(r);
                    row.copy_from_slice(patched_x.row(r));
                    grain_linalg::ops::l2_normalize_row(row);
                }
                timings.embedding = stage.elapsed();
                embedding = Some((kernel_key.clone(), Arc::new(e)));
                stats.embedding_builds += 1;
            }
        }

        let rows_key = (
            kernel_key.clone(),
            config.influence_eps.to_bits(),
            config.influence_row_top_k,
        );
        let mut rows = None;
        if let Some((key, old_rows)) = self.rows.as_ref() {
            if *key == rows_key {
                let stage = Instant::now();
                let rebuilt = old_rows.with_rebuilt_rows(
                    &t_new,
                    kernel,
                    config.influence_eps,
                    config.influence_row_top_k,
                    dirty_influence,
                );
                timings.influence = stage.elapsed();
                rows = Some((rows_key.clone(), rebuilt));
                stats.influence_builds += 1;
            }
        }

        let index_key = (
            kernel_key.clone(),
            config.influence_eps.to_bits(),
            config.influence_row_top_k,
            config.theta,
        );
        let mut index = None;
        if let (Some((key, old_index)), Some((_, new_rows))) = (self.index.as_ref(), rows.as_ref())
        {
            if *key == index_key {
                let stage = Instant::now();
                let repaired = old_index.repaired(new_rows, config.theta, dirty_influence);
                timings.index = stage.elapsed();
                index = Some((index_key, repaired));
                stats.index_builds += 1;
            }
        }

        // Ball lists stay valid wherever neither row of a pair was
        // rewritten, so they ride along with the rows they are now stale
        // for.
        let balls = self
            .balls
            .as_ref()
            .filter(|b| embedding.is_some() && b.key.0 == kernel_key)
            .map(|b| {
                let mut pending: Vec<u32> =
                    b.pending.iter().chain(dirty_propagation).copied().collect();
                pending.sort_unstable();
                pending.dedup();
                BallLists {
                    key: b.key.clone(),
                    lists: Arc::clone(&b.lists),
                    bound: b.bound,
                    pending,
                }
            });

        let engine = SelectionEngine {
            config,
            graph,
            features,
            propagation,
            transition: Some((kind, t_new)),
            embedding,
            rows,
            index,
            balls,
            nn_dmax: None,
            trace: None,
            stats,
        };
        (engine, timings)
    }

    fn ensure_transition(&mut self) {
        let kind = self.config.kernel.transition_kind();
        if self.transition.as_ref().map(|(k, _)| *k) != Some(kind) {
            let t = transition_matrix(&self.graph, kind, true);
            self.transition = Some((kind, t));
            self.stats.transition_builds += 1;
        }
    }

    /// Builds `X^(k)` unless cached, polling `cancel` between SpMM power
    /// steps. A cancelled build caches nothing (no torn artifacts) and
    /// bumps no build counter; the next request starts fresh.
    fn ensure_propagation(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let kernel = self.config.kernel;
        if self.propagation.contains(kernel) {
            return Ok(());
        }
        fault::point("engine.build.propagation", Some(cancel));
        cancel.checkpoint()?;
        let transition = &self.transition.as_ref().expect("transition ensured").1;
        match self
            .propagation
            .get_with(kernel, transition, self.config.parallelism, &|| {
                cancel.is_cancelled()
            }) {
            Some(_) => {
                self.stats.propagation_builds += 1;
                Ok(())
            }
            None => Err(cancel.cancel_error()),
        }
    }

    fn ensure_embedding(&mut self) {
        let key = self.config.kernel.cache_key();
        if self.embedding.as_ref().map(|(k, _)| k) != Some(&key) {
            let smoothed = self
                .propagation
                .get_cached(self.config.kernel)
                .expect("propagation ensured");
            let embedding = distance::normalized_embedding(&smoothed, self.config.parallelism);
            self.embedding = Some((key, Arc::new(embedding)));
            self.stats.embedding_builds += 1;
        }
    }

    /// Builds the influence rows unless cached, polling `cancel` every 64
    /// rows inside the parallel build. A cancelled build discards its
    /// partial rows wholesale and caches nothing.
    fn ensure_rows(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let key = (
            self.config.kernel.cache_key(),
            self.config.influence_eps.to_bits(),
            self.config.influence_row_top_k,
        );
        if self.rows.as_ref().map(|(k, _)| k) == Some(&key) {
            return Ok(());
        }
        fault::point("engine.build.rows", Some(cancel));
        cancel.checkpoint()?;
        let transition = &self.transition.as_ref().expect("transition ensured").1;
        match InfluenceRows::build(
            transition,
            &kernel_power_weights(self.config.kernel),
            self.config.influence_eps,
            self.config.influence_row_top_k,
            self.config.parallelism,
            &|| cancel.is_cancelled(),
        ) {
            Some(rows) => {
                self.rows = Some((key, rows));
                self.stats.influence_builds += 1;
                Ok(())
            }
            None => Err(cancel.cancel_error()),
        }
    }

    /// Builds the activation index unless cached. The inversion itself is
    /// not interruptible (it is the cheapest artifact); `cancel` is checked
    /// once at the stage boundary before committing to the build.
    fn ensure_index(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let key = (
            self.config.kernel.cache_key(),
            self.config.influence_eps.to_bits(),
            self.config.influence_row_top_k,
            self.config.theta,
        );
        if self.index.as_ref().map(|(k, _)| k) == Some(&key) {
            return Ok(());
        }
        fault::point("engine.build.index", Some(cancel));
        cancel.checkpoint()?;
        let rows = &self.rows.as_ref().expect("rows ensured").1;
        let index = ActivationIndex::build(rows, self.config.theta, self.config.parallelism);
        self.index = Some((key, index));
        self.trace = None;
        self.stats.index_builds += 1;
        Ok(())
    }

    /// Builds the ball lists unless cached, or repairs cached lists whose
    /// key matches but which epoch flips left stale. A repair of `c`
    /// pending rows measures `2cn - c²` pairs against the full build's
    /// `n²`, never more, so any matching key repairs. `cancel` is checked
    /// once before either; a trip, or a panic inside the scan, leaves the
    /// cached lists and their pending rows as they were, so the next
    /// request repairs (or builds) afresh.
    fn ensure_balls(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let key = (self.config.kernel.cache_key(), self.config.radius.to_bits());
        let n = self.graph.num_nodes();
        let stale = match self.balls.as_ref().filter(|b| b.key == key) {
            Some(b) if b.pending.is_empty() => return Ok(()),
            stale => stale,
        };
        fault::point("engine.build.balls", Some(cancel));
        cancel.checkpoint()?;
        let embedding = &self.embedding.as_ref().expect("embedding ensured").1;
        let (radius, threads) = (self.config.radius, self.config.parallelism);
        let lists = match stale {
            Some(b) => {
                let lists = distance::radius_neighbors_repaired(
                    embedding, radius, &b.lists, &b.pending, threads,
                );
                debug_assert!(
                    lists == distance::radius_neighbors(embedding, radius, threads),
                    "repaired ball lists must equal a full rebuild"
                );
                lists
            }
            None => distance::radius_neighbors(embedding, radius, threads),
        };
        if stale.is_some() {
            self.stats.ball_repairs += 1;
        } else {
            self.stats.diversity_builds += 1;
        }
        let bound = BallDiversity::union_size(&lists, n);
        self.balls = Some(BallLists {
            key,
            lists: Arc::new(lists),
            bound,
            pending: Vec::new(),
        });
        self.trace = None;
        Ok(())
    }

    fn ensure_nn_dmax(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let key = self.config.kernel.cache_key();
        if self.nn_dmax.as_ref().map(|(k, _)| k) != Some(&key) {
            cancel.checkpoint()?;
            let embedding = &self.embedding.as_ref().expect("embedding ensured").1;
            let dmax = distance::max_pairwise_distance(
                embedding,
                NN_DMAX_EXACT_LIMIT,
                self.config.parallelism,
            );
            self.nn_dmax = Some((key, dmax));
            self.trace = None;
            self.stats.diversity_builds += 1;
        }
        Ok(())
    }

    /// Ensures the diversity precompute `variant` needs, returning its
    /// kind (`None` for the diversity-free ablation).
    fn ensure_diversity(
        &mut self,
        variant: GrainVariant,
        cancel: &CancelToken,
    ) -> GrainResult<Option<DiversityKind>> {
        let kind = match variant {
            GrainVariant::NoDiversity => return Ok(None),
            // Both seed-scoped ablations are defined on ball coverage.
            GrainVariant::NoMagnitude | GrainVariant::ClassicCoverage => DiversityKind::Ball,
            GrainVariant::Full => self.config.diversity,
        };
        match kind {
            DiversityKind::Ball => self.ensure_balls(cancel)?,
            DiversityKind::Nn => self.ensure_nn_dmax(cancel)?,
        }
        Ok(Some(kind))
    }

    /// A fresh per-selection diversity state over the ensured precompute
    /// (greedy consumes diversity state, so each call copies only the
    /// incremental state; the precompute itself is `Arc`-shared).
    fn diversity_state(&self, kind: Option<DiversityKind>) -> Box<dyn DiversityFunction + Send> {
        match kind {
            None => Box::new(NullDiversity),
            Some(DiversityKind::Ball) => {
                let balls = self.balls.as_ref().expect("balls ensured");
                Box::new(BallDiversity::from_shared_with_bound(
                    Arc::clone(&balls.lists),
                    self.graph.num_nodes(),
                    balls.bound,
                ))
            }
            Some(DiversityKind::Nn) => {
                let dmax = self.nn_dmax.as_ref().expect("dmax ensured").1;
                let embedding = Arc::clone(&self.embedding.as_ref().expect("embedding ensured").1);
                Box::new(NnDiversity::from_parts(embedding, dmax))
            }
        }
    }
}

/// Table 3 ablation parameters: diversity scope, magnitude weight, γ.
fn variant_parameters(variant: GrainVariant, gamma: f64) -> (DiversityScope, f64, f64) {
    match variant {
        GrainVariant::Full => (DiversityScope::Activated, 1.0, gamma),
        GrainVariant::NoDiversity => (DiversityScope::Activated, 1.0, 0.0),
        GrainVariant::NoMagnitude => (DiversityScope::Seeds, 0.0, gamma.max(1.0)),
        GrainVariant::ClassicCoverage => (DiversityScope::Seeds, 1.0, gamma),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_graph::generators::{self, SbmConfig};
    use grain_prop::Kernel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(seed: u64) -> (Graph, DenseMatrix) {
        let cfg = SbmConfig {
            block_sizes: vec![40, 40, 40],
            mean_degree_in: 6.0,
            mean_degree_out: 1.0,
            degree_exponent: 0.0,
        };
        let (g, labels) = generators::degree_corrected_sbm(&cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let d = 6usize;
        let mut x = DenseMatrix::zeros(g.num_nodes(), d);
        for (v, &label) in labels.iter().enumerate() {
            let c = label as usize;
            for (j, value) in x.row_mut(v).iter_mut().enumerate() {
                let base = if j % 3 == c { 1.0 } else { 0.1 };
                *value = base + rng.random::<f32>() * 0.2;
            }
        }
        (g, x)
    }

    #[test]
    fn rejects_invalid_config_and_mismatched_features() {
        let (g, x) = dataset(1);
        let bad = GrainConfig {
            gamma: -1.0,
            ..GrainConfig::ball_d()
        };
        assert!(SelectionEngine::new(bad, &g, &x).is_err());
        let short = DenseMatrix::zeros(3, 2);
        assert!(SelectionEngine::new(GrainConfig::ball_d(), &g, &short).is_err());
    }

    #[test]
    fn warm_sweep_matches_one_shot_and_builds_once() {
        let (g, x) = dataset(2);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let cfg = GrainConfig::ball_d();
        let mut engine = SelectionEngine::new(cfg, &g, &x).unwrap();
        let budgets = [3usize, 6, 9, 12, 15];
        let warm = engine.select_budgets(&candidates, &budgets);
        let stats = engine.stats();
        assert_eq!(stats.propagation_builds, 1);
        assert_eq!(stats.influence_builds, 1);
        assert_eq!(stats.index_builds, 1);
        assert_eq!(stats.transition_builds, 1);
        assert_eq!(stats.diversity_builds, 1);
        assert_eq!(stats.selections, budgets.len());
        for (outcome, &budget) in warm.iter().zip(&budgets) {
            let fresh = SelectionEngine::new(cfg, &g, &x)
                .unwrap()
                .select(&candidates, budget);
            assert_eq!(outcome.selected, fresh.selected, "budget {budget}");
            assert_eq!(outcome.sigma, fresh.sigma, "budget {budget}");
            assert_eq!(
                outcome.objective_trace, fresh.objective_trace,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn warm_sweep_runs_greedy_once() {
        let (g, x) = dataset(2);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let cfg = GrainConfig::ball_d();
        let mut engine = SelectionEngine::new(cfg, &g, &x).unwrap();
        engine.select(&candidates, 2);
        let before = engine.stats();
        let budgets = [9usize, 3, 15, 6, 12];
        let warm = engine.select_budgets(&candidates, &budgets);
        let delta = engine.stats().delta_since(&before);
        assert_eq!(delta.greedy_runs, 1, "one greedy run answers the sweep");
        assert_eq!(delta.selections, budgets.len());
        assert_eq!(delta.total_builds(), 0);
        for (outcome, &budget) in warm.iter().zip(&budgets) {
            let fresh = SelectionEngine::new(cfg, &g, &x)
                .unwrap()
                .select(&candidates, budget);
            assert_eq!(outcome.selected, fresh.selected, "budget {budget}");
            assert_eq!(outcome.objective_trace, fresh.objective_trace);
            assert_eq!(outcome.sigma, fresh.sigma, "budget {budget}");
            assert_eq!(
                outcome.diversity_value.to_bits(),
                fresh.diversity_value.to_bits()
            );
            assert_eq!(outcome.evaluations, fresh.evaluations, "budget {budget}");
            assert_eq!(outcome.candidates_after_prune, fresh.candidates_after_prune);
            assert_eq!(outcome.completion, Completion::Complete);
        }
        // Every budget the trace covers is now a hit.
        engine.select_budgets(&candidates, &[1, 15, 0]);
        assert_eq!(engine.stats().greedy_runs, before.greedy_runs + 1);
    }

    #[test]
    fn greedy_trace_bytes_grow_with_length_and_drop_on_invalidation() {
        let (g, x) = dataset(16);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 4);
        let short = engine.artifact_bytes();
        assert!(short.greedy_trace > 0);
        assert!(short.total() > short.greedy_trace);
        // A hit leaves the trace as it is; a longer run lengthens it.
        engine.select(&candidates, 2);
        assert_eq!(engine.artifact_bytes(), short);
        engine.select(&candidates, 12);
        let long = engine.artifact_bytes();
        assert!(long.greedy_trace > short.greedy_trace);
        assert_eq!(
            long.total() - long.greedy_trace,
            short.total() - short.greedy_trace
        );
        // An artifact-field change invalidates the trace at once.
        let mut cfg = *engine.config();
        cfg.theta = ThetaRule::RelativeToRowMax(0.4);
        engine.set_config(cfg).unwrap();
        assert_eq!(engine.artifact_bytes().greedy_trace, 0);
    }

    #[test]
    fn parallelism_changes_rebuild_nothing_and_select_identically() {
        // `parallelism` is a pure execution knob: changing it keeps every
        // cached artifact (it is in no cache key) and any thread count
        // selects the identical set.
        let (g, x) = dataset(8);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let reference = {
            let mut cfg = GrainConfig::ball_d();
            cfg.parallelism = 1;
            SelectionEngine::new(cfg, &g, &x)
                .unwrap()
                .select(&candidates, 9)
        };
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 9);
        let before = engine.stats();
        for parallelism in [2usize, 8] {
            let mut cfg = *engine.config();
            cfg.parallelism = parallelism;
            engine.set_config(cfg).unwrap();
            let out = engine.select(&candidates, 9);
            assert_eq!(out.selected, reference.selected, "{parallelism} threads");
            assert_eq!(out.sigma, reference.sigma, "{parallelism} threads");
            assert_eq!(
                out.objective_trace, reference.objective_trace,
                "{parallelism} threads"
            );
        }
        let after = engine.stats();
        assert_eq!(
            EngineStats {
                selections: before.selections + 2,
                ..before
            },
            after,
            "parallelism swaps must not invalidate artifacts"
        );
    }

    #[test]
    fn theta_change_rebuilds_only_the_index() {
        let (g, x) = dataset(3);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 8);
        let before = engine.stats();
        let mut cfg = *engine.config();
        cfg.theta = ThetaRule::RelativeToRowMax(0.4);
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 8);
        let after = engine.stats();
        assert_eq!(after.index_builds, before.index_builds + 1);
        assert_eq!(after.propagation_builds, before.propagation_builds);
        assert_eq!(after.transition_builds, before.transition_builds);
        assert_eq!(after.influence_builds, before.influence_builds);
        assert_eq!(after.embedding_builds, before.embedding_builds);
        assert_eq!(after.diversity_builds, before.diversity_builds);
    }

    #[test]
    fn kernel_depth_change_rebuilds_kernel_artifacts_but_not_transition() {
        let (g, x) = dataset(4);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 8);
        let before = engine.stats();
        let mut cfg = *engine.config();
        cfg.kernel = Kernel::RandomWalk { k: 3 };
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 8);
        let after = engine.stats();
        // Same TransitionKind -> T is reused; everything downstream of the
        // kernel key rebuilds.
        assert_eq!(after.transition_builds, before.transition_builds);
        assert_eq!(after.propagation_builds, before.propagation_builds + 1);
        assert_eq!(after.influence_builds, before.influence_builds + 1);
        assert_eq!(after.index_builds, before.index_builds + 1);
        assert_eq!(after.embedding_builds, before.embedding_builds + 1);
        assert_eq!(after.diversity_builds, before.diversity_builds + 1);
    }

    #[test]
    fn gamma_and_budget_changes_rebuild_nothing() {
        let (g, x) = dataset(5);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 6);
        let before = engine.stats();
        let mut cfg = *engine.config();
        cfg.gamma = 0.5;
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 11);
        let after = engine.stats();
        // A new γ is a new greedy-trace key: greedy runs, nothing builds.
        assert_eq!(
            EngineStats {
                selections: before.selections + 1,
                greedy_runs: before.greedy_runs + 1,
                ..before
            },
            after
        );
    }

    #[test]
    fn variant_override_shares_artifacts() {
        let (g, x) = dataset(6);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        for variant in [
            GrainVariant::Full,
            GrainVariant::NoDiversity,
            GrainVariant::NoMagnitude,
            GrainVariant::ClassicCoverage,
        ] {
            let out = engine.select_variant(variant, &candidates, 5);
            assert_eq!(out.selected.len(), 5, "variant {variant:?}");
        }
        let stats = engine.stats();
        assert_eq!(stats.propagation_builds, 1);
        assert_eq!(stats.influence_builds, 1);
        assert_eq!(stats.index_builds, 1);
        assert_eq!(stats.diversity_builds, 1);
    }

    #[test]
    fn untripped_token_selects_bit_identically_cold_and_warm() {
        let (g, x) = dataset(11);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let cfg = GrainConfig::ball_d();
        let reference = SelectionEngine::new(cfg, &g, &x)
            .unwrap()
            .select(&candidates, 9);
        let mut engine = SelectionEngine::new(cfg, &g, &x).unwrap();
        for _ in 0..2 {
            // Cold pass builds every artifact under the ctl path; warm
            // pass serves them from cache. Both must change no bit.
            let out = engine
                .select_with_cancel(
                    cfg.variant,
                    &candidates,
                    9,
                    &CancelToken::new(),
                    OnDeadline::Partial,
                )
                .unwrap();
            assert_eq!(out.selected, reference.selected);
            assert_eq!(out.sigma, reference.sigma);
            assert_eq!(out.objective_trace, reference.objective_trace);
            assert_eq!(out.completion, Completion::Complete);
            assert!(!out.is_partial());
        }
    }

    #[test]
    fn pre_tripped_token_fails_typed_and_leaves_engine_usable() {
        let (g, x) = dataset(12);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let cfg = GrainConfig::ball_d();
        let mut engine = SelectionEngine::new(cfg, &g, &x).unwrap();

        // Caller cancel is always a typed failure, whatever the policy.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for policy in [OnDeadline::Fail, OnDeadline::Partial] {
            let err = engine
                .select_with_cancel(cfg.variant, &candidates, 5, &cancelled, policy)
                .unwrap_err();
            assert!(matches!(err, GrainError::Cancelled), "{policy:?}: {err}");
        }
        // A deadline trip observed at an artifact-stage boundary fails
        // typed even under the Partial policy: artifacts are never partial.
        let expired =
            CancelToken::with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let err = engine
            .select_with_cancel(cfg.variant, &candidates, 5, &expired, OnDeadline::Partial)
            .unwrap_err();
        assert!(matches!(
            err,
            GrainError::DeadlineExceeded {
                stage: DeadlineStage::MidSelection
            }
        ));
        // No selection was answered and nothing is torn: a fresh run
        // matches a fresh engine exactly.
        assert_eq!(engine.stats().selections, 0);
        let out = engine.select(&candidates, 5);
        let fresh = SelectionEngine::new(cfg, &g, &x)
            .unwrap()
            .select(&candidates, 5);
        assert_eq!(out.selected, fresh.selected);
        assert_eq!(out.sigma, fresh.sigma);
    }

    #[test]
    fn top_k_change_rebuilds_only_rows_and_index() {
        let (g, x) = dataset(13);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 8);
        let before = engine.stats();
        let mut cfg = *engine.config();
        cfg.influence_row_top_k = 8;
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 8);
        let after = engine.stats();
        // Truncation re-derives the rows and everything downstream of
        // them, but T, X^(k), the embedding, and ball lists are untouched.
        assert_eq!(after.influence_builds, before.influence_builds + 1);
        assert_eq!(after.index_builds, before.index_builds + 1);
        assert_eq!(after.transition_builds, before.transition_builds);
        assert_eq!(after.propagation_builds, before.propagation_builds);
        assert_eq!(after.embedding_builds, before.embedding_builds);
        assert_eq!(after.diversity_builds, before.diversity_builds);
    }

    #[test]
    fn artifact_bytes_track_residency() {
        let (g, x) = dataset(14);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        assert_eq!(engine.artifact_bytes(), ArtifactBytes::default());
        engine.select(&candidates, 6);
        let bytes = engine.artifact_bytes();
        for (name, count) in [
            ("transition", bytes.transition),
            ("propagation", bytes.propagation),
            ("embedding", bytes.embedding),
            ("influence_rows", bytes.influence_rows),
            ("activation_index", bytes.activation_index),
            ("balls", bytes.balls),
        ] {
            assert!(count > 0, "{name} built but reported zero bytes");
        }
        assert_eq!(bytes.total(), {
            bytes.transition
                + bytes.propagation
                + bytes.embedding
                + bytes.influence_rows
                + bytes.activation_index
                + bytes.balls
                + bytes.greedy_trace
        });
        // Truncation shrinks the influence artifact.
        let mut cfg = *engine.config();
        cfg.influence_row_top_k = 4;
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 6);
        assert!(engine.artifact_bytes().influence_rows <= bytes.influence_rows);
    }

    #[test]
    fn untruncated_top_k_selects_identically_at_any_thread_count() {
        // The acceptance bar for the CSR rewrite: top_k = 0 must be
        // bit-identical to the pre-rewrite nested path at every thread
        // count — same seeds, same sigma, same objective trace.
        let (g, x) = dataset(15);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let reference = {
            let mut cfg = GrainConfig::ball_d();
            cfg.parallelism = 1;
            SelectionEngine::new(cfg, &g, &x)
                .unwrap()
                .select(&candidates, 10)
        };
        for parallelism in [2usize, 4, 8] {
            let mut cfg = GrainConfig::ball_d();
            cfg.parallelism = parallelism;
            let out = SelectionEngine::new(cfg, &g, &x)
                .unwrap()
                .select(&candidates, 10);
            assert_eq!(out.selected, reference.selected, "{parallelism} threads");
            assert_eq!(out.sigma, reference.sigma, "{parallelism} threads");
            assert_eq!(
                out.objective_trace, reference.objective_trace,
                "{parallelism} threads"
            );
        }
    }

    #[test]
    fn kernel_round_trip_reuses_propagation_cache() {
        let (g, x) = dataset(7);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        let base = *engine.config();
        engine.select(&candidates, 5);
        let mut deep = base;
        deep.kernel = Kernel::RandomWalk { k: 3 };
        engine.set_config(deep).unwrap();
        engine.select(&candidates, 5);
        engine.set_config(base).unwrap();
        engine.select(&candidates, 5);
        // The k=2 embedding was evicted (single-slot) but the propagation
        // cache is a map: returning to k=2 propagates nothing new.
        assert_eq!(engine.stats().propagation_builds, 2);
        assert_eq!(engine.stats().influence_builds, 3);
    }
}
