//! Shared selection context.
//!
//! One dataset + seed + the *shared* smoothed embedding every selector
//! distances on. The context no longer propagates features privately:
//! `X^(k)` comes from a [`SelectionEngine`]'s propagation cache — either
//! an engine the context builds itself ([`SelectionContext::new`]) or a
//! pooled engine handed down from a
//! [`grain_core::service::GrainService`]
//! ([`SelectionContext::from_engine`]). Either way, Grain and every
//! baseline read the identical `X^(k)` artifact from one store.

use grain_core::{GrainConfig, SelectionEngine};
use grain_data::Dataset;
use grain_graph::Graph;
use grain_linalg::DenseMatrix;
use std::cell::{RefCell, RefMut};
use std::sync::Arc;

/// One dataset + seed + shared smoothed embedding + a warm engine.
///
/// All selectors see the same context; *oracle-free* methods (Grain,
/// Random, Degree, KCG) never read `dataset.labels`, while learning-based
/// methods (AGE, ANRMAB) query them only for nodes they have already
/// "sent to the oracle" — mirroring the paper's protocol where oracle
/// labels are assumed correct (A.4).
pub struct SelectionContext<'a> {
    /// The dataset under selection.
    pub dataset: &'a Dataset,
    /// Seed for any stochastic selector decisions.
    pub seed: u64,
    /// `X^(k)` under the context engine's kernel, shared with the engine's
    /// propagation cache (the representation AGE density and KCG distances
    /// operate on, per FeatProp/AGE practice).
    smoothed: Arc<DenseMatrix>,
    /// The warm engine backing this context. Grain adapters select through
    /// it; its artifact caches are the context's artifact store.
    engine: RefCell<SelectionEngine>,
}

impl<'a> SelectionContext<'a> {
    /// Builds the context with its own engine over the dataset (corpus is
    /// cloned into shared handles once; `X^(k)` is propagated once, in the
    /// engine's cache).
    ///
    /// # Panics
    /// Panics if `dataset.features` does not have one row per node.
    pub fn new(dataset: &'a Dataset, seed: u64) -> Self {
        let engine = SelectionEngine::over(
            GrainConfig::default(),
            dataset.graph.clone(),
            dataset.features.clone(),
        )
        .expect("dataset features must match its graph");
        Self::over_engine(dataset, seed, engine)
    }

    /// Wraps an engine the caller built (e.g. over preexisting `Arc`
    /// handles); the context owns it and draws `X^(k)` from its cache.
    pub fn over_engine(dataset: &'a Dataset, seed: u64, mut engine: SelectionEngine) -> Self {
        assert_eq!(
            engine.graph().num_nodes(),
            dataset.num_nodes(),
            "engine corpus must match the dataset"
        );
        let smoothed = engine.propagated();
        Self {
            dataset,
            seed,
            smoothed,
            engine: RefCell::new(engine),
        }
    }

    /// Context over a *pooled* engine (checked out of a
    /// [`grain_core::service::GrainService`] for the duration of this
    /// call): the smoothed embedding is the pooled engine's `X^(k)`
    /// artifact — the same allocation, no copy — so baselines running
    /// under this context compare bit-identically against Grain requests
    /// the service answers from that engine. The context's own engine
    /// shares the corpus handles and is seeded with the pooled `X^(k)`,
    /// so plain `select`/`select_sweep` calls routed through it never
    /// re-propagate (deeper artifacts — influence rows, the activation
    /// index — are still built privately on first Grain use; hand the
    /// pooled engine to
    /// [`crate::traits::NodeSelector::select_sweep_with`] to share those
    /// too).
    pub fn from_engine(dataset: &'a Dataset, seed: u64, engine: &mut SelectionEngine) -> Self {
        assert_eq!(
            engine.graph().num_nodes(),
            dataset.num_nodes(),
            "engine corpus must match the dataset"
        );
        engine.propagated();
        let (smoothed, ladder) = engine
            .propagated_if_cached(engine.config().kernel)
            .expect("propagation was just ensured");
        let mut own =
            SelectionEngine::over(*engine.config(), engine.graph_arc(), engine.features_arc())
                .expect("source engine config was validated");
        own.seed_propagated(Arc::clone(&smoothed), ladder);
        Self {
            dataset,
            seed,
            smoothed,
            engine: RefCell::new(own),
        }
    }

    /// The candidate pool (the train partition).
    pub fn candidates(&self) -> &[u32] {
        &self.dataset.split.train
    }

    /// The shared smoothed embedding.
    pub fn smoothed(&self) -> &DenseMatrix {
        &self.smoothed
    }

    /// Shared handle to the smoothed embedding (the engine cache's
    /// allocation).
    pub fn smoothed_arc(&self) -> Arc<DenseMatrix> {
        Arc::clone(&self.smoothed)
    }

    /// Shared handle to the context's graph.
    pub fn graph_arc(&self) -> Arc<Graph> {
        self.engine.borrow().graph_arc()
    }

    /// Shared handle to the context's raw feature matrix.
    pub fn features_arc(&self) -> Arc<DenseMatrix> {
        self.engine.borrow().features_arc()
    }

    /// Mutable access to the context's engine (Grain adapters select
    /// through it; every selector in a lineup shares its artifact caches).
    ///
    /// # Panics
    /// Panics if the engine is already borrowed — don't call this from
    /// inside [`crate::traits::NodeSelector::select_sweep_with`], which
    /// already holds an engine.
    pub fn engine(&self) -> RefMut<'_, SelectionEngine> {
        self.engine.borrow_mut()
    }

    /// Oracle access: the ground-truth label of a node the selector has
    /// decided to query. Kept explicit so call sites are auditable.
    pub fn oracle_label(&self, node: u32) -> u32 {
        self.dataset.labels[node as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_data::synthetic::papers_like;

    #[test]
    fn context_exposes_pool_and_embedding() {
        let ds = papers_like(400, 1);
        let ctx = SelectionContext::new(&ds, 7);
        assert_eq!(ctx.candidates(), ds.split.train.as_slice());
        assert_eq!(ctx.smoothed().shape(), (400, ds.feature_dim()));
        assert_eq!(ctx.oracle_label(0), ds.labels[0]);
    }

    #[test]
    fn smoothed_is_the_engine_cache_artifact() {
        // The ROADMAP open item: the context must not propagate privately.
        let ds = papers_like(300, 2);
        let ctx = SelectionContext::new(&ds, 1);
        let engine_view = ctx.engine().propagated();
        assert!(
            Arc::ptr_eq(&ctx.smoothed_arc(), &engine_view),
            "context smoothing must be the engine's X^(k) allocation"
        );
    }

    #[test]
    fn from_engine_shares_the_pooled_artifact() {
        let ds = papers_like(250, 3);
        let mut pooled = SelectionEngine::over(
            GrainConfig::default(),
            ds.graph.clone(),
            ds.features.clone(),
        )
        .unwrap();
        let pooled_view = pooled.propagated();
        let ctx = SelectionContext::from_engine(&ds, 4, &mut pooled);
        assert!(
            Arc::ptr_eq(&ctx.smoothed_arc(), &pooled_view),
            "baselines must read the pooled engine's X^(k), not a copy"
        );
        // And the context's own engine shares the corpus handles.
        assert!(Arc::ptr_eq(&ctx.graph_arc(), &pooled.graph_arc()));
        assert!(Arc::ptr_eq(&ctx.features_arc(), &pooled.features_arc()));
        // The context engine is seeded with the pooled X^(k): routing a
        // select through it re-propagates nothing and shares the pooled
        // allocation.
        let shadow_view = ctx.engine().propagated();
        assert!(Arc::ptr_eq(&shadow_view, &pooled_view));
        assert_eq!(ctx.engine().stats().propagation_builds, 0);
    }

    #[test]
    fn smoothed_matches_direct_propagation() {
        // Value-level check: the engine path computes the same X^(k) the
        // old private `propagate` call produced.
        let ds = papers_like(200, 5);
        let ctx = SelectionContext::new(&ds, 1);
        let direct = grain_prop::propagate(
            &ds.graph,
            grain_prop::Kernel::RandomWalk { k: 2 },
            &ds.features,
        );
        assert_eq!(ctx.smoothed(), &direct);
    }
}
