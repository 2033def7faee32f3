//! Cache of propagated embeddings keyed by kernel.
//!
//! The selection pipeline evaluates several components (influence rows,
//! diversity, downstream GNN inputs) that all consume `X^(k)`; the cache
//! makes sure each kernel propagates exactly once per graph.
//!
//! The cache owns its corpus through [`Arc`] handles and stores each
//! artifact as an `Arc<DenseMatrix>`, so a long-lived serving tier (an
//! engine pool, a selection context feeding baselines) can hold the cache
//! without borrowing and hand out shared `X^(k)` views without copying.

use crate::kernel::Kernel;
use crate::propagate::{propagate_with, repropagate_rows_laddered};
use grain_graph::{transition_matrix, CsrMatrix, Graph};
use grain_linalg::DenseMatrix;
use std::collections::HashMap;
use std::sync::Arc;

/// One kernel's cached propagation: the final `X^(k)` plus the power
/// ladder (intermediate step states, see [`crate::propagate_with`]) that
/// keeps delta repair output-proportional. Every entry carries a complete
/// ladder (`kernel.steps() - 1` levels), however it got here.
struct CachedKernel {
    value: Arc<DenseMatrix>,
    ladder: Vec<Arc<DenseMatrix>>,
}

/// Per-graph memoization of `X^(k)` per kernel.
pub struct PropagationCache {
    graph: Arc<Graph>,
    features: Arc<DenseMatrix>,
    cache: HashMap<String, CachedKernel>,
}

impl PropagationCache {
    /// New cache over a graph and its raw feature matrix `X^(0)`.
    ///
    /// Accepts anything convertible into shared handles: owned values or
    /// preexisting `Arc`s (the engine-pool path, zero copies).
    ///
    /// # Panics
    /// Panics if `features.rows() != graph.num_nodes()`.
    pub fn new(graph: impl Into<Arc<Graph>>, features: impl Into<Arc<DenseMatrix>>) -> Self {
        let graph = graph.into();
        let features = features.into();
        assert_eq!(
            graph.num_nodes(),
            features.rows(),
            "feature rows ({}) must match node count ({})",
            features.rows(),
            graph.num_nodes()
        );
        Self {
            graph,
            features,
            cache: HashMap::new(),
        }
    }

    /// The propagated embedding for `kernel`, computed on first use.
    /// The returned handle shares the cached allocation.
    pub fn get(&mut self, kernel: Kernel) -> Arc<DenseMatrix> {
        if let Some(value) = self.get_cached(kernel) {
            return value;
        }
        let t = transition_matrix(&self.graph, kernel.transition_kind(), true);
        self.get_with(kernel, &t, 0, &|| false)
            .expect("propagation with a never-stopping probe cannot be cancelled")
    }

    /// Like [`PropagationCache::get`], but propagates over a prebuilt
    /// transition matrix on a miss — callers that already hold `T` (the
    /// selection engine caches it for the influence rows) avoid rebuilding
    /// it here — over `threads` workers (`0` = auto). Because propagation
    /// is bit-identical at any thread count (see [`crate::propagate_with`]),
    /// the cached artifact does not depend on the thread count it was
    /// built with, which is why a serving parallelism knob can be excluded
    /// from engine cache keys.
    ///
    /// `should_stop` is a cooperative stop probe: a cache miss whose build
    /// observes it returns `None` and caches **nothing** — the next request
    /// for this kernel starts a fresh, complete build, so cancellation can
    /// never tear an artifact. Cache hits ignore the probe entirely (the
    /// work is already done; handing it out is free).
    ///
    /// # Panics
    /// Panics if `transition` does not match the cached graph's node count.
    pub fn get_with(
        &mut self,
        kernel: Kernel,
        transition: &CsrMatrix,
        threads: usize,
        should_stop: &dyn Fn() -> bool,
    ) -> Option<Arc<DenseMatrix>> {
        let key = kernel.cache_key();
        if !self.cache.contains_key(&key) {
            let mut ladder = Vec::new();
            let value = propagate_with(
                transition,
                kernel,
                &self.features,
                threads,
                should_stop,
                Some(&mut ladder),
            )?;
            self.cache.insert(
                key.clone(),
                CachedKernel {
                    value: Arc::new(value),
                    ladder: ladder.into_iter().map(Arc::new).collect(),
                },
            );
        }
        Some(Arc::clone(&self.cache[&key].value))
    }

    /// Incrementally patches `X^(k)` for `kernel` after a graph/feature
    /// delta: recomputes only the `dirty` rows against `transition` (the
    /// **edited** graph's transition matrix) level by level via
    /// [`crate::propagate::repropagate_rows_laddered`], splices them into
    /// copies of `old` (the pre-delta artifact) and `old_ladder` (its power
    /// ladder, [`PropagationCache::cached_ladder`]), caches both under the
    /// kernel's key, and returns the patched matrix. The patched ladder is
    /// what lets the *next* delta repair just as cheaply.
    ///
    /// The cache must already be over the post-delta corpus — its
    /// `features` are the new `X^(0)`. Bit-identity contract: given a
    /// `dirty` set covering every row the delta can perturb (see
    /// `grain_graph::edit::k_hop_ball`), the cached artifact is
    /// byte-identical to a cold build over the edited corpus.
    ///
    /// # Panics
    /// Panics on shape mismatches, a ladder of the wrong depth, or an
    /// unsorted/out-of-range `dirty` list (see
    /// [`crate::propagate::repropagate_rows_laddered`]).
    pub fn repropagate_rows_laddered(
        &mut self,
        kernel: Kernel,
        transition: &CsrMatrix,
        old: &DenseMatrix,
        old_ladder: &[Arc<DenseMatrix>],
        dirty: &[u32],
    ) -> Arc<DenseMatrix> {
        let refs: Vec<&DenseMatrix> = old_ladder.iter().map(|l| l.as_ref()).collect();
        let (patched, ladder) =
            repropagate_rows_laddered(transition, kernel, &self.features, old, &refs, dirty);
        let value = Arc::new(patched);
        self.cache.insert(
            kernel.cache_key(),
            CachedKernel {
                value: Arc::clone(&value),
                ladder: ladder.into_iter().map(Arc::new).collect(),
            },
        );
        value
    }

    /// Inserts a precomputed `X^(k)` and its power ladder for `kernel`,
    /// sharing the allocations — the adoption path for a sibling engine's
    /// artifact (a pooled engine handing its propagation to a companion)
    /// and for artifacts deserialized from the on-disk store, so the
    /// kernel never re-propagates and a later delta repairs as cheaply as
    /// after a cold build.
    ///
    /// Returns `false` and caches nothing if the artifact does not fit
    /// this cache: `value` or a ladder level without one row per graph
    /// node and one column per feature, or a ladder of the wrong depth
    /// (anything but `kernel.steps() - 1` levels). The caller then builds
    /// cold, as on any other miss.
    pub fn seed(
        &mut self,
        kernel: Kernel,
        value: Arc<DenseMatrix>,
        ladder: Vec<Arc<DenseMatrix>>,
    ) -> bool {
        let shape = self.features.shape();
        let fits = value.shape() == shape
            && ladder.len() == kernel.steps().saturating_sub(1)
            && ladder.iter().all(|l| l.shape() == shape);
        if fits {
            self.cache
                .insert(kernel.cache_key(), CachedKernel { value, ladder });
        }
        fits
    }

    /// The cached `X^(k)` for `kernel` if it has already been propagated
    /// (or seeded), without computing anything on a miss.
    pub fn get_cached(&self, kernel: Kernel) -> Option<Arc<DenseMatrix>> {
        self.cache
            .get(&kernel.cache_key())
            .map(|c| Arc::clone(&c.value))
    }

    /// The cached power ladder for `kernel` — empty for misses and
    /// `k <= 1` kernels (which need no intermediate state).
    /// Handles share the cached allocations.
    pub fn cached_ladder(&self, kernel: Kernel) -> Vec<Arc<DenseMatrix>> {
        self.cache
            .get(&kernel.cache_key())
            .map(|c| c.ladder.iter().map(Arc::clone).collect())
            .unwrap_or_default()
    }

    /// Resident heap bytes of everything cached for `kernel`: the final
    /// `X^(k)` plus its power ladder. Zero on a miss.
    pub fn resident_bytes(&self, kernel: Kernel) -> usize {
        let dense = |m: &DenseMatrix| m.rows() * m.cols() * std::mem::size_of::<f32>();
        self.cache.get(&kernel.cache_key()).map_or(0, |c| {
            dense(&c.value) + c.ladder.iter().map(|l| dense(l)).sum::<usize>()
        })
    }

    /// True if `kernel` has already been propagated.
    pub fn contains(&self, kernel: Kernel) -> bool {
        self.cache.contains_key(&kernel.cache_key())
    }

    /// Number of kernels materialized so far.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True if nothing has been propagated yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The raw (unpropagated) feature matrix.
    pub fn raw_features(&self) -> &DenseMatrix {
        &self.features
    }

    /// Shared handle to the raw feature matrix.
    pub fn features_arc(&self) -> Arc<DenseMatrix> {
        Arc::clone(&self.features)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Shared handle to the underlying graph.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::propagate;
    use grain_graph::generators;

    #[test]
    fn caches_one_entry_per_kernel() {
        let g = generators::erdos_renyi_gnm(20, 40, 3);
        let x = DenseMatrix::full(20, 4, 1.0);
        let mut cache = PropagationCache::new(g, x);
        assert!(cache.is_empty());
        let _ = cache.get(Kernel::RandomWalk { k: 2 });
        let _ = cache.get(Kernel::RandomWalk { k: 2 });
        assert_eq!(cache.len(), 1);
        let _ = cache.get(Kernel::SymNorm { k: 2 });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_value_matches_direct_propagation() {
        let g = generators::erdos_renyi_gnm(15, 30, 4);
        let x = DenseMatrix::from_vec(15, 2, (0..30).map(|i| i as f32 * 0.1).collect());
        let kernel = Kernel::Ppr { k: 2, alpha: 0.1 };
        let direct = propagate(&g, kernel, &x);
        let mut cache = PropagationCache::new(g, x);
        assert_eq!(&*cache.get(kernel), &direct);
    }

    #[test]
    fn repeated_gets_share_one_allocation() {
        let g = generators::erdos_renyi_gnm(12, 24, 6);
        let x = DenseMatrix::full(12, 3, 0.5);
        let mut cache = PropagationCache::new(g, x);
        let a = cache.get(Kernel::RandomWalk { k: 2 });
        let b = cache.get(Kernel::RandomWalk { k: 2 });
        assert!(Arc::ptr_eq(&a, &b), "cache must hand out shared views");
    }

    #[test]
    fn arc_corpus_is_not_copied() {
        let g = Arc::new(generators::erdos_renyi_gnm(10, 20, 7));
        let x = Arc::new(DenseMatrix::zeros(10, 2));
        let cache = PropagationCache::new(Arc::clone(&g), Arc::clone(&x));
        assert!(Arc::ptr_eq(&cache.graph_arc(), &g));
        assert!(Arc::ptr_eq(&cache.features_arc(), &x));
    }

    #[test]
    #[should_panic(expected = "must match node count")]
    fn rejects_mismatched_features() {
        let g = generators::erdos_renyi_gnm(10, 20, 5);
        let x = DenseMatrix::zeros(5, 2);
        let _ = PropagationCache::new(g, x);
    }

    #[test]
    fn repropagate_rows_caches_the_patched_artifact() {
        use grain_graph::edit::{apply_edge_edits, k_hop_ball};
        use grain_graph::{transition_matrix, TransitionKind};
        let g = generators::erdos_renyi_gnm(40, 100, 8);
        let x = DenseMatrix::from_vec(40, 3, (0..120).map(|i| (i % 7) as f32 * 0.2).collect());
        let kernel = Kernel::RandomWalk { k: 2 };
        let t_old = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let old = propagate(&g, kernel, &x);
        let (edited, endpoints) = apply_edge_edits(&g, &[], &[(0, g.neighbors(0)[0])]).unwrap();
        let t_new = transition_matrix(&edited, TransitionKind::RandomWalk, true);
        let dirty = k_hop_ball(&edited, &endpoints, 3);
        // A donor cache that built cold carries the ladder; the patching
        // cache adopts and repairs it.
        let mut donor = PropagationCache::new(g.clone(), x.clone());
        let _ = donor.get_with(kernel, &t_old, 0, &|| false);
        let old_ladder = donor.cached_ladder(kernel);
        assert_eq!(old_ladder.len(), 1, "k=2 ladder is one level");
        let mut cache = PropagationCache::new(edited.clone(), x.clone());
        let patched = cache.repropagate_rows_laddered(kernel, &t_new, &old, &old_ladder, &dirty);
        assert_eq!(&*patched, &propagate(&edited, kernel, &x));
        // The patch is cached: the next get hands out the same allocation.
        let again = cache.get_with(kernel, &t_new, 0, &|| false).unwrap();
        assert!(Arc::ptr_eq(&patched, &again));
        // The patched ladder matches a cold build's over the edited graph,
        // so the next delta can repair level-locally too.
        let mut cold = PropagationCache::new(edited.clone(), x.clone());
        let _ = cold.get_with(kernel, &t_new, 0, &|| false);
        assert_eq!(
            cache.cached_ladder(kernel)[0],
            cold.cached_ladder(kernel)[0],
            "patched ladder != cold ladder"
        );
    }

    #[test]
    fn seed_adopts_complete_ladders_and_rejects_the_rest() {
        let g = generators::erdos_renyi_gnm(20, 40, 3);
        let x = DenseMatrix::from_vec(20, 2, (0..40).map(|i| (i % 5) as f32).collect());
        let kernel = Kernel::RandomWalk { k: 3 };
        let mut donor = PropagationCache::new(g.clone(), x.clone());
        let value = donor.get(kernel);
        let ladder = donor.cached_ladder(kernel);
        assert_eq!(ladder.len(), 2);
        let mut cache = PropagationCache::new(g.clone(), x.clone());
        // Too shallow, too deep, and mis-shaped ladders are refused whole.
        assert!(!cache.seed(kernel, Arc::clone(&value), ladder[..1].to_vec()));
        let mut deep = ladder.clone();
        deep.push(Arc::clone(&value));
        assert!(!cache.seed(kernel, Arc::clone(&value), deep));
        let narrow = Arc::new(DenseMatrix::zeros(20, 1));
        assert!(!cache.seed(kernel, Arc::clone(&value), vec![Arc::clone(&narrow); 2]));
        assert!(!cache.seed(kernel, narrow, ladder.clone()));
        assert!(!cache.contains(kernel), "a refused seed caches nothing");
        // The complete ladder is adopted, sharing every allocation.
        assert!(cache.seed(kernel, Arc::clone(&value), ladder.clone()));
        assert!(Arc::ptr_eq(&cache.get(kernel), &value));
        let adopted = cache.cached_ladder(kernel);
        assert!(adopted.iter().zip(&ladder).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn cancelled_build_caches_nothing_and_next_build_succeeds() {
        use grain_graph::{transition_matrix, TransitionKind};
        let g = generators::erdos_renyi_gnm(20, 40, 3);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let x = DenseMatrix::full(20, 4, 1.0);
        let kernel = Kernel::RandomWalk { k: 2 };
        let mut cache = PropagationCache::new(g, x);
        assert!(cache.get_with(kernel, &t, 0, &|| true).is_none());
        assert!(!cache.contains(kernel), "cancelled build left no artifact");
        // A fresh uncancelled build produces the full, correct artifact.
        let full = cache.get_with(kernel, &t, 0, &|| false).unwrap();
        assert_eq!(&*full, &*cache.get(kernel));
        // Hits ignore the probe: the work already happened.
        assert!(cache.get_with(kernel, &t, 0, &|| true).is_some());
    }
}
