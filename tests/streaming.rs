//! Live-corpus maintenance: `apply_update` against cold-rebuild oracles.
//!
//! The streaming subsystem's contract is *bit-identity*: after a
//! [`GraphDelta`] lands, every artifact a patched engine serves must be
//! byte-for-byte what a cold build over the mutated corpus would have
//! produced — so selections, objective traces, and evaluation counts are
//! indistinguishable from a freshly registered service. This suite
//! drives that contract end-to-end through the public API on randomized
//! graphs and deltas, across kernels, top-k truncation, and thread
//! counts, plus the epoch semantics the scheduler layers on top.

use grain::core::edge::proto::WireOutcome;
use grain::graph::generators;
use grain::linalg::distance;
use grain::prelude::*;
use proptest::prelude::*;

const FEATURE_DIM: usize = 6;

fn corpus(n: usize, seed: u64) -> (Graph, DenseMatrix) {
    let g = generators::erdos_renyi_gnm(n, 3 * n, seed);
    let mut x = DenseMatrix::zeros(n, FEATURE_DIM);
    for v in 0..n {
        for j in 0..FEATURE_DIM {
            x.set(v, j, ((v * 31 + j * 7 + seed as usize) % 13) as f32 * 0.1);
        }
    }
    (g, x)
}

fn has_edge(g: &Graph, u: u32, v: u32) -> bool {
    g.adjacency().row(u as usize).0.binary_search(&v).is_ok()
}

/// A deterministic mixed delta for `g`: up to three deletions of live
/// edges, up to three insertions of absent edges, and (optionally) one
/// feature-row overwrite — never empty, never self-contradictory.
fn mutation(g: &Graph, seed: u64, with_features: bool) -> GraphDelta {
    let n = g.num_nodes() as u64;
    let mut delta = GraphDelta::new();
    let mut touched: Vec<(u32, u32)> = Vec::new();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..8 {
        let v = (next() % n) as u32;
        let (cols, _) = g.adjacency().row(v as usize);
        if cols.is_empty() {
            continue;
        }
        let u = cols[next() as usize % cols.len()];
        let key = (v.min(u), v.max(u));
        if touched.contains(&key) {
            continue;
        }
        touched.push(key);
        delta = delta.delete_edge(v, u);
        if delta.num_deletes() == 3 {
            break;
        }
    }
    for _ in 0..16 {
        let a = (next() % n) as u32;
        let b = (next() % n) as u32;
        let key = (a.min(b), a.max(b));
        if a == b || has_edge(g, a, b) || touched.contains(&key) {
            continue;
        }
        touched.push(key);
        delta = delta.insert_edge(a, b);
        if delta.num_inserts() == 3 {
            break;
        }
    }
    if with_features || delta.is_empty() {
        let v = (next() % n) as u32;
        let row: Vec<f32> = (0..FEATURE_DIM).map(|j| (j as f32 + 1.0) * 0.05).collect();
        delta = delta.set_features(v, row);
    }
    delta
}

/// The cold oracle's corpus: replay the delta on a scratch service (no
/// warm engines, so the splice path alone runs) and read back the
/// mutated snapshot.
fn mutated_corpus(g: &Graph, x: &DenseMatrix, delta: &GraphDelta) -> (Graph, DenseMatrix) {
    let service = GrainService::new();
    service
        .register_graph("scratch", g.clone(), x.clone())
        .unwrap();
    service.apply_update("scratch", delta).unwrap();
    (
        (*service.graph("scratch").unwrap()).clone(),
        (*service.features("scratch").unwrap()).clone(),
    )
}

fn config_for(kernel: Kernel, top_k: usize, parallelism: usize) -> GrainConfig {
    GrainConfig {
        kernel,
        influence_row_top_k: top_k,
        parallelism,
        ..GrainConfig::ball_d()
    }
}

fn assert_bit_identical(a: &SelectionReport, b: &SelectionReport, context: &str) {
    let (ao, bo) = (a.outcome(), b.outcome());
    assert_eq!(ao.selected, bo.selected, "{context}: selected set");
    assert_eq!(
        ao.objective_trace.len(),
        bo.objective_trace.len(),
        "{context}: trace length"
    );
    for (i, (x, y)) in ao
        .objective_trace
        .iter()
        .zip(&bo.objective_trace)
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: objective bit drift at round {i} ({x} vs {y})"
        );
    }
    assert_eq!(ao.evaluations, bo.evaluations, "{context}: evaluations");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// After `apply_update`, a warm selection is bit-identical to a cold
    /// service registered directly with the mutated corpus — across the
    /// paper's kernels, with and without top-k row truncation, and
    /// regardless of thread count.
    #[test]
    fn apply_update_is_bit_identical_to_cold_rebuild(
        seed in 0u64..500,
        nodes in 24usize..56,
    ) {
        let (g, x) = corpus(nodes, seed);
        let delta = mutation(&g, seed ^ 0xd1f7, seed % 2 == 0);
        let (g2, x2) = mutated_corpus(&g, &x, &delta);
        for kernel in [
            Kernel::SymNorm { k: 2 },
            Kernel::RandomWalk { k: 2 },
            Kernel::Ppr { k: 2, alpha: 0.15 },
        ] {
            for top_k in [0usize, 8] {
                for parallelism in [1usize, 2, 7] {
                    let config = config_for(kernel, top_k, parallelism);
                    let request =
                        SelectionRequest::new("live", config, Budget::Fixed(6));

                    let live = GrainService::new();
                    live.register_graph("live", g.clone(), x.clone()).unwrap();
                    live.select(&request).unwrap(); // warm the engine on epoch 0
                    let report = live.apply_update("live", &delta).unwrap();
                    prop_assert_eq!(report.epoch, 1);
                    prop_assert_eq!(report.engines_patched(), 1);
                    let patched = live.select(&request).unwrap();
                    // The patched engine must actually serve the answer.
                    prop_assert_eq!(patched.pool_event, PoolEvent::Hit);
                    prop_assert_eq!(patched.artifact_builds.propagation_builds, 0);
                    prop_assert_eq!(patched.artifact_builds.influence_builds, 0);

                    let cold = GrainService::new();
                    cold.register_graph("live", g2.clone(), x2.clone()).unwrap();
                    let reference = cold.select(&request).unwrap();
                    assert_bit_identical(
                        &patched,
                        &reference,
                        &format!("{kernel:?} top_k={top_k} par={parallelism}"),
                    );
                }
            }
        }
    }

    /// Deleting a batch of edges and reinserting them (same weights) in a
    /// later delta returns the corpus to its original adjacency — and the
    /// twice-patched engine to bit-identical selections.
    #[test]
    fn delete_then_reinsert_round_trips(seed in 0u64..500, nodes in 30usize..60) {
        let (g, x) = corpus(nodes, seed);
        // Pick three live edges deterministically.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for v in 0..nodes as u32 {
            let (cols, _) = g.adjacency().row(v as usize);
            if let Some(&u) = cols.iter().find(|&&u| u > v) {
                edges.push((v, u));
                if edges.len() == 3 {
                    break;
                }
            }
        }
        if edges.len() < 3 {
            return Ok(()); // degenerate graph draw; skip the case
        }

        let request = SelectionRequest::new(
            "g",
            config_for(Kernel::RandomWalk { k: 2 }, 8, 0),
            Budget::Fixed(6),
        );
        let service = GrainService::new();
        service.register_graph("g", g.clone(), x).unwrap();
        let before = service.select(&request).unwrap();

        let mut del = GraphDelta::new();
        let mut re = GraphDelta::new();
        for &(v, u) in &edges {
            del = del.delete_edge(v, u);
            re = re.insert_edge(v, u); // generator edges carry weight 1.0
        }
        service.apply_update("g", &del).unwrap();
        let report = service.apply_update("g", &re).unwrap();
        prop_assert_eq!(report.epoch, 2);

        let restored = service.graph("g").unwrap();
        prop_assert_eq!(
            restored.adjacency(),
            g.adjacency(),
            "round-trip must restore the adjacency exactly"
        );
        let after = service.select(&request).unwrap();
        prop_assert_eq!(after.pool_event, PoolEvent::Hit);
        assert_bit_identical(&before, &after, "delete/reinsert round-trip");
    }
}

/// A feature-only delta leaves the transition untouched: no influence
/// rows are re-walked, yet propagation dirties the k-hop ball of the
/// overwritten rows and the selection matches a cold rebuild.
#[test]
fn feature_only_delta_skips_influence_rewalk() {
    let (g, x) = corpus(90, 11);
    let request = SelectionRequest::new(
        "g",
        config_for(Kernel::SymNorm { k: 2 }, 0, 0),
        Budget::Fixed(6),
    );
    let service = GrainService::new();
    service.register_graph("g", g.clone(), x.clone()).unwrap();
    service.select(&request).unwrap();

    let row: Vec<f32> = (0..FEATURE_DIM).map(|j| 0.9 - j as f32 * 0.1).collect();
    let delta = GraphDelta::new().set_features(17, row.clone());
    let report = service.apply_update("g", &delta).unwrap();
    assert_eq!(report.engines_patched(), 1);
    assert_eq!(report.patched[0].dirty_influence, 0);
    assert!(report.patched[0].dirty_propagation > 0);
    let patched = service.select(&request).unwrap();

    let mut x2 = x;
    x2.row_mut(17).copy_from_slice(&row);
    let cold = GrainService::new();
    cold.register_graph("g", g, x2).unwrap();
    let reference = cold.select(&request).unwrap();
    assert_bit_identical(&patched, &reference, "feature-only delta");
}

/// A θ-sibling adopts `X^(k)` and its power ladder from the resident
/// ball-D engine instead of re-propagating. `apply_update` then repairs
/// both engines level-locally from their ladders, and both match a cold
/// build of the mutated corpus bit for bit — selections, `X^(k)`, and the
/// ladder the next delta will repair from.
#[test]
fn donated_sibling_patches_from_its_ladder_bit_identically() {
    let (g, x) = corpus(80, 31);
    let kernel = Kernel::RandomWalk { k: 2 };
    let base = config_for(kernel, 0, 0);
    let sibling = GrainConfig {
        theta: ThetaRule::RelativeToRowMax(0.35),
        ..base
    };
    assert_ne!(base.artifact_fingerprint(), sibling.artifact_fingerprint());
    let requests = [base, sibling].map(|c| SelectionRequest::new("live", c, Budget::Fixed(6)));
    let service = GrainService::with_capacity(8);
    service
        .register_graph("live", g.clone(), x.clone())
        .unwrap();
    let first = service.select(&requests[0]).unwrap();
    assert_eq!(first.artifact_builds.propagation_builds, 1);
    let donated = service.select(&requests[1]).unwrap();
    assert_eq!(
        donated.artifact_builds.propagation_builds, 0,
        "the sibling adopts the resident X^(k)"
    );

    let delta = mutation(&g, 31, false);
    let report = service.apply_update("live", &delta).unwrap();
    assert_eq!(report.engines_patched(), 2);
    let (g2, x2) = mutated_corpus(&g, &x, &delta);
    let cold = GrainService::new();
    cold.register_graph("live", g2, x2).unwrap();
    for request in &requests {
        let context = format!("theta {:?}", request.config.theta);
        let patched = service.select(request).unwrap();
        assert_eq!(patched.pool_event, PoolEvent::Hit, "{context}");
        assert_eq!(patched.artifact_builds.propagation_builds, 0, "{context}");
        let reference = cold.select(request).unwrap();
        assert_bit_identical(&patched, &reference, &context);

        let (live_engine, _) = service.engine("live", &request.config).unwrap();
        let (value, ladder) = live_engine
            .lock()
            .propagated_if_cached(kernel)
            .expect("patched X^(k)");
        let (cold_engine, _) = cold.engine("live", &request.config).unwrap();
        let (cold_value, cold_ladder) = cold_engine.lock().propagated_if_cached(kernel).unwrap();
        assert_eq!(
            ladder.len(),
            kernel.steps() - 1,
            "{context}: complete ladder"
        );
        assert_eq!(*value, *cold_value, "{context}: X^(k)");
        for (level, (a, b)) in ladder.iter().zip(&cold_ladder).enumerate() {
            assert_eq!(**a, **b, "{context}: ladder level {level}");
        }
    }
}

/// Epoch semantics under the scheduler: selections queued (and coalesced)
/// before an `apply_update` lands still complete, and everything that
/// *executes* after the flip is bit-identical to a cold service over the
/// mutated corpus — one consistent snapshot, never a torn mix.
#[test]
fn scheduled_selections_resolve_consistently_across_epoch_flip() {
    let (g, x) = corpus(80, 21);
    let service = std::sync::Arc::new(GrainService::new());
    service
        .register_graph("live", g.clone(), x.clone())
        .unwrap();
    let request = SelectionRequest::new(
        "live",
        config_for(Kernel::RandomWalk { k: 2 }, 8, 0),
        Budget::Fixed(7),
    );
    let scheduler = Scheduler::new(
        std::sync::Arc::clone(&service),
        SchedulerConfig {
            workers: 2,
            start_paused: true,
            ..SchedulerConfig::default()
        },
    );

    // Two identical submissions on epoch 0 coalesce onto one slot while
    // dispatch is paused; the update then flips the corpus to epoch 1
    // before any work runs.
    let first = scheduler.submit(request.clone()).unwrap();
    let twin = scheduler.submit(request.clone()).unwrap();
    let report = service
        .apply_update(
            "live",
            &GraphDelta::new().insert_edge(2, 71).delete_edge_first(&g),
        )
        .unwrap();
    assert_eq!(report.epoch, 1);
    // A post-flip submission keys on epoch 1 and must not join the
    // epoch-0 pair's slot.
    let late = scheduler.submit(request.clone()).unwrap();
    scheduler.resume();

    let a = first.wait().unwrap();
    let b = twin.wait().unwrap();
    let c = late.wait().unwrap();
    assert_eq!(
        scheduler.stats().coalesced,
        1,
        "only the epoch-0 twins coalesce"
    );

    // Everything executed after the flip: all three match the cold
    // oracle over the mutated corpus.
    let cold = GrainService::new();
    cold.register_graph(
        "live",
        (*service.graph("live").unwrap()).clone(),
        (*service.features("live").unwrap()).clone(),
    )
    .unwrap();
    let reference = cold.select(&request).unwrap();
    for (label, got) in [("first", &a), ("twin", &b), ("late", &c)] {
        assert_bit_identical(got, &reference, label);
    }
}

trait DeltaTestExt {
    fn delete_edge_first(self, g: &Graph) -> Self;
}

impl DeltaTestExt for GraphDelta {
    /// Deletes the first edge of node 0 (present in every generated
    /// corpus used here).
    fn delete_edge_first(self, g: &Graph) -> Self {
        let (cols, _) = g.adjacency().row(0);
        self.delete_edge(0, cols[0])
    }
}

/// Every wire-carried field of two outcomes equal, floats bit for bit.
fn assert_same_wire(got: &SelectionOutcome, want: &SelectionOutcome, context: &str) {
    let (g, w) = (
        WireOutcome::from_outcome(got),
        WireOutcome::from_outcome(want),
    );
    let bits = |trace: &[f64]| trace.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(g, w, "{context}");
    assert_eq!(
        bits(&g.objective_trace),
        bits(&w.objective_trace),
        "{context}: F(S) bits"
    );
    assert_eq!(
        g.diversity_value.to_bits(),
        w.diversity_value.to_bits(),
        "{context}: D(S) bits"
    );
}

/// One small edit of `g`: toggles one node pair's edge or overwrites one
/// feature row, chosen by `seed`.
fn single_edit(g: &Graph, seed: u64) -> GraphDelta {
    let n = g.num_nodes() as u64;
    let a = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20) % n;
    let b = (a + 1 + (seed >> 3) % (n - 1)) % n;
    let (a, b) = (a as u32, b as u32);
    match seed % 3 {
        0 => {
            let row: Vec<f32> = (0..FEATURE_DIM)
                .map(|j| ((seed as usize + j) % 5) as f32 * 0.2)
                .collect();
            GraphDelta::new().set_features(a, row)
        }
        _ if has_edge(g, a, b) => GraphDelta::new().delete_edge(a, b),
        _ => GraphDelta::new().insert_edge(a, b),
    }
}

/// Ball-D with a radius wide enough that balls hold several members, so
/// an update moves rows into and out of them.
fn ball_config(kernel: Kernel, parallelism: usize) -> GrainConfig {
    GrainConfig {
        radius: 0.25,
        ..config_for(kernel, 0, parallelism)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The propagation dirty set `ball_{k-1}(T_d) ∪ ball_k(F)` covers
    /// every ladder level of every kernel: after edge-only, feature-only
    /// and mixed deltas, the patched `X^(k)`, its ladder, the embedding
    /// and the selection equal a cold build of the mutated corpus.
    #[test]
    fn propagation_dirty_set_covers_every_kernel(seed in 0u64..500, nodes in 24usize..56) {
        let (g, x) = corpus(nodes, seed);
        let feature_row: Vec<f32> = (0..FEATURE_DIM).map(|j| 0.1 + j as f32 * 0.15).collect();
        let deltas = [
            ("edge-only", mutation(&g, seed ^ 0xed9e, false)),
            ("feature-only", GraphDelta::new().set_features((seed % nodes as u64) as u32, feature_row)),
            ("mixed", mutation(&g, seed ^ 0x31c5, true)),
        ];
        for (label, delta) in &deltas {
            let (g2, x2) = mutated_corpus(&g, &x, delta);
            for kernel in [
                Kernel::SymNorm { k: 1 },
                Kernel::SymNorm { k: 2 },
                Kernel::RandomWalk { k: 3 },
                Kernel::Ppr { k: 3, alpha: 0.15 },
                Kernel::S2gc { k: 3, alpha: 0.2 },
                Kernel::Gbp { k: 3, beta: 0.5 },
            ] {
                let context = format!("{label} {kernel:?}");
                let config = config_for(kernel, 0, 0);
                let request = SelectionRequest::new("live", config, Budget::Fixed(5));
                let live = GrainService::new();
                live.register_graph("live", g.clone(), x.clone()).unwrap();
                live.select(&request).unwrap();
                let report = live.apply_update("live", delta).unwrap();
                prop_assert_eq!(report.engines_patched(), 1);
                let patched = live.select(&request).unwrap();
                prop_assert_eq!(patched.artifact_builds.propagation_builds, 0);

                let cold = GrainService::new();
                cold.register_graph("live", g2.clone(), x2.clone()).unwrap();
                let reference = cold.select(&request).unwrap();
                assert_same_wire(patched.outcome(), reference.outcome(), &context);

                let (live_engine, _) = live.engine("live", &config).unwrap();
                let (cold_engine, _) = cold.engine("live", &config).unwrap();
                let (mut live_engine, mut cold_engine) = (live_engine.lock(), cold_engine.lock());
                let (value, ladder) = live_engine.propagated_if_cached(kernel).unwrap();
                let (cold_value, cold_ladder) = cold_engine.propagated_if_cached(kernel).unwrap();
                prop_assert_eq!(&*value, &*cold_value, "{}: X^(k)", context);
                prop_assert_eq!(ladder.len(), cold_ladder.len());
                for (level, (a, b)) in ladder.iter().zip(&cold_ladder).enumerate() {
                    prop_assert_eq!(&**a, &**b, "{}: ladder level {}", context, level);
                }
                prop_assert_eq!(
                    &*live_engine.normalized_embedding(),
                    &*cold_engine.normalized_embedding(),
                    "{}: embedding",
                    context
                );
            }
        }
    }

    /// Ball lists repaired across chains of one to three updates, with and
    /// without reads between them, equal `radius_neighbors` over a cold
    /// engine's embedding of the mutated corpus at one thread and at the
    /// machine's thread count, and answer every Ball-D variant exactly as
    /// that cold engine does. Each read after a flip repairs the lists
    /// instead of rebuilding them, however many rows the flips dirtied.
    #[test]
    fn repaired_ball_lists_answer_like_a_cold_engine(
        seed in 0u64..500,
        nodes in 90usize..140,
        updates in 1usize..4,
    ) {
        let (g, x) = corpus(nodes, seed);
        for (variant, parallelism, read_between) in [
            (GrainVariant::Full, 1usize, false),
            (GrainVariant::Full, 0, true),
            (GrainVariant::NoMagnitude, 0, false),
            (GrainVariant::ClassicCoverage, 1, true),
        ] {
            let config = ball_config(Kernel::RandomWalk { k: 2 }, parallelism);
            let request =
                SelectionRequest::new("live", config, Budget::Fixed(7)).with_variant(variant);
            let live = GrainService::new();
            live.register_graph("live", g.clone(), x.clone()).unwrap();
            live.select(&request).unwrap();
            let mut pending_since_read = 0usize;
            for step in 0..updates {
                let graph = live.graph("live").unwrap();
                let delta = single_edit(&graph, seed.wrapping_add(step as u64 * 7919));
                let report = live.apply_update("live", &delta).unwrap();
                prop_assert_eq!(report.engines_patched(), 1);
                pending_since_read += report.patched[0].dirty_propagation;
                if !read_between && step + 1 < updates {
                    continue;
                }
                let context = format!("{variant:?} par={parallelism} step {step}");
                let read = live.select(&request).unwrap();
                let builds = read.artifact_builds;
                prop_assert_eq!(read.pool_event, PoolEvent::Hit);
                prop_assert_eq!(builds.propagation_builds, 0);
                let repairs = usize::from(pending_since_read > 0);
                prop_assert_eq!((builds.ball_repairs, builds.diversity_builds), (repairs, 0), "{}", context);
                pending_since_read = 0;

                let mut cold = SelectionEngine::over(
                    config,
                    live.graph("live").unwrap(),
                    live.features("live").unwrap(),
                )
                .unwrap();
                let (checkout, _) = live.engine("live", &config).unwrap();
                let repaired = checkout.lock().ball_lists();
                let embedding = cold.normalized_embedding();
                for threads in [1usize, 0] {
                    let full = distance::radius_neighbors(&embedding, config.radius, threads);
                    prop_assert!(*repaired == full, "{}: ball lists, {} threads", context, threads);
                }
                let cold = cold.select_variant(variant, &(0..nodes as u32).collect::<Vec<_>>(), 7);
                assert_same_wire(read.outcome(), &cold, &context);
            }
        }
    }
}

/// The exact repair accounting of one update: the read after it repairs
/// the ball lists once and builds nothing.
#[test]
fn the_read_after_an_update_repairs_ball_lists_instead_of_rebuilding() {
    let (g, x) = corpus(120, 41);
    let config = ball_config(Kernel::RandomWalk { k: 2 }, 0);
    let request = SelectionRequest::new("g", config, Budget::Fixed(8));
    let service = GrainService::new();
    service.register_graph("g", g.clone(), x).unwrap();
    let first = service.select(&request).unwrap();
    assert_eq!(first.artifact_builds.diversity_builds, 1);
    assert_eq!(first.artifact_builds.ball_repairs, 0);

    let report = service.apply_update("g", &single_edit(&g, 2)).unwrap();
    assert!(report.patched[0].dirty_propagation > 0, "{report:?}");
    let read = service.select(&request).unwrap();
    assert_eq!(
        read.artifact_builds,
        EngineStats {
            ball_repairs: 1,
            selections: 1,
            greedy_runs: 1,
            ..EngineStats::default()
        }
    );
    // Repaired lists are current: the next read is fully warm.
    assert!(service.select(&request).unwrap().fully_warm());
}

/// A radius change after a patch misses the lists' key: the lists are
/// built in full for the new radius, never repaired from the old one.
#[test]
fn a_radius_change_after_a_patch_rebuilds_ball_lists_in_full() {
    let (g, x) = corpus(100, 43);
    let config = ball_config(Kernel::RandomWalk { k: 2 }, 0);
    let service = GrainService::new();
    service.register_graph("g", g.clone(), x).unwrap();
    service
        .select(&SelectionRequest::new("g", config, Budget::Fixed(6)))
        .unwrap();
    service.apply_update("g", &single_edit(&g, 5)).unwrap();

    let wider = GrainConfig {
        radius: 0.4,
        ..config
    };
    let (checkout, event) = service.engine("g", &config).unwrap();
    assert_eq!(event, PoolEvent::Hit, "the patched engine");
    let mut engine = checkout.lock();
    engine.set_config(wider).unwrap();
    let before = engine.stats();
    let candidates: Vec<u32> = (0..100).collect();
    let got = engine.select(&candidates, 6);
    let delta = engine.stats().delta_since(&before);
    assert_eq!((delta.diversity_builds, delta.ball_repairs), (1, 0));
    let cold = SelectionEngine::over(
        wider,
        service.graph("g").unwrap(),
        service.features("g").unwrap(),
    )
    .unwrap()
    .select(&candidates, 6);
    assert_same_wire(&got, &cold, "radius change after a patch");
    // Back at the patched radius, the lists built above miss again.
    engine.set_config(config).unwrap();
    let before = engine.stats();
    engine.select(&candidates, 6);
    let delta = engine.stats().delta_since(&before);
    assert_eq!((delta.diversity_builds, delta.ball_repairs), (1, 0));
}

/// Lists built under one kernel do not survive a patch taken while the
/// engine ran another: the embedding they were stale against was never
/// migrated, so switching back rebuilds them in full.
#[test]
fn a_kernel_switch_before_a_patch_rebuilds_ball_lists_in_full() {
    let (g, x) = corpus(200, 47);
    let sym = ball_config(Kernel::SymNorm { k: 2 }, 0);
    let walk = ball_config(Kernel::RandomWalk { k: 2 }, 0);
    let candidates: Vec<u32> = (0..200).collect();
    let service = GrainService::new();
    service.register_graph("g", g.clone(), x).unwrap();
    {
        let (checkout, _) = service.engine("g", &sym).unwrap();
        let mut engine = checkout.lock();
        engine.select(&candidates, 6); // lists under the sym kernel
        engine.set_config(walk).unwrap();
        // The walk-kernel embedding is built; the sym lists stay cached.
        engine.select_variant(GrainVariant::NoDiversity, &candidates, 6);
    }
    // The engine re-keyed under `walk` when the checkout dropped; the
    // patch migrates the walk-kernel embedding only.
    let report = service.apply_update("g", &single_edit(&g, 8)).unwrap();
    assert!(report.patched[0].dirty_propagation > 0);
    let (checkout, event) = service.engine("g", &walk).unwrap();
    assert_eq!(event, PoolEvent::Hit, "the patched engine");
    let mut engine = checkout.lock();
    engine.set_config(sym).unwrap();
    let before = engine.stats();
    let got = engine.select(&candidates, 6);
    let delta = engine.stats().delta_since(&before);
    assert_eq!((delta.diversity_builds, delta.ball_repairs), (1, 0));
    let cold = SelectionEngine::over(
        sym,
        service.graph("g").unwrap(),
        service.features("g").unwrap(),
    )
    .unwrap()
    .select(&candidates, 6);
    assert_same_wire(&got, &cold, "kernel switch before a patch");
}

/// An update that dirties every row still repairs the lists: a repair of
/// `n` pending rows measures no more pairs than the full build, so no
/// pending-set size falls back to it. The repaired lists and answer equal
/// a cold engine's.
#[test]
fn an_update_dirtying_every_row_still_repairs_ball_lists() {
    let n = 80;
    let (g, x) = corpus(n, 53);
    let config = ball_config(Kernel::RandomWalk { k: 2 }, 0);
    let request = SelectionRequest::new("g", config, Budget::Fixed(6));
    let service = GrainService::new();
    service.register_graph("g", g, x).unwrap();
    service.select(&request).unwrap();

    let delta = (0..n as u32).fold(GraphDelta::new(), |delta, v| {
        let row = (0..FEATURE_DIM)
            .map(|j| ((v as usize * 5 + j * 3) % 11) as f32 * 0.1 - 0.5)
            .collect();
        delta.set_features(v, row)
    });
    let report = service.apply_update("g", &delta).unwrap();
    assert_eq!(report.patched[0].dirty_propagation, n);
    let read = service.select(&request).unwrap();
    assert_eq!(
        (
            read.artifact_builds.ball_repairs,
            read.artifact_builds.diversity_builds
        ),
        (1, 0)
    );

    let mut cold = SelectionEngine::over(
        config,
        service.graph("g").unwrap(),
        service.features("g").unwrap(),
    )
    .unwrap();
    let (checkout, _) = service.engine("g", &config).unwrap();
    let repaired = checkout.lock().ball_lists();
    let full = distance::radius_neighbors(&cold.normalized_embedding(), config.radius, 1);
    assert!(*repaired == full, "repaired lists equal a full build");
    let want = cold.select(&(0..n as u32).collect::<Vec<_>>(), 6);
    assert_same_wire(read.outcome(), &want, "every row dirty");
}
