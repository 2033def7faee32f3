//! Greedy prefix reuse: a warm engine answers every budget its cached
//! greedy trace covers by slicing it, and each sliced answer must be
//! bit-identical to a fresh engine's run in every wire-carried field —
//! selection, `F(S)` trace, `σ(S)`, `D(S)`, evaluation count, pruned pool
//! size and completion. Anything that changes the greedy stage's inputs
//! must run greedy again.

use grain::core::edge::proto::WireOutcome;
use grain::core::{CancelToken, GraphDelta, OnDeadline, PruneStrategy};
use grain::prelude::*;
use grain_graph::generators;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VARIANTS: [GrainVariant; 4] = [
    GrainVariant::Full,
    GrainVariant::NoDiversity,
    GrainVariant::NoMagnitude,
    GrainVariant::ClassicCoverage,
];

/// Random small corpus: an ER graph with random 4-d features.
fn corpus(nodes: usize, seed: u64) -> (Graph, DenseMatrix) {
    let g = generators::erdos_renyi_gnm(nodes, nodes * 3, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let data: Vec<f32> = (0..nodes * 4).map(|_| rng.random::<f32>() + 0.01).collect();
    (g, DenseMatrix::from_vec(nodes, 4, data))
}

fn config(lazy: bool, prune: bool, nn: bool) -> GrainConfig {
    GrainConfig {
        algorithm: if lazy {
            GreedyAlgorithm::Lazy
        } else {
            GreedyAlgorithm::Plain
        },
        prune: prune.then_some(PruneStrategy::Degree { keep_fraction: 0.6 }),
        diversity: if nn {
            DiversityKind::Nn
        } else {
            DiversityKind::Ball
        },
        radius: 0.3,
        ..GrainConfig::ball_d()
    }
}

/// Every wire field equal, floats compared bit for bit.
fn same(got: &SelectionOutcome, want: &SelectionOutcome) -> Result<(), String> {
    let (g, w) = (
        WireOutcome::from_outcome(got),
        WireOutcome::from_outcome(want),
    );
    let bits = |trace: &[f64]| trace.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if g != w
        || bits(&g.objective_trace) != bits(&w.objective_trace)
        || g.diversity_value.to_bits() != w.diversity_value.to_bits()
    {
        return Err(format!("got {g:?}\nwant {w:?}"));
    }
    Ok(())
}

fn fresh(
    cfg: GrainConfig,
    (g, x): &(Graph, DenseMatrix),
    variant: GrainVariant,
    candidates: &[u32],
    budget: usize,
) -> SelectionOutcome {
    SelectionEngine::new(cfg, g, x)
        .unwrap()
        .select_variant(variant, candidates, budget)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Budgets in ascending, descending, shuffled and repeated order —
    /// including 0, budgets past the pool, and a pool with duplicates —
    /// under both greedy algorithms, every variant, and pruning on and
    /// off: each warm answer equals a fresh engine's, and replaying the
    /// sequence is all hits.
    #[test]
    fn sliced_answers_match_fresh_runs(
        seed in 0u64..100_000,
        nodes in 16usize..48,
        order in 0usize..4,
        lazy in 0usize..2,
        prune in 0usize..2,
        variant in 0usize..4,
    ) {
        let data = corpus(nodes, seed);
        let cfg = config(lazy == 1, prune == 1, seed % 3 == 0);
        let variant = VARIANTS[variant];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut candidates: Vec<u32> = (0..nodes as u32)
            .filter(|_| rng.random::<f64>() < 0.7)
            .collect();
        candidates.push(candidates[0]);
        candidates.push(candidates[candidates.len() / 2]);
        let pool = candidates.len();
        let mut budgets: Vec<usize> = vec![0, 1, pool / 3, pool / 2, pool - 2, pool + 5];
        match order {
            0 => budgets.sort_unstable(),
            1 => budgets.sort_unstable_by(|a, b| b.cmp(a)),
            2 => {
                for i in (1..budgets.len()).rev() {
                    budgets.swap(i, rng.random_range(0..=i));
                }
            }
            _ => budgets = budgets.iter().flat_map(|&b| [b, b / 2, b]).collect(),
        }

        let mut engine = SelectionEngine::new(cfg, &data.0, &data.1).unwrap();
        let mut expected = Vec::new();
        for &budget in &budgets {
            let want = fresh(cfg, &data, variant, &candidates, budget);
            let got = engine.select_variant(variant, &candidates, budget);
            let ctx = format!("budget {budget} of {budgets:?}");
            prop_assert!(same(&got, &want).is_ok(), "{ctx}: {}", same(&got, &want).unwrap_err());
            expected.push(want);
        }
        let before = engine.stats();
        for (&budget, want) in budgets.iter().zip(&expected) {
            let got = engine.select_variant(variant, &candidates, budget);
            prop_assert!(same(&got, want).is_ok(), "replay {budget}: {}", same(&got, want).unwrap_err());
        }
        prop_assert_eq!(engine.stats().greedy_runs, before.greedy_runs, "a replay is all hits");

        // The sweep entry point answers the same sequence from one run.
        let mut sweeper = SelectionEngine::new(cfg, &data.0, &data.1).unwrap();
        let swept = sweeper
            .select_budgets_with_cancel(
                variant,
                &candidates,
                &budgets,
                &CancelToken::new(),
                OnDeadline::Fail,
            )
            .unwrap();
        prop_assert_eq!(sweeper.stats().greedy_runs, 1);
        prop_assert_eq!(swept.len(), budgets.len());
        for ((got, want), &budget) in swept.iter().zip(&expected).zip(&budgets) {
            prop_assert!(same(got, want).is_ok(), "sweep {budget}: {}", same(got, want).unwrap_err());
        }
    }
}

/// Warms `engine` to budget 12 on `candidates`, then checks that `change`
/// forces a real greedy run whose answer matches a cold build.
fn rerun_after(what: &str, change: impl FnOnce(&mut SelectionEngine) -> (GrainVariant, Vec<u32>)) {
    let data = corpus(40, 77);
    let candidates: Vec<u32> = (0..40).collect();
    let mut engine = SelectionEngine::new(config(true, false, false), &data.0, &data.1).unwrap();
    engine.select(&candidates, 12);
    assert!(engine.artifact_bytes().greedy_trace > 0);
    let (variant, pool) = change(&mut engine);
    let cfg = *engine.config();
    let before = engine.stats();
    let got = engine.select_variant(variant, &pool, 6);
    assert_eq!(
        engine.stats().greedy_runs,
        before.greedy_runs + 1,
        "{what} must run greedy again"
    );
    let want = fresh(cfg, &data, variant, &pool, 6);
    same(&got, &want).unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn gamma_change_runs_greedy_again() {
    rerun_after("a γ change", |engine| {
        let cfg = GrainConfig {
            gamma: 0.4,
            ..*engine.config()
        };
        engine.set_config(cfg).unwrap();
        (cfg.variant, (0..40).collect())
    });
}

#[test]
fn different_candidate_pool_runs_greedy_again() {
    rerun_after("another pool", |_| {
        (GrainVariant::Full, (0..40).filter(|v| v % 3 != 0).collect())
    });
}

#[test]
fn variant_override_runs_greedy_again() {
    rerun_after("a variant override", |_| {
        (GrainVariant::ClassicCoverage, (0..40).collect())
    });
}

#[test]
fn artifact_field_change_runs_greedy_again() {
    rerun_after("a θ change", |engine| {
        let cfg = GrainConfig {
            theta: ThetaRule::RelativeToRowMax(0.4),
            ..*engine.config()
        };
        engine.set_config(cfg).unwrap();
        assert_eq!(engine.artifact_bytes().greedy_trace, 0);
        (cfg.variant, (0..40).collect())
    });
}

#[test]
fn apply_update_runs_greedy_again_and_matches_a_cold_build() {
    let (g, x) = corpus(40, 78);
    let absent = (1..40u32)
        .find(|&v| g.adjacency().row(0).0.binary_search(&v).is_err())
        .expect("an ER graph at mean degree 6 leaves node 0 a non-neighbour");
    let service = GrainService::new();
    service.register_graph("g", g, x).unwrap();
    let request = SelectionRequest::new("g", config(true, false, false), Budget::Fixed(8));
    let longer = SelectionRequest {
        budget: Budget::Fixed(12),
        ..request.clone()
    };
    service.select(&longer).unwrap();
    let warm = service.select(&request).unwrap();
    assert_eq!(warm.artifact_builds.greedy_runs, 0, "budget 8 is a slice");

    service
        .apply_update("g", &GraphDelta::new().insert_edge(0, absent))
        .unwrap();
    let patched = service.select(&request).unwrap();
    assert_eq!(
        patched.artifact_builds.greedy_runs, 1,
        "the new epoch's engine starts without a trace"
    );
    let graph = service.graph("g").unwrap();
    let features = service.features("g").unwrap();
    let cold = SelectionEngine::new(request.config, &graph, &features)
        .unwrap()
        .select(&(0..40).collect::<Vec<u32>>(), 8);
    same(patched.outcome(), &cold).unwrap();
}
