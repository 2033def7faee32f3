//! Streaming-delta benchmark: `apply_update` against cold rebuild,
//! emitting `results/BENCH_delta.json`.
//!
//! Per corpus size (Barabási–Albert, the hub-heavy law that stresses
//! dirty-set expansion hardest) and delta size (1 / 16 / 256 toggled
//! edges), the JSON records:
//!
//! * **apply latency** — wall-clock of `apply_update` patching the one
//!   resident engine (dirty-set expansion + row re-propagation +
//!   influence-row splice + index repair + epoch flip), sampled over an
//!   alternating insert-batch/delete-batch toggle so the corpus returns
//!   to its original adjacency;
//! * **dirty-set sizes** — min/median/max of the propagation and
//!   influence dirty rows across those samples, i.e. how far the k-hop
//!   frontier actually spread;
//! * **cold rebuild** — what the same engine costs from scratch on the
//!   mutated corpus: the full cold request and its artifact-only
//!   portion (propagation + influence + indexing stage timings);
//! * **speedups** — apply vs. both cold numbers. The headline claim is
//!   the 1-edge delta at n=1e5 applying ≥ 50× faster than the cold
//!   artifact build;
//! * **Ball-D fresh read** — on a separate n=4000 corpus (the all-pairs
//!   ball build is `O(n²·d)`), the first Ball-D read after a 1-edge
//!   update with the ball lists repaired from the re-propagated
//!   embedding rows against the same read with the lists rebuilt in
//!   full, the two answers asserted equal. Recorded twice: on centered
//!   features (small balls, repair at its best) and on the raw
//!   all-positive features (most of the corpus in every ball, so the
//!   repair's `O(Σ|G_u|)` list copy dominates).
//!
//! CI smoke: `GRAIN_DELTA_MAX_N` caps the ladder (e.g. `20000`) so the
//! bench exercises every code path in seconds; the committed JSON comes
//! from an uncapped run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_bench::record::{summarize, write_json, Case};
use grain_core::{
    Budget, DiversityKind, GrainConfig, GrainService, GrainVariant, GraphDelta, GreedyAlgorithm,
    SelectionRequest,
};
use grain_graph::{generators, Graph};
use grain_linalg::DenseMatrix;
use std::cell::Cell;
use std::time::{Duration, Instant};

const BUDGET: usize = 64;
const TOP_K: usize = 32;
const FEATURE_DIM: usize = 8;
/// Applies sampled per (n, delta size); even, so each toggle sequence
/// ends with the corpus back at its original adjacency.
const SAMPLES: usize = 10;
/// Unrecorded toggles before sampling: the first applies after a cold
/// build pay one-time allocator growth and page faults that are not part
/// of the steady-state apply path. Even, to preserve toggle parity.
const WARMUP: usize = 4;
/// Nodes of the Ball-D fresh-read case's corpus.
const BALL_N: usize = 4_000;

fn features(n: usize) -> DenseMatrix {
    let data: Vec<f32> = (0..n * FEATURE_DIM)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            (h % 251) as f32 * 0.004 + 0.01
        })
        .collect();
    DenseMatrix::from_vec(n, FEATURE_DIM, data)
}

fn delta_config() -> GrainConfig {
    GrainConfig {
        // The streaming path patches propagation/influence/index; the
        // O(n^2) diversity stage would only blur those numbers.
        variant: GrainVariant::NoDiversity,
        gamma: 0.0,
        influence_eps: 1e-4,
        influence_row_top_k: TOP_K,
        algorithm: GreedyAlgorithm::Lazy,
        ..GrainConfig::default()
    }
}

fn has_edge(g: &Graph, u: u32, v: u32) -> bool {
    g.adjacency().row(u as usize).0.binary_search(&v).is_ok()
}

/// `size` distinct node pairs absent from `g`: the toggle set whose
/// batch-insert/batch-delete alternation drives the apply samples.
fn toggle_pairs(g: &Graph, size: usize) -> Vec<(u32, u32)> {
    let n = g.num_nodes() as u64;
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(size);
    let mut i: u64 = 0;
    while pairs.len() < size {
        let a = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) % n;
        let b = (i.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) >> 19) % n;
        i += 1;
        let (a, b) = (a.min(b) as u32, a.max(b) as u32);
        if a == b || has_edge(g, a, b) || pairs.contains(&(a, b)) {
            continue;
        }
        pairs.push((a, b));
    }
    pairs
}

fn insert_all(pairs: &[(u32, u32)]) -> GraphDelta {
    pairs
        .iter()
        .fold(GraphDelta::new(), |d, &(a, b)| d.insert_edge(a, b))
}

fn delete_all(pairs: &[(u32, u32)]) -> GraphDelta {
    pairs
        .iter()
        .fold(GraphDelta::new(), |d, &(a, b)| d.delete_edge(a, b))
}

fn quantiles(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let min = xs.first().copied().unwrap_or(0.0);
    let median = xs.get(xs.len() / 2).copied().unwrap_or(0.0);
    let max = xs.last().copied().unwrap_or(0.0);
    (min, median, max)
}

fn run_rung(c: &mut Criterion, n: usize, cases: &mut Vec<Case>) {
    let graph_id = format!("ba-{n}");
    let graph = generators::barabasi_albert(n, 4, 42);
    let x = features(n);
    // Capacity 2: the current epoch's engine plus one stale epoch. A
    // deep pool would keep every superseded epoch's ~tens-of-MB
    // artifacts resident and the allocator churn would pollute the
    // apply samples.
    let service = GrainService::with_capacity(2);
    service
        .register_graph(&graph_id, graph.clone(), x.clone())
        .expect("corpus registers");
    let request = SelectionRequest::new(&graph_id, delta_config(), Budget::Fixed(BUDGET));
    service.select(&request).expect("warm-up select");

    for size in [1usize, 16, 256] {
        let pairs = toggle_pairs(&graph, size);
        let mut samples: Vec<Duration> = Vec::with_capacity(SAMPLES);
        let mut dirty_prop: Vec<f64> = Vec::new();
        let mut dirty_inf: Vec<f64> = Vec::new();
        let mut stage_ns: Vec<(&'static str, Vec<f64>)> = [
            "transition",
            "propagation",
            "embedding",
            "influence",
            "index",
        ]
        .map(|s| (s, Vec::new()))
        .into_iter()
        .collect();
        for w in 0..WARMUP {
            let delta = if w % 2 == 0 {
                insert_all(&pairs)
            } else {
                delete_all(&pairs)
            };
            service
                .apply_update(&graph_id, &delta)
                .expect("warmup apply");
        }
        for s in 0..SAMPLES {
            let delta = if s % 2 == 0 {
                insert_all(&pairs)
            } else {
                delete_all(&pairs)
            };
            let t = Instant::now();
            let report = service
                .apply_update(&graph_id, &delta)
                .expect("delta applies");
            samples.push(t.elapsed());
            assert_eq!(report.engines_patched(), 1, "n={n} size={size}");
            let patch = &report.patched[0];
            dirty_prop.push(patch.dirty_propagation as f64);
            dirty_inf.push(patch.dirty_influence as f64);
            for (stage, xs) in stage_ns.iter_mut() {
                let d = match *stage {
                    "transition" => patch.timings.transition,
                    "propagation" => patch.timings.propagation,
                    "embedding" => patch.timings.embedding,
                    "influence" => patch.timings.influence,
                    _ => patch.timings.index,
                };
                xs.push(d.as_nanos() as f64);
            }
        }
        // Patched artifacts must serve the next request fully warm.
        let warm = service.select(&request).expect("post-apply select");
        assert!(warm.fully_warm(), "n={n} size={size} must serve warm");

        let (dp_min, dp_med, dp_max) = quantiles(dirty_prop);
        let (di_min, di_med, di_max) = quantiles(dirty_inf);
        let mut metrics: Vec<(&'static str, f64)> = vec![
            ("n", n as f64),
            ("delta_edges", size as f64),
            ("dirty_propagation_min", dp_min),
            ("dirty_propagation_median", dp_med),
            ("dirty_propagation_max", dp_max),
            ("dirty_influence_min", di_min),
            ("dirty_influence_median", di_med),
            ("dirty_influence_max", di_max),
        ];
        for (stage, xs) in stage_ns {
            let (_, median, _) = quantiles(xs);
            metrics.push(match stage {
                "transition" => ("stage_transition_median_ns", median),
                "propagation" => ("stage_propagation_median_ns", median),
                "embedding" => ("stage_embedding_median_ns", median),
                "influence" => ("stage_influence_median_ns", median),
                _ => ("stage_index_median_ns", median),
            });
        }
        cases.push(Case {
            name: format!("apply/{n}/edges-{size}"),
            samples,
            metrics,
        });
    }

    // Criterion visibility for the 1-edge toggle (the headline case).
    let single = toggle_pairs(&graph, 1);
    let present = Cell::new(false);
    let mut group = c.benchmark_group("delta-apply-1-edge");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        b.iter(|| {
            let delta = if present.get() {
                delete_all(&single)
            } else {
                insert_all(&single)
            };
            present.set(!present.get());
            let report = service
                .apply_update(&graph_id, &delta)
                .expect("toggle applies");
            std::hint::black_box(report.epoch)
        })
    });
    group.finish();
    if present.get() {
        // Leave the corpus at its original adjacency.
        service
            .apply_update(&graph_id, &delete_all(&single))
            .expect("final toggle-off");
    }

    // Cold oracle: the same engine built from scratch over the mutated
    // corpus (one 1-edge insert), timed end to end with the engine's own
    // artifact-stage breakdown.
    let cold_service = GrainService::with_capacity(2);
    let mutated = {
        let scratch = GrainService::new();
        scratch
            .register_graph("scratch", graph.clone(), x.clone())
            .expect("scratch registers");
        scratch
            .apply_update("scratch", &insert_all(&single))
            .expect("scratch delta");
        (*scratch.graph("scratch").expect("scratch graph")).clone()
    };
    cold_service
        .register_graph(&graph_id, mutated, x.clone())
        .expect("cold corpus registers");
    let t = Instant::now();
    let cold = cold_service.select(&request).expect("cold select");
    let cold_elapsed = t.elapsed();
    let timings = &cold.outcome().timings;
    let cold_artifacts = timings.propagation + timings.influence + timings.indexing;
    let apply_1_median = {
        let apply_case = cases
            .iter()
            .find(|case| case.name == format!("apply/{n}/edges-1"))
            .expect("1-edge case recorded");
        summarize(&apply_case.samples).1
    };
    cases.push(Case {
        name: format!("cold-rebuild/{n}"),
        samples: vec![cold_elapsed],
        metrics: vec![
            ("n", n as f64),
            ("cold_select_ns", cold_elapsed.as_nanos() as f64),
            ("cold_artifacts_ns", cold_artifacts.as_nanos() as f64),
            ("apply_1_edge_median_ns", apply_1_median as f64),
            (
                "speedup_vs_cold_artifacts_x",
                cold_artifacts.as_nanos() as f64 / apply_1_median.max(1) as f64,
            ),
            (
                "speedup_vs_cold_select_x",
                cold_elapsed.as_nanos() as f64 / apply_1_median.max(1) as f64,
            ),
        ],
    });
}

/// The first Ball-D read after a 1-edge update, timed two ways on the
/// same patched engine: with the ball lists repaired from the embedding
/// rows the update re-propagated, then with them rebuilt in full
/// (another radius's lists displace them first, so the read misses their
/// key) — what every such read cost before repair. Both answers must
/// agree.
///
/// `centered` shifts the features to zero mean. Uncentered, propagation
/// smooths the all-positive rows towards one direction, which puts most
/// of the corpus in every ball.
fn run_ball_read(cases: &mut Vec<Case>, centered: bool) {
    let n = BALL_N;
    let layout = if centered { "centered" } else { "uncentered" };
    let graph_id = format!("ba-ball-{n}-{layout}");
    let graph = generators::barabasi_albert(n, 4, 42);
    let mut x = features(n);
    if centered {
        for row in 0..n {
            x.row_mut(row).iter_mut().for_each(|v| *v -= 0.5);
        }
    }
    let service = GrainService::with_capacity(2);
    service
        .register_graph(&graph_id, graph.clone(), x)
        .expect("corpus registers");
    let config = GrainConfig {
        variant: GrainVariant::Full,
        gamma: 1.0,
        diversity: DiversityKind::Ball,
        ..delta_config()
    };
    let other_radius = GrainConfig {
        radius: config.radius * 2.0,
        ..config
    };
    let request = SelectionRequest::new(&graph_id, config, Budget::Fixed(BUDGET));
    service.select(&request).expect("warm-up select");
    let all: Vec<u32> = (0..n as u32).collect();
    let single = toggle_pairs(&graph, 1);
    let (mut repair, mut rebuild, mut pending) = (Vec::new(), Vec::new(), Vec::new());
    let (mut repair_stage, mut rebuild_stage) = (Vec::new(), Vec::new());
    for s in 0..SAMPLES {
        let delta = if s % 2 == 0 {
            insert_all(&single)
        } else {
            delete_all(&single)
        };
        let report = service
            .apply_update(&graph_id, &delta)
            .expect("delta applies");
        pending.push(report.patched[0].dirty_propagation as f64);
        let (checkout, _) = service.engine(&graph_id, &config).expect("patched engine");
        let mut engine = checkout.lock();
        let before = engine.stats();
        let t = Instant::now();
        let repaired = engine.select(&all, BUDGET);
        repair.push(t.elapsed());
        repair_stage.push(repaired.timings.indexing.as_nanos() as f64);
        let delta = engine.stats().delta_since(&before);
        assert_eq!((delta.ball_repairs, delta.diversity_builds), (1, 0));

        engine.set_config(other_radius).expect("valid config");
        engine.select(&all, BUDGET);
        engine.set_config(config).expect("valid config");
        let before = engine.stats();
        let t = Instant::now();
        let rebuilt = engine.select(&all, BUDGET);
        rebuild.push(t.elapsed());
        rebuild_stage.push(rebuilt.timings.indexing.as_nanos() as f64);
        let delta = engine.stats().delta_since(&before);
        assert_eq!((delta.ball_repairs, delta.diversity_builds), (0, 1));

        let bits = |trace: &[f64]| trace.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(repaired.selected, rebuilt.selected, "sample {s}");
        assert_eq!(repaired.sigma, rebuilt.sigma, "sample {s}");
        assert_eq!(
            bits(&repaired.objective_trace),
            bits(&rebuilt.objective_trace),
            "sample {s}"
        );
        assert_eq!(
            repaired.diversity_value.to_bits(),
            rebuilt.diversity_value.to_bits()
        );
        assert_eq!(repaired.evaluations, rebuilt.evaluations, "sample {s}");
    }
    let (_, pending_median, _) = quantiles(pending);
    let (_, repair_stage, _) = quantiles(repair_stage);
    let (_, rebuild_stage, _) = quantiles(rebuild_stage);
    let speedup = summarize(&rebuild).1 as f64 / summarize(&repair).1.max(1) as f64;
    cases.push(Case {
        name: format!("ball-read/{n}/{layout}/repair"),
        samples: repair,
        metrics: vec![
            ("n", n as f64),
            ("pending_rows_median", pending_median),
            ("stage_balls_median_ns", repair_stage),
            ("speedup_vs_rebuild_x", speedup),
        ],
    });
    cases.push(Case {
        name: format!("ball-read/{n}/{layout}/rebuild"),
        samples: rebuild,
        metrics: vec![("n", n as f64), ("stage_balls_median_ns", rebuild_stage)],
    });
}

fn bench_delta(c: &mut Criterion) {
    let max_n: usize = std::env::var("GRAIN_DELTA_MAX_N")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(100_000);
    let ladder: Vec<usize> = [10_000usize, 100_000]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    let ladder = if ladder.is_empty() {
        vec![max_n.max(1_000)]
    } else {
        ladder
    };
    let mut cases: Vec<Case> = Vec::new();
    for &n in &ladder {
        run_rung(c, n, &mut cases);
    }
    run_ball_read(&mut cases, true);
    run_ball_read(&mut cases, false);
    write_json("delta", &cases);
}

criterion_group!(benches, bench_delta);
criterion_main!(benches);
