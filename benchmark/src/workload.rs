//! The four workloads: their corpora, engine keys, request mixes and
//! phase lengths. Every input is a pure function of the run's seed,
//! except the corpora, which are fixed datasets (`CORPUS_SEED`): a seed
//! varies the request stream, the candidate pools and the updated edge,
//! not the graph, so runs on different seeds measure one system.

use grain_core::{Budget, GrainConfig, GrainVariant, GreedyAlgorithm, SelectionRequest};
use grain_data::synthetic::papers_like;
use grain_graph::{generators, Graph};
use grain_influence::ThetaRule;
use grain_linalg::DenseMatrix;
use grain_prop::Kernel;
use std::sync::Arc;
use std::time::Duration;

/// Update pairs per round, and distinct edges they toggle: every round
/// toggles each edge once, so a run's rounds all measure the same
/// updates, however many rounds fit in it.
pub const UPDATE_PAIRS: usize = 6;

/// Seed of the synthetic corpora.
const CORPUS_SEED: u64 = 42;

/// Id every workload registers its corpus under.
pub const GRAPH_ID: &str = "corpus";

/// Length of each round's open-loop window.
pub const OPEN_WINDOW: Duration = Duration::from_secs(2);

/// Length of each round's closed-loop window.
pub const CLOSED_WINDOW: Duration = Duration::from_millis(400);

/// live_updates applies one update this often beside its reads.
pub const UPDATE_EVERY: Duration = Duration::from_secs(1);

/// Tenants of the edge: `(id, fair-share weight)`.
pub const TENANTS: [(&str, u32); 2] = [("gold", 10), ("bronze", 1)];

/// SplitMix64: a small seeded generator, so inputs depend on `--seed` only.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One request of a mix, in indices into the workload's tables. Two
/// requests with equal specs have equal answers on one corpus state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    /// Index into [`Plan::configs`] (the engine key).
    pub key: u8,
    /// Index into [`Corpus::candidate_sets`].
    pub cands: u8,
    /// Index into [`Plan::gammas`].
    pub gamma: u8,
    pub budget: u16,
}

/// A generated request: which tenant sends it and what it asks.
#[derive(Clone, Copy, Debug)]
pub struct Item {
    pub tenant: usize,
    pub spec: Spec,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    WarmBudgetSweep,
    WarmMixedTenants,
    LiveUpdates,
    ColdBuild,
}

pub const WORKLOADS: [&str; 4] = [
    "warm_budget_sweep",
    "warm_mixed_tenants",
    "live_updates",
    "cold_build",
];

/// Everything that differs between workloads. A run is a sequence of
/// rounds, each a cold-build / warm-start cycle, an open-loop window, a
/// closed-loop window and pairs of graph updates, so a slow stretch of
/// one round leaves the others' medians intact.
pub struct Plan {
    pub kind: Kind,
    /// Engine keys; index 0 is the primary key (restart cycles, updates).
    pub configs: Vec<GrainConfig>,
    pub gammas: Vec<f64>,
    /// Fixed open-loop rate over all connections, requests per second:
    /// well below the knee, and never derived from the measured capacity.
    pub open_rps: f64,
    /// Connections (one per tenant) of the open loop.
    pub open_conns: usize,
    pub deadline_ms: u32,
}

impl Plan {
    pub fn for_name(name: &str) -> Option<Plan> {
        let ball = GrainConfig::ball_d();
        let serving = |kind| Plan {
            kind,
            configs: vec![ball],
            gammas: vec![ball.gamma],
            // A ~3 ms warm read keeps one engine under half busy.
            open_rps: 150.0,
            open_conns: 1,
            deadline_ms: 0,
        };
        Some(match name {
            "warm_budget_sweep" => serving(Kind::WarmBudgetSweep),
            "warm_mixed_tenants" => Plan {
                configs: vec![
                    ball,
                    GrainConfig {
                        kernel: Kernel::SymNorm { k: 2 },
                        ..ball
                    },
                    GrainConfig {
                        theta: ThetaRule::RelativeToRowMax(0.35),
                        ..ball
                    },
                ],
                gammas: vec![1.0, 0.5, 2.0],
                open_conns: 2,
                deadline_ms: 2_000,
                ..serving(Kind::WarmMixedTenants)
            },
            // The first read after each update rebuilds the ball lists
            // (~0.2 s of CPU), so reads come slower to stay below the knee.
            "live_updates" => Plan {
                open_rps: 100.0,
                ..serving(Kind::LiveUpdates)
            },
            "cold_build" => Plan {
                configs: vec![cold_config()],
                gammas: vec![0.0],
                ..serving(Kind::ColdBuild)
            },
            _ => return None,
        })
    }
}

/// The scale/persist benches' configuration: influence rows truncated to
/// the 32 heaviest entries, no diversity term.
fn cold_config() -> GrainConfig {
    GrainConfig {
        variant: GrainVariant::NoDiversity,
        gamma: 0.0,
        influence_eps: 1e-4,
        influence_row_top_k: 32,
        algorithm: GreedyAlgorithm::Lazy,
        ..GrainConfig::default()
    }
}

/// A generated corpus plus the inputs requests are drawn from.
pub struct Corpus {
    pub graph: Arc<Graph>,
    pub features: Arc<DenseMatrix>,
    /// Candidate pools requests choose from; index 0 is the primary.
    pub candidate_sets: Vec<Arc<Vec<u32>>>,
    /// Smallest budget of the mix.
    pub base_budget: usize,
    /// The non-edge `(u, v)` live_updates' updates insert and delete in
    /// turn beside the reads.
    pub toggle: (u32, u32),
    /// Non-edges the serial update pairs insert and delete, one per pair
    /// in turn: the cost of an update depends on the edge's
    /// neighbourhood, so a run cycles through several.
    pub pair_edges: Vec<(u32, u32)>,
}

impl Corpus {
    pub fn generate(kind: Kind, seed: u64) -> Corpus {
        let mut rng = Rng::new(seed ^ 0xc0de);
        let (graph, features, train, base_budget) = if kind == Kind::ColdBuild {
            let n = 100_000;
            let graph = generators::barabasi_albert(n, 4, CORPUS_SEED);
            let features = ba_features(n);
            // Reads choose from a fixed 2,000-node sample.
            let mut nodes: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut nodes);
            nodes.truncate(2_000);
            nodes.sort_unstable();
            (graph, features, nodes, 16)
        } else {
            let data = papers_like(2_000, CORPUS_SEED);
            let base = 2 * data.num_classes;
            (data.graph, data.features, data.split.train, base)
        };
        let mut candidate_sets = vec![Arc::new(train.clone())];
        if kind == Kind::WarmMixedTenants {
            // Three more pools: random halves of the train split.
            for _ in 0..3 {
                let mut pool = train.clone();
                rng.shuffle(&mut pool);
                pool.truncate(train.len() / 2);
                pool.sort_unstable();
                candidate_sets.push(Arc::new(pool));
            }
        }
        let toggle = pick_toggle(&graph, &mut rng);
        // The pair edges belong to the fixed corpus, so every run measures
        // the same updates; the seed orders them.
        let mut fixed = Rng::new(CORPUS_SEED);
        let mut pair_edges: Vec<(u32, u32)> = (0..UPDATE_PAIRS)
            .map(|_| pick_toggle(&graph, &mut fixed))
            .collect();
        rng.shuffle(&mut pair_edges);
        Corpus {
            graph: Arc::new(graph),
            features: Arc::new(features),
            candidate_sets,
            base_budget,
            toggle,
            pair_edges,
        }
    }

    /// The wire request for `item`.
    pub fn request(&self, plan: &Plan, item: Item) -> SelectionRequest {
        let spec = item.spec;
        let config = GrainConfig {
            gamma: plan.gammas[spec.gamma as usize],
            ..plan.configs[spec.key as usize]
        };
        SelectionRequest::new(GRAPH_ID, config, Budget::Fixed(spec.budget as usize))
            .with_candidates(self.candidate_sets[spec.cands as usize].to_vec())
            // The seed is part of the scheduler's coalesce key and never
            // changes an answer: tagging by tenant keeps coalescing within
            // one tenant.
            .with_seed(item.tenant as u64 + 1)
    }

    /// The spec restart cycles and fresh reads use.
    pub fn primary(&self) -> Spec {
        Spec {
            key: 0,
            cands: 0,
            gamma: 0,
            budget: self.base_budget as u16,
        }
    }
}

/// Deterministic 8-dimensional features for the BA corpus (as in the
/// scale and persist benches).
fn ba_features(n: usize) -> DenseMatrix {
    const DIM: usize = 8;
    let data: Vec<f32> = (0..n * DIM)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            (h % 251) as f32 * 0.004 + 0.01
        })
        .collect();
    DenseMatrix::from_vec(n, DIM, data)
}

/// Two distinct non-adjacent low-degree nodes, so one update touches a
/// small neighbourhood.
fn pick_toggle(graph: &Graph, rng: &mut Rng) -> (u32, u32) {
    let n = graph.num_nodes();
    let min_degree = (0..n).map(|v| graph.degree(v)).min().unwrap_or(0).max(1);
    loop {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v
            && graph.degree(u) <= 2 * min_degree
            && graph.degree(v) <= 2 * min_degree
            && !graph.has_edge(u, v as u32)
        {
            return (u.min(v) as u32, u.max(v) as u32);
        }
    }
}

/// The stream of requests a workload sends, in order.
pub struct Mix {
    kind: Kind,
    rng: Rng,
    budgets: Vec<u16>,
    next: usize,
    recent: Vec<Item>,
    keys: usize,
    cand_sets: usize,
    gammas: usize,
}

impl Mix {
    pub fn new(plan: &Plan, corpus: &Corpus, seed: u64) -> Mix {
        let mut rng = Rng::new(seed);
        let distinct = match plan.kind {
            Kind::ColdBuild => 64,
            Kind::WarmMixedTenants => 64,
            _ => 256,
        };
        let mut budgets: Vec<u16> = (0..distinct)
            .map(|i| (corpus.base_budget + i) as u16)
            .collect();
        rng.shuffle(&mut budgets);
        Mix {
            kind: plan.kind,
            rng,
            budgets,
            next: 0,
            recent: Vec::new(),
            keys: plan.configs.len(),
            cand_sets: corpus.candidate_sets.len(),
            gammas: plan.gammas.len(),
        }
    }

    pub fn next_item(&mut self) -> Item {
        if self.kind != Kind::WarmMixedTenants {
            let budget = self.budgets[self.next % self.budgets.len()];
            self.next += 1;
            return Item {
                tenant: 0,
                spec: Spec {
                    key: 0,
                    cands: 0,
                    gamma: 0,
                    budget,
                },
            };
        }
        // About a quarter repeat one of the last eight requests.
        if self.recent.len() == 8 && self.rng.below(4) == 0 {
            return self.recent[self.rng.below(8)];
        }
        let weight_sum: u32 = TENANTS.iter().map(|t| t.1).sum();
        let tenant = usize::from(self.rng.below(weight_sum as usize) >= TENANTS[0].1 as usize);
        let item = Item {
            tenant,
            spec: Spec {
                key: self.rng.below(self.keys) as u8,
                cands: self.rng.below(self.cand_sets) as u8,
                gamma: self.rng.below(self.gammas) as u8,
                budget: self.budgets[self.rng.below(self.budgets.len())],
            },
        };
        if self.recent.len() == 8 {
            self.recent.remove(0);
        }
        self.recent.push(item);
        item
    }
}
