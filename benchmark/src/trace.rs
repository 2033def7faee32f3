//! The traced run's probes: the same requests driven serially through
//! each layer's public entry point, a private engine's stage builds, the
//! store's load path and the service's thread scaling. Everything is
//! timed from outside the program.

use crate::check::Answer;
use crate::load::{options, Reply};
use crate::stats::{median, ms};
use crate::workload::{Corpus, Item, Plan, GRAPH_ID, TENANTS};
use grain_core::edge::proto::{self, Frame, WireOutcome, WireRequest};
use grain_core::store::fingerprint_corpus;
use grain_core::{
    ArtifactStore, ContentAddress, EdgeClient, EdgeServer, GrainService, ScheduledRequest,
    SelectionEngine,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-request latency (ms) at each entry point, paired by request.
#[derive(Default)]
pub struct Layers {
    pub edge: Vec<f64>,
    pub scheduler: Vec<f64>,
    pub service: Vec<f64>,
    pub engine: Vec<f64>,
    pub greedy: Vec<f64>,
    pub evaluations: Vec<f64>,
    /// Encoded request plus response frame length.
    pub frame_bytes: Vec<f64>,
}

fn paired_self(outer: &[f64], inner: &[f64]) -> Vec<f64> {
    outer.iter().zip(inner).map(|(o, i)| o - i).collect()
}

impl Layers {
    pub fn edge_self(&self) -> Vec<f64> {
        paired_self(&self.edge, &self.scheduler)
    }
    pub fn scheduler_self(&self) -> Vec<f64> {
        paired_self(&self.scheduler, &self.service)
    }
    pub fn service_self(&self) -> Vec<f64> {
        paired_self(&self.service, &self.engine)
    }
    /// Median self times of every layer plus the engine's median: what
    /// the serial edge median should add up to.
    pub fn self_sum(&self) -> f64 {
        median(&self.edge_self())
            + median(&self.scheduler_self())
            + median(&self.service_self())
            + median(&self.engine)
    }
}

/// Drives each item through `EdgeClient::request`, `Scheduler::submit`
/// → `Ticket::wait`, `GrainService::select` and `SelectionEngine::select`
/// in turn, one request at a time. Every answer is returned for the
/// oracle (all on corpus state `state`).
pub fn serial_drive(
    server: &EdgeServer,
    plan: &Plan,
    corpus: &Corpus,
    items: &[Item],
    state: usize,
    answers: &mut Vec<Answer>,
) -> (Layers, usize) {
    let mut clients: Vec<EdgeClient> = (0..plan.open_conns)
        .map(|c| EdgeClient::connect(server.local_addr(), TENANTS[c].0, "").expect("connects"))
        .collect();
    let service = server.service();
    let mut layers = Layers::default();
    let mut failed = 0;
    let mut keep = |item: Item, outcome: WireOutcome| {
        answers.push(Answer {
            item,
            states: vec![state],
            outcome,
        });
    };
    for &item in items {
        let request = corpus.request(plan, item);

        let t = Instant::now();
        let wire = clients[item.tenant].request(request.clone(), options(plan));
        let edge = t.elapsed();
        let request_bytes = proto::encode_frame(&Frame::Request(Box::new(WireRequest {
            request_id: 1,
            priority: 0,
            deadline_ms: plan.deadline_ms,
            on_deadline: Default::default(),
            request: request.clone(),
        })))
        .len();

        let t = Instant::now();
        let ticket = server
            .scheduler()
            .submit(ScheduledRequest::new(request.clone()).with_tenant(TENANTS[item.tenant].0));
        let scheduled = ticket.and_then(|ticket| ticket.wait());
        let scheduler = t.elapsed();

        let t = Instant::now();
        let direct = service.select(&request);
        let served = t.elapsed();

        let (checkout, _) = service
            .engine(GRAPH_ID, &request.config)
            .expect("engine checks out");
        let mut engine = checkout.lock();
        let candidates = &corpus.candidate_sets[item.spec.cands as usize];
        let t = Instant::now();
        let outcome = engine.select(candidates, item.spec.budget as usize);
        let engine_time = t.elapsed();
        drop(engine);
        drop(checkout);

        match (wire, scheduled, direct) {
            (Ok(wire), Ok(scheduled), Ok(direct)) => {
                let response_bytes = proto::encode_frame(&Frame::Response(wire.clone())).len();
                layers
                    .frame_bytes
                    .push((request_bytes + response_bytes) as f64);
                match Reply::from_result(Ok(wire)) {
                    Reply::Ok(outcome) => keep(item, outcome),
                    Reply::Failed => failed += 1,
                }
                keep(item, WireOutcome::from_outcome(scheduled.outcome()));
                keep(item, WireOutcome::from_outcome(direct.outcome()));
                keep(item, WireOutcome::from_outcome(&outcome));
                layers.edge.push(ms(edge));
                layers.scheduler.push(ms(scheduler));
                layers.service.push(ms(served));
                layers.engine.push(ms(engine_time));
                layers.greedy.push(ms(outcome.timings.greedy));
                layers.evaluations.push(outcome.evaluations as f64);
            }
            _ => failed += 1,
        }
    }
    (layers, failed)
}

/// Stage build times (ms) of one private engine, cross-checked against
/// the engine's own `SelectionTimings`.
pub struct Builds {
    pub prop: f64,
    pub influence: f64,
    pub index: f64,
    /// First select minus second: the ball lists (or NN `d_max`).
    pub diversity: f64,
    pub influence_nnz: usize,
    pub influence_bytes: usize,
    /// Stage time the first select still reported for propagation and
    /// influence (should be ~0: both were built by the accessors).
    pub crosscheck_ms: f64,
}

pub fn private_builds(plan: &Plan, corpus: &Corpus) -> Builds {
    let mut engine = SelectionEngine::over(
        plan.configs[0],
        std::sync::Arc::clone(&corpus.graph),
        std::sync::Arc::clone(&corpus.features),
    )
    .expect("private engine builds");
    let spec = corpus.primary();
    let candidates = &corpus.candidate_sets[0];
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        ms(t.elapsed())
    };
    let prop = time(&mut || {
        engine.propagated();
    });
    let influence = time(&mut || {
        engine.influence_rows();
    });
    let index = time(&mut || {
        engine.activation_index();
    });
    let mut first = None;
    let first_ms = time(&mut || first = Some(engine.select(candidates, spec.budget as usize)));
    let second_ms = time(&mut || {
        engine.select(candidates, spec.budget as usize);
    });
    let first = first.expect("first select ran");
    Builds {
        prop,
        influence,
        index,
        diversity: first_ms - second_ms,
        influence_nnz: engine.influence_rows().nnz(),
        influence_bytes: engine.artifact_bytes().influence_rows,
        crosscheck_ms: ms(first.timings.propagation + first.timings.influence),
    }
}

/// Time (ms) to load the primary key's three persisted artifacts from
/// the store in `dir` (epoch 0), read back through the store's public
/// load path.
pub fn store_load_ms(plan: &Plan, corpus: &Corpus, dir: &Path) -> f64 {
    let store = ArtifactStore::open(dir).expect("store opens");
    let addr = ContentAddress {
        graph_fingerprint: fingerprint_corpus(&corpus.graph, &corpus.features),
        epoch: 0,
        artifact_fingerprint: plan.configs[0].artifact_fingerprint(),
    };
    let t = Instant::now();
    let loaded = [
        store.load_propagation(&addr).ok().flatten().is_some(),
        store.load_rows(&addr).ok().flatten().is_some(),
        store.load_index(&addr).ok().flatten().is_some(),
    ];
    let elapsed = ms(t.elapsed());
    assert!(
        loaded.iter().all(|l| *l),
        "persisted artifacts load: {loaded:?}"
    );
    elapsed
}

/// In-process selections per second with `threads` threads over the
/// workload's own mix, for `duration`.
pub fn service_rate(
    service: &GrainService,
    plan: &Plan,
    corpus: &Corpus,
    items: &[Item],
    threads: usize,
    duration: Duration,
) -> f64 {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while start.elapsed() < duration {
                    let i = next.fetch_add(1, Ordering::Relaxed) % items.len();
                    if service.select(&corpus.request(plan, items[i])).is_ok() {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    done.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}
