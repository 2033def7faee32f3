//! Criterion microbenchmark for the cancellation layer, plus a
//! machine-readable `BENCH_cancel.json` summary so the resilience cost
//! model is comparable across PRs without parsing console output.
//!
//! Three cases over one warm n = 2000 corpus. Every iteration alternates
//! between two γ values, so each request misses the greedy trace its
//! predecessor left and times a real greedy run (a repeated request would
//! be sliced from the trace and never reach a greedy checkpoint):
//!
//! * **run-to-completion** — the uncancelled baseline: a full warm
//!   selection through `GrainService::select_with` with an untripped
//!   token; what a request costs when nothing interferes (and what the
//!   cancellation checkpoints add over PR 5's uncheckpointed path — they
//!   must be noise).
//! * **deadline-partial** — the same request under a deadline far shorter
//!   than the full run and `OnDeadline::Partial`: measures the *anytime*
//!   property — latency collapses to roughly the deadline and the caller
//!   still receives a usable greedy prefix (the recovered fraction is
//!   recorded in the JSON).
//! * **cancel-observe** — a caller cancels a running selection; the
//!   sample is the gap between `CancelToken::cancel` and the run
//!   returning — the acceptance criterion that cancellation is observed
//!   within one greedy round / one `cancel_check_every` eval block.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_bench::record::{summarize, write_json, Case};
use grain_core::{Budget, CancelToken, GrainConfig, GrainService, OnDeadline, SelectionRequest};
use grain_data::synthetic::papers_like;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bench_cancellation(c: &mut Criterion) {
    let dataset = papers_like(2_000, 31);
    let budget = 4 * dataset.num_classes;
    let service = Arc::new(GrainService::new());
    service
        .register_graph("papers", dataset.graph.clone(), dataset.features.clone())
        .expect("corpus registers");
    let requests = [1.0, 0.5].map(|gamma| {
        let config = GrainConfig {
            gamma,
            ..GrainConfig::ball_d()
        };
        SelectionRequest::new("papers", config, Budget::Fixed(budget))
            .with_candidates(dataset.split.train.clone())
    });
    let turn = Cell::new(0usize);
    let next_request = || {
        let i = turn.get();
        turn.set(i + 1);
        &requests[i % requests.len()]
    };
    // Prime the engine: every case below measures the serving path over
    // warm artifacts, not the one-time cold build. The trace left behind
    // is the last request's, so the first timed request misses too.
    for request in &requests {
        service.select(request).expect("priming request succeeds");
    }

    let mut cases: Vec<Case> = Vec::new();
    let mut group = c.benchmark_group("cancellation");
    group.sample_size(10);

    // Uncancelled baseline: full warm run, untripped token.
    let full = RefCell::new(Vec::new());
    group.bench_function(BenchmarkId::from_parameter("run-to-completion"), |b| {
        b.iter(|| {
            let t = Instant::now();
            let report = service
                .select_with(next_request(), &CancelToken::new(), OnDeadline::Fail)
                .expect("warm request");
            full.borrow_mut().push(t.elapsed());
            std::hint::black_box(report.outcome().selected.len())
        })
    });
    let full_run = summarize(&full.borrow()).1; // median ns
    cases.push(Case {
        name: "run-to-completion".to_string(),
        samples: full.into_inner(),
        metrics: vec![("budget", budget as f64)],
    });

    // Anytime degradation: a deadline at ~3/4 of the full run under
    // Partial. Latency should track the deadline, not the full run, and
    // most trips should land mid-greedy and recover a prefix.
    let deadline = Duration::from_nanos((full_run * 3 / 4).max(50_000) as u64);
    let partial = RefCell::new(Vec::new());
    let (mut partials, mut failures, mut recovered, mut trips) = (0usize, 0usize, 0usize, 0usize);
    group.bench_function(BenchmarkId::from_parameter("deadline-partial"), |b| {
        b.iter(|| {
            let token = CancelToken::with_deadline_in(deadline);
            let t = Instant::now();
            let result = service.select_with(next_request(), &token, OnDeadline::Partial);
            partial.borrow_mut().push(t.elapsed());
            trips += 1;
            match &result {
                Ok(report) => {
                    if report.is_partial() {
                        partials += 1;
                        recovered += report.outcome().selected.len();
                    }
                }
                // The trip landed before the first greedy round (or the
                // run beat the clock; both are legitimate outcomes on a
                // contended host).
                Err(_) => failures += 1,
            }
            std::hint::black_box(result.is_ok())
        })
    });
    cases.push(Case {
        name: "deadline-partial".to_string(),
        samples: partial.into_inner(),
        metrics: vec![
            ("deadline_ns", deadline.as_nanos() as f64),
            ("partial_rate", partials as f64 / trips.max(1) as f64),
            ("failed_rate", failures as f64 / trips.max(1) as f64),
            ("mean_prefix_len", recovered as f64 / partials.max(1) as f64),
        ],
    });

    // Observation latency: cancel a running selection and measure how
    // long the run takes to notice and unwind. The sample starts at the
    // `cancel()` call, so submission/startup cost is excluded.
    let observe = RefCell::new(Vec::new());
    group.bench_function(BenchmarkId::from_parameter("cancel-observe"), |b| {
        b.iter(|| {
            let token = CancelToken::new();
            let worker = {
                let service = Arc::clone(&service);
                let request = next_request().clone();
                let token = token.clone();
                std::thread::spawn(move || {
                    service
                        .select_with(&request, &token, OnDeadline::Fail)
                        .is_err()
                })
            };
            // Let the selection get going before pulling the plug.
            std::thread::sleep(Duration::from_nanos((full_run / 4).max(50_000) as u64));
            let t = Instant::now();
            token.cancel();
            let cancelled = worker.join().expect("worker never panics");
            observe.borrow_mut().push(t.elapsed());
            std::hint::black_box(cancelled)
        })
    });
    cases.push(Case {
        name: "cancel-observe".to_string(),
        samples: observe.into_inner(),
        metrics: vec![("full_run_median_ns", full_run as f64)],
    });

    group.finish();
    write_json("cancel", &cases);
}

criterion_group!(benches, bench_cancellation);
criterion_main!(benches);
