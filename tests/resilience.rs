//! The resilience contract: cooperative cancellation stops work at
//! checkpoints without corrupting any cache, partial results are exact
//! prefixes of the uncancelled run, refcounted cancel never kills a
//! result a coalesced sibling still wants, and injected panics stay
//! isolated to the request that hit them.
//!
//! The `fault_injection` module (feature `fault-injection`) drives the
//! deterministic fail-point registry in `grain::core::fault`. The
//! registry is process-global, so every test that arms a site holds one
//! static mutex for its whole body — sites like `greedy.round` are
//! crossed by any concurrently running selection, and an armed fault
//! leaking into a sibling test would be a flake factory.

use grain::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn service_with(graphs: &[(&str, u64)]) -> Arc<GrainService> {
    let service = Arc::new(GrainService::new());
    for &(id, seed) in graphs {
        let dataset = grain::data::synthetic::papers_like(300, seed);
        service
            .register_graph(id, dataset.graph.clone(), dataset.features.clone())
            .unwrap();
    }
    service
}

fn request(graph: &str, budget: usize) -> SelectionRequest {
    SelectionRequest::new(graph, GrainConfig::ball_d(), Budget::Fixed(budget))
}

fn paused(service: &Arc<GrainService>) -> Scheduler {
    Scheduler::new(
        Arc::clone(service),
        SchedulerConfig {
            start_paused: true,
            ..SchedulerConfig::default()
        },
    )
}

/// Cancelling every ticket of a coalesced group — the last one mid-queue
/// — discards the slot without running it, while a sibling group is
/// untouched; cancelling only *some* tickets leaves the survivors'
/// answer bit-identical to the serial oracle.
#[test]
fn refcounted_cancel_detaches_waiters_and_only_the_last_stops_the_run() {
    let service = service_with(&[("papers", 71)]);
    let oracle = service.select(&request("papers", 8)).unwrap();

    let scheduler = paused(&service);
    let survivor = scheduler.submit(request("papers", 8)).unwrap();
    let quitters: Vec<Ticket> = (0..3)
        .map(|_| scheduler.submit(request("papers", 8)).unwrap())
        .collect();
    let doomed: Vec<Ticket> = (0..2)
        .map(|_| scheduler.submit(request("papers", 5)).unwrap())
        .collect();
    assert_eq!(scheduler.queue_depth(), 2);

    // Every waiter of the budget-5 slot cancels: that run never happens.
    for ticket in &doomed {
        ticket.cancel();
    }
    // Only some waiters of the budget-8 slot cancel: the run proceeds.
    for ticket in &quitters {
        ticket.cancel();
    }
    scheduler.resume();

    let report = survivor.wait().unwrap();
    assert_eq!(report.outcome().selected, oracle.outcome().selected);
    assert_eq!(
        report.outcome().objective_trace,
        oracle.outcome().objective_trace
    );
    assert!(!report.is_partial());
    for ticket in quitters.into_iter().chain(doomed) {
        assert_eq!(ticket.wait().unwrap_err(), GrainError::Cancelled);
    }
    while !scheduler.is_idle() {
        std::thread::yield_now();
    }
    let stats = scheduler.stats();
    assert_eq!(stats.cancelled, 5, "{stats:?}");
    assert_eq!(
        stats.selections, 1,
        "the fully-cancelled slot never ran: {stats:?}"
    );
    assert_eq!(stats.delivered, 1, "{stats:?}");
}

/// Cancelling a ticket whose selection may already be running (a cold
/// build, even) must resolve the ticket typed and leave the service
/// fully usable: whichever side of the race the cancel lands on, the
/// next identical request answers bit-identically to a fresh service.
#[test]
fn cancel_racing_a_cold_build_fails_typed_without_wedging_anything() {
    let fresh = service_with(&[("papers", 77)]);
    let oracle = fresh.select(&request("papers", 7)).unwrap();

    let service = service_with(&[("papers", 77)]);
    let scheduler = paused(&service);
    let ticket = scheduler.submit(request("papers", 7)).unwrap();
    scheduler.resume();
    // Race the cancel against the running cold build on purpose; the
    // contract must hold on both sides.
    std::thread::sleep(Duration::from_millis(2));
    ticket.cancel();
    assert_eq!(ticket.wait().unwrap_err(), GrainError::Cancelled);

    // No wedged latch, no torn artifact: the same request still answers,
    // byte-for-byte as a fresh service would.
    let retry = scheduler.submit(request("papers", 7)).unwrap();
    let report = retry.wait().unwrap();
    assert_eq!(report.outcome().selected, oracle.outcome().selected);
    assert_eq!(scheduler.stats().cancelled, 1);
}

/// `RetryPolicy` turns transient admission failures into eventual
/// success: a full queue drains and the capped-backoff retry gets in.
#[test]
fn retry_policy_rides_out_a_full_queue() {
    let service = service_with(&[("papers", 73)]);
    let scheduler = Arc::new(Scheduler::new(
        Arc::clone(&service),
        SchedulerConfig {
            queue_capacity: 1,
            start_paused: true,
            ..SchedulerConfig::default()
        },
    ));
    let first = scheduler.submit(request("papers", 6)).unwrap();
    // The queue is full; an immediate distinct submission is refused.
    assert!(matches!(
        scheduler.submit(request("papers", 4)).unwrap_err(),
        GrainError::QueueFull { .. }
    ));

    let resumer = {
        let scheduler = Arc::clone(&scheduler);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            scheduler.resume();
        })
    };
    let policy = RetryPolicy {
        max_attempts: 200,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(10),
    };
    let ticket = policy
        .run(|| scheduler.submit(request("papers", 4)))
        .expect("the queue drains and a retry is admitted");
    assert_eq!(ticket.wait().unwrap().outcome().selected.len(), 4);
    assert_eq!(first.wait().unwrap().outcome().selected.len(), 6);
    resumer.join().unwrap();
    assert!(scheduler.stats().rejected_queue_full >= 1);
}

/// A client that vanishes mid-flight takes its work with it: reader EOF
/// trips the `CancelToken` of everything the connection still has
/// queued, the slots are discarded without executing, and the server
/// keeps serving everyone else.
#[test]
fn client_disconnect_cancels_everything_still_outstanding() {
    use grain::core::edge::RequestOptions;
    let service = service_with(&[("papers", 71)]);
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        EdgeConfig {
            max_connections: 4,
            tenants: vec![TenantSpec::open("gold", 1)],
            scheduler: SchedulerConfig {
                start_paused: true,
                ..SchedulerConfig::default()
            },
            ..EdgeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = EdgeClient::connect(addr, "gold", "").unwrap();
    for budget in [4, 5, 6] {
        client
            .send(request("papers", budget), RequestOptions::default())
            .unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.scheduler().queue_depth() < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "submissions never queued"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    client.abandon();
    // Reader EOF → every outstanding request's CancelToken trips.
    while server.scheduler().stats().cancelled < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "disconnect never cancelled the outstanding work: {:?}",
            server.scheduler().stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(server.stats().disconnect_cancels >= 1);

    // Released, the queue discards the cancelled slots without running
    // a single selection.
    server.scheduler().resume();
    while !server.scheduler().is_idle() {
        assert!(std::time::Instant::now() < deadline, "queue never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.scheduler().stats().selections, 0);

    // And the server is entirely unbothered.
    let mut fresh = EdgeClient::connect(addr, "gold", "").unwrap();
    let report = fresh
        .request(request("papers", 4), RequestOptions::default())
        .unwrap();
    assert_eq!(report.outcomes[0].selected.len(), 4);
}

#[cfg(feature = "fault-injection")]
mod fault_injection {
    use super::*;
    use grain::core::fault::{self, FaultAction, Schedule};
    use grain::core::{CancelToken, OnDeadline};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// The fail-point registry is process-global: every test that arms a
    /// site holds this lock for its whole body so no sibling test crosses
    /// an armed site concurrently.
    fn serialize() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Disarms on drop so a failing assertion cannot leak an armed fault.
    struct Armed(&'static str);
    impl Armed {
        fn arm(site: &'static str, schedule: Schedule, action: FaultAction) -> Self {
            fault::arm(site, schedule, action);
            Self(site)
        }
    }
    impl Drop for Armed {
        fn drop(&mut self) {
            fault::disarm(self.0);
        }
    }

    /// The acceptance criterion of the cancellation layer: a deadline
    /// trip at *any* greedy round boundary degrades (under
    /// [`OnDeadline::Partial`]) to an exact byte-for-byte prefix of the
    /// uncancelled selection, while [`OnDeadline::Fail`] turns the same
    /// trip into the typed deadline error.
    #[test]
    fn deadline_trip_at_any_greedy_round_degrades_to_an_exact_prefix() {
        let _guard = serialize();
        let service = service_with(&[("papers", 71)]);
        let budget = 10;
        // The oracle comes from a twin service: a select on `service`
        // would cache a greedy trace that answers every faulted request
        // below without running a greedy round.
        let oracle = service_with(&[("papers", 71)])
            .select(&request("papers", budget))
            .unwrap();
        let full = &oracle.outcome().selected;
        assert_eq!(full.len(), budget);

        let mut shorter_than_full = 0;
        for round in 1..=budget as u64 {
            let armed = Armed::arm("greedy.round", Schedule::Nth(round), FaultAction::Cancel);
            let report = service
                .select_with(
                    &request("papers", budget),
                    &CancelToken::new(),
                    OnDeadline::Partial,
                )
                .expect("Partial policy degrades, not fails");
            assert!(report.is_partial(), "round {round} trip must be partial");
            let prefix = &report.outcome().selected;
            assert!(
                full.starts_with(prefix),
                "round {round}: partial result must be an exact prefix \
                 (got {prefix:?} vs full {full:?})"
            );
            assert!(
                prefix.len() < budget,
                "round {round}: a mid-run trip cannot reach the full budget"
            );
            assert_eq!(
                report.outcome().objective_trace,
                oracle.outcome().objective_trace[..prefix.len()],
                "round {round}: the prefix carries the oracle's trace"
            );
            if prefix.len() < budget - 1 {
                shorter_than_full += 1;
            }
            drop(armed);

            // The same trip under Fail is the typed error instead.
            let armed = Armed::arm("greedy.round", Schedule::Nth(round), FaultAction::Cancel);
            assert_eq!(
                service
                    .select_with(
                        &request("papers", budget),
                        &CancelToken::new(),
                        OnDeadline::Fail,
                    )
                    .unwrap_err(),
                GrainError::DeadlineExceeded {
                    stage: DeadlineStage::MidSelection
                },
                "round {round}: Fail policy surfaces the deadline"
            );
            drop(armed);
        }
        assert!(
            shorter_than_full > 0,
            "early trips must actually shorten the selection"
        );

        // The engine is undamaged: the uncancelled request still answers
        // bit-identically after all those cancelled runs.
        let again = service.select(&request("papers", budget)).unwrap();
        assert_eq!(&again.outcome().selected, full);
    }

    /// Cancellation is also observed between evaluation blocks inside a
    /// round (`cancel_check_every`), not only at round boundaries.
    #[test]
    fn eval_block_checkpoints_observe_cancellation_within_a_round() {
        let _guard = serialize();
        let service = service_with(&[("papers", 79)]);
        let config = GrainConfig {
            cancel_check_every: 8,
            ..GrainConfig::ball_d()
        };
        let req = SelectionRequest::new("papers", config, Budget::Fixed(10));
        // Twin-service oracle: keeps the faulted request off the trace.
        let full = service_with(&[("papers", 79)])
            .select(&req)
            .unwrap()
            .outcome()
            .selected
            .clone();

        let _armed = Armed::arm("greedy.eval.block", Schedule::Nth(2), FaultAction::Cancel);
        let report = service
            .select_with(&req, &CancelToken::new(), OnDeadline::Partial)
            .expect("Partial policy degrades, not fails");
        assert!(report.is_partial());
        let prefix = &report.outcome().selected;
        assert!(prefix.len() < full.len(), "the trip was observed mid-run");
        assert!(full.starts_with(prefix), "still an exact prefix");
    }

    /// An injected panic in one request of a batch resolves that request
    /// as [`GrainError::SelectionPanicked`] and leaves every sibling's
    /// answer bit-identical to the serial oracle — no worker dies, no
    /// latch wedges, no result corrupts.
    #[test]
    fn injected_panic_isolates_to_its_request_and_siblings_stay_bit_identical() {
        let _guard = serialize();
        let service = service_with(&[("cora", 81), ("pubmed", 83)]);
        let requests = vec![request("cora", 6), request("pubmed", 6), request("cora", 9)];
        let oracle: Vec<SelectionReport> = requests
            .iter()
            .map(|r| service.select(r).unwrap())
            .collect();

        // Serial batch workers make "first request crosses first"
        // deterministic: exactly requests[0] panics.
        let _armed = Armed::arm("service.request", Schedule::Nth(1), FaultAction::Panic);
        let results = service.submit_batch_with_workers(&requests, 1);
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &GrainError::SelectionPanicked {
                graph: "cora".into()
            }
        );
        for (i, (result, want)) in results.iter().zip(&oracle).enumerate().skip(1) {
            let got = result.as_ref().expect("siblings are untouched");
            assert_eq!(
                got.outcome().selected,
                want.outcome().selected,
                "sibling {i} must be bit-identical to the serial oracle"
            );
            assert_eq!(
                got.outcome().objective_trace,
                want.outcome().objective_trace
            );
        }
    }

    /// The same isolation holds through the scheduler: the panicked
    /// request's ticket resolves typed, the `panicked` counter records
    /// it, and the worker keeps serving.
    #[test]
    fn scheduler_workers_survive_injected_panics() {
        let _guard = serialize();
        let service = service_with(&[("cora", 81), ("pubmed", 83)]);
        let oracle = service.select(&request("pubmed", 7)).unwrap();
        let scheduler = Scheduler::new(
            Arc::clone(&service),
            SchedulerConfig {
                workers: 1, // FIFO dispatch: the first submission panics
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        let _armed = Armed::arm("service.request", Schedule::Nth(1), FaultAction::Panic);
        let doomed = scheduler.submit(request("cora", 7)).unwrap();
        let fine = scheduler.submit(request("pubmed", 7)).unwrap();
        scheduler.resume();

        assert_eq!(
            doomed.wait().unwrap_err(),
            GrainError::SelectionPanicked {
                graph: "cora".into()
            }
        );
        let report = fine.wait().unwrap();
        assert_eq!(report.outcome().selected, oracle.outcome().selected);
        // The worker survived; it still answers new work.
        let after = scheduler.submit(request("cora", 4)).unwrap();
        assert_eq!(after.wait().unwrap().outcome().selected.len(), 4);
        let stats = scheduler.stats();
        assert_eq!(stats.panicked, 1, "{stats:?}");
    }

    /// A cancellation landing at an artifact-build boundary (cold build)
    /// fails typed under *both* policies — artifacts are never partial —
    /// caches nothing, and the next identical request rebuilds cleanly.
    #[test]
    fn cancel_at_a_cold_build_boundary_fails_typed_and_caches_nothing() {
        let _guard = serialize();
        let fresh = service_with(&[("papers", 91)]);
        let oracle = fresh.select(&request("papers", 6)).unwrap();

        let service = service_with(&[("papers", 91)]);
        for policy in [OnDeadline::Fail, OnDeadline::Partial] {
            let _armed = Armed::arm(
                "engine.build.propagation",
                Schedule::Nth(1),
                FaultAction::Cancel,
            );
            assert_eq!(
                service
                    .select_with(&request("papers", 6), &CancelToken::new(), policy)
                    .unwrap_err(),
                GrainError::DeadlineExceeded {
                    stage: DeadlineStage::MidSelection
                },
                "artifact builds are never partial ({policy:?})"
            );
        }
        // Disarmed: the cold build now completes and answers exactly as a
        // fresh service would — nothing half-built was cached.
        let report = service.select(&request("papers", 6)).unwrap();
        assert_eq!(report.outcome().selected, oracle.outcome().selected);
    }

    /// A scheduled waiter that opted into partial results receives the
    /// anytime prefix when a fault trips the deadline mid-run, while a
    /// Fail-policy waiter of the same coalesced slot receives the typed
    /// error; the `partial` counter records the degraded delivery.
    #[test]
    fn partial_and_fail_waiters_of_one_slot_each_get_their_contract() {
        let _guard = serialize();
        let service = service_with(&[("papers", 97)]);
        let budget = 10;
        // Twin-service oracle: keeps the scheduled run off the trace.
        let full = service_with(&[("papers", 97)])
            .select(&request("papers", budget))
            .unwrap()
            .outcome()
            .selected
            .clone();

        let scheduler = Scheduler::new(
            Arc::clone(&service),
            SchedulerConfig {
                workers: 1,
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        // Both waiters need deadlines (a deadline-free waiter keeps the
        // run uncancellable); the injected Cancel trips the token early.
        let deadline = Duration::from_secs(600);
        let partial_waiter = scheduler
            .submit(
                ScheduledRequest::new(request("papers", budget))
                    .with_deadline_in(deadline)
                    .with_on_deadline(OnDeadline::Partial),
            )
            .unwrap();
        let fail_waiter = scheduler
            .submit(ScheduledRequest::new(request("papers", budget)).with_deadline_in(deadline))
            .unwrap();
        assert_eq!(scheduler.queue_depth(), 1, "the two waiters coalesced");

        let _armed = Armed::arm("greedy.round", Schedule::Nth(3), FaultAction::Cancel);
        scheduler.resume();

        let report = partial_waiter.wait().unwrap();
        assert!(report.is_partial());
        let prefix = &report.outcome().selected;
        assert!(full.starts_with(prefix) && prefix.len() < full.len());
        assert_eq!(
            fail_waiter.wait().unwrap_err(),
            GrainError::DeadlineExceeded {
                stage: DeadlineStage::MidSelection
            }
        );
        let stats = scheduler.stats();
        assert_eq!(stats.partial, 1, "{stats:?}");
        assert_eq!(stats.delivered, 2, "{stats:?}");
    }

    /// A cancel or a panic at the ball-list fail point of the read after
    /// an update leaves the stale lists and their pending rows as they
    /// were: the retry still repairs (it does not rebuild in full) and
    /// answers exactly like a cold service over the mutated corpus.
    #[test]
    fn a_faulted_ball_repair_leaves_the_stale_lists_for_the_retry() {
        let _guard = serialize();
        let service = service_with(&[("papers", 101)]);
        let req = request("papers", 8);
        service.select(&req).unwrap();
        let graph = service.graph("papers").unwrap();
        let v = (0..graph.num_nodes())
            .find(|&v| !graph.neighbors(v).is_empty())
            .expect("an edge to delete");
        let delta = GraphDelta::new().delete_edge(v as u32, graph.neighbors(v)[0]);
        let report = service.apply_update("papers", &delta).unwrap();
        assert!(report.patched[0].dirty_propagation > 0);

        let cold = GrainService::new();
        cold.register_graph(
            "papers",
            (*service.graph("papers").unwrap()).clone(),
            (*service.features("papers").unwrap()).clone(),
        )
        .unwrap();
        let oracle = cold.select(&req).unwrap();

        for policy in [OnDeadline::Fail, OnDeadline::Partial] {
            let _armed = Armed::arm("engine.build.balls", Schedule::Nth(1), FaultAction::Cancel);
            assert_eq!(
                service
                    .select_with(&req, &CancelToken::new(), policy)
                    .unwrap_err(),
                GrainError::DeadlineExceeded {
                    stage: DeadlineStage::MidSelection
                },
                "a ball repair is never partial ({policy:?})"
            );
        }
        {
            let _armed = Armed::arm("engine.build.balls", Schedule::Nth(1), FaultAction::Panic);
            let results = service.submit_batch_with_workers(std::slice::from_ref(&req), 1);
            assert_eq!(
                results[0].as_ref().unwrap_err(),
                &GrainError::SelectionPanicked {
                    graph: "papers".into()
                }
            );
        }

        let report = service.select(&req).unwrap();
        assert_eq!(report.pool_event, PoolEvent::Hit);
        assert_eq!(report.artifact_builds.ball_repairs, 1, "still repaired");
        assert_eq!(report.artifact_builds.diversity_builds, 0);
        assert_eq!(report.outcome().selected, oracle.outcome().selected);
        assert_eq!(report.outcome().sigma, oracle.outcome().sigma);
        assert_eq!(
            report.outcome().objective_trace,
            oracle.outcome().objective_trace
        );
    }

    // ----- serving-edge fault sites -------------------------------------

    use grain::core::edge::proto::WireReport;
    use grain::core::edge::RequestOptions;

    fn edge_server(service: &Arc<GrainService>) -> EdgeServer {
        EdgeServer::bind(
            "127.0.0.1:0",
            Arc::clone(service),
            EdgeConfig {
                max_connections: 4,
                tenants: vec![TenantSpec::open("gold", 1)],
                ..EdgeConfig::default()
            },
        )
        .unwrap()
    }

    /// A panic injected mid-write — after the selection completed,
    /// while its response frame is going out — severs that connection
    /// only. The server survives, and a fresh connection gets the
    /// bit-identical answer (nothing server-side was poisoned).
    #[test]
    fn a_mid_write_fault_severs_one_connection_never_the_server() {
        let _guard = serialize();
        let service = service_with(&[("papers", 71)]);
        let oracle = service.select(&request("papers", 5)).unwrap();
        let server = edge_server(&service);

        let mut client = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
        // The hello-ack write is already behind us: the next `edge.write`
        // crossing is this request's response frame.
        let armed = Armed::arm("edge.write", Schedule::Nth(1), FaultAction::Panic);
        let severed = client.request(request("papers", 5), RequestOptions::default());
        assert!(
            severed.is_err(),
            "a mid-write fault must sever the connection, got {severed:?}"
        );
        drop(armed);

        let mut fresh = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
        let report = fresh
            .request(request("papers", 5), RequestOptions::default())
            .unwrap();
        assert_eq!(
            report.outcomes,
            WireReport::from_report(0, &oracle).outcomes,
            "the retried answer must be bit-identical to the serial oracle"
        );
        assert!(server.stats().connections_accepted >= 2);
    }

    /// `edge.disconnect` models the client vanishing in the instant
    /// between the selection resolving and its response hitting the
    /// wire: the connection tears down cleanly and the result is simply
    /// dropped — reproducible bit-exactly by the next asker.
    #[test]
    fn a_disconnect_before_the_response_drops_only_that_delivery() {
        let _guard = serialize();
        let service = service_with(&[("papers", 71)]);
        let oracle = service.select(&request("papers", 6)).unwrap();
        let server = edge_server(&service);

        let mut client = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
        let armed = Armed::arm("edge.disconnect", Schedule::Nth(1), FaultAction::Panic);
        let severed = client.request(request("papers", 6), RequestOptions::default());
        assert!(
            severed.is_err(),
            "the response must never arrive, got {severed:?}"
        );
        drop(armed);

        let mut fresh = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
        let report = fresh
            .request(request("papers", 6), RequestOptions::default())
            .unwrap();
        assert_eq!(
            report.outcomes,
            WireReport::from_report(0, &oracle).outcomes
        );
    }

    /// Panics at the remaining edge sites — as the connection starts
    /// (`edge.accept`) and at the reader's frame loop (`edge.read`) —
    /// each kill exactly one connection and nothing else.
    #[test]
    fn accept_and_read_faults_kill_one_connection_each() {
        let _guard = serialize();
        let service = service_with(&[("papers", 71)]);
        service.select(&request("papers", 4)).unwrap(); // warm
        let server = edge_server(&service);

        for site in ["edge.accept", "edge.read"] {
            let armed = Armed::arm(site, Schedule::Nth(1), FaultAction::Panic);
            // The faulted connection dies during or right after the
            // handshake; both shapes are acceptable, panics are not.
            if let Ok(mut client) = EdgeClient::connect(server.local_addr(), "gold", "") {
                let severed = client.request(request("papers", 4), RequestOptions::default());
                assert!(severed.is_err(), "{site}: expected a severed connection");
            }
            drop(armed);

            let mut fresh = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
            let report = fresh
                .request(request("papers", 4), RequestOptions::default())
                .unwrap();
            assert_eq!(report.outcomes[0].selected.len(), 4, "{site}");
        }
    }
}
