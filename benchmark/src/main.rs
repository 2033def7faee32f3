//! `grain-perfbench` — the serving stack's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the stack up five times, then measures the workload's
//! phases against the last set-up in rounds: a cold-build / warm-start
//! restart cycle, an open loop over the edge, a closed loop, and graph
//! updates. Each phase is timed on the wall clock and on the process CPU
//! clock; the gated end-to-end metrics are the CPU times.
//! Every answer is checked against an in-process oracle after the timed
//! phases. The last stdout line is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `benchmark/README.md` for the workloads and metrics.

mod check;
mod load;
mod stats;
mod trace;
mod workload;

use check::{state_at, toggle_delta, Answer, Oracle, State};
use grain_core::edge::proto::WireOutcome;
use grain_core::{
    EdgeClient, EdgeConfig, EdgeServer, EdgeStats, EpochReport, GrainService, GraphDelta,
    PoolStats, SchedulerConfig, SchedulerStats, TenantSpec,
};
use load::{closed_loop, open_loop, options, OpenRun, Reply};
use stats::{iqr, mean, median, ms, nproc, percentile, Clocks, Metrics};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{
    Corpus, Item, Kind, Mix, Plan, Spec, CLOSED_WINDOW, GRAPH_ID, OPEN_WINDOW, TENANTS,
    UPDATE_EVERY, UPDATE_PAIRS, WORKLOADS,
};

/// A run whose generator sent its 99th-percentile request later than
/// this against schedule (median over rounds) measured the generator,
/// not the server: it is reported invalid.
const LAG_LIMIT_MS: f64 = 20.0;

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Self-test: corrupt one answer before the check.
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?;
            }
            "--trace" => args.trace = value()? == "1",
            "--corrupt-one-answer" => args.corrupt = true,
            other => return Err(format!("unrecognized argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Per-run working directory inside the current directory (the
/// checkout), removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let path = PathBuf::from(".bench_scratch").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch directory is writable");
        Scratch(path)
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn edge_config() -> EdgeConfig {
    EdgeConfig {
        max_connections: 16,
        // Buckets far above any offered rate: admission never throttles.
        tenants: TENANTS
            .iter()
            .map(|&(id, weight)| TenantSpec::open(id, weight).with_rate(1e6, 1e6))
            .collect(),
        scheduler: SchedulerConfig::default(),
        ..EdgeConfig::default()
    }
}

/// A fresh service over an artifact store in `dir`, with the corpus
/// registered.
fn stored_service(corpus: &Corpus, dir: &Path) -> GrainService {
    let service = GrainService::new()
        .with_artifact_store(dir)
        .expect("artifact store opens");
    service
        .register_graph(
            GRAPH_ID,
            Arc::clone(&corpus.graph),
            Arc::clone(&corpus.features),
        )
        .expect("corpus registers");
    service
}

/// Counters of every layer, diffed around the load phases.
struct Snapshot {
    edge: EdgeStats,
    scheduler: SchedulerStats,
    pool: PoolStats,
}

impl Snapshot {
    fn take(server: &EdgeServer) -> Snapshot {
        Snapshot {
            edge: server.stats(),
            scheduler: server.scheduler().stats(),
            pool: server.service().pool_stats(),
        }
    }
}

/// One `apply_update` beside the open loop.
struct Flip {
    start: Instant,
    end: Instant,
    report: Option<EpochReport>,
}

/// Everything the run observed, for the checks and the metrics.
#[derive(Default)]
struct Run {
    attempted: usize,
    failed: usize,
    answers: Vec<Answer>,
    /// Each phase is timed on the wall clock and on the process CPU
    /// clock. The gated metrics are the CPU times; the wall times are
    /// reported by the traced run.
    setup_s: Vec<f64>,
    setup_cpu_s: Vec<f64>,
    cold_s: Vec<f64>,
    cold_cpu_s: Vec<f64>,
    warm_s: Vec<f64>,
    warm_cpu_s: Vec<f64>,
    /// Process CPU time per answered read, per open-loop window.
    read_cpu_ms: Vec<f64>,
    /// Every open-loop latency, and per round: its 99th percentile, its
    /// median (with whether queue depth was sampled) and the generator's
    /// 99th-percentile lag.
    open_ms: Vec<f64>,
    open_p99s: Vec<f64>,
    open_p50s: Vec<(bool, f64)>,
    lag_p99s: Vec<f64>,
    sent: usize,
    /// Closed-loop completions per second, per round.
    capacity: Vec<f64>,
    closed_ok: usize,
    update_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    /// Serial update pairs and the read after each pair, timed alone.
    update_cpu_ms: Vec<f64>,
    fresh_cpu_ms: Vec<f64>,
    epochs: Vec<EpochReport>,
    // Reported by the traced run only.
    depths: Vec<f64>,
    store_load_ms: Vec<f64>,
    layers: trace::Layers,
    builds: Vec<trace::Builds>,
    rate_serial: f64,
    rate_parallel: f64,
    store_bytes_written: usize,
    store_corrupt: usize,
    before: Option<Snapshot>,
    after: Option<Snapshot>,
    resident_bytes: usize,
}

impl Run {
    /// Records an in-process or serial answer.
    fn answer(&mut self, item: Item, states: Vec<State>, reply: Reply) {
        self.attempted += 1;
        match reply {
            Reply::Ok(outcome) => self.answers.push(Answer {
                item,
                states,
                outcome,
            }),
            _ => self.failed += 1,
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(plan) = Plan::for_name(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let scratch = Scratch::new();
    println!(
        "record {}",
        stats::record(&args.workload, args.seed, args.seconds, args.trace)
    );
    let mut run = Run::default();
    let corpus = measure(&plan, &args, &scratch, &mut run);

    // ---- Correctness, outside every timed window ----------------------
    let t = Instant::now();
    let mut oracle = Oracle::new(&corpus);
    if args.corrupt {
        if let Some(first) = run.answers.first_mut() {
            check::corrupt(&mut first.outcome);
        }
    }
    let wrong = oracle.wrong(&plan, &corpus, &run.answers);
    run.failed += wrong;
    eprintln!(
        "checked {} answers against the oracle in {:.1}s: {wrong} wrong",
        run.answers.len(),
        t.elapsed().as_secs_f64()
    );
    let mut valid = true;
    let lag_p99 = median(&run.lag_p99s);
    if lag_p99.is_nan() || lag_p99 > LAG_LIMIT_MS {
        eprintln!("invalid run: generator lag p99 {lag_p99:.3} ms exceeds {LAG_LIMIT_MS} ms");
        valid = false;
    }

    eprintln!("open-loop p99 per round (ms): {:.3?}", run.open_p99s);
    let e2e = end_to_end(&run);
    println!("end-to-end ({}):\n{}", args.workload, e2e.table());
    // The wall-clock figures are printed with every run but not gated:
    // on a shared VM they move with the host's load (see README).
    let mut wall = Metrics::default();
    wall_clock(&run, &mut wall);
    println!(
        "wall clock, not gated ({}):\n{}",
        args.workload,
        wall.table()
    );
    let metrics = if args.trace {
        let layers = per_layer(&run);
        println!("per-layer ({}):\n{}", args.workload, layers.table());
        if matches!(plan.kind, Kind::WarmBudgetSweep | Kind::WarmMixedTenants) {
            let edge = median(&run.layers.edge);
            let gap = (run.layers.self_sum() - edge).abs();
            let spread = iqr(&run.layers.edge);
            if gap.is_nan() || gap > spread {
                eprintln!(
                    "invalid trace: self times miss the edge p50 by {gap:.4} ms (IQR {spread:.4})"
                );
                valid = false;
            }
        }
        layers
    } else {
        e2e
    };
    if metrics.0.iter().any(|m| !m.value.is_finite()) {
        eprintln!("invalid run: a metric has no sample");
        valid = false;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        wrong == 0 && valid,
        run.attempted.max(1),
        run.failed,
        metrics.json()
    );
}

/// Runs every timed phase; returns the corpus the answers refer to.
fn measure(plan: &Plan, args: &Args, scratch: &Scratch, run: &mut Run) -> Corpus {
    let mut phase_start = Instant::now();
    let mut phase = |name: &str| {
        eprintln!("phase {name}: {:.2}s", phase_start.elapsed().as_secs_f64());
        phase_start = Instant::now();
    };

    // ---- Set-up: corpus, store-backed service, primed engines, bound
    // edge. Repeated; the last one serves the rest of the run. The first
    // prime of each set-up is a compute cold build on an empty store.
    let mut served = None;
    for i in 0..SETUPS {
        if let Some((_, server, dir)) = served.take() {
            drop(server);
            let _ = std::fs::remove_dir_all(dir);
        }
        let clocks = Clocks::start();
        let corpus = Corpus::generate(plan.kind, args.seed);
        let dir = scratch.dir(&format!("setup-{i}"));
        let service = stored_service(&corpus, &dir);
        for key in 0..plan.configs.len() {
            let item = Item {
                tenant: 0,
                spec: Spec {
                    key: key as u8,
                    ..corpus.primary()
                },
            };
            let prime = Clocks::start();
            let report = service.select(&corpus.request(plan, item));
            if key == 0 {
                let (wall, cpu) = prime.elapsed();
                run.cold_s.push(wall.as_secs_f64());
                run.cold_cpu_s.push(cpu.as_secs_f64());
            }
            let reply = report.map_or(Reply::Failed, |r| {
                Reply::Ok(WireOutcome::from_outcome(r.outcome()))
            });
            run.answer(item, vec![0], reply);
        }
        let server = EdgeServer::bind("127.0.0.1:0", Arc::new(service), edge_config())
            .expect("edge binds a loopback port");
        let (wall, cpu) = clocks.elapsed();
        run.setup_s.push(wall.as_secs_f64());
        run.setup_cpu_s.push(cpu.as_secs_f64());
        served = Some((corpus, server, dir));
    }
    let (corpus, server, _) = served.expect("set-up ran");
    phase("set-up");
    let service = Arc::clone(server.service());

    // ---- Rounds ------------------------------------------------------
    run.before = Some(Snapshot::take(&server));
    let mut mix = Mix::new(plan, &corpus, args.seed);
    let mut client =
        EdgeClient::connect(server.local_addr(), TENANTS[0].0, "").expect("client connects");
    // Warm-up: the first update of a run costs up to twice the others.
    update_pair(plan, &corpus, &service, &mut client, 0, false, run);
    let mut pairs = 1;
    rewarm(plan, &corpus, &service, &mut client, run);
    // Rounds run while the next one, as long as the last, still ends
    // within `--seconds`. A traced run needs rounds of both kinds.
    let min_rounds = if args.trace { 2 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut last = Duration::ZERO;
    let mut round = 0;
    while round < min_rounds || Instant::now() + last <= deadline {
        let started = Instant::now();
        // A cold build keeps both CPUs busy for up to 1.5 s, and the VM
        // runs slower for a while after such a burst: each restart cycle
        // is followed by a pause as long as itself (at most 1 s), so the
        // serving windows are not measured in its wake.
        let t = Instant::now();
        let dir = scratch.dir(&format!("cycle-{round}"));
        restart_cycle(plan, &corpus, &dir, args.trace, run);
        std::thread::sleep(t.elapsed().min(Duration::from_secs(1)));
        // The traced run samples queue depth in every other round; the
        // difference between the two kinds of round is its overhead.
        let sample = args.trace && round % 2 == 1;
        open_phase(plan, &corpus, &server, &mut mix, sample, run);
        let seed = args.seed ^ ((round as u64) << 32);
        closed_phase(plan, &corpus, &server, seed, run);
        for _ in 0..UPDATE_PAIRS {
            rewarm(plan, &corpus, &service, &mut client, run);
            update_pair(plan, &corpus, &service, &mut client, pairs, true, run);
            pairs += 1;
        }
        rewarm(plan, &corpus, &service, &mut client, run);
        last = started.elapsed();
        round += 1;
    }
    eprintln!("{round} rounds");
    drop(client);
    phase("rounds");

    // ---- Traced probes: serial per-layer drive, thread scaling, private
    // stage builds ------------------------------------------------------
    if args.trace {
        let state = state_at(service.epoch(GRAPH_ID).expect("corpus registered"));
        let mut mix = Mix::new(plan, &corpus, args.seed ^ 0x7ace);
        let items: Vec<Item> = (0..192).map(|_| mix.next_item()).collect();
        let (layers, failed) =
            trace::serial_drive(&server, plan, &corpus, &items, state, &mut run.answers);
        run.attempted += 4 * items.len();
        run.failed += failed;
        run.layers = layers;
        let probe = Duration::from_millis(500);
        run.rate_serial = trace::service_rate(&service, plan, &corpus, &items, 1, probe);
        run.rate_parallel = trace::service_rate(&service, plan, &corpus, &items, nproc(), probe);
        run.builds = (0..3)
            .map(|_| trace::private_builds(plan, &corpus))
            .collect();
        phase("traced probes");
    }
    run.after = Some(Snapshot::take(&server));
    run.resident_bytes = service.pool_stats().resident_bytes;
    run.store_corrupt += service.store_stats().map_or(0, |s| s.corruptions);
    drop(server);
    corpus
}

/// Warm starts measured per restart cycle (each a fresh service over the
/// store the cycle's cold build filled).
const WARM_STARTS: usize = 2;

/// A compute cold build on an empty store in `dir`, then warm starts of
/// fresh services over the store it filled. Each warm start must build
/// no persisted artifact and answer bit-identically to the cold build.
fn restart_cycle(plan: &Plan, corpus: &Corpus, dir: &Path, trace: bool, run: &mut Run) {
    let primary = Item {
        tenant: 0,
        spec: corpus.primary(),
    };
    let request = corpus.request(plan, primary);
    let cold_service = stored_service(corpus, dir);
    let clocks = Clocks::start();
    let cold = cold_service.select(&request);
    let (wall, cpu) = clocks.elapsed();
    run.cold_s.push(wall.as_secs_f64());
    run.cold_cpu_s.push(cpu.as_secs_f64());
    let stats = cold_service.store_stats().unwrap_or_default();
    run.store_bytes_written = stats.bytes_written;
    run.store_corrupt += stats.corruptions;
    drop(cold_service);
    let cold = match cold {
        Ok(report) => WireOutcome::from_outcome(report.outcome()),
        Err(_) => {
            run.attempted += 1 + WARM_STARTS;
            run.failed += 1 + WARM_STARTS;
            return;
        }
    };
    for _ in 0..WARM_STARTS {
        let warm_service = stored_service(corpus, dir);
        let clocks = Clocks::start();
        let warm = warm_service.select(&request);
        let (wall, cpu) = clocks.elapsed();
        run.warm_s.push(wall.as_secs_f64());
        run.warm_cpu_s.push(cpu.as_secs_f64());
        run.store_corrupt += warm_service.store_stats().map_or(0, |s| s.corruptions);
        let reply = match warm {
            Ok(report) => {
                let builds = report.artifact_builds;
                let warm = WireOutcome::from_outcome(report.outcome());
                if builds.propagation_builds + builds.influence_builds + builds.index_builds > 0
                    || warm != cold
                {
                    eprintln!("warm start diverged from its cold build: {builds:?}");
                    run.failed += 1;
                }
                Reply::Ok(warm)
            }
            Err(_) => Reply::Failed,
        };
        run.answer(primary, vec![0], reply);
    }
    run.answer(primary, vec![0], Reply::Ok(cold));
    if trace {
        run.store_load_ms
            .push(trace::store_load_ms(plan, corpus, dir));
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `nproc` closed-loop connections for the plan's window; records the
/// window's completions per second.
fn closed_phase(plan: &Plan, corpus: &Corpus, server: &EdgeServer, seed: u64, run: &mut Run) {
    let epoch = server.service().epoch(GRAPH_ID).expect("corpus registered");
    let (closed, elapsed) = closed_loop(
        server.local_addr(),
        plan,
        corpus,
        seed,
        nproc(),
        CLOSED_WINDOW,
    );
    // Completions after the connections' first requests are in flight.
    let warm_up = CLOSED_WINDOW / 8;
    let mut ok = 0;
    for c in closed {
        if matches!(c.reply, Reply::Ok(_)) {
            run.closed_ok += 1;
            ok += usize::from(c.at >= warm_up);
        }
        run.answer(c.item, vec![state_at(epoch)], c.reply);
    }
    run.capacity
        .push(ok as f64 / (elapsed - warm_up).as_secs_f64());
}

/// Two `apply_update` calls, the first inserting pair edge `k` and the
/// second deleting it again, then the first read of the resulting epoch
/// (the registered graph again) on the primary key, sent serially over
/// the edge. With `timed`, the three are recorded; an untimed pair is
/// warm-up.
fn update_pair(
    plan: &Plan,
    corpus: &Corpus,
    service: &GrainService,
    client: &mut EdgeClient,
    k: usize,
    timed: bool,
    run: &mut Run,
) {
    let (u, v) = corpus.pair_edges[k % corpus.pair_edges.len()];
    let deltas = [
        GraphDelta::new().insert_edge(u, v),
        GraphDelta::new().delete_edge(u, v),
    ];
    for delta in &deltas {
        let clocks = Clocks::start();
        let report = service.apply_update(GRAPH_ID, delta);
        let (wall, cpu) = clocks.elapsed();
        run.attempted += 1;
        match report {
            Ok(report) if timed => {
                run.update_ms.push(ms(wall));
                run.update_cpu_ms.push(ms(cpu));
                run.epochs.push(report);
            }
            Ok(_) => {}
            Err(_) => run.failed += 1,
        }
    }
    let primary = Item {
        tenant: 0,
        spec: corpus.primary(),
    };
    let state = state_at(service.epoch(GRAPH_ID).expect("corpus registered"));
    let clocks = Clocks::start();
    let reply = Reply::from_result(client.request(corpus.request(plan, primary), options(plan)));
    let (wall, cpu) = clocks.elapsed();
    if timed {
        run.fresh_ms.push(ms(wall));
        run.fresh_cpu_ms.push(ms(cpu));
    }
    run.answer(primary, vec![state], reply);
}

/// Reads every engine key once, in key order, untimed: every engine is
/// then resident and warm. Before each update pair, so that every pair
/// starts from the same pool (an update patches only the resident
/// engines, and an epoch flip can evict some of those it patched). After
/// a round's updates, so that the next open-loop window starts warm.
fn rewarm(
    plan: &Plan,
    corpus: &Corpus,
    service: &GrainService,
    client: &mut EdgeClient,
    run: &mut Run,
) {
    let state = state_at(service.epoch(GRAPH_ID).expect("corpus registered"));
    for key in 0..plan.configs.len() {
        let item = Item {
            tenant: 0,
            spec: Spec {
                key: key as u8,
                ..corpus.primary()
            },
        };
        let reply = Reply::from_result(client.request(corpus.request(plan, item), options(plan)));
        run.answer(item, vec![state], reply);
    }
}

/// One open-loop window at the plan's fixed rate. With `sample`, the
/// sender reads the scheduler's queue depth after each send; on
/// live_updates, a thread applies updates on schedule beside the reads.
fn open_phase(
    plan: &Plan,
    corpus: &Corpus,
    server: &EdgeServer,
    mix: &mut Mix,
    sample: bool,
    run: &mut Run,
) {
    let n = ((plan.open_rps * OPEN_WINDOW.as_secs_f64()) as usize).max(1);
    let items: Vec<Item> = (0..n).map(|_| mix.next_item()).collect();
    let interval = Duration::from_secs_f64(1.0 / plan.open_rps);
    let service = server.service();
    let first_epoch = service.epoch(GRAPH_ID).expect("corpus registered");
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + interval * n as u32;
    let mut depths = Vec::new();
    let mut probe = || depths.push(server.scheduler().queue_depth() as f64);
    let clocks = Clocks::start();
    let (open, flips) = std::thread::scope(|scope| {
        let updater = (plan.kind == Kind::LiveUpdates).then(|| {
            scope.spawn(|| {
                let mut flips = Vec::new();
                let mut at = start + UPDATE_EVERY / 2;
                while at < end {
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let epoch = service.epoch(GRAPH_ID).expect("corpus registered");
                    let delta = toggle_delta(corpus, state_at(epoch));
                    let t = Instant::now();
                    let report = service.apply_update(GRAPH_ID, &delta).ok();
                    flips.push(Flip {
                        start: t,
                        end: Instant::now(),
                        report,
                    });
                    at += UPDATE_EVERY;
                }
                flips
            })
        });
        let probe: Option<&mut dyn FnMut()> = if sample { Some(&mut probe) } else { None };
        let open = open_loop(
            server.local_addr(),
            plan,
            corpus,
            items,
            start,
            interval,
            probe,
        );
        let flips = updater.map_or_else(Vec::new, |h| h.join().expect("updater joins"));
        (open, flips)
    });
    let (_, cpu) = clocks.elapsed();
    let answered = open.latencies_ms().len();
    run.read_cpu_ms.push(ms(cpu) / answered.max(1) as f64);
    run.depths.extend(depths);
    record_open(open, &flips, first_epoch, sample, run);
}

/// Folds an open-loop phase into the run: latencies, lag, fresh reads
/// after each update, and every answer with the corpus states it may
/// have been computed on.
fn record_open(open: OpenRun, flips: &[Flip], first_epoch: u64, sampled: bool, run: &mut Run) {
    let latencies = open.latencies_ms();
    run.open_p99s.push(percentile(&latencies, 0.99));
    run.open_p50s.push((sampled, median(&latencies)));
    run.lag_p99s.push(percentile(&open.lag_ms(), 0.99));
    run.open_ms.extend(&latencies);
    run.sent += open.sent.iter().flatten().count();
    for flip in flips {
        run.update_ms.push(ms(flip.end - flip.start));
        run.attempted += 1;
        match &flip.report {
            Some(report) => run.epochs.push(report.clone()),
            None => run.failed += 1,
        }
    }
    // Epoch `first_epoch + k` may be current from the start of update k
    // until the end of update k + 1.
    let live_from = |k: usize| (k > 0).then(|| flips[k - 1].start);
    let live_until = |k: usize| flips.get(k).map(|f| f.end);
    for (j, flip) in flips.iter().enumerate() {
        let next = flips.get(j + 1).map(|f| f.start);
        let fresh = (0..open.items.len()).find(|&i| open.due[i] >= flip.end);
        if let Some(i) = fresh.filter(|&i| next.map_or(true, |n| open.due[i] < n)) {
            if let Some((at, Reply::Ok(_))) = &open.done[i] {
                run.fresh_ms.push(ms(*at - open.due[i]));
            }
        }
    }
    for (i, done) in open.done.into_iter().enumerate() {
        let item = open.items[i];
        let sent = open.sent[i].unwrap_or(open.due[i]);
        let (received, reply) = done.unwrap_or((sent, Reply::Failed));
        let mut states: Vec<State> = (0..=flips.len())
            .filter(|&k| {
                live_from(k).map_or(true, |from| from <= received)
                    && live_until(k).map_or(true, |until| until >= sent)
            })
            .map(|k| state_at(first_epoch + k as u64))
            .collect();
        states.dedup();
        run.answer(item, states, reply);
    }
}

/// The gated metrics: process CPU times, which follow the work done
/// rather than the load on the host.
fn end_to_end(run: &Run) -> Metrics {
    let mut m = Metrics::default();
    m.push(
        "setup_s",
        median(&run.setup_cpu_s),
        "s",
        run.setup_cpu_s.len(),
    );
    m.push(
        "read_cpu_ms",
        median(&run.read_cpu_ms),
        "ms",
        run.open_ms.len(),
    );
    let ok = 1.0 - run.failed as f64 / run.attempted.max(1) as f64;
    m.push("ok_ratio", ok, "ratio", run.attempted);
    // An insert and a delete cost different amounts: the median is taken
    // over the mean of each pair, so that it does not fall on the boundary
    // between two modes.
    let pairs: Vec<f64> = run.update_cpu_ms.chunks_exact(2).map(mean).collect();
    m.push(
        "update_cpu_ms",
        median(&pairs),
        "ms",
        run.update_cpu_ms.len(),
    );
    m.push(
        "fresh_read_cpu_ms",
        median(&run.fresh_cpu_ms),
        "ms",
        run.fresh_cpu_ms.len(),
    );
    m.push(
        "cold_build_cpu_s",
        median(&run.cold_cpu_s),
        "s",
        run.cold_cpu_s.len(),
    );
    m.push(
        "warm_start_cpu_s",
        median(&run.warm_cpu_s),
        "s",
        run.warm_cpu_s.len(),
    );
    m
}

/// The wall-clock counterparts of the gated metrics. They move with the
/// load on a shared host, so the traced run reports them unbounded.
fn wall_clock(run: &Run, m: &mut Metrics) {
    m.push("setup_wall_s", median(&run.setup_s), "s", run.setup_s.len());
    m.push("p50_ms", median(&run.open_ms), "ms", run.open_ms.len());
    m.push("p99_ms", median(&run.open_p99s), "ms", run.open_p99s.len());
    m.push("capacity_rps", median(&run.capacity), "1/s", run.closed_ok);
    m.push(
        "update_p50_ms",
        median(&run.update_ms),
        "ms",
        run.update_ms.len(),
    );
    m.push(
        "fresh_read_p50_ms",
        median(&run.fresh_ms),
        "ms",
        run.fresh_ms.len(),
    );
    m.push("cold_build_s", median(&run.cold_s), "s", run.cold_s.len());
    m.push("warm_start_s", median(&run.warm_s), "s", run.warm_s.len());
}

fn per_layer(run: &Run) -> Metrics {
    let mut m = Metrics::default();
    let layers = &run.layers;
    let serial = layers.edge.len();
    let (before, after) = (
        run.before.as_ref().expect("snapshot"),
        run.after.as_ref().expect("snapshot"),
    );
    let (e0, e1) = (&before.edge, &after.edge);
    let (s0, s1) = (&before.scheduler, &after.scheduler);
    let (p0, p1) = (&before.pool, &after.pool);

    m.push("edge.serial_p50_ms", median(&layers.edge), "ms", serial);
    m.push(
        "edge.self_p50_ms",
        median(&layers.edge_self()),
        "ms",
        serial,
    );
    m.push(
        "edge.bytes_per_req",
        mean(&layers.frame_bytes),
        "bytes",
        layers.frame_bytes.len(),
    );
    let refused = |e: &EdgeStats| e.rate_limited + e.connections_rejected + e.auth_failures;
    m.push(
        "edge.refused",
        (refused(e1) - refused(e0)) as f64,
        "count",
        1,
    );

    m.push(
        "scheduler.self_p50_ms",
        median(&layers.scheduler_self()),
        "ms",
        serial,
    );
    m.push(
        "scheduler.queue_depth_mean",
        mean(&run.depths),
        "count",
        run.depths.len(),
    );
    let depth_max = run.depths.iter().copied().fold(0.0, f64::max);
    m.push(
        "scheduler.queue_depth_max",
        depth_max,
        "count",
        run.depths.len(),
    );
    let submissions = (s1.submissions() - s0.submissions()) as f64;
    let coalesced = (s1.coalesced - s0.coalesced) as f64;
    m.push(
        "scheduler.coalesced_ratio",
        coalesced / submissions,
        "ratio",
        submissions as usize,
    );
    let groups = (s1.dispatch_groups - s0.dispatch_groups) as f64;
    let selections = (s1.selections - s0.selections) as f64;
    m.push(
        "scheduler.group_size",
        selections / groups,
        "count",
        groups as usize,
    );
    let shed = |s: &SchedulerStats| s.rejected_queue_full + s.rejected_deadline + s.shed_deadline;
    m.push("scheduler.shed", (shed(s1) - shed(s0)) as f64, "count", 1);

    m.push(
        "service.self_p50_ms",
        median(&layers.service_self()),
        "ms",
        serial,
    );
    let lookups = (p1.lookups() - p0.lookups()) as f64;
    m.push(
        "service.pool_hit_ratio",
        (p1.hits - p0.hits) as f64 / lookups,
        "ratio",
        lookups as usize,
    );
    m.push(
        "service.resident_mb",
        run.resident_bytes as f64 / 1e6,
        "MB",
        1,
    );
    m.push(
        "service.concurrency_x",
        run.rate_parallel / run.rate_serial,
        "x",
        2,
    );

    m.push("engine.p50_ms", median(&layers.engine), "ms", serial);
    m.push("engine.greedy_p50_ms", median(&layers.greedy), "ms", serial);
    m.push(
        "engine.evals_per_sel",
        mean(&layers.evaluations),
        "count",
        serial,
    );

    let builds = &run.builds;
    let b = |f: fn(&trace::Builds) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
    m.push("prop.build_ms", b(|b| b.prop), "ms", builds.len());
    m.push("influence.build_ms", b(|b| b.influence), "ms", builds.len());
    m.push("index.build_ms", b(|b| b.index), "ms", builds.len());
    m.push("diversity.balls_ms", b(|b| b.diversity), "ms", builds.len());
    m.push(
        "engine.crosscheck_ms",
        b(|b| b.crosscheck_ms),
        "ms",
        builds.len(),
    );
    m.push(
        "influence.nnz",
        b(|b| b.influence_nnz as f64),
        "count",
        builds.len(),
    );
    m.push(
        "influence.mb",
        b(|b| b.influence_bytes as f64 / 1e6),
        "MB",
        builds.len(),
    );

    let epochs = &run.epochs;
    let e = |f: fn(&EpochReport) -> f64| median(&epochs.iter().map(f).collect::<Vec<_>>());
    fn patch(r: &EpochReport, f: fn(&grain_core::PatchTimings) -> Duration) -> f64 {
        ms(r.patched.iter().map(|p| f(&p.timings)).sum())
    }
    m.push(
        "streaming.apply_p50_ms",
        e(|r| ms(r.total_time)),
        "ms",
        epochs.len(),
    );
    m.push(
        "streaming.patch_transition_ms",
        e(|r| patch(r, |t| t.transition)),
        "ms",
        epochs.len(),
    );
    m.push(
        "streaming.patch_propagation_ms",
        e(|r| patch(r, |t| t.propagation)),
        "ms",
        epochs.len(),
    );
    m.push(
        "streaming.patch_embedding_ms",
        e(|r| patch(r, |t| t.embedding)),
        "ms",
        epochs.len(),
    );
    m.push(
        "streaming.patch_influence_ms",
        e(|r| patch(r, |t| t.influence)),
        "ms",
        epochs.len(),
    );
    m.push(
        "streaming.patch_index_ms",
        e(|r| patch(r, |t| t.index)),
        "ms",
        epochs.len(),
    );
    let dirty = |r: &EpochReport| {
        r.patched
            .iter()
            .map(|p| p.dirty_influence)
            .max()
            .unwrap_or(0) as f64
    };
    m.push(
        "streaming.dirty_influence_rows",
        e(dirty),
        "count",
        epochs.len(),
    );

    m.push(
        "store.load_ms",
        median(&run.store_load_ms),
        "ms",
        run.store_load_ms.len(),
    );
    m.push(
        "store.bytes_written",
        run.store_bytes_written as f64,
        "bytes",
        1,
    );
    m.push("store.corrupt", run.store_corrupt as f64, "count", 1);

    wall_clock(run, &mut m);
    m.push("loadgen.lag_p99_ms", median(&run.lag_p99s), "ms", run.sent);
    m.push("loadgen.sent", run.sent as f64, "count", 1);
    m.push("trace.self_sum_ms", layers.self_sum(), "ms", serial);
    let p50s = |sampled: bool| -> Vec<f64> {
        run.open_p50s
            .iter()
            .filter(|r| r.0 == sampled)
            .map(|r| r.1)
            .collect()
    };
    let overhead = 100.0 * (median(&p50s(true)) / median(&p50s(false)) - 1.0);
    m.push("trace.overhead_pct", overhead, "%", run.open_p50s.len());
    m
}
