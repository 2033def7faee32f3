//! The network edge: a framed-TCP serving front-end with per-tenant
//! fairness, rate limiting, and disconnect-triggered cancellation.
//!
//! [`EdgeServer`] binds a `std::net::TcpListener` and serves the wire
//! protocol of [`proto`] (length-prefixed flat-binary frames, the
//! store's dialect). Each connection authenticates one tenant via a
//! [`Hello`](proto::Hello) frame, then pipelines
//! [`Request`](proto::Frame::Request) frames; admission charges the
//! tenant's [`TokenBucket`], dispatch goes through the shared
//! [`Scheduler`] under the tenant's weighted-fair flow, and the response
//! carries exactly the deterministic core of the report — **bit-identical
//! to the same [`SelectionRequest`](crate::service::SelectionRequest)
//! submitted in-process**, the contract
//! `tests/edge_serving.rs` asserts against a serial oracle.
//!
//! # Connection lifecycle
//!
//! ```text
//! accept ─ cap check ─ Hello/auth ─ HelloAck ─┬─ Request → bucket → Scheduler → Response
//!                                             ├─ Request → … (pipelined)
//!                                             └─ EOF/error → cancel all in-flight tickets
//! ```
//!
//! Two threads serve each connection: a **reader** that decodes frames,
//! admits and submits work, and a **writer** that waits tickets in FIFO
//! order and owns the write half. The split is what turns a client
//! disconnect into resource reclamation: the reader notices EOF
//! immediately (even while the writer is blocked in
//! [`Ticket::wait`](crate::scheduler::Ticket::wait)) and trips every
//! outstanding request's [`CancelHandle`] — PR 6's cooperative abort
//! path surfacing as a network behavior. Queued work is shed at
//! dispatch; mid-greedy work stops at the next cancellation checkpoint.
//!
//! Failures stay typed end to end: malformed bytes are answered with a
//! [`CODE_PROTOCOL`](proto::CODE_PROTOCOL) error frame and a clean
//! close, refused admissions with
//! [`CODE_RATE_LIMITED`](proto::CODE_RATE_LIMITED) (connection stays
//! open), scheduler/service errors with their
//! [`grain_error_code`](proto::grain_error_code). A connection never
//! takes down its neighbors: each one's threads are panic-isolated, and
//! the fault-injection sites `edge.accept`, `edge.read`, `edge.write`,
//! and `edge.disconnect` (armed via [`crate::fault`]) let the chaos
//! tests prove it.

pub mod bucket;
pub mod client;
pub mod proto;

pub use bucket::TokenBucket;
pub use client::{EdgeClient, EdgeError, RequestOptions};

use crate::fault;
use crate::scheduler::{CancelHandle, ScheduledRequest, Scheduler, SchedulerConfig, TenantStats};
use crate::service::GrainService;
use proto::{Frame, FrameError, HelloAck, WireError, WireReport, WireRequest};
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One tenant the edge will serve.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant id presented in the hello frame.
    pub id: String,
    /// Shared secret the hello must present; `None` admits any secret
    /// (including empty) for that tenant id.
    pub secret: Option<String>,
    /// Weighted-fair dispatch weight (clamped to ≥ 1 by the scheduler).
    pub weight: u32,
    /// Token-bucket refill rate, requests per second.
    pub rate_per_sec: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
}

impl TenantSpec {
    /// An open tenant (no secret) with the given weight and a generous
    /// default bucket (1000 req/s, burst 1000).
    #[must_use]
    pub fn open(id: impl Into<String>, weight: u32) -> Self {
        Self {
            id: id.into(),
            secret: None,
            weight,
            rate_per_sec: 1000.0,
            burst: 1000.0,
        }
    }

    /// Sets the shared secret the hello must present.
    #[must_use]
    pub fn with_secret(mut self, secret: impl Into<String>) -> Self {
        self.secret = Some(secret.into());
        self
    }

    /// Sets the token-bucket admission parameters.
    #[must_use]
    pub fn with_rate(mut self, rate_per_sec: f64, burst: f64) -> Self {
        self.rate_per_sec = rate_per_sec;
        self.burst = burst;
        self
    }
}

/// Construction-time knobs of an [`EdgeServer`].
#[derive(Clone, Debug)]
pub struct EdgeConfig {
    /// Hard cap on concurrently served connections; the `n+1`-th accept
    /// is answered with a [`CODE_AT_CAPACITY`](proto::CODE_AT_CAPACITY)
    /// error frame and closed.
    pub max_connections: usize,
    /// Per-connection frame-size cap (both directions).
    pub max_frame_len: usize,
    /// The tenant table; hellos naming anything else are refused.
    pub tenants: Vec<TenantSpec>,
    /// Configuration of the embedded [`Scheduler`].
    pub scheduler: SchedulerConfig,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_frame_len: proto::DEFAULT_MAX_FRAME_LEN,
            tenants: Vec::new(),
            scheduler: SchedulerConfig::default(),
        }
    }
}

/// Point-in-time snapshot of edge-level counters (scheduler-level
/// accounting lives in [`Scheduler::stats`] /
/// [`Scheduler::tenant_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Connections accepted (cap refusals included).
    pub connections_accepted: usize,
    /// Connections refused at the cap.
    pub connections_rejected: usize,
    /// Connections currently being served.
    pub active_connections: usize,
    /// Hellos refused (unknown tenant or bad secret).
    pub auth_failures: usize,
    /// Request frames answered with a response frame.
    pub requests_served: usize,
    /// Request frames refused by a tenant's token bucket.
    pub rate_limited: usize,
    /// Frames that failed to decode (connection torn down after).
    pub protocol_errors: usize,
    /// In-flight requests cancelled because their client disconnected.
    pub disconnect_cancels: usize,
}

#[derive(Default)]
struct EdgeCounters {
    connections_accepted: AtomicUsize,
    connections_rejected: AtomicUsize,
    active_connections: AtomicUsize,
    auth_failures: AtomicUsize,
    requests_served: AtomicUsize,
    rate_limited: AtomicUsize,
    protocol_errors: AtomicUsize,
    disconnect_cancels: AtomicUsize,
}

struct TenantRuntime {
    spec: TenantSpec,
    bucket: Mutex<TokenBucket>,
}

struct EdgeShared {
    service: Arc<GrainService>,
    scheduler: Scheduler,
    tenants: HashMap<String, TenantRuntime>,
    max_frame_len: usize,
    max_connections: usize,
    counters: EdgeCounters,
    shutting_down: AtomicBool,
    /// Read halves of live connections, shut down on server shutdown so
    /// blocked reader threads wake with EOF.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// What the reader hands the writer thread, in write order.
enum WriterMsg {
    Frame(Frame),
    Ticket {
        request_id: u64,
        ticket: crate::scheduler::Ticket,
    },
}

/// A framed-TCP serving edge over one [`GrainService`]; see the module
/// docs for the connection lifecycle and guarantees.
pub struct EdgeServer {
    shared: Arc<EdgeShared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl EdgeServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `service` under `config`. Tenant weights are registered
    /// with the embedded scheduler before the first accept.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<GrainService>,
        config: EdgeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let scheduler = Scheduler::new(Arc::clone(&service), config.scheduler);
        let now = Instant::now();
        let mut tenants = HashMap::new();
        for spec in config.tenants {
            scheduler.set_tenant_weight(&spec.id, spec.weight);
            let bucket = Mutex::new(TokenBucket::new(spec.rate_per_sec, spec.burst, now));
            tenants.insert(spec.id.clone(), TenantRuntime { spec, bucket });
        }
        let shared = Arc::new(EdgeShared {
            service,
            scheduler,
            tenants,
            max_frame_len: config.max_frame_len,
            max_connections: config.max_connections.max(1),
            counters: EdgeCounters::default(),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(1),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("grain-edge-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Self {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this edge fronts.
    #[must_use]
    pub fn service(&self) -> &Arc<GrainService> {
        &self.shared.service
    }

    /// The embedded scheduler (per-tenant stats, pause/resume, weights).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.scheduler
    }

    /// Edge-level counters; see [`EdgeStats`].
    #[must_use]
    pub fn stats(&self) -> EdgeStats {
        let c = &self.shared.counters;
        EdgeStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: c.connections_rejected.load(Ordering::Relaxed),
            active_connections: c.active_connections.load(Ordering::Relaxed),
            auth_failures: c.auth_failures.load(Ordering::Relaxed),
            requests_served: c.requests_served.load(Ordering::Relaxed),
            rate_limited: c.rate_limited.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            disconnect_cancels: c.disconnect_cancels.load(Ordering::Relaxed),
        }
    }

    /// Per-tenant scheduler accounting, sorted by tenant id.
    #[must_use]
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.shared.scheduler.tenant_stats()
    }

    /// Stops accepting, severs live connections (waking their reader
    /// threads with EOF, which cancels their in-flight work), and shuts
    /// the embedded scheduler down. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with one last connection to ourselves.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let conns: Vec<TcpStream> = {
            let mut map = lock(&self.shared.conns);
            map.drain().map(|(_, stream)| stream).collect()
        };
        for stream in conns {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Give connection threads a moment to observe EOF and cancel
        // their in-flight tickets before the scheduler goes away.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self
            .shared
            .counters
            .active_connections
            .load(Ordering::Acquire)
            > 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.shared.scheduler.shutdown();
    }
}

impl Drop for EdgeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for EdgeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeServer")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<EdgeShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                // Responses go out as soon as they are written: without
                // this, Nagle holds a reply until the client's delayed
                // ACK arrives under pipelined traffic.
                stream.set_nodelay(true).ok();
                stream
            }
            Err(_) => {
                if shared.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        // Claim a connection slot; over the cap, refuse politely.
        let active = &shared.counters.active_connections;
        if active.fetch_add(1, Ordering::AcqRel) >= shared.max_connections {
            active.fetch_sub(1, Ordering::AcqRel);
            shared
                .counters
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = proto::write_frame(
                &mut stream,
                &Frame::Error(WireError {
                    request_id: 0,
                    code: proto::CODE_AT_CAPACITY,
                    message: format!("server at its {}-connection cap", shared.max_connections),
                }),
            );
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("grain-edge-conn".into())
            .spawn(move || {
                let conn_id = conn_shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    lock(&conn_shared.conns).insert(conn_id, clone);
                }
                // Panic isolation: a fault-injected (or genuine) panic in
                // one connection must not poison the process or skip the
                // slot release below.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(stream, &conn_shared);
                }));
                lock(&conn_shared.conns).remove(&conn_id);
                conn_shared
                    .counters
                    .active_connections
                    .fetch_sub(1, Ordering::AcqRel);
                drop(result);
            });
        if spawned.is_err() {
            active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Authenticates the hello, then runs the reader loop; the paired
/// writer thread is joined before returning so the connection slot is
/// only released once both halves are done.
fn serve_connection(stream: TcpStream, shared: &Arc<EdgeShared>) {
    fault::point("edge.accept", None);
    let mut read_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut write_half = stream;

    // --- Hello / authentication -------------------------------------
    let hello = match proto::read_frame(&mut read_half, shared.max_frame_len) {
        Ok(Frame::Hello(hello)) => hello,
        Ok(_) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            send_error(
                &mut write_half,
                0,
                proto::CODE_PROTOCOL,
                "expected a hello frame first",
            );
            return;
        }
        Err(err) => {
            refuse_protocol(&mut write_half, shared, &err);
            return;
        }
    };
    let Some(runtime) = shared.tenants.get(&hello.tenant) else {
        shared
            .counters
            .auth_failures
            .fetch_add(1, Ordering::Relaxed);
        send_error(
            &mut write_half,
            0,
            proto::CODE_UNKNOWN_TENANT,
            &format!("unknown tenant {:?}", hello.tenant),
        );
        return;
    };
    if let Some(secret) = &runtime.spec.secret {
        if *secret != hello.secret {
            shared
                .counters
                .auth_failures
                .fetch_add(1, Ordering::Relaxed);
            send_error(
                &mut write_half,
                0,
                proto::CODE_UNAUTHENTICATED,
                "secret mismatch",
            );
            return;
        }
    }

    // --- Writer thread ----------------------------------------------
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let _ = tx.send(WriterMsg::Frame(Frame::HelloAck(HelloAck {
        weight: runtime.spec.weight,
        rate_per_sec: runtime.spec.rate_per_sec,
        burst: runtime.spec.burst,
    })));
    let outstanding: Arc<Mutex<HashMap<u64, CancelHandle>>> = Arc::default();
    let writer_outstanding = Arc::clone(&outstanding);
    let writer_shared = Arc::clone(shared);
    let writer = std::thread::Builder::new()
        .name("grain-edge-writer".into())
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                writer_loop(&mut write_half, &rx, &writer_outstanding, &writer_shared);
            }));
            // Whether the loop ended normally, on a write error, or on a
            // fault-injected panic: sever both halves so the reader
            // unblocks and tears the connection down.
            let _ = write_half.shutdown(Shutdown::Both);
            drop(result);
        })
        .expect("spawn writer thread");

    // --- Reader loop -------------------------------------------------
    let tenant: Arc<str> = Arc::from(runtime.spec.id.as_str());
    loop {
        fault::point("edge.read", None);
        let frame = match proto::read_frame(&mut read_half, shared.max_frame_len) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => break,
            Err(FrameError::Io(_)) => break,
            Err(FrameError::Protocol(message)) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(WriterMsg::Frame(Frame::Error(WireError {
                    request_id: 0,
                    code: proto::CODE_PROTOCOL,
                    message,
                })));
                break;
            }
        };
        let wire = match frame {
            Frame::Request(wire) => *wire,
            _ => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(WriterMsg::Frame(Frame::Error(WireError {
                    request_id: 0,
                    code: proto::CODE_PROTOCOL,
                    message: "only request frames are valid after the hello".into(),
                })));
                break;
            }
        };
        handle_request(wire, &tenant, runtime, shared, &tx, &outstanding);
    }

    // --- Teardown: disconnect cancels all in-flight work -------------
    let in_flight: Vec<CancelHandle> = {
        let mut map = lock(&outstanding);
        map.drain().map(|(_, handle)| handle).collect()
    };
    if !in_flight.is_empty() {
        shared
            .counters
            .disconnect_cancels
            .fetch_add(in_flight.len(), Ordering::Relaxed);
        for handle in in_flight {
            handle.cancel();
        }
    }
    // Cancellation above guarantees every queued ticket resolves, so the
    // writer drains its channel (flushing any final error frame to a
    // still-listening peer) and exits; join *before* severing the socket
    // so that frame is not raced away.
    drop(tx);
    let _ = writer.join();
}

fn handle_request(
    wire: WireRequest,
    tenant: &Arc<str>,
    runtime: &TenantRuntime,
    shared: &Arc<EdgeShared>,
    tx: &Sender<WriterMsg>,
    outstanding: &Arc<Mutex<HashMap<u64, CancelHandle>>>,
) {
    let request_id = wire.request_id;
    // Admission: one token per request, charged at receipt time.
    if !lock(&runtime.bucket).try_take(1.0, Instant::now()) {
        shared.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(WriterMsg::Frame(Frame::Error(WireError {
            request_id,
            code: proto::CODE_RATE_LIMITED,
            message: format!(
                "tenant {:?} over its {}/s rate (burst {})",
                runtime.spec.id, runtime.spec.rate_per_sec, runtime.spec.burst
            ),
        })));
        return;
    }
    let mut scheduled = ScheduledRequest::new(wire.request)
        .with_priority(wire.priority)
        .with_on_deadline(wire.on_deadline)
        .with_tenant(Arc::clone(tenant));
    if wire.deadline_ms > 0 {
        scheduled = scheduled
            .with_deadline(Instant::now() + Duration::from_millis(u64::from(wire.deadline_ms)));
    }
    match shared.scheduler.submit(scheduled) {
        Ok(ticket) => {
            lock(outstanding).insert(request_id, ticket.cancel_handle());
            let _ = tx.send(WriterMsg::Ticket { request_id, ticket });
        }
        Err(error) => {
            let _ = tx.send(WriterMsg::Frame(Frame::Error(WireError {
                request_id,
                code: proto::grain_error_code(&error),
                message: error.to_string(),
            })));
        }
    }
}

fn writer_loop(
    write_half: &mut TcpStream,
    rx: &Receiver<WriterMsg>,
    outstanding: &Mutex<HashMap<u64, CancelHandle>>,
    shared: &Arc<EdgeShared>,
) {
    while let Ok(msg) = rx.recv() {
        let frame = match msg {
            WriterMsg::Frame(frame) => frame,
            WriterMsg::Ticket { request_id, ticket } => {
                let result = ticket.wait();
                lock(outstanding).remove(&request_id);
                // "Disconnect before response": armed with a panic
                // action, this simulates the server dying between
                // resolving a ticket and writing its response.
                fault::point("edge.disconnect", None);
                match result {
                    Ok(report) => {
                        shared
                            .counters
                            .requests_served
                            .fetch_add(1, Ordering::Relaxed);
                        Frame::Response(WireReport::from_report(request_id, &report))
                    }
                    Err(error) => Frame::Error(WireError {
                        request_id,
                        code: proto::grain_error_code(&error),
                        message: error.to_string(),
                    }),
                }
            }
        };
        fault::point("edge.write", None);
        if proto::write_frame(write_half, &frame).is_err() {
            return;
        }
        let _ = write_half.flush();
    }
}

fn refuse_protocol(stream: &mut TcpStream, shared: &Arc<EdgeShared>, err: &FrameError) {
    match err {
        FrameError::Protocol(message) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            send_error(stream, 0, proto::CODE_PROTOCOL, message);
        }
        FrameError::Closed | FrameError::Io(_) => {}
    }
}

fn send_error(stream: &mut TcpStream, request_id: u64, code: u16, message: &str) {
    let _ = proto::write_frame(
        stream,
        &Frame::Error(WireError {
            request_id,
            code,
            message: message.to_string(),
        }),
    );
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}
