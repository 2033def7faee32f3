//! Load over real sockets: an open loop paced by one sender thread
//! (latency timed from each request's due instant) and a closed loop of
//! request/response connections.

use crate::workload::{Corpus, Item, Mix, Plan, TENANTS};
use grain_core::cancel::OnDeadline;
use grain_core::edge::client::RequestOptions;
use grain_core::edge::proto::{self, Frame, WireOutcome, WireReport, WireRequest};
use grain_core::edge::EdgeError;
use grain_core::EdgeClient;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What came back for one request.
#[derive(Clone, Debug)]
pub enum Reply {
    Ok(WireOutcome),
    /// An error, refusal or shed (typed error frame), a transport
    /// failure, or no answer. The server-side counts by kind are in
    /// `EdgeStats` and `SchedulerStats`.
    Failed,
}

impl Reply {
    fn from_report(report: WireReport) -> Reply {
        match <[WireOutcome; 1]>::try_from(report.outcomes) {
            Ok([outcome]) => Reply::Ok(outcome),
            Err(_) => Reply::Failed,
        }
    }

    pub fn from_result(result: Result<WireReport, EdgeError>) -> Reply {
        match result {
            Ok(report) => Reply::from_report(report),
            Err(_) => Reply::Failed,
        }
    }
}

pub fn options(plan: &Plan) -> RequestOptions {
    RequestOptions {
        deadline_ms: plan.deadline_ms,
        ..RequestOptions::default()
    }
}

/// The open loop's record, indexed by request (id − 1).
pub struct OpenRun {
    pub items: Vec<Item>,
    pub due: Vec<Instant>,
    pub sent: Vec<Option<Instant>>,
    /// Receive instant and reply; `None` when nothing came back.
    pub done: Vec<Option<(Instant, Reply)>>,
}

impl OpenRun {
    /// Due-to-response latency (ms) of every request answered `Ok`.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.done
            .iter()
            .zip(&self.due)
            .filter_map(|(done, due)| match done {
                Some((at, Reply::Ok(_))) => Some(crate::stats::ms(*at - *due)),
                _ => None,
            })
            .collect()
    }

    /// How late (ms) the generator sent each request against its schedule.
    pub fn lag_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.due)
            .filter_map(|(sent, due)| sent.map(|s| crate::stats::ms(s - *due)))
            .collect()
    }
}

/// Sends `items` at a fixed `interval` from `start`, one connection per
/// tenant, and collects every response. The calling thread is the only
/// sender; each connection has one receiver thread. `probe`, if given,
/// runs right after each send (the traced run samples queue depth there,
/// so tracing adds no thread and no wakeup).
pub fn open_loop(
    addr: SocketAddr,
    plan: &Plan,
    corpus: &Corpus,
    items: Vec<Item>,
    start: Instant,
    interval: Duration,
    mut probe: Option<&mut dyn FnMut()>,
) -> OpenRun {
    let n = items.len();
    let streams: Vec<TcpStream> = (0..plan.open_conns)
        .map(|c| {
            EdgeClient::connect(addr, TENANTS[c].0, "")
                .expect("open-loop connection authenticates")
                .into_stream()
        })
        .collect();
    // Each receiver stops once its connection's share has come back (a
    // failed write leaves it to the read timeout).
    let expected: Vec<usize> = (0..streams.len())
        .map(|c| items.iter().filter(|item| item.tenant == c).count())
        .collect();
    let due: Vec<Instant> = (0..n).map(|i| start + interval * i as u32).collect();
    let mut sent = vec![None; n];
    let mut done: Vec<Option<(Instant, Reply)>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        let receivers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let mut reader = stream.try_clone().expect("stream clones");
                let expected = expected[c];
                scope.spawn(move || {
                    reader.set_read_timeout(Some(Duration::from_secs(10))).ok();
                    let mut got = Vec::new();
                    while got.len() < expected {
                        let (id, reply) =
                            match proto::read_frame(&mut reader, proto::DEFAULT_MAX_FRAME_LEN) {
                                Ok(Frame::Response(report)) => {
                                    (report.request_id, Reply::from_report(report))
                                }
                                Ok(Frame::Error(err)) => (err.request_id, Reply::Failed),
                                _ => break,
                            };
                        got.push((id, Instant::now(), reply));
                        quick_ack(&reader);
                    }
                    got
                })
            })
            .collect();

        for (i, item) in items.iter().enumerate() {
            // Encode before the due instant so pacing covers only the write.
            let frame = proto::encode_frame(&Frame::Request(Box::new(WireRequest {
                request_id: i as u64 + 1,
                priority: 0,
                deadline_ms: plan.deadline_ms,
                on_deadline: OnDeadline::Fail,
                request: corpus.request(plan, *item),
            })));
            if let Some(wait) = due[i].checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let at = Instant::now();
            if (&streams[item.tenant]).write_all(&frame).is_ok() {
                sent[i] = Some(at);
            }
            if let Some(probe) = probe.as_mut() {
                probe();
            }
        }
        for receiver in receivers {
            for (id, at, reply) in receiver.join().expect("receiver joins") {
                if let Some(slot) = (id as usize).checked_sub(1).and_then(|i| done.get_mut(i)) {
                    *slot = Some((at, reply));
                }
            }
        }
    });
    OpenRun {
        items,
        due,
        sent,
        done,
    }
}

/// One closed-loop observation.
pub struct Closed {
    pub item: Item,
    pub reply: Reply,
    /// When the reply arrived, from the start of the loop.
    pub at: Duration,
}

/// `conns` connections, each sending its next request only after the
/// previous one answered, for `duration`. Returns every observation and
/// the wall time the loop ran.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    corpus: &Corpus,
    seed: u64,
    conns: usize,
    duration: Duration,
) -> (Vec<Closed>, Duration) {
    let start = Instant::now();
    let end = start + duration;
    let per_conn: Vec<Vec<Closed>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let tenant = c % plan.open_conns;
                    let mut client = EdgeClient::connect(addr, TENANTS[tenant].0, "")
                        .expect("closed-loop connection authenticates");
                    let mut mix = Mix::new(plan, corpus, seed ^ (0x100 + c as u64));
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let item = Item {
                            tenant,
                            ..mix.next_item()
                        };
                        let result = client.request(corpus.request(plan, item), options(plan));
                        out.push(Closed {
                            item,
                            reply: Reply::from_result(result),
                            at: start.elapsed(),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection joins"))
            .collect()
    });
    let elapsed = start.elapsed();
    (per_conn.into_iter().flatten().collect(), elapsed)
}

/// Asks the kernel to acknowledge received data at once instead of
/// delaying the ACK (Linux `TCP_QUICKACK`, which lapses and is re-armed
/// after every read).
#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: a valid open socket and a pointer to a live `i32` of the
    // stated length; failure only leaves delayed ACKs on.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_stream: &TcpStream) {}
