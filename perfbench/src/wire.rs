//! The wire set-up of every workload: an `l2r-serve`
//! server on loopback with one event loop, driven by one client thread over
//! one binary-protocol connection, every reply checked against the
//! in-process engine's answer.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use l2r_core::{route_digest, ModelRegistry, RouteResult, RouteStrategy};
use l2r_road_network::{Path, VertexId};
use l2r_serve::frame::RouteReply;
use l2r_serve::{BinClient, Server, ServerConfig, ServerHandle};

use crate::measure::{median, quantile, Outcome, Tracer};

/// Event loops of the benchmark's server.  The host has two cores, one for
/// the client and one for the server; `DEFAULT_WORKERS` (4) would
/// oversubscribe them.
pub const SERVER_WORKERS: usize = 1;

/// Requests in flight on the pipelined connection.
pub const PIPELINE_WINDOW: usize = 32;

/// Replies per pipelined chunk; each chunk yields one throughput sample.
const PIPELINE_CHUNK: usize = 4096;

/// Starts a server over `registry` on an ephemeral loopback port.
pub fn start_server(registry: ModelRegistry) -> ServerHandle {
    let cfg = ServerConfig {
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    };
    Server::bind_with("127.0.0.1:0", cfg, registry)
        .expect("binding an ephemeral loopback port")
        .start()
}

/// Connects the benchmark's client.
pub fn connect(addr: SocketAddr) -> BinClient {
    BinClient::connect_with(addr, Some(Duration::from_secs(30))).expect("connecting to loopback")
}

/// What the server must answer: each query's endpoints and the
/// `route_digest` of the in-process engine's answer.
pub struct Expected {
    /// Query endpoints.
    pub pairs: Vec<(u32, u32)>,
    /// Digest of the engine's answer per query.
    pub digests: Vec<u64>,
}

impl Expected {
    /// Pairs `pairs` with the digests of `answers`.
    pub fn new(pairs: Vec<(u32, u32)>, answers: &[Option<RouteResult>]) -> Expected {
        Expected {
            pairs,
            digests: answers.iter().map(route_digest).collect(),
        }
    }
}

/// The `route_digest` of a wire reply, or `None` for a reply that is not
/// an answer (`BUSY`, error, deadline, unknown strategy, bad path).
pub fn reply_digest(reply: &RouteReply) -> Option<u64> {
    match reply {
        RouteReply::NoRoute => Some(route_digest(&None)),
        RouteReply::Route { strategy, vertices } => {
            let strategy = *RouteStrategy::ALL.get(*strategy as usize)?;
            let path = Path::new(vertices.iter().map(|&v| VertexId(v)).collect()).ok()?;
            Some(route_digest(&Some(RouteResult { path, strategy })))
        }
        RouteReply::Busy | RouteReply::DeadlineExceeded | RouteReply::Err(_) => None,
    }
}

fn check_reply(out: &mut Outcome, expected: &Expected, i: usize, reply: &RouteReply) {
    let ok = reply_digest(reply) == Some(expected.digests[i]);
    out.check(ok, || {
        let (s, d) = expected.pairs[i];
        format!("wire reply for {s}->{d} differs from the engine's answer: {reply:?}")
    });
}

/// Closed-loop round-trip times (µs) of one connection, one request in
/// flight.  Cycles through the queries starting at `*cursor` for
/// `budget_s` seconds; every reply is checked.  With a tracer, each
/// `BinClient::route` call is recorded as a `wire.request` span.
pub fn closed_loop(
    client: &mut BinClient,
    dataset: &str,
    expected: &Expected,
    cursor: &mut usize,
    budget_s: f64,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Vec<f64> {
    let n = expected.pairs.len();
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget_s {
        let i = *cursor % n;
        *cursor += 1;
        let (s, d) = expected.pairs[i];
        let t0 = Instant::now();
        let reply = match tracer.as_deref_mut() {
            None => client.route(dataset, s, d),
            Some(t) => t.span("wire.request", |_| client.route(dataset, s, d)),
        };
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        match reply {
            Ok(reply) => check_reply(out, expected, i, &reply),
            Err(e) => out.check(false, || format!("wire request {s}->{d} failed: {e}")),
        }
    }
    times
}

/// Pipelined throughput samples (replies/s), one per chunk of
/// [`PIPELINE_CHUNK`] requests sent with [`PIPELINE_WINDOW`] in flight,
/// for `budget_s` seconds; every reply is checked.
pub fn pipelined(
    client: &mut BinClient,
    dataset: &str,
    expected: &Expected,
    cursor: &mut usize,
    budget_s: f64,
    out: &mut Outcome,
) -> Vec<f64> {
    let n = expected.pairs.len();
    let mut rates = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget_s || rates.is_empty() {
        let first = *cursor;
        let chunk: Vec<(u32, u32)> = (first..first + PIPELINE_CHUNK)
            .map(|i| expected.pairs[i % n])
            .collect();
        *cursor += PIPELINE_CHUNK;
        let t0 = Instant::now();
        let replies = client.route_pipelined(dataset, &chunk, PIPELINE_WINDOW);
        let elapsed = t0.elapsed().as_secs_f64();
        match replies {
            Ok(replies) => {
                rates.push(replies.len() as f64 / elapsed);
                for (k, reply) in replies.iter().enumerate() {
                    check_reply(out, expected, (first + k) % n, reply);
                }
            }
            Err(e) => {
                out.check(false, || format!("pipelined chunk failed: {e}"));
                break;
            }
        }
    }
    rates
}

/// Closed-loop round-trip percentiles, kept slice by slice.  Only each
/// slice's summary is kept, so the benchmark's own memory does not grow
/// with the number of requests a run completes.
#[derive(Debug, Default)]
pub struct Latencies {
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    samples: usize,
}

impl Latencies {
    /// Adds one slice of round-trip times (µs).
    pub fn push(&mut self, slice: &[f64]) {
        if !slice.is_empty() {
            self.p50s.push(median(slice));
            self.p99s.push(quantile(slice, 0.99));
            self.samples += slice.len();
        }
    }

    /// Timed requests.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Median over slices of each slice's median.
    pub fn p50(&self) -> f64 {
        median(&self.p50s)
    }

    /// Median over slices of each slice's 99th percentile.  A slice holds
    /// tens of thousands of requests, so each p99 has hundreds of samples
    /// beyond it; taking the median over slices keeps a burst of host
    /// interference that hits one slice from setting the run's tail.
    pub fn p99(&self) -> f64 {
        median(&self.p99s)
    }
}

/// Shuts the server down, counting a failed shutdown as a failed operation.
pub fn stop(server: ServerHandle, out: &mut Outcome) {
    let result = server.shutdown();
    out.check(result.is_ok(), || {
        format!("server shutdown failed: {result:?}")
    });
}
