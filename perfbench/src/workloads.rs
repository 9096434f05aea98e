//! The benchmark's workloads.  Each runs the D1 dataset at one scale through
//! the whole pipeline — set-up, fit, snapshot to a serving engine, requests
//! on the wire — and reports the same end-to-end metrics, so a change to a
//! layer shows on every workload that uses it, by as much as that workload
//! uses it.  Every timing is a median over repetitions inside the run, with
//! warm-up fits and requests left out.

use std::time::Instant;

use l2r_core::{
    decode_snapshot, encode_model_structural, encode_snapshot, route_digest, Engine, ModelRegistry,
    QueryScratch, RouteResult, RouteStrategy,
};
use l2r_eval::Scale;
use l2r_road_network::searches_performed;

use crate::data::{generate, rebuild, spec, Inputs, Queries};
use crate::host::{peak_rss_mb, HostCounters};
use crate::layers::{frame_costs, mirrored_fit, route_profile, FitCounts, FitTimes};
use crate::measure::{fastest, median, quantile, Outcome, Tracer};
use crate::wire::{
    closed_loop, connect, pipelined, start_server, stop, Expected, Latencies, PIPELINE_WINDOW,
    SERVER_WORKERS,
};

/// One workload: the D1 dataset at a scale.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Scale, unless the run overrides it.
    pub scale: Scale,
    /// Set-ups timed at even intervals of the measured loop; `setup_s` is
    /// the median of these and the first.
    pub setups: usize,
    /// Hot swaps timed at even intervals of the measured loop;
    /// `time_to_serve_s` is the fastest of these and the cold start.
    pub swaps: usize,
}

/// The workloads.  At full scale a set-up takes a fraction of a second and
/// a swap a few tens of milliseconds, and about one set-up and three swaps
/// fall between every pair of refits; at XL a set-up takes seconds and a
/// swap about ten, so a run holds three of them.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "d1-full",
        scale: Scale::Full,
        setups: 16,
        swaps: 48,
    },
    Workload {
        name: "d1-xl",
        scale: Scale::Xl,
        setups: 1,
        swaps: 2,
    },
];

/// The workloads' names.
pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// Length of one timed closed-loop slice (seconds); shorter when the whole
/// budget is under ten slices.
const SLICE_S: f64 = 1.0;

/// Unmeasured closed-loop requests before any wire timing (seconds).
const WIRE_WARMUP_S: f64 = 0.5;

/// Unmeasured closed-loop requests after each refit, set-up or install
/// (seconds): that work evicts the engine from the caches, and the first
/// requests after it would set the next slice's tail.
const SLICE_WARMUP_S: f64 = 0.25;

/// Minimum untraced and mirrored fits of a run.
const MIN_FITS: usize = 3;

/// The dataset name models are served under.
const DATASET: &str = "D1";

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Run seed: where in the departure-ordered query cycle the wire loops
    /// start.  Fit work does not depend on it.
    pub seed: u64,
    /// Offset of the trajectory generators' seeds (0 = the datasets' own
    /// seeds).  Other values give other trip sets over the same road
    /// networks, and costs that differ by up to a third, so steadiness is
    /// judged at 0.
    pub data_seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scale override; `None` runs each workload at its own scale.  Tests
    /// use `Scale::Quick`.
    pub scale: Option<Scale>,
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, run: &Run) -> Option<Outcome> {
    let workload = WORKLOADS.iter().find(|w| w.name == name)?;
    let host = HostCounters::read();
    let mut out = Outcome::default();
    let inputs = spec(run.scale.unwrap_or(workload.scale), run.data_seed);
    let build = || generate(&inputs);
    if run.trace {
        traced(workload.name, run, &build(), &mut out);
    } else {
        untraced(workload, run, &build, &mut out);
    }
    let (steal_ms, wait_ms) = HostCounters::read().since(&host);
    if run.trace {
        out.metric("host.steal_ms", steal_ms, "ms");
        out.metric("host.rq_wait_ms", wait_ms, "ms");
    } else {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.note("host_steal_ms", steal_ms);
        out.note("host_rq_wait_ms", wait_ms);
    }
    out.note("workload", name);
    out.note("seed", run.seed);
    out.note("data_seed", run.data_seed);
    out.note("server_workers", SERVER_WORKERS);
    out.note("client_threads", 1);
    out.note("pipeline_window", PIPELINE_WINDOW);
    Some(out)
}

/// Fits `inputs` once more and checks the model is structurally identical
/// to `reference`; returns the fit's wall time in seconds.
fn timed_fit(inputs: &Inputs, reference: &[u8], out: &mut Outcome) -> f64 {
    let t0 = Instant::now();
    let model = inputs.fit();
    let seconds = t0.elapsed().as_secs_f64();
    out.check(encode_model_structural(&model) == reference, || {
        format!("{} refit differs from the first fit", inputs.spec.name)
    });
    seconds
}

/// Decodes `bytes` and installs them through `install_validated`,
/// recording the wall time; a rejected snapshot is a failed operation.
fn timed_install(
    registry: &ModelRegistry,
    bytes: &[u8],
    tts: &mut Vec<f64>,
    out: &mut Outcome,
) -> bool {
    let t0 = Instant::now();
    let installed = decode_snapshot(bytes)
        .map_err(|e| e.to_string())
        .and_then(|snapshot| {
            registry
                .install_validated(DATASET, snapshot)
                .map_err(|e| e.to_string())
        });
    tts.push(t0.elapsed().as_secs_f64());
    out.check(installed.is_ok(), || {
        format!(
            "install_validated rejected the snapshot: {:?}",
            installed.err()
        )
    });
    out.failed == 0
}

/// The engine's answer to every query, each checked against the free
/// router's.
fn checked_answers(
    queries: &Queries,
    engine: &Engine,
    out: &mut Outcome,
) -> Vec<Option<RouteResult>> {
    let answers = queries.answers(engine);
    for (&(s, d), answer) in queries.pairs.iter().zip(&answers) {
        let free = engine.model().route(s, d);
        out.check(route_digest(answer) == route_digest(&free), || {
            format!(
                "engine answer for {}->{} differs from the free router",
                s.0, d.0
            )
        });
    }
    answers
}

/// The untraced run: set-up, a warm-up fit, snapshot and cold start, then
/// refits and wire slices alternate for the budget, with the workload's
/// set-ups and hot swaps at even intervals of that loop (their own time
/// left out of it).  Everything alternates so that every metric sees the
/// same host.
fn untraced(w: &Workload, run: &Run, build: &dyn Fn() -> Inputs, out: &mut Outcome) {
    let mut data = None;
    let mut setups = vec![rebuild(&mut data, build)];
    let inputs = data.as_ref().expect("built above");
    // The warm-up fit: every timed refit must reproduce it, which also
    // checks that every repeated set-up reproduced the dataset.
    let model = inputs.fit();
    out.attempted += 1;
    let reference = encode_model_structural(&model);
    let queries = Queries::new(inputs, &model);
    let bytes = encode_snapshot(&model, DATASET);
    drop(model);

    // Time to serve: snapshot bytes to a validated, installed engine — a
    // cold start now, hot swaps in the measured loop below.
    let registry = ModelRegistry::new();
    let mut tts = Vec::new();
    if !timed_install(&registry, &bytes, &mut tts, out) {
        return;
    }
    let engine = registry
        .get(DATASET)
        .expect("the engine was just installed");
    let answers = checked_answers(&queries, &engine, out);
    let accuracy = queries.accuracy_pct(&engine, &answers);
    let expected = Expected::new(queries.wire_pairs(), &answers);
    drop(engine);

    let server = start_server(registry);
    let state = server.state();
    let mut client = connect(server.addr());
    let mut cursor = start_offset(run.seed, expected.pairs.len());
    let slice_s = SLICE_S.min(run.seconds / 10.0);
    let warmup_s = SLICE_WARMUP_S.min(slice_s / 4.0);
    closed_loop(
        &mut client,
        DATASET,
        &expected,
        &mut cursor,
        WIRE_WARMUP_S.min(slice_s),
        out,
        None,
    );
    let (mut fits, mut times) = (Vec::new(), Latencies::default());
    let mut measured = 0.0;
    let (mut setups_done, mut swaps_done) = (0, 0);
    let due = |k: usize, n: usize| (k + 1) as f64 * run.seconds / (n + 1) as f64;
    while measured < run.seconds
        || fits.len() < MIN_FITS
        || setups_done < w.setups
        || swaps_done < w.swaps
    {
        while setups_done < w.setups && measured >= due(setups_done, w.setups) {
            setups.push(rebuild(&mut data, build));
            setups_done += 1;
        }
        while swaps_done < w.swaps && measured >= due(swaps_done, w.swaps) {
            if !timed_install(state.registry(), &bytes, &mut tts, out) {
                break;
            }
            swaps_done += 1;
        }
        if out.failed > 0 {
            break;
        }
        let t0 = Instant::now();
        let inputs = data.as_ref().expect("built above");
        fits.push(timed_fit(inputs, &reference, out));
        closed_loop(
            &mut client,
            DATASET,
            &expected,
            &mut cursor,
            warmup_s,
            out,
            None,
        );
        let slice = closed_loop(
            &mut client,
            DATASET,
            &expected,
            &mut cursor,
            slice_s,
            out,
            None,
        );
        times.push(&slice);
        measured += t0.elapsed().as_secs_f64();
    }
    drop(client);
    stop(server, out);

    // A fit and a swap are the same work every time, and the host's
    // interference (CPU steal, a neighbour's load) only ever adds to them:
    // the fastest repetition is the run's estimate of their own cost.  A
    // fit or swap of ~20 ms on two vCPUs varies by half within a run, and
    // the median of that followed the host across runs of the same code.
    out.metric("setup_s", median(&setups), "s");
    out.metric("fit_s", fastest(&fits), "s");
    out.metric("time_to_serve_s", fastest(&tts), "s");
    out.metric("wire_p50_us", times.p50(), "us");
    out.metric("accuracy_pct", accuracy, "%");
    // Where the engine's live searches set it (d1-xl), the closed-loop tail
    // follows the host's CPU steal: it is a fact of the run here, and the
    // traced run reports it as serve.wire_p99_us.
    out.note("wire_p99_us", times.p99());
    out.note("fit_median_s", median(&fits));
    out.note("time_to_serve_median_s", median(&tts));
    out.note("closed_loop_samples", times.samples());

    out.note("snapshot_bytes", bytes.len());
    out.note("queries", expected.pairs.len());
    out.note("fits", fits.len());
    out.note("setups", setups.len());
    out.note("installs", tts.len());
}

/// Exact counts of one time-to-serve replay; they must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ServeCounts {
    bytes: usize,
    compile_searches: u64,
    connectors: usize,
}

/// The traced run: mirrored fits next to untraced ones, time-to-serve
/// split into encode, decode, compile and canary replay, the engine alone
/// over the query sequence, then the wire with the frame codec and the
/// server's batching measured apart.
fn traced(name: &str, run: &Run, inputs: &Inputs, out: &mut Outcome) {
    let budget = run.seconds;
    let model = inputs.fit();
    out.attempted += 1;
    let reference = encode_model_structural(&model);

    // Fit, layer by layer.
    let mut tracer = Tracer::new();
    let mut untraced_fits = Vec::new();
    let mut counts: Option<FitCounts> = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.3 * budget || untraced_fits.len() < MIN_FITS {
        untraced_fits.push(timed_fit(inputs, &reference, out) * 1e3);
        let c = mirrored_fit(&mut tracer, inputs, &model, out);
        let first = *counts.get_or_insert(c);
        out.check(c == first, || {
            "mirrored-fit counts changed between repetitions".to_string()
        });
    }
    let counts = counts.expect("at least one repetition ran");
    let fit = FitTimes::from_tracer(&tracer);
    let untraced_fit_ms = median(&untraced_fits);
    let queries = Queries::new(inputs, &model);

    // Time to serve, step by step, as `install_validated` takes it.
    let registry = ModelRegistry::new();
    let mut serve: Option<ServeCounts> = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.1 * budget || serve.is_none() {
        let bytes = tracer.span("core.snapshot.encode", |_| encode_snapshot(&model, DATASET));
        let c = tracer.span("time_to_serve", |t| {
            let snapshot = t
                .span("core.snapshot.decode", |_| decode_snapshot(&bytes))
                .expect("the snapshot just encoded decodes");
            let before = searches_performed();
            let engine = t.span("core.engine.compile", |_| Engine::new(snapshot.model));
            let compile_searches = searches_performed() - before;
            t.span("core.engine.canary", |_| {
                let mut scratch = QueryScratch::new();
                for c in &snapshot.canaries {
                    let actual = route_digest(&engine.route(&mut scratch, c.src, c.dst));
                    out.check(actual == c.digest, || {
                        format!("canary {}->{} mismatched", c.src.0, c.dst.0)
                    });
                }
            });
            let connectors = engine.num_connectors();
            registry.insert(DATASET, engine);
            ServeCounts {
                bytes: bytes.len(),
                compile_searches,
                connectors,
            }
        });
        let first = *serve.get_or_insert(c);
        out.check(c == first, || {
            "time-to-serve counts changed between repetitions".to_string()
        });
    }
    let serve = serve.expect("at least one repetition ran");
    drop(model);

    // The engine alone, over the query sequence the wire replays.
    let engine = registry
        .get(DATASET)
        .expect("the engine was just installed");
    let answers = queries.answers(&engine);
    let expected = Expected::new(queries.wire_pairs(), &answers);
    let profile = route_profile(&engine, &queries.pairs, 0.15 * budget);
    drop(engine);

    // The wire: untraced and traced closed loops, the frame codec alone,
    // then the server's batching under the pipelined load.
    let server = start_server(registry);
    let state = server.state();
    let mut client = connect(server.addr());
    let mut cursor = start_offset(run.seed, expected.pairs.len());
    closed_loop(
        &mut client,
        DATASET,
        &expected,
        &mut cursor,
        WIRE_WARMUP_S.min(0.05 * budget),
        out,
        None,
    );
    let untraced_wire = closed_loop(
        &mut client,
        DATASET,
        &expected,
        &mut cursor,
        0.2 * budget,
        out,
        None,
    );
    // One span per request: a short traced loop keeps the written trace
    // to a few megabytes.
    let mut wire_tracer = Tracer::new();
    let traced_wire = closed_loop(
        &mut client,
        DATASET,
        &expected,
        &mut cursor,
        0.05 * budget,
        out,
        Some(&mut wire_tracer),
    );
    let (s, d, reply) = sample_route_reply(&mut client, &expected);
    let costs = frame_costs(DATASET, s, d, &reply, 0.1 * budget);
    // Throughput under pipelining: batch formation follows the timing of
    // both threads, so on a shared two-vCPU host it moves by a third
    // between runs of the same code and is a layer metric, not a bounded
    // end-to-end one.
    let before = stats_map(&state.stats_fields());
    let rates = pipelined(
        &mut client,
        DATASET,
        &expected,
        &mut cursor,
        0.15 * budget,
        out,
    );
    let after = stats_map(&state.stats_fields());
    drop(client);
    stop(server, out);
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);

    out.metric("region_graph.cluster_ms", fit.cluster_ms, "ms");
    out.metric("region_graph.build_ms", fit.build_ms, "ms");
    out.metric("region_graph.regions", counts.regions as f64, "count");
    out.metric("region_graph.t_edges", counts.t_edges as f64, "count");
    out.metric("region_graph.b_edges", counts.b_edges as f64, "count");
    out.metric("preference.learn_ms", fit.learn_ms, "ms");
    out.metric(
        "preference.learn_searches",
        counts.learn_searches as f64,
        "count",
    );
    out.metric("preference.transfer_ms", fit.transfer_ms, "ms");
    out.metric("preference.descriptors_ms", fit.descriptors_ms, "ms");
    out.metric("preference.similarity_ms", fit.similarity_ms, "ms");
    out.metric(
        "preference.similarity_edges",
        counts.similarity_edges as f64,
        "count",
    );
    out.metric(
        "preference.solver_iterations",
        counts.solver_iterations as f64,
        "count",
    );
    out.metric("preference.graph_size", counts.graph_size as f64, "count");
    out.metric("core.apply_ms", fit.apply_ms, "ms");
    out.metric("core.apply_searches", counts.apply_searches as f64, "count");
    out.metric(
        "core.snapshot.encode_ms",
        tracer.median_ms("core.snapshot.encode"),
        "ms",
    );
    out.metric(
        "core.snapshot.decode_ms",
        tracer.median_ms("core.snapshot.decode"),
        "ms",
    );
    out.metric("core.snapshot.bytes", serve.bytes as f64, "count");
    out.metric(
        "core.engine.compile_ms",
        tracer.median_ms("core.engine.compile"),
        "ms",
    );
    out.metric(
        "core.engine.compile_searches",
        serve.compile_searches as f64,
        "count",
    );
    out.metric("core.engine.connectors", serve.connectors as f64, "count");
    out.metric(
        "core.engine.canary_ms",
        tracer.median_ms("core.engine.canary"),
        "ms",
    );
    out.metric("core.engine.route_p50_us", profile.p50_us, "us");
    out.metric("core.engine.route_p99_us", profile.p99_us, "us");
    out.metric(
        "core.engine.route_searches",
        profile.searches as f64,
        "count",
    );
    for (strategy, count) in RouteStrategy::ALL.iter().zip(profile.strategies) {
        out.metric(
            &format!("core.engine.strategy.{}", strategy.label()),
            count as f64,
            "count",
        );
    }
    out.metric(
        "core.engine.strategy.NoRoute",
        profile.strategies[5] as f64,
        "count",
    );
    let (wire_p50, traced_p50) = (median(&untraced_wire), median(&traced_wire));
    out.metric("serve.overhead_p50_us", wire_p50 - profile.p50_us, "us");
    out.metric("serve.wire_p99_us", quantile(&untraced_wire, 0.99), "us");
    out.metric("serve.encode_ns", costs.encode_ns, "ns");
    out.metric("serve.parse_ns", costs.parse_ns, "ns");
    out.metric("serve.decode_ns", costs.decode_ns, "ns");
    out.metric("serve.batches", delta("batches") as f64, "count");
    out.metric(
        "serve.mean_batch",
        delta("answered") as f64 / delta("batches").max(1) as f64,
        "count",
    );
    out.metric("serve.busy", delta("shed") as f64, "count");
    out.metric("serve.pipelined_qps", median(&rates), "1/s");
    out.metric(
        "attr.transfer_of_fit_pct",
        100.0 * fit.transfer_ms / untraced_fit_ms,
        "%",
    );
    out.metric(
        "attr.learn_of_fit_pct",
        100.0 * fit.learn_ms / untraced_fit_ms,
        "%",
    );
    out.metric(
        "attr.compile_of_time_to_serve_pct",
        100.0 * tracer.median_ms("core.engine.compile") / tracer.median_ms("time_to_serve"),
        "%",
    );
    out.metric(
        "attr.engine_of_wire_p50_pct",
        100.0 * profile.p50_us / wire_p50,
        "%",
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (fit.fit_ms - untraced_fit_ms) / untraced_fit_ms,
        "%",
    );
    out.metric(
        "trace.wire_overhead_pct",
        100.0 * (traced_p50 - wire_p50) / wire_p50,
        "%",
    );
    out.note("untraced_fit_ms", untraced_fit_ms);
    out.note("untraced_wire_p50_us", wire_p50);
    out.note("route_profile_samples", profile.samples);
    write_traces(
        run,
        name,
        &[("fit-serve", &tracer), ("wire", &wire_tracer)],
        out,
    );
}

/// The first query the server answers with a route, and the raw reply
/// payload, for the frame-codec micro-benchmarks.
fn sample_route_reply(
    client: &mut l2r_serve::BinClient,
    expected: &Expected,
) -> (u32, u32, Vec<u8>) {
    let mut buf = Vec::new();
    for &(s, d) in &expected.pairs {
        buf.clear();
        l2r_serve::frame::encode_route(&mut buf, DATASET, s, d);
        let (status, payload) = client
            .send_raw(&buf)
            .and_then(|()| client.read_frame())
            .expect("the server answers a route it answered before");
        if status == l2r_serve::frame::Status::Ok {
            return (s, d, payload);
        }
    }
    panic!("no query of the workload has a route");
}

fn stats_map(fields: &[(String, u64)]) -> std::collections::BTreeMap<String, u64> {
    fields.iter().cloned().collect()
}

/// The query index a run with `seed` starts its wire loops at.
fn start_offset(seed: u64, queries: usize) -> usize {
    // splitmix64 finaliser: neighbouring seeds start far apart.
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x ^ (x >> 31)) % queries.max(1) as u64) as usize
}

/// Writes each tracer's spans to `<target dir>/perfbench-traces/`.
fn write_traces(run: &Run, workload: &str, tracers: &[(&str, &Tracer)], out: &mut Outcome) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("perfbench-traces");
    for (label, tracer) in tracers {
        let path = dir.join(format!(
            "{workload}-{label}-seed{}-data{}.json",
            run.seed, run.data_seed
        ));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => out.note(&format!("trace_{label}"), path.display()),
            Err(e) => out.note(&format!("trace_{label}_error"), e),
        }
    }
}
