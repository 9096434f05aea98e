//! Per-layer attribution for traced runs.  Every number here is taken from
//! outside the program: spans around calls into each crate's public
//! functions, and exact counts from `searches_performed()` deltas and the
//! structs those functions return.

use std::collections::HashMap;
use std::time::Instant;

use l2r_core::{apply_preferences_to_b_edges, Engine, L2r, QueryScratch, RouteStrategy};
use l2r_preference::{
    build_descriptors, build_similarity_rows, learn_edge_preference_in, transfer_preferences,
    LearnedPreference, Preference,
};
use l2r_region_graph::{
    bottom_up_clustering, RegionEdge, RegionEdgeId, RegionGraph, TrajectoryGraph,
};
use l2r_road_network::{searches_performed, SearchSpace, VertexId};
use l2r_serve::frame::{self, FrameParse, RouteReply, Status};

use crate::data::Inputs;
use crate::measure::{median, quantile, Outcome, Tracer};

/// Exact counts of one mirrored fit; they must repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FitCounts {
    /// Regions found by clustering.
    pub regions: usize,
    /// T-edges of the region graph.
    pub t_edges: usize,
    /// B-edges of the region graph.
    pub b_edges: usize,
    /// Dijkstra searches of preference learning.
    pub learn_searches: u64,
    /// Undirected edges of the transfer similarity graph.
    pub similarity_edges: usize,
    /// Conjugate-gradient iterations over all feature columns.
    pub solver_iterations: usize,
    /// Vertices of the transfer similarity graph.
    pub graph_size: usize,
    /// Dijkstra searches of B-edge path assignment.
    pub apply_searches: u64,
}

/// Replays `L2r::fit` step by step through the public functions it is
/// made of, each step in its own span under a `fit` span, then checks the
/// replay against `model` (which `L2r::fit` produced from the same
/// inputs): transferred preferences, learned preferences and region-graph
/// sizes must all agree.  Descriptor and similarity-row construction, which
/// `transfer_preferences` does internally, are re-run after the `fit` span
/// as spans of their own (`preference.descriptors`,
/// `preference.similarity`) to split the transfer's cost.
pub fn mirrored_fit(
    tracer: &mut Tracer,
    inputs: &Inputs,
    model: &L2r,
    out: &mut Outcome,
) -> FitCounts {
    let net = &inputs.synthetic.net;
    let train = &inputs.train;
    let config = &inputs.spec.l2r;
    let mut counts = FitCounts::default();

    let (rg, transfer, learned, labeled_ids, apply) = tracer.span("fit", |tracer| {
        let clusters = tracer.span("region_graph.cluster", |_| {
            bottom_up_clustering(&TrajectoryGraph::build(net, train))
        });
        let mut rg = tracer.span("region_graph.build", |_| {
            RegionGraph::build(net, &clusters, train, config.function_top_k)
        });
        let before = searches_performed();
        let learned: HashMap<RegionEdgeId, LearnedPreference> =
            tracer.span("preference.learn", |_| {
                let t_edges: Vec<&RegionEdge> = rg.t_edges().collect();
                let per_edge = l2r_par::par_map_init(&t_edges, SearchSpace::new, |space, _, e| {
                    learn_edge_preference_in(space, net, &e.paths, &config.learn)
                });
                t_edges
                    .iter()
                    .zip(per_edge)
                    .filter_map(|(e, lp)| lp.map(|lp| (e.id, lp)))
                    .collect()
            });
        counts.learn_searches = searches_performed() - before;
        let labeled: HashMap<RegionEdgeId, Preference> = learned
            .iter()
            .map(|(id, lp)| (*id, lp.preference))
            .collect();
        let mut labeled_ids: Vec<RegionEdgeId> = labeled.keys().copied().collect();
        labeled_ids.sort();
        let targets: Vec<RegionEdgeId> = rg.b_edges().map(|e| e.id).collect();
        let transfer = tracer.span("preference.transfer", |_| {
            transfer_preferences(&rg, &labeled, &targets, &config.transfer)
        });
        let before = searches_performed();
        let apply = tracer.span("core.apply", |_| {
            apply_preferences_to_b_edges(
                net,
                &mut rg,
                &transfer.preferences,
                config.max_transfer_center_pairs,
            )
        });
        counts.apply_searches = searches_performed() - before;
        (rg, transfer, learned, labeled_ids, apply)
    });

    // The transfer graph's vertex order: sorted labelled edges, then sorted
    // targets.  Descriptors read only the regions, not the paths apply added.
    let mut targets: Vec<RegionEdgeId> = rg.b_edges().map(|e| e.id).collect();
    targets.sort();
    let edges: Vec<&RegionEdge> = labeled_ids
        .iter()
        .chain(&targets)
        .map(|id| rg.edge(*id))
        .collect();
    let descriptors = tracer.span("preference.descriptors", |_| build_descriptors(&rg, &edges));
    let rows = tracer.span("preference.similarity", |_| {
        build_similarity_rows(&descriptors, config.transfer.amr)
    });
    let row_edges: usize = rows.iter().map(Vec::len).sum();

    counts.regions = rg.num_regions();
    counts.t_edges = rg.t_edges().count();
    counts.b_edges = targets.len();
    counts.similarity_edges = transfer.similarity_edges;
    counts.solver_iterations = transfer.solver_iterations;
    counts.graph_size = transfer.graph_size;

    let stats = model.stats();
    out.check(
        transfer.preferences == *model.transferred_preferences(),
        || "mirrored transfer preferences differ from the fitted model's".to_string(),
    );
    let same_learned = learned.len() == model.learned_preferences().len()
        && learned.iter().all(|(id, lp)| {
            model
                .learned_preferences()
                .get(id)
                .is_some_and(|m| m.preference == lp.preference)
        });
    out.check(same_learned, || {
        "mirrored learned preferences differ from the fitted model's".to_string()
    });
    out.check(
        (counts.regions, counts.t_edges, counts.b_edges)
            == (stats.num_regions, stats.num_t_edges, stats.num_b_edges),
        || {
            format!(
                "mirrored regions/T-edges/B-edges {}/{}/{} differ from the model's {}/{}/{}",
                counts.regions,
                counts.t_edges,
                counts.b_edges,
                stats.num_regions,
                stats.num_t_edges,
                stats.num_b_edges
            )
        },
    );
    out.check(apply == stats.apply, || {
        format!(
            "mirrored apply stats {apply:?} differ from the model's {:?}",
            stats.apply
        )
    });
    out.check(
        descriptors.len() == transfer.graph_size && row_edges == transfer.similarity_edges,
        || {
            format!(
                "split-out transfer graph {} vertices/{} edges differs from transfer's {}/{}",
                descriptors.len(),
                row_edges,
                transfer.graph_size,
                transfer.similarity_edges
            )
        },
    );
    counts
}

/// Median layer times (ms) over the mirrored fits a tracer recorded.
#[derive(Debug, Clone, Copy)]
pub struct FitTimes {
    /// The whole replayed fit, clustering through apply (ms).
    pub fit_ms: f64,
    /// `TrajectoryGraph::build` + `bottom_up_clustering`.
    pub cluster_ms: f64,
    /// `RegionGraph::build`.
    pub build_ms: f64,
    /// Learning over all T-edges.
    pub learn_ms: f64,
    /// `transfer_preferences`.
    pub transfer_ms: f64,
    /// `build_descriptors`.
    pub descriptors_ms: f64,
    /// `build_similarity_rows`.
    pub similarity_ms: f64,
    /// `apply_preferences_to_b_edges`.
    pub apply_ms: f64,
}

impl FitTimes {
    /// Medians over every mirrored fit `tracer` holds.
    pub fn from_tracer(tracer: &Tracer) -> FitTimes {
        FitTimes {
            fit_ms: tracer.median_ms("fit"),
            cluster_ms: tracer.median_ms("region_graph.cluster"),
            build_ms: tracer.median_ms("region_graph.build"),
            learn_ms: tracer.median_ms("preference.learn"),
            transfer_ms: tracer.median_ms("preference.transfer"),
            descriptors_ms: tracer.median_ms("preference.descriptors"),
            similarity_ms: tracer.median_ms("preference.similarity"),
            apply_ms: tracer.median_ms("core.apply"),
        }
    }
}

/// In-process engine behaviour over a query sequence.
#[derive(Debug, Clone)]
pub struct RouteProfile {
    /// Median `Engine::route` time (µs).
    pub p50_us: f64,
    /// 99th-percentile `Engine::route` time (µs).
    pub p99_us: f64,
    /// Timed calls.
    pub samples: usize,
    /// Dijkstra searches over one pass of the sequence (exact).
    pub searches: u64,
    /// Answers per strategy over one pass, in `RouteStrategy::ALL` order,
    /// then `NoRoute`.
    pub strategies: [u64; 6],
}

/// Times `Engine::route` call by call over `pairs`, cycling until
/// `budget_s` has passed (at least one full pass, which also yields the
/// exact counts).
pub fn route_profile(
    engine: &Engine,
    pairs: &[(VertexId, VertexId)],
    budget_s: f64,
) -> RouteProfile {
    let mut scratch = QueryScratch::new();
    let mut strategies = [0u64; 6];
    let before = searches_performed();
    for &(s, d) in pairs {
        let slot = match engine.route(&mut scratch, s, d) {
            Some(r) => RouteStrategy::ALL
                .iter()
                .position(|x| *x == r.strategy)
                .expect("every strategy is in ALL"),
            None => 5,
        };
        strategies[slot] += 1;
    }
    let searches = searches_performed() - before;
    let mut times = Vec::new();
    let start = Instant::now();
    'timed: loop {
        for &(s, d) in pairs {
            let t0 = Instant::now();
            std::hint::black_box(engine.route(&mut scratch, s, d));
            times.push(t0.elapsed().as_secs_f64() * 1e6);
            if start.elapsed().as_secs_f64() >= budget_s && times.len() >= pairs.len() {
                break 'timed;
            }
        }
    }
    RouteProfile {
        p50_us: median(&times),
        p99_us: quantile(&times, 0.99),
        samples: times.len(),
        searches,
        strategies,
    }
}

/// Per-call costs (ns, medians over batches) of the frame codec steps a
/// wire request passes through outside the engine.
#[derive(Debug, Clone, Copy)]
pub struct FrameCosts {
    /// `frame::encode_route` of a request.
    pub encode_ns: f64,
    /// `frame::parse_frame` of the request bytes.
    pub parse_ns: f64,
    /// `frame::decode_route_reply` of a typical reply.
    pub decode_ns: f64,
}

/// Measures [`FrameCosts`] on the request for `(src, dst)` and the reply
/// payload the server sent for it, spending about `budget_s`.
pub fn frame_costs(dataset: &str, src: u32, dst: u32, reply: &[u8], budget_s: f64) -> FrameCosts {
    const BATCH: usize = 1000;
    let per_step = budget_s / 3.0;
    let bench = |f: &mut dyn FnMut()| -> f64 {
        let mut per_call = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < per_step || per_call.len() < 5 {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            per_call.push(t0.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
        }
        median(&per_call)
    };
    let mut buf = Vec::with_capacity(64);
    let encode_ns = bench(&mut || {
        buf.clear();
        frame::encode_route(&mut buf, std::hint::black_box(dataset), src, dst);
        std::hint::black_box(&buf);
    });
    let mut request = Vec::new();
    frame::encode_route(&mut request, dataset, src, dst);
    let parse_ns = bench(&mut || {
        let parsed = frame::parse_frame(std::hint::black_box(&request));
        assert!(
            matches!(parsed, FrameParse::Frame { .. }),
            "request frame parses"
        );
    });
    let decode_ns = bench(&mut || {
        let decoded = frame::decode_route_reply(Status::Ok, std::hint::black_box(reply));
        assert!(
            matches!(decoded, Ok(RouteReply::Route { .. })),
            "reply decodes"
        );
    });
    FrameCosts {
        encode_ns,
        parse_ns,
        decode_ns,
    }
}
