//! Workload inputs: the D1 dataset of `l2r-eval` with the trajectory
//! workload re-seeded from the benchmark's `--data-seed`, and the test queries
//! drawn from their held-out trajectories.

use std::time::Instant;

use l2r_core::{Engine, L2r, QueryScratch, RouteResult};
use l2r_datagen::{generate_network, generate_workload, SyntheticNetwork};
use l2r_eval::{build_test_queries, DatasetSpec, Scale};
use l2r_road_network::{path_similarity, VertexId};
use l2r_trajectory::MatchedTrajectory;

/// The D1 (Denmark-like) dataset specification at `scale`, with the
/// trajectory workload seed offset by `data_seed`: 0 is the dataset's own
/// seed.  The road network never changes; other offsets give other trip
/// sets.
pub fn spec(scale: Scale, data_seed: u64) -> DatasetSpec {
    let mut spec = DatasetSpec::d1(scale);
    spec.workload.seed = spec.workload.seed.wrapping_add(data_seed);
    spec
}

/// A generated, split dataset, not yet fitted.
pub struct Inputs {
    /// The specification it was generated from.
    pub spec: DatasetSpec,
    /// The road network with its district metadata.
    pub synthetic: SyntheticNetwork,
    /// Training trajectories (earlier period).
    pub train: Vec<MatchedTrajectory>,
    /// Held-out trajectories (later period): the query source.
    pub test: Vec<MatchedTrajectory>,
}

/// Generates the network and workload of `spec` and splits it in time.
pub fn generate(spec: &DatasetSpec) -> Inputs {
    let synthetic = generate_network(&spec.network);
    let workload = generate_workload(&synthetic, &spec.workload);
    let (train, test) = workload.temporal_split(spec.train_fraction);
    Inputs {
        spec: spec.clone(),
        synthetic,
        train,
        test,
    }
}

/// Builds `slot` again, freeing its old value first so that every
/// repetition allocates alike, and returns the build's wall time in seconds.
pub fn rebuild<T>(slot: &mut Option<T>, build: impl FnOnce() -> T) -> f64 {
    drop(slot.take());
    let t0 = Instant::now();
    *slot = Some(build());
    t0.elapsed().as_secs_f64()
}

impl Inputs {
    /// Fits L2R on the training trajectories.
    pub fn fit(&self) -> L2r {
        L2r::fit(&self.synthetic.net, &self.train, self.spec.l2r.clone())
            .expect("fitting a generated workload never fails")
    }
}

/// The routing queries of a workload: every held-out trajectory's
/// `(source, destination)` pair in departure order, with its ground-truth
/// path for accuracy.
pub struct Queries {
    /// Query endpoints, in departure order.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// The recorded trajectory's path for each query.
    pub truth: Vec<l2r_road_network::Path>,
}

impl Queries {
    /// Builds the queries of `inputs` against `model` (which sets each
    /// query's region coverage).
    pub fn new(inputs: &Inputs, model: &L2r) -> Queries {
        let qs = build_test_queries(&inputs.synthetic.net, model, &inputs.test, usize::MAX);
        Queries {
            pairs: qs.iter().map(|q| (q.source, q.destination)).collect(),
            truth: qs.into_iter().map(|q| q.ground_truth).collect(),
        }
    }

    /// Wire-format endpoints.
    pub fn wire_pairs(&self) -> Vec<(u32, u32)> {
        self.pairs.iter().map(|(s, d)| (s.0, d.0)).collect()
    }

    /// The engine's answer to every query, in order.
    pub fn answers(&self, engine: &Engine) -> Vec<Option<RouteResult>> {
        let mut scratch = QueryScratch::new();
        self.pairs
            .iter()
            .map(|&(s, d)| engine.route(&mut scratch, s, d))
            .collect()
    }

    /// Mean Equation-1 similarity (in %) of `answers` to the ground truth;
    /// a query without a route scores 0.
    pub fn accuracy_pct(&self, engine: &Engine, answers: &[Option<RouteResult>]) -> f64 {
        if self.truth.is_empty() {
            return 0.0;
        }
        let net = engine.network();
        let total: f64 = self
            .truth
            .iter()
            .zip(answers)
            .map(|(truth, answer)| {
                answer
                    .as_ref()
                    .map_or(0.0, |r| path_similarity(net, truth, &r.path))
            })
            .sum();
        100.0 * total / self.truth.len() as f64
    }
}
