//! Every workload's code path, untraced and traced, at `Scale::Quick`, so
//! the benchmark cannot rot; and the exact counts of traced runs repeat
//! exactly for a seed.

use std::sync::Mutex;

use l2r_eval::Scale;
use perfbench::measure::Outcome;
use perfbench::workloads::{names as names_of_workloads, run, Run};

/// `searches_performed()` is process-wide: runs must not overlap, or one
/// run's search deltas would count another's searches.
static SERIAL: Mutex<()> = Mutex::new(());

fn quick(workload: &str, data_seed: u64, trace: bool) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let settings = Run {
        seed: 7,
        data_seed,
        seconds: 0.3,
        trace,
        scale: Some(Scale::Quick),
    };
    let out = run(workload, &settings).expect("a known workload");
    assert!(
        out.correct(),
        "{workload} (trace {trace}) failed {}/{}: {:?}",
        out.failed,
        out.attempted,
        out.failures
    );
    out
}

fn names(out: &Outcome) -> Vec<&str> {
    out.metrics.iter().map(|m| m.name.as_str()).collect()
}

/// The end-to-end metrics, in report order, that every untraced run
/// prints.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "fit_s",
    "time_to_serve_s",
    "wire_p50_us",
    "accuracy_pct",
    "peak_rss_mb",
];

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    assert_eq!(names_of_workloads(), ["d1-full", "d1-xl"]);
    for workload in names_of_workloads() {
        let out = quick(workload, 3, false);
        assert_eq!(names(&out), END_TO_END, "{workload}");
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {m:?}");
        }
    }
}

#[test]
fn traced_runs_report_the_same_layers_and_repeat_their_counts_exactly() {
    let mut layers: Option<Vec<String>> = None;
    for workload in names_of_workloads() {
        let first = quick(workload, 5, true);
        let second = quick(workload, 5, true);
        let listed: Vec<String> = names(&first).iter().map(|n| n.to_string()).collect();
        assert_eq!(&listed, layers.get_or_insert_with(|| listed.clone()), "{workload}");
        assert_eq!(names(&first), names(&second), "{workload}");
        assert!(first.value("trace.overhead_pct").is_some(), "{workload}");
        assert!(first.value("host.rq_wait_ms").is_some(), "{workload}");
        // Server batching follows request timing; every other count is a
        // property of the inputs alone.
        let exact = |out: &Outcome| -> Vec<(String, f64)> {
            out.metrics
                .iter()
                .filter(|m| m.unit == "count" && !m.name.starts_with("serve."))
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        assert!(!exact(&first).is_empty(), "{workload}");
        assert_eq!(exact(&first), exact(&second), "{workload}");
    }
}

#[test]
fn the_data_seed_changes_the_inputs() {
    let a = quick("d1-xl", 1, true);
    let b = quick("d1-xl", 2, true);
    let count = |out: &Outcome, name: &str| out.value(name).expect(name);
    assert_ne!(
        (
            count(&a, "core.snapshot.bytes"),
            count(&a, "preference.learn_searches")
        ),
        (
            count(&b, "core.snapshot.bytes"),
            count(&b, "preference.learn_searches")
        )
    );
}
