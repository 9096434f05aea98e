//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <d1-full|d1-xl> [--seed N] [--data-seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the run fingerprint, notes and failures, then as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.  Exits 1 when
//! any output was wrong, 2 on a usage error.

use std::process::ExitCode;

use perfbench::host;
use perfbench::measure::{json_escape, json_number};
use perfbench::workloads::{self, Run};

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--data-seed N] [--seconds S] [--trace 0|1]",
        workloads::names().join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut run = Run {
        seed: 0,
        data_seed: 0,
        seconds: 10.0,
        trace: false,
        scale: None,
    };
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        let parsed = match args[i].as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| run.seed = v).is_ok(),
            "--data-seed" => value.parse().map(|v| run.data_seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .map(|s| run.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    run.trace = value == "1";
                    true
                }
                _ => false,
            },
            other => return usage(&format!("unknown argument {other}")),
        };
        if !parsed {
            return usage(&format!("bad value {value} for {}", args[i]));
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let Some(out) = workloads::run(&workload, &run) else {
        return usage(&format!("unknown workload {workload}"));
    };

    let threads = std::env::var(l2r_par::THREADS_ENV).unwrap_or_else(|_| "unset".to_string());
    let mut facts: Vec<(String, String)> = vec![
        ("nproc".into(), host::nproc().to_string()),
        ("cpu_model".into(), host::cpu_model()),
        ("git_rev".into(), host::git_rev()),
        ("l2r_threads_env".into(), threads),
        ("fit_threads".into(), l2r_par::max_threads().to_string()),
        ("trace".into(), run.trace.to_string()),
        ("seconds".into(), json_number(run.seconds)),
    ];
    facts.extend(out.notes.iter().cloned());
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
        .collect();
    println!("{{\"run\": {{{}}}}}", facts.join(", "));
    for m in &out.metrics {
        println!("{:<44} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
