//! `sg-benchmark` — the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! sg-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//! sg-benchmark [--seed N] [--seconds S]                        all four workloads, untraced then traced
//! sg-benchmark --smoke [--seed N]                              10 timed rounds each, all checks, no gate
//! sg-benchmark --aa [--seed N] [--seconds S]                   the suite twice; fails past a bound
//! sg-benchmark --print-manifest                                BENCHMARK.json on stdout
//! ```
//!
//! One process per workload run, so `peak_rss_mb` never leaks across
//! workloads: the multi-workload modes re-invoke this executable.

mod api;
mod gen;
mod harness;
mod manifest;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use harness::{Outcome, Profile};
use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match arg_value(args, flag) {
        Some(v) => v.parse().unwrap_or_else(|_| usage(&format!("{flag} {v}: not a number"))),
        None => default,
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("sg-benchmark: {problem}");
    eprintln!(
        "usage: sg-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] | --smoke | --aa | --print-manifest"
    );
    std::process::exit(2);
}

/// `nproc`, CPU model and kernel: every number depends on them.
fn host_descriptor() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    (nproc, format!("nproc={nproc} cpu=\"{cpu}\" kernel={kernel} engine_threads={}", api::ENGINE_THREADS))
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map_or("count", |(_, u)| u)
}

/// `<target>/trace`, beside the executable's profile directory.
fn trace_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("own path");
    exe.parent().and_then(|p| p.parent()).expect("executable sits in <target>/<profile>/").join("trace")
}

/// One run of one workload: prints every metric as `workload/metric
/// value unit`, then the result JSON as the last line.
fn run_one(name: &str, seed: u64, profile: Profile, traced: bool) -> ExitCode {
    let (nproc, host) = host_descriptor();
    if nproc < api::ENGINE_THREADS {
        eprintln!("sg-benchmark: {nproc} core(s); the workloads keep {} threads busy", api::ENGINE_THREADS);
        return ExitCode::from(3);
    }
    let Some(workload) = workloads::by_name(name, seed) else { usage(&format!("unknown workload {name:?}")) };
    let Outcome {
        attempted,
        mut failures,
        skipped,
        metrics,
        timed_rounds,
        segment_updates_per_s,
        setup_reps_s,
        spans,
    } = harness::run(workload.as_ref(), profile, traced, || probes::run(seed));

    if traced {
        let path = trace_dir().join(format!("{name}.jsonl"));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            failures.push(format!("trace {}: {e}", path.display()));
        }
        println!("# trace: {} spans -> {}", spans.len(), path.display());
        let tree = trace::SpanTree::new(&spans);
        let own: Vec<f64> =
            spans.iter().filter(|s| s.name == trace::ROUND).map(|s| tree.self_ns(s) as f64 / 1e6).collect();
        println!(
            "# round self time (the benchmark's own, unattributed): median {:.4} ms",
            stats::median(&own)
        );
    }
    println!("# host: {host}");
    println!(
        "# {name}: seed={seed} trace={} measured_rounds={timed_rounds} setup_reps_s={setup_reps_s:.3?}",
        u8::from(traced)
    );
    if !traced {
        println!("# {name}: updates_per_s of the five segments, in order: {segment_updates_per_s:.1?}");
    }
    for check in &skipped {
        println!("# {name}: skipped: {check}");
    }
    for (metric, value) in &metrics {
        println!("{name}/{metric} {value} {}", unit_of(metric));
    }
    println!("{name}/ops_attempted {attempted} count");
    println!("{name}/ops_failed {} count", failures.len());
    for failure in &failures {
        eprintln!("FAIL {name}: {failure}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value)| {
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(metric))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        body.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `workload/metric → value` as one child run printed it.
type Values = std::collections::BTreeMap<String, f64>;

/// Re-invokes this executable for one workload run, echoes its output,
/// and returns what it measured; `None` if the run failed.
fn child(name: &str, pass: &[String], traced: bool) -> Option<Values> {
    let out = Command::new(std::env::current_exe().expect("own path"))
        .args(["--workload", name, "--trace", if traced { "1" } else { "0" }])
        .args(pass)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("re-invoke sg-benchmark");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut values = Values::new();
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
        let mut parts = line.split(' ');
        if let (Some(key), Some(Ok(value))) = (parts.next(), parts.next().map(str::parse::<f64>)) {
            if key.contains('/') {
                values.insert(key.to_string(), value);
            }
        }
    }
    out.status.success().then_some(values)
}

/// Every workload, untraced then traced. Returns the measured values,
/// or `None` if any run failed.
fn suite(pass: &[String], with_trace: bool) -> Option<Values> {
    let mut all = Values::new();
    let mut ok = true;
    for w in WORKLOADS {
        for traced in [false, true] {
            if traced && !with_trace {
                continue;
            }
            match child(w.name, pass, traced) {
                Some(values) => all.extend(values),
                None => ok = false,
            }
        }
    }
    ok.then_some(all)
}

/// The traced runs must explain themselves: the parts sum to the traced
/// round within 5 %, and tracing costs under 5 %.
fn closure(values: &Values) -> bool {
    let get = |workload: &str, metric: &str| {
        values.get(&format!("{workload}/{metric}")).copied().unwrap_or(f64::NAN)
    };
    let sum_of = |workload: &str, keep: &dyn Fn(&str) -> bool| -> f64 {
        PER_LAYER
            .iter()
            .filter(|m| m.from == Some(workload) && keep(m.name))
            .map(|m| get(workload, m.name))
            .sum()
    };
    let mut ok = true;
    for (workload, what, parts) in [
        (
            manifest::SIM_TABLE1,
            "sum of fl.step.*",
            sum_of(manifest::SIM_TABLE1, &|n| n.starts_with("fl.step.")),
        ),
        (
            manifest::SERVE_DENSE,
            "sum of *.ms_per_round",
            sum_of(manifest::SERVE_DENSE, &|n| n.ends_with(".ms_per_round")),
        ),
        (
            manifest::RULES_WIDE,
            "sum of *.wide.ms",
            sum_of(manifest::RULES_WIDE, &|n| n.ends_with(".wide.ms")),
        ),
        (
            manifest::TREE_TCP,
            "sum of *.ms_per_round",
            sum_of(manifest::TREE_TCP, &|n| n.ends_with(".ms_per_round")),
        ),
    ] {
        let ratio = parts / get(workload, "bench.traced_round_ms_p50");
        println!("# closure: {workload}: {what} over the traced round = {ratio:.3}");
        ok &= (ratio - 1.0).abs() <= 0.05;
        let overhead = get(workload, "bench.trace_overhead_pct");
        println!("# closure: {workload}: trace overhead {overhead:.2}%");
        ok &= overhead <= 5.0;
    }
    ok
}

/// The suite twice, back to back: both values, their relative
/// difference and the bound, per workload and end-to-end metric.
fn aa(pass: &[String]) -> ExitCode {
    let (Some(first), Some(second)) = (suite(pass, false), suite(pass, false)) else {
        eprintln!("sg-benchmark --aa: a run failed");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    println!("# A/A: workload/metric first second rel_diff bound");
    for w in WORKLOADS {
        for m in END_TO_END {
            let key = format!("{}/{}", w.name, m.name);
            let (a, b) = (first[&key], second[&key]);
            let diff = stats::rel_diff(a, b);
            let verdict = if diff <= m.bound { "ok" } else { "EXCEEDS" };
            println!("{key} {a} {b} {diff:.4} {} {verdict}", m.bound);
            ok &= diff <= m.bound;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    if flag("--print-manifest") {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    let seed: u64 = parsed(&args, "--seed", 1);
    let seconds: f64 = parsed(&args, "--seconds", RUN_SECONDS as f64);
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let profile = if flag("--smoke") { Profile::smoke() } else { Profile::full(seconds) };

    if let Some(name) = arg_value(&args, "--workload") {
        let traced = match arg_value(&args, "--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => usage(&format!("--trace {other}: expected 0 or 1")),
        };
        return run_one(&name, seed, profile, traced);
    }

    let mut pass = vec!["--seed".to_string(), seed.to_string(), "--seconds".to_string(), seconds.to_string()];
    if flag("--smoke") {
        pass.push("--smoke".into());
    }
    if flag("--aa") {
        return aa(&pass);
    }
    match suite(&pass, true) {
        // A smoke run has too few rounds for the parts to sum to a median.
        Some(values) if flag("--smoke") || closure(&values) => ExitCode::SUCCESS,
        Some(_) => {
            eprintln!("sg-benchmark: a traced run does not explain its rounds, or tracing costs over 5 %");
            ExitCode::FAILURE
        }
        None => ExitCode::FAILURE,
    }
}
