//! One measured run of one workload: fidelity checks, a from-scratch
//! set-up, warm-up, the timed closed-loop rounds, the output checks, eight
//! more set-ups, and the metrics. No workspace symbols.

use std::time::Instant;

use crate::manifest::{PerLayer, PER_LAYER, RUN_SECONDS};
use crate::stats;
use crate::trace::{self, Span, SpanTree, Tracer};

/// One set of inputs the benchmark runs. `prepare` (each workload's
/// constructor) does the load generator's own data synthesis once, and is
/// excluded from every metric.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Client updates aggregated and applied by one round.
    fn updates_per_round(&self) -> usize;

    /// Timed rounds that fill [`RUN_SECONDS`] on the reference host: a
    /// constant, so parent and change run the same rounds however fast
    /// either is.
    fn reference_rounds(&self) -> usize;

    /// Rounds a set-up repetition runs. One — the first applied model
    /// update — unless that leaves the repetition under 0.1 s.
    fn setup_rounds(&self) -> usize {
        1
    }

    /// Checks, on a miniature, that the benchmark's own driver measures
    /// the program and not a driver of its own. Returns failures.
    fn fidelity(&self) -> Vec<String> {
        Vec::new()
    }

    /// Builds the scenario with fresh caches, as a cold process would,
    /// sized to run exactly `total_rounds` rounds.
    fn construct<'a>(&'a self, total_rounds: usize, tracer: &Tracer) -> Box<dyn Scenario + 'a>;

    /// This workload's per-layer metrics, from its traced rounds.
    fn layer_metrics(&self, spans: &[Span], end: &End) -> Vec<(&'static str, f64)>;
}

/// A constructed scenario: a closed loop, so round `k + 1` is submitted
/// only after round `k`'s global model was applied.
pub trait Scenario {
    /// Runs round `k` (0-based on this instance) until its global model
    /// is applied, recording child spans of the open round span.
    fn round(&mut self, k: usize, tr: &mut Tracer);

    /// Runs the protocol to its clean end after `rounds_run` rounds,
    /// tears down, and checks the outputs.
    fn finish(self: Box<Self>, rounds_run: usize) -> End;
}

/// What a finished scenario hands back.
#[derive(Default)]
pub struct End {
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Output checks that could not run, and why.
    pub skipped: Vec<String>,
    /// Spans recorded on other threads.
    pub spans: Vec<Span>,
    /// Counts that do not come from spans.
    pub counts: Vec<(&'static str, f64)>,
}

impl End {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub setup_reps: usize,
    pub warmup_rounds: usize,
    /// `--seconds` of a measured run; `None` for a smoke run of
    /// [`SMOKE_ROUNDS`] (too few for a guarded p90: the plain one is
    /// printed, and nothing gates on it).
    pub seconds: Option<f64>,
}

/// From-scratch constructions per run; `setup_s` is their median and the
/// first one is the instance the timed phase uses.
pub const SETUP_REPS: usize = 9;
/// Discarded rounds before the timed phase.
pub const WARMUP_ROUNDS: usize = 10;
/// Every timed phase has at least this many rounds, so fifteen samples
/// lie beyond p90.
pub const MIN_TIMED_ROUNDS: usize = 150;
const SMOKE_ROUNDS: usize = 10;
/// A traced run measures a fifth of the rounds, once traced and once not.
const TRACED_SHARE: usize = 5;
/// Rounds per traced / untraced block in a traced run.
const TRACE_BLOCK: usize = 5;

impl Profile {
    pub fn full(seconds: f64) -> Self {
        Self { setup_reps: SETUP_REPS, warmup_rounds: WARMUP_ROUNDS, seconds: Some(seconds) }
    }

    /// Ten timed rounds, every check on, no metrics gate.
    pub fn smoke() -> Self {
        Self { setup_reps: 3, warmup_rounds: 2, seconds: None }
    }

    /// The timed round count, fixed before anything runs: the workload's
    /// reference count scaled by `seconds / RUN_SECONDS`, a multiple of
    /// five, never under [`MIN_TIMED_ROUNDS`].
    pub fn timed_rounds(&self, reference_rounds: usize) -> usize {
        match self.seconds {
            None => SMOKE_ROUNDS,
            Some(seconds) => {
                let scaled = (reference_rounds as f64 * seconds / RUN_SECONDS as f64).round() as usize;
                stats::round_up_to_segments(scaled.max(MIN_TIMED_ROUNDS))
            }
        }
    }
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub skipped: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub timed_rounds: usize,
    /// `updates / wall` of the five segments of an untraced run, in round
    /// order: where a stall or a slow stretch fell.
    pub segment_updates_per_s: Vec<f64>,
    pub setup_reps_s: Vec<f64>,
    pub spans: Vec<Span>,
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn timed_round(sc: &mut dyn Scenario, k: usize, tr: &mut Tracer, updates: u64) -> f64 {
    tr.set_round(k as u32);
    let t0 = Instant::now();
    let open = tr.open(trace::ROUND);
    sc.round(k, tr);
    tr.close(open, updates);
    t0.elapsed().as_secs_f64()
}

/// Runs `w` once under `profile`. `probes` supplies the workload-
/// independent per-layer values of a traced run (and their failures).
pub fn run(
    w: &dyn Workload,
    profile: Profile,
    traced: bool,
    probes: impl FnOnce() -> (Vec<(&'static str, f64)>, Vec<String>),
) -> Outcome {
    let mut failures = w.fidelity();
    let updates = w.updates_per_round() as u64;
    let mut tr = Tracer::root(false);

    // ---- set-up: construct with fresh caches → first applied update ----
    let setup_rounds = w.setup_rounds();
    let mut setup_reps_s = Vec::with_capacity(profile.setup_reps);
    let mut set_up = |total: usize, tr: &mut Tracer| {
        let t0 = Instant::now();
        let mut sc = w.construct(total, tr);
        for k in 0..setup_rounds {
            sc.round(k, tr);
        }
        setup_reps_s.push(t0.elapsed().as_secs_f64());
        sc
    };
    let timed_rounds = profile.timed_rounds(w.reference_rounds());
    // A traced run times a fifth of the rounds, twice: blocks with the
    // gate open alternate with blocks with it shut, on one instance, so
    // the overhead is read off like against like.
    let block_rounds =
        if traced { (timed_rounds / TRACED_SHARE).div_ceil(TRACE_BLOCK).max(1) * TRACE_BLOCK } else { 0 };
    let measured = if traced { 2 * block_rounds } else { timed_rounds };
    let first = setup_rounds + profile.warmup_rounds;
    let total = first + measured;
    let mut sc = set_up(total, &mut tr);

    // ---- warm-up, then the timed closed loop -----------------------------
    for k in setup_rounds..first {
        sc.round(k, &mut tr);
    }
    let mut plain_s = Vec::with_capacity(measured);
    let mut traced_s = Vec::with_capacity(block_rounds);
    for i in 0..measured {
        let gate = traced && (i / TRACE_BLOCK).is_multiple_of(2);
        tr.set_on(gate);
        let dt = timed_round(sc.as_mut(), first + i, &mut tr, updates);
        if gate { &mut traced_s } else { &mut plain_s }.push(dt);
    }
    tr.set_on(false);
    let rss = peak_rss_mb();
    let mut end = sc.finish(total);
    failures.append(&mut end.failures);
    let skipped = std::mem::take(&mut end.skipped);

    // The other set-up repetitions follow the timed phase. A process's
    // first second or two can run half as fast again here (after a build
    // or an idle spell); `sim_table1` starts its set-ups within
    // milliseconds of process start, and with all nine up front its median
    // read 0.28 s instead of 0.18 s in 2 runs of 45.
    for _ in 1..profile.setup_reps {
        failures.extend(set_up(setup_rounds, &mut tr).finish(setup_rounds).failures);
    }

    let mut spans = tr.into_spans();
    spans.append(&mut end.spans);

    // ---- metrics ----------------------------------------------------------
    let mut segment_updates_per_s = Vec::new();
    let metrics = if traced {
        let tree = SpanTree::new(&spans);
        let (attribution, worst) = (tree.coverage(trace::ROUND), tree.min_coverage(trace::ROUND));
        if worst < trace::MIN_ATTRIBUTION {
            failures.push(format!(
                "a round span's children cover {:.1}% of it, need {:.0}%",
                100.0 * worst,
                100.0 * trace::MIN_ATTRIBUTION
            ));
        }
        let overhead = stats::median(&traced_s) / stats::median(&plain_s) - 1.0;
        let (mut produced, mut probe_failures) = probes();
        failures.append(&mut probe_failures);
        produced.extend(w.layer_metrics(&spans, &end));
        produced.push(("bench.traced_round_ms_p50", 1e3 * stats::median(&traced_s)));
        produced.push(("bench.trace_overhead_pct", 100.0 * overhead));
        produced.push(("bench.attribution_pct", 100.0 * attribution));
        assemble_per_layer(w.name(), PER_LAYER, &produced).unwrap_or_else(|e| panic!("{e}"))
    } else {
        let ms: Vec<f64> = plain_s.iter().map(|s| s * 1e3).collect();
        let p90 = match profile.seconds {
            Some(_) => stats::guarded_percentile(&ms, 0.9).unwrap_or_else(|e| panic!("round_ms_p90: {e}")),
            None => stats::percentile(&ms, 0.9),
        };
        segment_updates_per_s = stats::segment_throughputs(&plain_s, updates as usize);
        vec![
            ("updates_per_s", stats::median(&segment_updates_per_s)),
            ("round_ms_p50", stats::median(&ms)),
            ("round_ms_p90", p90),
            ("peak_rss_mb", rss),
            ("setup_s", stats::median(&setup_reps_s)),
        ]
    };

    Outcome {
        attempted: total as u64 * updates,
        failures,
        skipped,
        metrics,
        timed_rounds: measured,
        segment_updates_per_s,
        setup_reps_s,
        spans,
    }
}

/// Lines the per-layer values up against the declaration: a run of
/// `workload` must produce exactly the probe metrics, its own span
/// metrics and the benchmark's guards — no undeclared name, none
/// missing. Metrics of other workloads' layers read 0: no work was done
/// there.
pub fn assemble_per_layer(
    workload: &str,
    declared: &[PerLayer],
    produced: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, f64)>, String> {
    for (name, _) in produced {
        if !declared.iter().any(|m| m.name == *name) {
            return Err(format!("{workload} produced undeclared per-layer metric {name}"));
        }
    }
    declared
        .iter()
        .map(|m| {
            let mine = matches!(m.from, None | Some("every workload")) || m.from == Some(workload);
            match (mine, produced.iter().find(|(n, _)| *n == m.name)) {
                (true, Some(&(_, v))) => Ok((m.name, v)),
                (true, None) => {
                    Err(format!("{workload} did not produce declared per-layer metric {}", m.name))
                }
                (false, Some(_)) => {
                    Err(format!("{workload} produced {}, which belongs to {:?}", m.name, m.from))
                }
                (false, None) => Ok((m.name, 0.0)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECL: &[PerLayer] = &[
        PerLayer { name: "p.one", unit: "us", better: "lower", from: None, moves: "x" },
        PerLayer { name: "a.span", unit: "ms", better: "lower", from: Some("a"), moves: "x" },
        PerLayer { name: "b.span", unit: "ms", better: "lower", from: Some("b"), moves: "x" },
        PerLayer { name: "bench.g", unit: "%", better: "lower", from: Some("every workload"), moves: "x" },
    ];

    #[test]
    fn output_and_declaration_must_agree_both_ways() {
        let full = [("p.one", 1.0), ("a.span", 2.0), ("bench.g", 3.0)];
        assert_eq!(
            assemble_per_layer("a", DECL, &full).unwrap(),
            vec![("p.one", 1.0), ("a.span", 2.0), ("b.span", 0.0), ("bench.g", 3.0)]
        );
        // Declared but not produced.
        let err = assemble_per_layer("a", DECL, &full[..2]).unwrap_err();
        assert!(err.contains("did not produce") && err.contains("bench.g"), "{err}");
        // Produced but not declared.
        let err = assemble_per_layer("a", DECL, &[("p.one", 1.0), ("nope", 0.0)]).unwrap_err();
        assert!(err.contains("undeclared") && err.contains("nope"), "{err}");
        // Produced by the wrong workload.
        let stray = [("p.one", 1.0), ("a.span", 2.0), ("b.span", 9.0), ("bench.g", 3.0)];
        assert!(assemble_per_layer("a", DECL, &stray).unwrap_err().contains("belongs to"));
    }

    /// Rounds take the time the script says; checks the round arithmetic.
    struct Scripted {
        rounds_seen: std::cell::RefCell<Vec<usize>>,
    }
    struct ScriptedRun<'a>(&'a Scripted, usize);

    impl Workload for Scripted {
        fn name(&self) -> &'static str {
            "a"
        }
        fn updates_per_round(&self) -> usize {
            7
        }
        fn reference_rounds(&self) -> usize {
            200
        }
        fn construct<'a>(&'a self, total_rounds: usize, _: &Tracer) -> Box<dyn Scenario + 'a> {
            Box::new(ScriptedRun(self, total_rounds))
        }
        fn layer_metrics(&self, _: &[Span], _: &End) -> Vec<(&'static str, f64)> {
            Vec::new()
        }
    }

    impl Scenario for ScriptedRun<'_> {
        fn round(&mut self, k: usize, tr: &mut Tracer) {
            tr.time("work", 1, || std::thread::sleep(std::time::Duration::from_micros(200)));
            self.0.rounds_seen.borrow_mut().push(k);
        }
        fn finish(self: Box<Self>, rounds_run: usize) -> End {
            let mut end = End::default();
            end.check(rounds_run == self.1, || format!("ran {rounds_run} of {}", self.1));
            end
        }
    }

    #[test]
    fn the_round_count_is_a_constant_scaled_by_seconds() {
        let full = |seconds: f64| Profile::full(seconds).timed_rounds(200);
        assert_eq!(full(RUN_SECONDS as f64), 200);
        assert_eq!(full(2.0 * RUN_SECONDS as f64), 400);
        assert_eq!(full(RUN_SECONDS as f64 * 0.803), 165, "rounded up to a multiple of five");
        assert_eq!(full(1.0), MIN_TIMED_ROUNDS);
        assert_eq!(Profile::smoke().timed_rounds(200), 10);
    }

    #[test]
    fn smoke_profile_runs_setups_warmup_and_ten_timed_rounds() {
        let w = Scripted { rounds_seen: Default::default() };
        let out = run(&w, Profile::smoke(), false, || unreachable!("untraced runs make no probe calls"));
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.setup_reps_s.len(), 3);
        assert_eq!(out.timed_rounds, 10);
        // First + 2 warm-up + 10 timed, then two one-round set-ups.
        let seen = w.rounds_seen.borrow();
        assert_eq!(seen[..13], (0..13).collect::<Vec<_>>()[..]);
        assert_eq!(seen[13..], [0, 0]);
        assert_eq!(out.attempted, 13 * 7);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["updates_per_s", "round_ms_p50", "round_ms_p90", "peak_rss_mb", "setup_s"]);
        assert!(out.metrics.iter().all(|(_, v)| *v > 0.0));
        assert!(out.spans.is_empty(), "an untraced run records nothing");
    }
}
