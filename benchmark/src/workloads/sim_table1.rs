//! `sim_table1` — the researcher's path: one Table I column.
//!
//! Ten `Simulator`s, one per Table I defense, all under LIE on the mnist
//! CNN (d = 8 378) with n = 50, β = 0.2, sharing one 2-thread pool and
//! stepped in lockstep: one benchmark round is one `step` of each, 500
//! client updates. Lockstep keeps the round unimodal — pooling per-defense
//! rounds would put the median on a mode boundary. Client compute
//! (`sg_nn`/`sg_tensor`) is about four fifths of the round, rules and
//! attack the rest, the wire nothing: pool, GEMM and conv work shows
//! here, codec work must show nothing.

use crate::api::{table1_defenses, Exec, Mnist, Partitions, Sim};
use crate::gen::all_finite;
use crate::harness::{End, Scenario, Workload, WARMUP_ROUNDS};
use crate::manifest::SIM_TABLE1;
use crate::stats::median;
use crate::trace::{durations_ms, Span, Tracer};

const CLIENTS: usize = 50;
/// ≈ 156 ms a round on the reference host.
const REFERENCE_ROUNDS: usize = 160;
/// Selections of the first rounds of an instance feed the kept ratios:
/// a fixed count, so the ratios repeat exactly however many rounds the
/// timed phase then runs.
const KEPT_ROUNDS: usize = 1 + WARMUP_ROUNDS;
/// The SignGuard variants must have learned the task by then.
const ACCURACY_AFTER_ROUNDS: usize = 60;
const MIN_ACCURACY: f32 = 0.80;

/// `(Table I name, span, metric)`.
const STEPS: [(&str, &str, &str); 10] = [
    ("Mean", "fl.step.mean", "fl.step.mean.ms"),
    ("TrMean", "fl.step.trmean", "fl.step.trmean.ms"),
    ("Median", "fl.step.median", "fl.step.median.ms"),
    ("GeoMed", "fl.step.geomed", "fl.step.geomed.ms"),
    ("Multi-Krum", "fl.step.multikrum", "fl.step.multikrum.ms"),
    ("Bulyan", "fl.step.bulyan", "fl.step.bulyan.ms"),
    ("DnC", "fl.step.dnc", "fl.step.dnc.ms"),
    ("SignGuard", "fl.step.signguard", "fl.step.signguard.ms"),
    ("SignGuard-Sim", "fl.step.signguard_sim", "fl.step.signguard_sim.ms"),
    ("SignGuard-Dist", "fl.step.signguard_dist", "fl.step.signguard_dist.ms"),
];
const SIGNGUARD: usize = 7;

pub struct SimTable1 {
    seed: u64,
}

impl SimTable1 {
    pub fn prepare(seed: u64) -> Self {
        let names: Vec<&str> = STEPS.iter().map(|s| s.0).collect();
        assert_eq!(names, table1_defenses(), "STEPS must follow Table I order");
        Self { seed }
    }
}

impl Workload for SimTable1 {
    fn name(&self) -> &'static str {
        SIM_TABLE1
    }

    fn updates_per_round(&self) -> usize {
        STEPS.len() * CLIENTS
    }

    fn reference_rounds(&self) -> usize {
        REFERENCE_ROUNDS
    }

    fn construct<'a>(&'a self, _total_rounds: usize, _: &Tracer) -> Box<dyn Scenario + 'a> {
        let task = Mnist::generate(self.seed);
        let (exec, parts) = (Exec::parallel(), Partitions::fresh());
        let sims = STEPS.iter().map(|s| Sim::new(&task, s.0, CLIENTS, self.seed, &exec, &parts)).collect();
        Box::new(Column { sims, bad_losses: 0 })
    }

    fn layer_metrics(&self, spans: &[Span], end: &End) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> =
            STEPS.iter().map(|s| (s.2, median(&durations_ms(spans, s.1)))).collect();
        out.push(("core.signguard.honest_kept_ratio", end.count("honest_kept")));
        out.push(("core.signguard.byz_kept_ratio", end.count("byz_kept")));
        out
    }
}

struct Column {
    sims: Vec<Sim>,
    bad_losses: usize,
}

impl Scenario for Column {
    fn round(&mut self, k: usize, tr: &mut Tracer) {
        for (sim, step) in self.sims.iter_mut().zip(&STEPS) {
            let loss = tr.time(step.1, CLIENTS as u64, || sim.step(k, k < KEPT_ROUNDS));
            self.bad_losses += usize::from(!loss.is_finite());
        }
    }

    fn finish(mut self: Box<Self>, rounds_run: usize) -> End {
        let mut end = End::default();
        end.check(self.bad_losses == 0, || {
            format!("{} steps reported a non-finite mean_loss", self.bad_losses)
        });
        let trained = rounds_run >= ACCURACY_AFTER_ROUNDS;
        if !trained {
            end.skipped.push(format!(
                "SignGuard accuracy >= {MIN_ACCURACY} needs {ACCURACY_AFTER_ROUNDS} rounds, this instance ran {rounds_run}"
            ));
        }
        for (sim, step) in self.sims.iter_mut().zip(&STEPS) {
            end.check(all_finite(sim.params()), || format!("{}: non-finite final parameters", step.0));
            if step.0.starts_with("SignGuard") && trained {
                let acc = sim.accuracy();
                end.check(acc >= MIN_ACCURACY, || {
                    format!(
                        "{}: test accuracy {acc:.3} < {MIN_ACCURACY} after {rounds_run} rounds under LIE",
                        step.0
                    )
                });
            }
        }
        let (honest, byz) = self.sims[SIGNGUARD].kept_ratios();
        end.counts = vec![("honest_kept", honest), ("byz_kept", byz)];
        end
    }
}
