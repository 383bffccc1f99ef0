//! `rules_wide` — the library user's path: the rules alone, wide.
//!
//! Direct `aggregate` of the ten Table I rules on a dense 50 × 65 536
//! batch whose 10 Byzantine rows are sign-flipped, plus `aggregate_batch`
//! of SignGuard and SignMajority on the `SignNorm`-packed form of the
//! same batch, on the 2-thread executor. One round is all twelve once;
//! batches rotate over three pre-generated sets. The only place
//! `sg_aggregators`/`sg_core`/`sg_math` are all of the work — where a
//! column-blocked median or a `GradMatrix` must pay — and it runs the
//! same kernels dense *and* packed, so a dense gain that costs the packed
//! path shows. Wire, `sg_nn` and `sg_fl` do nothing here.

use crate::api::{byzantine_count, table1_defenses, Exec, PackedRows, Rule, RuleOut};
use crate::gen::{all_finite, honest_rows};
use crate::harness::{End, Scenario, Workload};
use crate::manifest::RULES_WIDE;
use crate::stats::median;
use crate::trace::{durations_ms, Span, Tracer};

const ROWS: usize = 50;
const DIM: usize = 65_536;
const SETS: usize = 3;
/// ≈ 148 ms a round on the reference host.
const REFERENCE_ROUNDS: usize = 170;

/// `(span, metric)` in call order: the ten dense Table I rules, then the
/// two packed ones.
const CALLS: [(&str, &str); 12] = [
    ("aggregators.mean.wide", "aggregators.mean.wide.ms"),
    ("aggregators.trmean.wide", "aggregators.trmean.wide.ms"),
    ("aggregators.median.wide", "aggregators.median.wide.ms"),
    ("aggregators.geomed.wide", "aggregators.geomed.wide.ms"),
    ("aggregators.multikrum.wide", "aggregators.multikrum.wide.ms"),
    ("aggregators.bulyan.wide", "aggregators.bulyan.wide.ms"),
    ("aggregators.dnc.wide", "aggregators.dnc.wide.ms"),
    ("core.signguard.wide", "core.signguard.wide.ms"),
    ("core.signguard_sim.wide", "core.signguard_sim.wide.ms"),
    ("core.signguard_dist.wide", "core.signguard_dist.wide.ms"),
    ("core.signguard_packed.wide", "core.signguard_packed.wide.ms"),
    ("aggregators.signmajority_packed.wide", "aggregators.signmajority_packed.wide.ms"),
];
const SIGNGUARD_DENSE: usize = 7;

pub struct RulesWide {
    /// Honest-looking rows with the first `byzantine_count(ROWS)` negated.
    sets: Vec<Vec<Vec<f32>>>,
    flipped: usize,
}

impl RulesWide {
    pub fn prepare(seed: u64) -> Self {
        let flipped = byzantine_count(ROWS);
        let sets = (0..SETS as u64)
            .map(|set| {
                let mut rows = honest_rows(ROWS, DIM, seed, 2 + set);
                for row in &mut rows[..flipped] {
                    row.iter_mut().for_each(|x| *x = -*x);
                }
                rows
            })
            .collect();
        Self { sets, flipped }
    }
}

impl Workload for RulesWide {
    fn name(&self) -> &'static str {
        RULES_WIDE
    }

    /// Rows aggregated per round, over the twelve calls.
    fn updates_per_round(&self) -> usize {
        CALLS.len() * ROWS
    }

    fn reference_rounds(&self) -> usize {
        REFERENCE_ROUNDS
    }

    fn construct<'a>(&'a self, _total_rounds: usize, _: &Tracer) -> Box<dyn Scenario + 'a> {
        let exec = Exec::parallel();
        let dense: Vec<Rule> = table1_defenses().iter().map(|name| Rule::table1(name, ROWS, &exec)).collect();
        assert_eq!(dense.len() + 2, CALLS.len());
        Box::new(Rules {
            of: self,
            dense,
            packed_signguard: Rule::table1("SignGuard", ROWS, &exec),
            packed_majority: Rule::sign_majority(&exec),
            packed_sets: self.sets.iter().map(|rows| PackedRows::pack(rows)).collect(),
            non_finite: 0,
            flipped_selected: 0,
            unselective: 0,
        })
    }

    fn layer_metrics(&self, spans: &[Span], _: &End) -> Vec<(&'static str, f64)> {
        CALLS.iter().map(|c| (c.1, median(&durations_ms(spans, c.0)))).collect()
    }
}

struct Rules<'a> {
    of: &'a RulesWide,
    dense: Vec<Rule>,
    packed_signguard: Rule,
    packed_majority: Rule,
    packed_sets: Vec<PackedRows>,
    non_finite: usize,
    flipped_selected: usize,
    unselective: usize,
}

impl Rules<'_> {
    /// SignGuard must select, and never a sign-flipped row.
    fn check_selection(&mut self, out: &RuleOut) {
        match &out.selected {
            Some(sel) => self.flipped_selected += sel.iter().filter(|&&i| i < self.of.flipped).count(),
            None => self.unselective += 1,
        }
    }
}

impl Scenario for Rules<'_> {
    fn round(&mut self, k: usize, tr: &mut Tracer) {
        let of = self.of;
        let rows = &of.sets[k % SETS];
        let mut guarded_dense = None;
        for (i, (rule, call)) in self.dense.iter_mut().zip(&CALLS).enumerate() {
            let out = tr.time(call.0, ROWS as u64, || rule.aggregate(rows));
            self.non_finite += usize::from(!all_finite(&out.gradient));
            if i == SIGNGUARD_DENSE {
                guarded_dense = Some(out);
            }
        }
        let packed = &self.packed_sets[k % SETS];
        let (guard, majority) = (&mut self.packed_signguard, &mut self.packed_majority);
        let guarded = tr.time(CALLS[10].0, ROWS as u64, || guard.aggregate_packed(packed));
        let voted = tr.time(CALLS[11].0, ROWS as u64, || majority.aggregate_packed(packed));
        self.non_finite +=
            usize::from(!all_finite(&guarded.gradient)) + usize::from(!all_finite(&voted.gradient));
        self.check_selection(&guarded_dense.expect("SignGuard is a Table I rule"));
        self.check_selection(&guarded);
    }

    fn finish(self: Box<Self>, _rounds_run: usize) -> End {
        let mut end = End::default();
        end.check(self.non_finite == 0, || {
            format!("{} aggregates had a non-finite coordinate", self.non_finite)
        });
        end.check(self.unselective == 0, || {
            format!("SignGuard returned no selection {} times", self.unselective)
        });
        end.check(self.flipped_selected == 0, || {
            format!("SignGuard selected a sign-flipped row {} times", self.flipped_selected)
        });
        end
    }
}
