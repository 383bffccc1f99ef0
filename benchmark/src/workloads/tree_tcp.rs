//! `tree_tcp` — the scale-out path: a two-level tree over real sockets.
//!
//! Two `LeafNode` threads (sequential engines) submit to a root
//! `FlService` on `TcpServerTransport`: 131 072 virtual clients in two
//! shards of 65 536, 64 sampled per shard per round, SignGuard
//! (`RerunSignNorm`) under LIE. The only user of `virtual_population`,
//! `tcp` and `tree`. `peak_rss_mb` here is the "resident gradients = shard
//! sample" promise as a number; the round waits for the slower leaf, so
//! stragglers show in p90. Wire volume is two packed updates and two
//! models per round: codec work must show nothing.

use crate::api::{run_tree_loopback_reference, start_tree_tcp, Mnist, Tree, TreeSpec, LEAF_ROUND};
use crate::harness::{End, Scenario, Workload};
use crate::manifest::TREE_TCP;
use crate::stats::median;
use crate::trace::{durations_ms, per_round_ms, Span, Tracer};
use crate::workloads::serve_dense::expect_counts;
use crate::workloads::{drain, drive_round, drive_to_end};

const SPEC: TreeSpec = TreeSpec { population: 131_072, shard: 65_536, participation: 64, max_pending: 64 };
const MINI: TreeSpec = TreeSpec { population: 256, shard: 128, participation: 8, max_pending: 64 };
/// ≈ 31–33 ms a round on the reference host.
const REFERENCE_ROUNDS: usize = 765;
const SETUP_ROUNDS: usize = 4;
const POLL: &str = "tcp.root_poll_wait";
const HANDLE: &str = "tree.root_handle";

pub struct TreeTcp {
    seed: u64,
}

impl TreeTcp {
    pub fn prepare(seed: u64) -> Self {
        Self { seed }
    }
}

impl Workload for TreeTcp {
    fn name(&self) -> &'static str {
        TREE_TCP
    }

    fn updates_per_round(&self) -> usize {
        SPEC.leaves() * SPEC.participation
    }

    fn reference_rounds(&self) -> usize {
        REFERENCE_ROUNDS
    }

    /// Bind, two connects and the first round take ≈ 0.04 s, too short to
    /// repeat to a tenth; the leaves materialise a fresh shard sample
    /// every round, so three more rounds of that belong to set-up here.
    fn setup_rounds(&self) -> usize {
        SETUP_ROUNDS
    }

    /// The reassembled TCP tree must end bit-identical to the program's
    /// own `run_tree_loopback` of the same seeds.
    fn fidelity(&self) -> Vec<String> {
        let task = Mnist::generate(self.seed);
        let mut tree = start_tree_tcp(&task, MINI, self.seed, 5, &Tracer::root(false));
        drive_to_end(&mut tree.root, 5, POLL, HANDLE);
        let (tcp, _) = tree.finish();
        let reference = run_tree_loopback_reference(&task, MINI, self.seed, 5);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        if bits(&tcp.final_params) == bits(&reference.final_params)
            && bits(&tcp.round_losses) == bits(&reference.round_losses)
        {
            Vec::new()
        } else {
            vec!["fidelity: the reassembled TCP tree and run_tree_loopback end on different bits".into()]
        }
    }

    fn construct<'a>(&'a self, total_rounds: usize, tracer: &Tracer) -> Box<dyn Scenario + 'a> {
        let task = Mnist::generate(self.seed);
        Box::new(Running(start_tree_tcp(&task, SPEC, self.seed, total_rounds, tracer)))
    }

    fn layer_metrics(&self, spans: &[Span], end: &End) -> Vec<(&'static str, f64)> {
        vec![
            ("tcp.root_poll_wait.ms_per_round", median(&per_round_ms(spans, POLL))),
            ("tree.root_handle.ms_per_round", median(&per_round_ms(spans, HANDLE))),
            ("tree.leaf_round.ms", median(&durations_ms(spans, LEAF_ROUND))),
            ("tree.leaf_imbalance_x", median(&leaf_imbalance(spans))),
            ("tcp.backpressure_rejects", end.count("backpressure_rejects")),
        ]
    }
}

/// Per round, the slower leaf's shard round over the faster one's.
fn leaf_imbalance(spans: &[Span]) -> Vec<f64> {
    let mut by_round: std::collections::BTreeMap<u32, Vec<f64>> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == LEAF_ROUND) {
        by_round.entry(s.round).or_default().push(s.ms());
    }
    by_round
        .into_values()
        .filter(|leaves| leaves.len() == SPEC.leaves())
        .map(|leaves| {
            let (lo, hi) = leaves.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            hi / lo
        })
        .collect()
}

struct Running(Tree);

impl Scenario for Running {
    fn round(&mut self, _k: usize, tr: &mut Tracer) {
        drive_round(&mut self.0.root, tr, POLL, HANDLE);
    }

    fn finish(mut self: Box<Self>, rounds_run: usize) -> End {
        drain(&mut self.0.root);
        let (report, leaves) = self.0.finish();
        let mut end = End::default();
        expect_counts(&report, SPEC.leaves(), rounds_run, &mut end);
        let mut backpressure = 0;
        for (i, leaf) in leaves.into_iter().enumerate() {
            end.check(leaf.error.is_none(), || {
                format!("leaf {i}: {}", leaf.error.clone().unwrap_or_default())
            });
            backpressure += leaf.backpressure_rejects;
            end.spans.extend(leaf.tracer.into_spans());
        }
        // A reject is a 20 ms sleep inside a leaf: it would be measured as
        // round time.
        end.check(backpressure == 0, || format!("{backpressure} backpressure rejects"));
        end.counts = vec![("backpressure_rejects", backpressure as f64)];
        end
    }
}
