//! `serve_dense` — the operator's path: the service over the wire.
//!
//! Two tenants in one process, each an `FlService` (SignGuard,
//! server-side LIE, sequential engine) over a loopback of 256 replay peers
//! submitting dense d = 8 378 updates drawn from one shared 256-vector
//! pool (8.6 MB, so RSS measures the program). Each tenant is driven by
//! the benchmark's own `poll`/`handle` loop on its own thread; a round is
//! one round of both, 512 updates. Both wire directions dominate: per
//! tenant and round, 256 × (model encode + decode + update encode +
//! decode). The rule and the attack are a few percent, client compute and
//! the pool do nothing. Uses `RoundPipeline` through
//! `ingest_repr`/`apply_batch` where `sim_table1` uses `step`.
//!
//! Why two tenants and not one: on the reference host a busy vCPU flips
//! between two speed states 29 % apart and stays in one for seconds, and
//! the two vCPUs flip independently. One service thread's median round
//! followed whichever state held longer (88 or 114 ms; 8–15 % spread over
//! ten runs). A round that waits for both vCPUs, like `tree_tcp`'s, is set
//! by the slower one and repeats.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::api::{finish_loopback, DenseService, Mnist, Report, RoundLoop, ServedLoopback};
use crate::gen::{all_finite, cosine, honest_rows, mean_row};
use crate::harness::{End, Scenario, Workload};
use crate::manifest::SERVE_DENSE;
use crate::stats::median;
use crate::trace::{per_round_ms, Span, Tracer};
use crate::workloads::{drain, drive_round, drive_to_end};

const TENANTS: usize = 2;
const CLIENTS: usize = 256;
const POOL: usize = 256;
/// ≈ 115 ms a round on the reference host.
const REFERENCE_ROUNDS: usize = 220;
const POLL: &str = "loopback.poll";
const HANDLE: &str = "service.handle";
const WAIT: &str = "service.tenant_wait";
/// `final − init` must point along `−mean(pool)`.
const MIN_COSINE: f64 = 0.9;

pub struct ServeDense {
    seed: u64,
    pool: Arc<Vec<Vec<f32>>>,
}

impl ServeDense {
    pub fn prepare(seed: u64) -> Self {
        let dim = Mnist::generate(seed).init_params(seed).len();
        Self { seed, pool: Arc::new(honest_rows(POOL, dim, seed, 1)) }
    }
}

/// Exact message counts of a clean run: every peer joins, is welcomed
/// and says goodbye once; every round it fetches and submits, and is sent
/// the model, an ack and the advance.
pub fn expect_counts(report: &Report, peers: usize, rounds: usize, end: &mut End) {
    let (peers, r) = (peers as u64, rounds as u64);
    end.check(report.rounds == rounds, || format!("{} rounds closed, expected {rounds}", report.rounds));
    end.check(report.rejects == 0, || format!("{} protocol rejects", report.rejects));
    let (want_in, want_out) = (peers * (2 + 2 * r), peers * (1 + 3 * r));
    end.check(report.messages_in == want_in, || format!("messages_in {} != {want_in}", report.messages_in));
    end.check(report.messages_out == want_out, || {
        format!("messages_out {} != {want_out}", report.messages_out)
    });
    end.check(all_finite(&report.final_params), || "non-finite final parameters".into());
}

impl Workload for ServeDense {
    fn name(&self) -> &'static str {
        SERVE_DENSE
    }

    fn updates_per_round(&self) -> usize {
        TENANTS * CLIENTS
    }

    fn reference_rounds(&self) -> usize {
        REFERENCE_ROUNDS
    }

    /// The hand-rolled loop must return what `FlService::run` returns.
    fn fidelity(&self) -> Vec<String> {
        let task = Mnist::generate(self.seed);
        let mini =
            DenseService { task: &task, clients: 16, seed: self.seed, total_rounds: 5, pool: &self.pool };
        let mut served = mini.start();
        drive_to_end(&mut served, 5, POLL, HANDLE);
        if finish_loopback(served) == mini.run_reference() {
            Vec::new()
        } else {
            vec!["fidelity: the benchmark's poll/handle loop and FlService::run disagree".into()]
        }
    }

    fn construct<'a>(&'a self, total_rounds: usize, tracer: &Tracer) -> Box<dyn Scenario + 'a> {
        let task = Mnist::generate(self.seed);
        let other = OtherTenant::spawn(
            task.clone(),
            self.seed + 1,
            total_rounds,
            Arc::clone(&self.pool),
            tracer.fork(1),
        );
        let mine = Tenant::start(&task, self.seed, total_rounds, Arc::clone(&self.pool));
        Box::new(Serving { mine, other })
    }

    /// `handle` and `poll` are medians over both tenants' rounds (lanes 0
    /// and 1 of the trace); the wait is the main tenant's for the other;
    /// the counts are of both tenants together.
    fn layer_metrics(&self, spans: &[Span], end: &End) -> Vec<(&'static str, f64)> {
        let per_tenant_round = |name: &str| -> Vec<f64> {
            let mut by_lane_round = std::collections::BTreeMap::<(u32, u32), f64>::new();
            for s in spans.iter().filter(|s| s.name == name) {
                *by_lane_round.entry((s.lane(), s.round)).or_default() += s.ms();
            }
            by_lane_round.into_values().collect()
        };
        vec![
            ("service.handle.ms_per_round", median(&per_tenant_round(HANDLE))),
            ("loopback.poll.ms_per_round", median(&per_tenant_round(POLL))),
            ("service.tenant_wait.ms_per_round", median(&per_round_ms(spans, WAIT))),
            ("service.msgs_in_per_round", end.count("msgs_in_per_round")),
            ("service.msgs_out_per_round", end.count("msgs_out_per_round")),
            ("service.rejects", end.count("rejects")),
        ]
    }
}

/// One service, its peers, and the benchmark's round loop over them.
struct Tenant {
    served: ServedLoopback,
    init: Vec<f32>,
    pool: Arc<Vec<Vec<f32>>>,
    /// Messages `(in, out)` of each round after the first (which also
    /// carries the joins).
    per_round: Vec<(f64, f64)>,
}

impl Tenant {
    fn start(task: &Mnist, seed: u64, total_rounds: usize, pool: Arc<Vec<Vec<f32>>>) -> Self {
        let served = DenseService { task, clients: CLIENTS, seed, total_rounds, pool: &pool }.start();
        Self { served, init: task.init_params(seed), pool, per_round: Vec::new() }
    }

    fn round(&mut self, k: usize, tr: &mut Tracer) {
        let before = (self.served.msgs_in(), self.served.msgs_out());
        drive_round(&mut self.served, tr, POLL, HANDLE);
        if k > 0 {
            let (i, o) = (self.served.msgs_in() - before.0, self.served.msgs_out() - before.1);
            self.per_round.push((i as f64, o as f64));
        }
    }

    fn finish(mut self, rounds_run: usize) -> End {
        drain(&mut self.served);
        let report = finish_loopback(self.served);
        let mut end = End::default();
        expect_counts(&report, CLIENTS, rounds_run, &mut end);

        // SignGuard must have kept the honest direction under LIE.
        let moved: Vec<f32> = report.final_params.iter().zip(&self.init).map(|(f, i)| f - i).collect();
        let descent: Vec<f32> = mean_row(&self.pool).iter().map(|g| -g).collect();
        let cos = cosine(&moved, &descent);
        end.check(cos >= MIN_COSINE, || {
            format!("final - init has cosine {cos:.3} with -mean(pool), need {MIN_COSINE}")
        });

        let (ins, outs): (Vec<f64>, Vec<f64>) = self.per_round.iter().copied().unzip();
        if !ins.is_empty() {
            end.counts = vec![
                ("msgs_in_per_round", median(&ins)),
                ("msgs_out_per_round", median(&outs)),
                ("rejects", report.rejects as f64),
            ];
        }
        end
    }
}

enum Command {
    Round(usize),
    Finish(usize),
}

/// The second tenant, on its own thread (a service is not `Send`: it is
/// built where it runs).
struct OtherTenant {
    commands: Sender<Command>,
    round_done: Receiver<()>,
    thread: JoinHandle<End>,
}

impl OtherTenant {
    fn spawn(task: Mnist, seed: u64, total_rounds: usize, pool: Arc<Vec<Vec<f32>>>, mut tr: Tracer) -> Self {
        let (commands, inbox) = channel();
        let (done, round_done) = channel();
        let thread = std::thread::spawn(move || {
            let mut tenant = Tenant::start(&task, seed, total_rounds, pool);
            loop {
                match inbox.recv().expect("the main tenant hung up mid-run") {
                    Command::Round(k) => {
                        tr.set_round(k as u32);
                        tenant.round(k, &mut tr);
                        done.send(()).expect("the main tenant hung up mid-round");
                    }
                    Command::Finish(rounds_run) => {
                        let mut end = tenant.finish(rounds_run);
                        end.spans = tr.into_spans();
                        return end;
                    }
                }
            }
        });
        Self { commands, round_done, thread }
    }
}

struct Serving {
    mine: Tenant,
    other: OtherTenant,
}

impl Scenario for Serving {
    fn round(&mut self, k: usize, tr: &mut Tracer) {
        self.other.commands.send(Command::Round(k)).expect("the other tenant's thread is gone");
        self.mine.round(k, tr);
        tr.time(WAIT, 1, || self.other.round_done.recv()).expect("the other tenant's thread is gone");
    }

    fn finish(self: Box<Self>, rounds_run: usize) -> End {
        self.other.commands.send(Command::Finish(rounds_run)).expect("the other tenant's thread is gone");
        let mut end = self.mine.finish(rounds_run);
        let mut other = self.other.thread.join().expect("the other tenant's thread panicked");
        end.failures.extend(other.failures.drain(..).map(|f| format!("other tenant: {f}")));
        end.spans.append(&mut other.spans);
        for (name, count) in &mut end.counts {
            *count += other.count(name);
        }
        end
    }
}
