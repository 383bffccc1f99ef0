//! The adapter: the **only** file of the benchmark that names workspace
//! symbols. Workloads, probes, trace and statistics code see the handles
//! and plain-data signatures below, so when a refactor of the program
//! changes a signature (`GradMatrix`, one round driver, the codec), the
//! follow-up benchmark fix is a diff of this file alone.
//!
//! The program is measured **from outside**: every handle wraps public
//! items and adds nothing but what a wrapper must own to observe them —
//! [`Tap`] sees the `RoundAdvance` broadcast no caller of `handle` can,
//! [`TimedPeer`] times the leaf's reply to `Model` on the leaf's thread.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use sg_aggregators::{Aggregator, GradientBatch, GradientRepr, SignMajority, SignNormVec};
use sg_attacks::{Attack, AttackContext};
use sg_bench::{build_attack, build_defense, TABLE1_DEFENSES};
use sg_cluster::MeanShift;
use sg_core::FeatureExtractor;
use sg_fl::{
    global_init, tasks, ApplyState, Client, FlConfig, PartitionCache, RoundPipeline, SelectionTracker,
    Simulator, Task, VirtualPopulation,
};
use sg_net::wire::{self, FrameBuffer, Message, RejectReason};
use sg_net::{
    drive_peer_tcp, root_aggregator, run_tree_loopback, Event, FlService, LeafNode, LoopbackNet, NetPeer,
    ServiceReport, TcpServerTransport, Transport, TransportError, TreeTopology,
};
use sg_runtime::Engine;

use crate::trace::Tracer;

/// Compute-active threads never exceed this: a constant, not a flag.
pub const ENGINE_THREADS: usize = 2;
/// The attack every workload runs under.
pub const ATTACK: &str = "LIE";
/// The defense of the service and tree workloads.
pub const SERVICE_DEFENSE: &str = "SignGuard";
/// Byzantine share β.
const BYZANTINE_FRACTION: f32 = 0.2;
/// Largest loopback frame delay in virtual ticks.
const LOOPBACK_MAX_LATENCY: u64 = 3;

/// The ten Table I defenses, in table order.
pub fn table1_defenses() -> &'static [&'static str] {
    TABLE1_DEFENSES
}

/// `⌊β·n⌋`, the program's Byzantine count for `n` clients.
pub fn byzantine_count(n: usize) -> usize {
    fl_config(n, 0).byzantine_count()
}

fn fl_config(num_clients: usize, seed: u64) -> FlConfig {
    FlConfig { num_clients, byzantine_fraction: BYZANTINE_FRACTION, seed, ..FlConfig::default() }
}

fn defense(name: &str, n: usize) -> Box<dyn Aggregator> {
    build_defense(name, n, byzantine_count(n))
}

// ---- engine, task, partitions -------------------------------------------

/// An execution engine handle.
#[derive(Clone)]
pub struct Exec(Engine);

impl Exec {
    /// The [`ENGINE_THREADS`]-wide pool.
    pub fn parallel() -> Self {
        Self(Engine::parallel(ENGINE_THREADS))
    }

    pub fn sequential() -> Self {
        Self(Engine::sequential())
    }

    /// `WorkerPool::map` over two empty tasks: the dispatch floor.
    pub fn map_two_empty(&self) {
        let out = self.0.pool().map(vec![(), ()], |_, ()| ());
        std::hint::black_box(out);
    }
}

/// The `mnist` task (d = 8 378 CNN on synthetic 8×8 digits).
#[derive(Clone)]
pub struct Mnist(Task);

impl Mnist {
    /// Generates the datasets from `seed`.
    pub fn generate(seed: u64) -> Self {
        Self(tasks::mnist_like(seed))
    }

    /// The global model a run seeded `seed` starts from.
    pub fn init_params(&self, seed: u64) -> Vec<f32> {
        global_init(&self.0, seed).param_vector()
    }
}

/// A fresh client-partition cache.
pub struct Partitions(PartitionCache);

impl Partitions {
    pub fn fresh() -> Self {
        Self(PartitionCache::new())
    }
}

// ---- the in-process simulator --------------------------------------------

/// One `Simulator` under [`ATTACK`], plus the selection accounting the
/// benchmark passes to `step`.
pub struct Sim {
    sim: Simulator,
    kept: SelectionTracker,
    unkept: SelectionTracker,
}

impl Sim {
    pub fn new(
        task: &Mnist,
        defense_name: &str,
        n: usize,
        seed: u64,
        exec: &Exec,
        parts: &Partitions,
    ) -> Self {
        let sim = Simulator::with_resources(
            task.0.clone(),
            fl_config(n, seed),
            defense(defense_name, n),
            build_attack(ATTACK),
            exec.0.clone(),
            &parts.0,
        );
        Self { sim, kept: SelectionTracker::new(), unkept: SelectionTracker::new() }
    }

    /// One `Simulator::step`; returns the mean honest loss. Selections of
    /// `counted` rounds feed [`Sim::kept_ratios`].
    pub fn step(&mut self, round: usize, counted: bool) -> f32 {
        let tracker = if counted { &mut self.kept } else { &mut self.unkept };
        self.sim.step(round, tracker).mean_loss
    }

    /// Test accuracy of the current global model.
    pub fn accuracy(&mut self) -> f32 {
        self.sim.evaluate()
    }

    pub fn params(&self) -> &[f32] {
        self.sim.global_params()
    }

    /// `(honest kept, Byzantine kept)` shares over the counted rounds.
    pub fn kept_ratios(&self) -> (f64, f64) {
        (f64::from(self.kept.honest_rate()), f64::from(self.kept.malicious_rate()))
    }
}

// ---- aggregation rules ------------------------------------------------------

/// What a rule returned.
pub struct RuleOut {
    pub gradient: Vec<f32>,
    pub selected: Option<Vec<usize>>,
}

/// One aggregation rule on an executor.
pub struct Rule(Box<dyn Aggregator>);

impl Rule {
    /// A Table I rule for `n` clients.
    pub fn table1(name: &str, n: usize, exec: &Exec) -> Self {
        Self::on(defense(name, n), exec)
    }

    pub fn sign_majority(exec: &Exec) -> Self {
        Self::on(Box::new(SignMajority::new()), exec)
    }

    fn on(mut gar: Box<dyn Aggregator>, exec: &Exec) -> Self {
        gar.set_executor(exec.0.executor());
        Self(gar)
    }

    /// `Aggregator::aggregate` on dense rows.
    pub fn aggregate(&mut self, rows: &[Vec<f32>]) -> RuleOut {
        let out = self.0.aggregate(rows);
        RuleOut { gradient: out.gradient, selected: out.selected }
    }

    /// `Aggregator::aggregate_batch` on the packed form.
    pub fn aggregate_packed(&mut self, rows: &PackedRows) -> RuleOut {
        let out = self.0.aggregate_batch(&GradientBatch::signnorm(&rows.0));
        RuleOut { gradient: out.gradient, selected: out.selected }
    }
}

/// A batch in the `SignNorm` (1 bit per coordinate + norm) form.
pub struct PackedRows(Vec<SignNormVec>);

impl PackedRows {
    pub fn pack(rows: &[Vec<f32>]) -> Self {
        Self(rows.iter().map(|r| SignNormVec::pack(r)).collect())
    }
}

// ---- the service behind a tap ---------------------------------------------

/// Plain-data mirror of `ServiceReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub rounds: usize,
    pub final_params: Vec<f32>,
    pub round_losses: Vec<f32>,
    pub rejects: u64,
    pub messages_in: u64,
    pub messages_out: u64,
}

impl From<ServiceReport> for Report {
    fn from(r: ServiceReport) -> Self {
        Self {
            rounds: r.rounds,
            final_params: r.final_params,
            round_losses: r.round_losses,
            rejects: r.rejects,
            messages_in: r.messages_in,
            messages_out: r.messages_out,
        }
    }
}

/// A `Transport` wrapper counting what crosses it. Only a transport sees
/// the `RoundAdvance` broadcast, which is how the benchmark's own round
/// loop learns that the global model was applied.
pub struct Tap<T> {
    inner: T,
    advances: u64,
    last_round: u64,
    msgs_in: u64,
    msgs_out: u64,
}

impl<T: Transport> Tap<T> {
    fn new(inner: T) -> Self {
        Self { inner, advances: 0, last_round: 0, msgs_in: 0, msgs_out: 0 }
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn poll(&mut self) -> Option<Event> {
        let event = self.inner.poll();
        if matches!(event, Some(Event::Msg(..))) {
            self.msgs_in += 1;
        }
        event
    }

    fn send(&mut self, conn: u64, msg: &Message) -> Result<(), TransportError> {
        self.msgs_out += 1;
        if let Message::RoundAdvance { round, .. } = msg {
            if *round > self.last_round {
                self.last_round = *round;
                self.advances += 1;
            }
        }
        self.inner.send(conn, msg)
    }

    fn close(&mut self, conn: u64) {
        self.inner.close(conn);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One transport event, opaque to the round loop.
pub struct Ev(Event);

/// An `FlService` and the tapped transport it serves: the two calls the
/// benchmark's round loop alternates, `poll` and `handle`.
pub struct Served<T> {
    svc: FlService,
    tap: Tap<T>,
}

pub type ServedLoopback = Served<LoopbackNet>;
pub type ServedTcp = Served<TcpServerTransport>;

/// The calls the benchmark's round loop makes, whatever the transport.
pub trait RoundLoop {
    /// `Transport::poll`.
    fn poll(&mut self) -> Option<Ev>;
    /// `FlService::handle`.
    fn handle(&mut self, ev: Ev);
    /// Rounds whose `RoundAdvance` went out.
    fn advances(&self) -> u64;
    /// Messages polled so far.
    fn msgs_in(&self) -> u64;
    /// Messages sent so far.
    fn msgs_out(&self) -> u64;
    /// `FlService::finished`.
    fn finished(&self) -> bool;
}

impl<T: Transport> RoundLoop for Served<T> {
    fn poll(&mut self) -> Option<Ev> {
        self.tap.poll().map(Ev)
    }

    fn handle(&mut self, ev: Ev) {
        self.svc.handle(&mut self.tap, ev.0);
    }

    fn advances(&self) -> u64 {
        self.tap.advances
    }

    fn msgs_in(&self) -> u64 {
        self.tap.msgs_in
    }

    fn msgs_out(&self) -> u64 {
        self.tap.msgs_out
    }

    fn finished(&self) -> bool {
        self.svc.finished()
    }
}

impl<T: Transport> Served<T> {
    /// The report of a finished service, and its transport.
    ///
    /// # Panics
    ///
    /// Panics unless finished.
    fn into_report(mut self) -> (Report, T) {
        assert!(self.finished(), "report requested from a running service");
        // `run` on a finished service returns at once with the report.
        (self.svc.run(&mut self.tap).into(), self.tap.inner)
    }
}

/// Replays a shared pool of dense updates: client `id` submits
/// `pool[(id + 7·round) % len]` for `round`, so every round sees each
/// pool vector once and resident memory is the pool, not `n × rounds`.
pub struct ReplayPeer {
    id: u64,
    pool: Arc<Vec<Vec<f32>>>,
    done: bool,
}

/// Pool slot client `id` submits in `round`.
pub fn replay_slot(id: u64, round: u64, pool_len: usize) -> usize {
    ((id + 7 * round) % pool_len as u64) as usize
}

impl NetPeer for ReplayPeer {
    fn on_connect(&mut self) -> Vec<Message> {
        vec![Message::Join { client_id: self.id }]
    }

    fn on_message(&mut self, msg: &Message) -> Vec<Message> {
        match msg {
            Message::Welcome { .. } | Message::RoundAdvance { done: false, .. } => vec![Message::FetchModel],
            Message::Model { round, .. } => {
                let slot = replay_slot(self.id, *round, self.pool.len());
                let gradient = GradientRepr::Dense(self.pool[slot].clone());
                vec![Message::SubmitUpdate { round: *round, loss: 1.0, gradient }]
            }
            Message::RoundAdvance { done: true, .. } => {
                self.done = true;
                vec![Message::Bye]
            }
            Message::Error { .. } => {
                self.done = true;
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// The dense-service scenario: `FlService` ([`SERVICE_DEFENSE`],
/// server-side [`ATTACK`], sequential engine) over a loopback of
/// [`ReplayPeer`]s, one per pool-independent client id.
pub struct DenseService<'a> {
    pub task: &'a Mnist,
    pub clients: usize,
    pub seed: u64,
    pub total_rounds: usize,
    pub pool: &'a Arc<Vec<Vec<f32>>>,
}

impl DenseService<'_> {
    fn parts(&self) -> (FlService, LoopbackNet) {
        let peers: Vec<Box<dyn NetPeer>> = (0..self.clients as u64)
            .map(|id| {
                Box::new(ReplayPeer { id, pool: Arc::clone(self.pool), done: false }) as Box<dyn NetPeer>
            })
            .collect();
        let net = LoopbackNet::from_peers(peers, self.seed, LOOPBACK_MAX_LATENCY);
        let svc = FlService::new(
            &self.task.0,
            &fl_config(self.clients, self.seed),
            defense(SERVICE_DEFENSE, self.clients),
            build_attack(ATTACK),
            &Engine::sequential(),
        )
        .with_total_rounds(self.total_rounds);
        (svc, net)
    }

    /// For the benchmark's own `poll`/`handle` loop.
    pub fn start(&self) -> ServedLoopback {
        let (svc, net) = self.parts();
        Served { svc, tap: Tap::new(net) }
    }

    /// The program's own driver, `FlService::run`, on the same inputs.
    pub fn run_reference(&self) -> Report {
        let (svc, mut net) = self.parts();
        svc.run(&mut net).into()
    }
}

/// Ends a finished loopback service.
pub fn finish_loopback(served: ServedLoopback) -> Report {
    served.into_report().0
}

// ---- the two-level tree over sockets ------------------------------------

/// A `NetPeer` wrapper timing the peer's reply to `Model` — for a
/// `LeafNode`, the whole shard round — and counting backpressure rejects
/// (each costs the leaf a 20 ms sleep in `drive_peer_tcp`).
pub struct TimedPeer<P> {
    inner: P,
    tracer: Tracer,
    updates: u64,
    backpressure_rejects: u64,
}

/// Span name of one leaf shard round.
pub const LEAF_ROUND: &str = "tree.leaf_round";

impl<P: NetPeer> NetPeer for TimedPeer<P> {
    fn on_connect(&mut self) -> Vec<Message> {
        self.inner.on_connect()
    }

    fn on_message(&mut self, msg: &Message) -> Vec<Message> {
        match msg {
            Message::Model { round, .. } => {
                self.tracer.set_round(*round as u32);
                let inner = &mut self.inner;
                self.tracer.time(LEAF_ROUND, self.updates, || inner.on_message(msg))
            }
            Message::SubmitReject { reason: RejectReason::Backpressure, .. } => {
                self.backpressure_rejects += 1;
                self.inner.on_message(msg)
            }
            _ => self.inner.on_message(msg),
        }
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// Shape of the tree scenario.
#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    pub population: usize,
    pub shard: usize,
    pub participation: usize,
    pub max_pending: usize,
}

impl TreeSpec {
    pub fn leaves(&self) -> usize {
        self.population.div_ceil(self.shard)
    }

    fn topology(&self, seed: u64) -> TreeTopology {
        TreeTopology::new(self.population, self.shard, self.participation, seed)
    }

    fn population(&self, task: &Mnist, seed: u64) -> Arc<VirtualPopulation> {
        Arc::new(VirtualPopulation::build(
            &task.0,
            &fl_config(self.population, seed),
            build_attack(ATTACK).as_deref(),
            &PartitionCache::new(),
        ))
    }

    fn root_config(&self, seed: u64) -> FlConfig {
        FlConfig { byzantine_fraction: 0.0, ..fl_config(self.leaves(), seed) }
    }
}

fn tree_gar() -> Box<dyn Aggregator> {
    // n and m only parameterize the baselines; SignGuard ignores them.
    build_defense(SERVICE_DEFENSE, 0, 0)
}

/// What one leaf thread hands back.
pub struct LeafEnd {
    pub tracer: Tracer,
    pub backpressure_rejects: u64,
    /// Socket failure, if the leaf did not reach the final `RoundAdvance`.
    pub error: Option<String>,
}

/// A running tree: the root service behind a [`Tap`] on this thread,
/// one thread per leaf behind a [`TimedPeer`].
pub struct Tree {
    pub root: ServedTcp,
    leaves: Vec<JoinHandle<LeafEnd>>,
}

/// Reassembles `run_tree_tcp` from its public parts
/// (`TcpServerTransport::bind`, `LeafNode::new`, `drive_peer_tcp`,
/// `root_aggregator`) so the root can sit behind [`Tap`] and the leaves
/// behind [`TimedPeer`]. Every leaf runs a sequential engine: the leaf
/// threads are the compute-active threads.
pub fn start_tree_tcp(task: &Mnist, spec: TreeSpec, seed: u64, total_rounds: usize, tracer: &Tracer) -> Tree {
    let topo = spec.topology(seed);
    let pop = spec.population(task, seed);
    let transport = TcpServerTransport::bind("127.0.0.1:0", topo.num_leaves() + 2, spec.max_pending)
        .expect("tree root: bind 127.0.0.1:0");
    let addr: SocketAddr = transport.local_addr();
    let batch_size = fl_config(spec.population, seed).batch_size;

    let leaves = (0..topo.num_leaves())
        .map(|leaf| {
            let (topo, pop) = (topo.clone(), Arc::clone(&pop));
            let tracer = tracer.fork(leaf as u32 + 1);
            let updates = topo.sample_count(topo.shard_of_leaf(leaf)) as u64;
            std::thread::spawn(move || {
                // Rules and attacks are not `Send`: built on the leaf's thread.
                let node = LeafNode::new(
                    topo.shard_of_leaf(leaf),
                    &topo,
                    pop,
                    tree_gar(),
                    build_attack(ATTACK),
                    Engine::sequential(),
                    batch_size,
                );
                let mut peer = TimedPeer { inner: node, tracer, updates, backpressure_rejects: 0 };
                let error = drive_peer_tcp(&addr, &mut peer).err().map(|e| e.to_string());
                LeafEnd { tracer: peer.tracer, backpressure_rejects: peer.backpressure_rejects, error }
            })
        })
        .collect();

    let svc = FlService::new(
        &task.0,
        &spec.root_config(seed),
        root_aggregator(&topo, &tree_gar),
        None,
        &Engine::sequential(),
    )
    .with_total_rounds(total_rounds);
    Tree { root: Served { svc, tap: Tap::new(transport) }, leaves }
}

impl Tree {
    /// Joins the leaves of a finished tree and shuts the listener down.
    ///
    /// # Panics
    ///
    /// Panics unless the root is finished, or if a leaf thread panicked.
    pub fn finish(self) -> (Report, Vec<LeafEnd>) {
        let (report, mut transport) = self.root.into_report();
        let ends = self.leaves.into_iter().map(|h| h.join().expect("tree leaf thread panicked")).collect();
        transport.shutdown();
        (report, ends)
    }
}

/// The program's own loopback tree driver on the same seeds.
pub fn run_tree_loopback_reference(task: &Mnist, spec: TreeSpec, seed: u64, total_rounds: usize) -> Report {
    let topo = spec.topology(seed);
    let pop = spec.population(task, seed);
    run_tree_loopback(
        &task.0,
        &fl_config(spec.population, seed),
        &topo,
        total_rounds,
        &pop,
        &tree_gar,
        &|| build_attack(ATTACK),
        &Engine::sequential(),
        seed,
        LOOPBACK_MAX_LATENCY,
    )
    .into()
}

// ---- single-layer probe calls -----------------------------------------------

/// `sg_math` kernels.
pub mod math {
    use sg_math::{kernels, PairwiseDistances, SeqExecutor};

    pub fn l2_norm_sq(v: &[f32]) -> f64 {
        kernels::l2_norm_sq_f64(v)
    }

    pub fn sign_counts(v: &[f32]) -> (usize, usize, usize) {
        kernels::sign_counts(v)
    }

    pub fn pack_signs(v: &[f32], bits: &mut Vec<u64>, zeros: &mut Vec<u32>) {
        kernels::pack_signs_into(v, bits, zeros);
    }

    /// All pairwise squared distances, sequentially; returns the pair count.
    pub fn pairwise_sq(rows: &[Vec<f32>]) -> usize {
        PairwiseDistances::compute(&SeqExecutor, rows).len()
    }

    pub fn crc32(bytes: &[u8]) -> u32 {
        sg_math::crc32(bytes)
    }
}

/// `Attack::craft` of [`ATTACK`] with the first `m` rows Byzantine.
pub fn craft_attack(rows: &[Vec<f32>], m: usize) -> Vec<Vec<f32>> {
    let mut attack: Box<dyn Attack> = build_attack(ATTACK).expect("ATTACK names an attack");
    let (byz, benign) = rows.split_at(m);
    attack.craft(&AttackContext::new(benign, byz, 0))
}

/// SignGuard's clustering features (sign statistics on 10 % of the
/// coordinates) for each row.
pub fn sign_features(rows: &[Vec<f32>], seed: u64) -> Vec<Vec<f32>> {
    let mut rng = sg_math::seeded_rng(seed);
    FeatureExtractor::new().extract(&mut rng, rows, None).into_iter().map(|f| f.to_vec()).collect()
}

/// `MeanShift::fit`; returns the cluster count.
pub fn meanshift(points: &[Vec<f32>]) -> usize {
    MeanShift::new().fit(points).num_clusters()
}

/// The server half of a service round on `rows`: `for_service`, one
/// `ingest_repr` per row, `apply_batch`.
pub fn apply_batch(rows: Vec<Vec<f32>>, exec: &Exec, params: &mut Vec<f32>) {
    let n = rows.len();
    let mut pipeline = RoundPipeline::for_service(
        defense(SERVICE_DEFENSE, n),
        build_attack(ATTACK),
        byzantine_count(n),
        n,
        &exec.0,
    );
    for (client, row) in rows.into_iter().enumerate() {
        pipeline.ingest_repr(client, GradientRepr::Dense(row), 0);
    }
    let st = ApplyState { global_params: params, learning_rate: fl_config(n, 0).learning_rate };
    pipeline.apply_batch(0, st, &mut SelectionTracker::new());
}

/// A virtual client population over the task.
pub struct Virtual {
    pop: VirtualPopulation,
    task: Mnist,
    batch_size: usize,
}

impl Virtual {
    pub fn build(task: &Mnist, population: usize, seed: u64) -> Self {
        let cfg = fl_config(population, seed);
        let pop =
            VirtualPopulation::build(&task.0, &cfg, build_attack(ATTACK).as_deref(), &PartitionCache::new());
        Self { pop, task: task.clone(), batch_size: cfg.batch_size }
    }

    /// `VirtualPopulation::materialize`.
    pub fn materialize(&self, id: usize, round: usize) -> VirtualClient<'_> {
        VirtualClient { client: self.pop.materialize(id, round), of: self }
    }

    /// `VirtualPopulation::sample_shard` over ids `start..end`.
    pub fn sample_shard(&self, start: usize, end: usize, k: usize, round: usize) -> Vec<usize> {
        self.pop.sample_shard(start..end, k, round)
    }

    /// `VirtualPopulation::compute_round`; returns the gradients.
    pub fn compute_round(&self, ids: &[usize], round: usize, params: &[f32], exec: &Exec) -> Vec<Vec<f32>> {
        self.pop
            .compute_round(ids, round, params, self.batch_size, &exec.0)
            .into_iter()
            .map(|(g, _)| g)
            .collect()
    }
}

/// One materialized client.
pub struct VirtualClient<'a> {
    client: Client,
    of: &'a Virtual,
}

impl VirtualClient<'_> {
    /// `Client::local_gradient` (CNN forward + backward, batch 8).
    pub fn local_gradient(&mut self, params: &[f32]) -> Vec<f32> {
        self.client.local_gradient(params, &self.of.task.0.train, self.of.batch_size)
    }
}

/// One wire message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMsg(Message);

impl WireMsg {
    pub fn model(round: u64, params: &[f32]) -> Self {
        Self(Message::Model { round, params: params.to_vec() })
    }

    pub fn update_dense(round: u64, gradient: &[f32]) -> Self {
        Self(Message::SubmitUpdate { round, loss: 1.0, gradient: GradientRepr::Dense(gradient.to_vec()) })
    }

    pub fn update_packed(round: u64, gradient: &[f32]) -> Self {
        let packed = GradientRepr::SignNorm(SignNormVec::pack(gradient));
        Self(Message::SubmitUpdate { round, loss: 1.0, gradient: packed })
    }

    /// `wire::encode`: one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(&self.0)
    }
}

/// A stream decoder.
#[derive(Default)]
pub struct WireDecoder(FrameBuffer);

impl WireDecoder {
    /// `FrameBuffer::extend` + `next_message` on one whole frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not exactly one valid frame.
    pub fn decode(&mut self, frame: &[u8]) -> WireMsg {
        self.0.extend(frame);
        WireMsg(self.0.next_message().expect("valid frame").expect("whole frame"))
    }
}
