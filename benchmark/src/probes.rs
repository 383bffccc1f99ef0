//! Probe calls: one public function of one layer, timed on inputs the
//! size the workloads use, from a traced run after its rounds. They give
//! the per-layer numbers no span around a round can — the codec inside
//! `poll`, a kernel inside a rule. No workspace symbols.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{self, math, Exec, Mnist, Partitions, Rule, Sim, Virtual, WireDecoder, WireMsg};
use crate::gen::honest_rows;
use crate::stats::median;

const WIDE_DIM: usize = 65_536;
const WIDE_ROWS: usize = 50;
const SERVICE_CLIENTS: usize = 256;
const SIM_CLIENTS: usize = 50;
const SHARD: usize = 65_536;
const SHARD_SAMPLE: usize = 64;
/// Probe rounds per engine for `runtime.pool.speedup_x`.
const SPEEDUP_ROUNDS: usize = 20;

/// Median nanoseconds of `reps` calls.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Every probe metric, and the failures of the probes' output checks.
pub fn run(seed: u64) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut failures = Vec::new();
    let task = Mnist::generate(seed);
    let params = task.init_params(seed);
    let pool = honest_rows(SERVICE_CLIENTS, params.len(), seed, 1);
    let wide = honest_rows(WIDE_ROWS, WIDE_DIM, seed, 2);
    let (seq, par) = (Exec::sequential(), Exec::parallel());

    // ---- sg_math ---------------------------------------------------------
    let v = &wide[0];
    let d = WIDE_DIM as f64;
    out.push(("math.l2_norm_sq.ns_per_coord", median_ns(101, || math::l2_norm_sq(black_box(v))) / d));
    out.push(("math.sign_counts.ns_per_coord", median_ns(101, || math::sign_counts(black_box(v))) / d));
    let (mut bits, mut zeros) = (Vec::new(), Vec::new());
    out.push((
        "math.pack_signs.ns_per_coord",
        median_ns(101, || math::pack_signs(black_box(v), &mut bits, &mut zeros)) / d,
    ));
    let mut pairs = 0;
    let ns = median_ns(5, || pairs = math::pairwise_sq(black_box(&wide)));
    out.push(("math.pairwise_sq.ns_per_coord", ns / (pairs as f64 * d)));

    // ---- sg_net::wire (and the CRC under it) -------------------------------
    let model = WireMsg::model(3, &params);
    let dense = WireMsg::update_dense(3, &pool[0]);
    let packed = WireMsg::update_packed(3, &pool[0]);
    let wire_names = [
        ("wire.encode_model.us", "wire.decode_model.us", "wire.bytes_per_model"),
        ("wire.encode_update_dense.us", "wire.decode_update_dense.us", "wire.bytes_per_update_dense"),
        ("wire.encode_update_packed.us", "wire.decode_update_packed.us", "wire.bytes_per_update_packed"),
    ];
    for (msg, (enc, dec, bytes)) in [&model, &dense, &packed].into_iter().zip(wire_names) {
        let frame = msg.encode();
        let mut decoder = WireDecoder::default();
        if decoder.decode(&frame) != *msg {
            failures.push(format!("probe {dec}: decode(encode(m)) != m"));
        }
        out.push((enc, median_ns(201, || black_box(msg).encode()) / 1e3));
        out.push((dec, median_ns(201, || decoder.decode(black_box(&frame))) / 1e3));
        out.push((bytes, frame.len() as f64));
    }
    let frame = model.encode();
    let ns = median_ns(201, || math::crc32(black_box(&frame)));
    out.push(("math.crc32.mb_per_s", frame.len() as f64 / 1e6 / (ns / 1e9)));

    // ---- sg_attacks, sg_core, sg_cluster, sg_fl::rounds at service size -----
    let m50 = api::byzantine_count(SIM_CLIENTS);
    out.push((
        "attacks.lie_craft.n50.ms",
        median_ns(15, || api::craft_attack(&pool[..SIM_CLIENTS], m50)) / 1e6,
    ));
    let m256 = api::byzantine_count(SERVICE_CLIENTS);
    out.push(("attacks.lie_craft.n256.ms", median_ns(9, || api::craft_attack(&pool, m256)) / 1e6));
    let mut guard = Rule::table1(api::SERVICE_DEFENSE, SERVICE_CLIENTS, &seq);
    out.push(("core.signguard.n256.ms", median_ns(9, || guard.aggregate(&pool)) / 1e6));
    let features = api::sign_features(&pool, seed);
    out.push(("cluster.meanshift.n256.us", median_ns(9, || api::meanshift(&features)) / 1e3));
    let mut applied = params.clone();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let rows = pool.clone();
            let t0 = Instant::now();
            api::apply_batch(rows, &seq, &mut applied);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    out.push(("fl.apply_batch.n256.ms", median(&samples) / 1e6));
    if !crate::gen::all_finite(&applied) {
        failures.push("probe fl.apply_batch.n256: non-finite parameters".into());
    }

    // ---- sg_fl::virtual_population, sg_nn ----------------------------------
    let virt = Virtual::build(&task, 2 * SHARD, seed);
    let mut id = 0;
    out.push((
        "fl.virtual.materialize.us",
        median_ns(31, || {
            id += 4099;
            virt.materialize(id % SHARD, 1);
        }) / 1e3,
    ));
    let mut round = 0;
    let mut ids = Vec::new();
    out.push((
        "fl.virtual.sample_shard.us",
        median_ns(31, || {
            round += 1;
            ids = virt.sample_shard(SHARD, 2 * SHARD, SHARD_SAMPLE, round);
        }) / 1e3,
    ));
    out.push((
        "fl.virtual.compute_round.k64.ms",
        median_ns(5, || virt.compute_round(&ids, round, &params, &seq)) / 1e6,
    ));
    let grads: Vec<f64> = (0..31)
        .map(|i| {
            let mut client = virt.materialize(SHARD + 17 * i, 2);
            let t0 = Instant::now();
            let g = client.local_gradient(&params);
            let ns = t0.elapsed().as_nanos() as f64;
            if !crate::gen::all_finite(&g) {
                failures.push("probe nn.client_grad: non-finite gradient".into());
            }
            ns
        })
        .collect();
    out.push(("nn.client_grad.us", median(&grads) / 1e3));

    // ---- sg_runtime ------------------------------------------------------
    out.push(("runtime.pool_map.dispatch_us", median_ns(2001, || par.map_two_empty()) / 1e3));
    let parts = Partitions::fresh();
    let step_ns = |exec: &Exec| {
        let mut sim = Sim::new(&task, api::SERVICE_DEFENSE, SIM_CLIENTS, seed, exec, &parts);
        sim.step(0, false);
        let mut k = 0;
        median_ns(SPEEDUP_ROUNDS, || {
            k += 1;
            sim.step(k, false)
        })
    };
    out.push(("runtime.pool.speedup_x", step_ns(&seq) / step_ns(&par)));

    (out, failures)
}
