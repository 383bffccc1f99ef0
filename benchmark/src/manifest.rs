//! The benchmark's declaration: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end number
//! each is expected to move. `BENCHMARK.json` at the repository root is
//! [`render`] of these tables (a unit test holds the two together;
//! `sg-benchmark --print-manifest` regenerates the file).

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 25;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen. Set
    /// from the measured A/A spread: three times the widest ten-seed
    /// interquartile spread any workload showed in three sweeps on the
    /// reference host, rounded up (README, "End-to-end metrics" has the
    /// spreads); `setup_s` takes the largest, as the contract asks.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which workload's traced rounds produce it; `None` for a probe
    /// call, which every traced run makes. Elsewhere it reads 0: the
    /// layer did no work there.
    pub from: Option<&'static str>,
    /// The end-to-end metric it should move (and where it should not):
    /// written down before measuring, read by reviewers and the tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub moves: &'static str,
}

pub const SIM_TABLE1: &str = "sim_table1";
pub const SERVE_DENSE: &str = "serve_dense";
pub const RULES_WIDE: &str = "rules_wide";
pub const TREE_TCP: &str = "tree_tcp";

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: SIM_TABLE1,
        why: "researcher's path: ten Simulators (one per Table I defense) under LIE, mnist CNN, n=50, stepped in lockstep on a 2-thread pool; client compute dominates, wire does nothing",
    },
    WorkloadDecl {
        name: SERVE_DENSE,
        why: "operator's path: two FlService tenants over loopback (a round waits for both: 512 updates, the RSS of two), 256 peers each replaying dense d=8378 updates: the wire dominates, compute and pool idle",
    },
    WorkloadDecl {
        name: RULES_WIDE,
        why: "library user's path: the ten Table I rules on a dense 50x65536 batch plus SignGuard and SignMajority on its packed form; aggregators, core and math are all of the work",
    },
    WorkloadDecl {
        name: TREE_TCP,
        why: "scale-out path: 2 leaf threads over real sockets to a root service, 131072 virtual clients, 64 sampled per shard; the only user of virtual_population, tcp and tree, waits for the slower leaf",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "updates_per_s", unit: "1/s", better: "higher", bound: 0.12 },
    EndToEnd { name: "round_ms_p50", unit: "ms", better: "lower", bound: 0.10 },
    EndToEnd { name: "round_ms_p90", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

const fn probe(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, from: None, moves }
}

const fn span(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    from: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, from: Some(from), moves }
}

const KERNEL: &str = "rules_wide/round_ms_p50; nothing on tree_tcp";
const STEP: &str = "sim_table1/round_ms_p50 (the ten sum to it)";
const WIDE: &str = "rules_wide/round_ms_p50 (the twelve .wide rows sum to it); <=19% of sim_table1";
const CODEC_DENSE: &str =
    "serve_dense/round_ms_p50 (~85% codec: a 2x codec moves it ~40%); nothing elsewhere";
const CODEC_PACKED: &str = "tree_tcp (<1%): expected to move nothing";
const VIRTUAL: &str = "tree_tcp/updates_per_s";

pub const PER_LAYER: &[PerLayer] = &[
    // sg_math
    probe("math.l2_norm_sq.ns_per_coord", "ns", "lower", KERNEL),
    probe("math.sign_counts.ns_per_coord", "ns", "lower", KERNEL),
    probe("math.pack_signs.ns_per_coord", "ns", "lower", KERNEL),
    probe("math.pairwise_sq.ns_per_coord", "ns", "lower", KERNEL),
    probe("math.crc32.mb_per_s", "MB/s", "higher", "serve_dense/round_ms_p50; nothing on tree_tcp"),
    // sg_nn + sg_tensor
    probe(
        "nn.client_grad.us",
        "us",
        "lower",
        "sim_table1 (~80%) and tree_tcp (~70%) updates_per_s; nothing on serve_dense, rules_wide",
    ),
    // sg_attacks
    probe("attacks.lie_craft.n50.ms", "ms", "lower", "sim_table1/round_ms_p50"),
    probe("attacks.lie_craft.n256.ms", "ms", "lower", "serve_dense/round_ms_p50"),
    // sg_aggregators
    span("aggregators.mean.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("aggregators.trmean.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("aggregators.median.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("aggregators.geomed.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("aggregators.multikrum.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("aggregators.bulyan.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("aggregators.dnc.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("aggregators.signmajority_packed.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    // sg_core
    span("core.signguard.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("core.signguard_sim.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("core.signguard_dist.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    span("core.signguard_packed.wide.ms", "ms", "lower", RULES_WIDE, WIDE),
    probe("core.signguard.n256.ms", "ms", "lower", "serve_dense/round_ms_p50 (~5%)"),
    span(
        "core.signguard.honest_kept_ratio",
        "ratio",
        "higher",
        SIM_TABLE1,
        "none: useful outcomes over attempts; repeats exactly for a seed",
    ),
    span(
        "core.signguard.byz_kept_ratio",
        "ratio",
        "lower",
        SIM_TABLE1,
        "none: wasted outcomes over attempts; repeats exactly for a seed",
    ),
    // sg_cluster
    probe("cluster.meanshift.n256.us", "us", "lower", "serve_dense (inside core.signguard.n256)"),
    // sg_runtime
    probe(
        "runtime.pool_map.dispatch_us",
        "us",
        "lower",
        "sim_table1, rules_wide; nothing on serve_dense, tree_tcp (sequential engines)",
    ),
    probe(
        "runtime.pool.speedup_x",
        "x",
        "higher",
        "sim_table1, rules_wide updates_per_s; nothing on serve_dense, tree_tcp",
    ),
    // sg_fl
    span("fl.step.mean.ms", "ms", "lower", SIM_TABLE1, STEP),
    span("fl.step.trmean.ms", "ms", "lower", SIM_TABLE1, STEP),
    span("fl.step.median.ms", "ms", "lower", SIM_TABLE1, STEP),
    span("fl.step.geomed.ms", "ms", "lower", SIM_TABLE1, STEP),
    span("fl.step.multikrum.ms", "ms", "lower", SIM_TABLE1, STEP),
    span("fl.step.bulyan.ms", "ms", "lower", SIM_TABLE1, STEP),
    span("fl.step.dnc.ms", "ms", "lower", SIM_TABLE1, STEP),
    span("fl.step.signguard.ms", "ms", "lower", SIM_TABLE1, STEP),
    span("fl.step.signguard_sim.ms", "ms", "lower", SIM_TABLE1, STEP),
    span("fl.step.signguard_dist.ms", "ms", "lower", SIM_TABLE1, STEP),
    probe("fl.apply_batch.n256.ms", "ms", "lower", "serve_dense/round_ms_p50"),
    probe("fl.virtual.materialize.us", "us", "lower", VIRTUAL),
    probe("fl.virtual.sample_shard.us", "us", "lower", VIRTUAL),
    probe("fl.virtual.compute_round.k64.ms", "ms", "lower", VIRTUAL),
    // sg_net::wire
    probe("wire.encode_model.us", "us", "lower", CODEC_DENSE),
    probe("wire.decode_model.us", "us", "lower", CODEC_DENSE),
    probe("wire.encode_update_dense.us", "us", "lower", CODEC_DENSE),
    probe("wire.decode_update_dense.us", "us", "lower", CODEC_DENSE),
    probe("wire.encode_update_packed.us", "us", "lower", CODEC_PACKED),
    probe("wire.decode_update_packed.us", "us", "lower", CODEC_PACKED),
    probe("wire.bytes_per_model", "B", "lower", CODEC_DENSE),
    probe("wire.bytes_per_update_dense", "B", "lower", CODEC_DENSE),
    probe("wire.bytes_per_update_packed", "B", "lower", CODEC_PACKED),
    // sg_net::service + loopback
    span(
        "service.handle.ms_per_round",
        "ms",
        "lower",
        SERVE_DENSE,
        "serve_dense/round_ms_p50: server encode + rule; with loopback.poll it partitions the round",
    ),
    span(
        "loopback.poll.ms_per_round",
        "ms",
        "lower",
        SERVE_DENSE,
        "serve_dense/round_ms_p50: peer replies + both decodes; with service.handle it partitions the round",
    ),
    span(
        "service.tenant_wait.ms_per_round",
        "ms",
        "lower",
        SERVE_DENSE,
        "serve_dense/round_ms_p50: the main tenant waiting for the other; the three ms_per_round rows sum to the round",
    ),
    span("service.msgs_in_per_round", "count", "lower", SERVE_DENSE, "none: repeats exactly"),
    span("service.msgs_out_per_round", "count", "lower", SERVE_DENSE, "none: repeats exactly"),
    span("service.rejects", "count", "lower", SERVE_DENSE, "none: must be 0"),
    // sg_net::tcp + tree
    span(
        "tcp.root_poll_wait.ms_per_round",
        "ms",
        "lower",
        TREE_TCP,
        "tree_tcp/round_ms_p50: the root waiting for the slower leaf",
    ),
    span("tree.root_handle.ms_per_round", "ms", "lower", TREE_TCP, "tree_tcp/round_ms_p50 ~ max leaf + this"),
    span("tree.leaf_round.ms", "ms", "lower", TREE_TCP, "tree_tcp/round_ms_p50 and updates_per_s"),
    span("tree.leaf_imbalance_x", "x", "lower", TREE_TCP, "tree_tcp/round_ms_p90 (stragglers)"),
    span("tcp.backpressure_rejects", "count", "lower", TREE_TCP, "must be 0: a reject is a 20 ms leaf sleep"),
    // the benchmark itself
    PerLayer {
        name: "bench.traced_round_ms_p50",
        unit: "ms",
        better: "lower",
        from: Some("every workload"),
        moves: "none: median traced round, the whole the span metrics of this run sum to",
    },
    PerLayer {
        name: "bench.trace_overhead_pct",
        unit: "%",
        better: "lower",
        from: Some("every workload"),
        moves: "none: traced over untraced round_ms_p50, guards the trace",
    },
    PerLayer {
        name: "bench.attribution_pct",
        unit: "%",
        better: "higher",
        from: Some("every workload"),
        moves: "none: child coverage of round spans, guards the trace",
    },
];

fn json_str(s: &str) -> String {
    assert!(s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()), "needs escaping: {s}");
    format!("\"{s}\"")
}

/// `BENCHMARK.json`, byte for byte.
pub fn render() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_named(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn well_united(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(well_named(name), "bad name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(well_united(unit), "bad unit {unit:?}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
    }

    #[test]
    fn shape_fits_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
            assert!(["higher", "lower"].contains(&m.better));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn every_per_layer_metric_names_its_target_and_source() {
        for m in PER_LAYER {
            assert!(!m.moves.is_empty(), "{} names no end-to-end target", m.name);
            assert!(["higher", "lower"].contains(&m.better));
            if let Some(from) = m.from {
                assert!(
                    from == "every workload" || WORKLOADS.iter().any(|w| w.name == from),
                    "{} comes from unknown workload {from}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(on_disk, render(), "regenerate with `sg-benchmark --print-manifest > BENCHMARK.json`");
        assert!(on_disk.len() <= 64 * 1024);
    }
}
