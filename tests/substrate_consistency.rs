//! Cross-crate consistency: quantities that two subsystems compute
//! independently must agree.

use litegpu_repro::fab::wafer::DieGeometry;
use litegpu_repro::net::collective::{
    allreduce_lower_bound, collective_cost, CollectiveAlgorithm, CollectiveOp,
    AUTO_TREE_THRESHOLD_BYTES,
};
use litegpu_repro::prelude::*;
use litegpu_repro::roofline::{capacity, EngineParams};
use litegpu_repro::specs::die::ShorelineBudget;
use litegpu_repro::workload::{kv, parallel, stage::PhaseWork, GqaPolicy, TensorParallel};

#[test]
fn lite_derivation_reproduces_table1_catalog() {
    let derivation = LiteDerivation::new(catalog::h100(), 4).unwrap();
    let derived = derivation.base("Lite").unwrap();
    let cat = catalog::lite_base();
    assert_eq!(derived.tflops, cat.tflops);
    assert_eq!(derived.sms, cat.sms);
    assert_eq!(derived.mem_bw_gbps, cat.mem_bw_gbps);
    assert_eq!(derived.net_bw_gbps, cat.net_bw_gbps);
    assert_eq!(derived.max_gpus, cat.max_gpus);
}

#[test]
fn catalog_dies_fit_their_shoreline_budgets() {
    for spec in catalog::table1() {
        let budget = ShorelineBudget::for_die(&spec.die);
        budget
            .check_allocation(spec.mem_bw_gbps, spec.net_bw_gbps)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }
}

#[test]
fn equal_total_hbm_gives_equal_capacity_limited_batches() {
    // specs says 8 H100 and 32 Lite have equal HBM; capacity (roofline)
    // must then admit near-equal batches under full KV sharding.
    let p = EngineParams::paper_defaults();
    let arch = models::gpt3_175b();
    let bh = capacity::max_batch(&catalog::h100(), &arch, 8, 2000, &p);
    let bl = capacity::max_batch(&catalog::lite_base(), &arch, 32, 2000, &p);
    assert!(
        (bh as f64 - bl as f64).abs() / (bh as f64) < 0.02,
        "{bh} vs {bl}"
    );
}

#[test]
fn workload_kv_matches_capacity_accounting() {
    let p = EngineParams::paper_defaults();
    let arch = models::llama3_70b();
    // capacity's per-seq KV at TP=8 equals workload's bytes/token x ctx / 8.
    let per_seq = capacity::kv_bytes_per_seq_per_gpu(&arch, 8, 2000, &p);
    let expect = kv::bytes_per_token(&arch, Precision::Fp8) * 2000.0 / 8.0;
    assert!((per_seq - expect).abs() < 1.0);
}

#[test]
fn engine_collective_time_respects_net_lower_bound() {
    // The roofline's per-stage net time can never beat the collective
    // bandwidth lower bound.
    let p = EngineParams::paper_defaults();
    let arch = models::llama3_70b();
    let phase = PhaseWork::decode(&arch, Precision::Fp8, 128, 2000).unwrap();
    let sh = TensorParallel::new(8)
        .unwrap()
        .shard_with_policy(&arch, &phase, GqaPolicy::FullShard)
        .unwrap();
    let spec = catalog::lite_base();
    let t = litegpu_repro::roofline::engine::price_phase(&spec, &sh, OverlapMode::ComputeMem, &p)
        .unwrap();
    let payload = 128.0 * arch.d_model as f64; // One all-reduce, FP8.
    let bound = allreduce_lower_bound(8, payload, spec.net_bytes_per_s());
    let per_collective_net = t.net_s / (2.0 * arch.layers as f64);
    assert!(
        per_collective_net >= bound,
        "{per_collective_net} < {bound}"
    );
}

#[test]
fn ring_allreduce_time_consistent_between_crates() {
    // The roofline engine's network time for a TP-8 decode is exactly
    // net's all-reduce cost per stage plus the switch latency, summed
    // over every stage that carries an all-reduce (each layer has two,
    // the LM head none).
    let p = EngineParams::paper_defaults();
    let arch = models::llama3_70b();
    let phase = PhaseWork::decode(&arch, Precision::Fp8, 128, 2000).unwrap();
    let sh = TensorParallel::new(8)
        .unwrap()
        .shard_with_policy(&arch, &phase, GqaPolicy::FullShard)
        .unwrap();
    let spec = catalog::lite_base();
    let t = litegpu_repro::roofline::engine::price_phase(&spec, &sh, OverlapMode::ComputeMem, &p)
        .unwrap();
    let stage_net = |stages: &[parallel::ShardedStage]| -> f64 {
        stages
            .iter()
            .filter(|s| s.all_reduce_bytes > 0.0)
            .map(|s| {
                // A 1 MiB payload: `Auto` picks the ring algorithm.
                assert!(s.all_reduce_bytes >= AUTO_TREE_THRESHOLD_BYTES);
                let c = collective_cost(
                    CollectiveOp::AllReduce,
                    CollectiveAlgorithm::Auto,
                    8,
                    s.all_reduce_bytes,
                    spec.net_bytes_per_s(),
                    p.alpha_hop_s,
                )
                .unwrap();
                c.time_s + p.alpha_sw_s
            })
            .sum()
    };
    let reducing = sh.per_layer.iter().filter(|s| s.all_reduce_bytes > 0.0);
    assert_eq!(reducing.count(), 2);
    let expect = sh.layers as f64 * stage_net(&sh.per_layer) + stage_net(&sh.finals);
    assert!(
        (t.net_s - expect).abs() <= 1e-12 * expect,
        "{} vs {expect}",
        t.net_s
    );
}

#[test]
fn fab_die_and_spec_die_share_geometry() {
    // The H100 die in specs is the same object fab prices.
    let h100 = catalog::h100();
    assert!((h100.die.area_mm2() - 814.0).abs() < 1.0);
    let lite = catalog::lite_base();
    assert!((lite.die.area_mm2() - 814.0 / 4.0).abs() < 1.0);
    // And fab can rebuild it from scratch.
    let rebuilt = DieGeometry::with_aspect(814.0, 1.1).unwrap();
    assert!((rebuilt.perimeter_mm() - h100.die.perimeter_mm()).abs() < 1e-9);
}

#[test]
fn weight_sharding_consistent_between_workload_and_capacity() {
    let p = EngineParams::paper_defaults();
    let arch = models::llama3_405b();
    let a = capacity::weight_bytes_per_gpu(&arch, 32, &p);
    let b = parallel::weight_bytes_per_gpu(&arch, Precision::Fp8, 32);
    assert_eq!(a, b);
    assert!((a * 32.0 - arch.total_params()).abs() < 1.0);
}

#[test]
fn gqa_policies_agree_below_kv_head_count() {
    let arch = models::llama3_70b(); // 8 KV heads.
    for tp in 1..=8 {
        let head = parallel::kv_fraction_with_policy(&arch, tp, GqaPolicy::HeadShard);
        let full = parallel::kv_fraction_with_policy(&arch, tp, GqaPolicy::FullShard);
        assert_eq!(head, full, "tp={tp}");
    }
    // Above it they diverge by the replication factor.
    let head = parallel::kv_fraction_with_policy(&arch, 32, GqaPolicy::HeadShard);
    let full = parallel::kv_fraction_with_policy(&arch, 32, GqaPolicy::FullShard);
    assert!((head / full - 4.0).abs() < 1e-12);
}

#[test]
fn head_shard_policy_degrades_decode_for_gqa_models() {
    // Ablation: with the replication-prone HeadShard policy, Llama3-70B
    // decode on 32 Lite GPUs gets strictly worse than under FullShard.
    let mut p = EngineParams::paper_defaults();
    let arch = models::llama3_70b();
    let full = litegpu_repro::roofline::search::best_decode(&catalog::lite_base(), &arch, &p)
        .unwrap()
        .tokens_per_s_per_sm;
    p.gqa_policy = GqaPolicy::HeadShard;
    let head = litegpu_repro::roofline::search::best_decode(&catalog::lite_base(), &arch, &p)
        .unwrap()
        .tokens_per_s_per_sm;
    assert!(
        head < full,
        "head-shard {head} must trail full-shard {full}"
    );
}
