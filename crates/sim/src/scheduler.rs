//! The serving event loop: monolithic vs. Splitwise-style phase-split
//! scheduling, with failure injection and hot spares.

use crate::des::{to_secs, EventQueue, SimTime};
use crate::failover::FailurePlan;
use crate::request::{Request, Workload};
use crate::server::{ActiveSeq, InstanceModel};
use crate::stats::Samples;
use crate::{Result, SimError};
use litegpu_roofline::EngineParams;
use litegpu_specs::GpuSpec;
use litegpu_workload::ModelArch;
use std::collections::VecDeque;

/// How instances divide the two inference phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// Every instance interleaves prefill and decode (prefill
    /// prioritized), as in a conventional continuous-batching server.
    Monolithic,
    /// Splitwise/DistServe-style: dedicated prefill instances stream KV
    /// caches to dedicated decode instances.
    PhaseSplit {
        /// Instances reserved for prefill (the rest decode).
        prefill_instances: u32,
    },
}

/// A complete serving-simulation configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// GPU type.
    pub gpu: GpuSpec,
    /// Model served.
    pub arch: ModelArch,
    /// Roofline parameters (timing + SLOs).
    pub params: EngineParams,
    /// Phase scheduling.
    pub scheduler: SchedulerKind,
    /// Total instances.
    pub instances: u32,
    /// GPUs per instance.
    pub gpus_per_instance: u32,
    /// Largest prompt batch per prefill launch.
    pub max_prefill_batch: u32,
    /// Request workload.
    pub workload: Workload,
    /// Arrival horizon, seconds (the run continues until drained).
    pub horizon_s: f64,
    /// Failure injection.
    pub failures: FailurePlan,
}

impl ServingConfig {
    /// A Splitwise-style demo: Llama3-70B on H100, 2 prefill + 2 decode
    /// instances of 2 GPUs each, 3 req/s for 120 s.
    pub fn splitwise_h100_demo() -> Self {
        Self {
            gpu: litegpu_specs::catalog::h100(),
            arch: litegpu_workload::models::llama3_70b(),
            params: EngineParams::paper_defaults(),
            scheduler: SchedulerKind::PhaseSplit {
                prefill_instances: 2,
            },
            instances: 4,
            gpus_per_instance: 2,
            max_prefill_batch: 4,
            workload: Workload::paper_coding(3.0),
            horizon_s: 120.0,
            failures: FailurePlan::none(),
        }
    }

    /// The Lite-GPU equivalent of [`Self::splitwise_h100_demo`]: same
    /// aggregate silicon, instances of 8 Lite-GPUs.
    pub fn splitwise_lite_demo() -> Self {
        Self {
            gpu: litegpu_specs::catalog::lite_base(),
            gpus_per_instance: 8,
            ..Self::splitwise_h100_demo()
        }
    }

    /// A monolithic variant of the H100 demo.
    pub fn monolithic_h100_demo() -> Self {
        Self {
            scheduler: SchedulerKind::Monolithic,
            ..Self::splitwise_h100_demo()
        }
    }
}

/// Aggregated results of a serving run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServingReport {
    /// Requests that arrived.
    pub arrived: usize,
    /// Requests fully served.
    pub completed: usize,
    /// Output tokens generated.
    pub generated_tokens: u64,
    /// Arrival horizon, seconds.
    pub horizon_s: f64,
    /// Wall-clock when the system drained, seconds.
    pub drained_at_s: f64,
    /// Output tokens per second over the drain interval.
    pub throughput_tps: f64,
    /// Median time to first token, seconds.
    pub ttft_p50_s: f64,
    /// 99th-percentile TTFT, seconds.
    pub ttft_p99_s: f64,
    /// Fraction of requests meeting the TTFT SLO.
    pub ttft_attainment: f64,
    /// Median per-step time between tokens, seconds.
    pub tbt_p50_s: f64,
    /// 99th-percentile TBT, seconds.
    pub tbt_p99_s: f64,
    /// Fraction of decode steps meeting the TBT SLO.
    pub tbt_attainment: f64,
    /// Median end-to-end request latency, seconds.
    pub e2e_p50_s: f64,
    /// Fraction of instance-time up.
    pub availability: f64,
    /// Failures injected.
    pub failures: usize,
    /// Failures absorbed by a hot spare.
    pub spare_hits: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Both,
    Prefill,
    Decode,
}

struct Inst {
    role: Role,
    model: InstanceModel,
    queue: VecDeque<Request>,
    running: Vec<ActiveSeq>,
    in_transit: u32,
    busy: bool,
    up: bool,
    epoch: u64,
    down_since: Option<SimTime>,
    downtime: SimTime,
}

enum Ev {
    Arrival(usize),
    PrefillDone {
        inst: usize,
        epoch: u64,
        seqs: Vec<ActiveSeq>,
    },
    TransferDone {
        inst: usize,
        seqs: Vec<ActiveSeq>,
    },
    StepDone {
        inst: usize,
        epoch: u64,
        step: SimTime,
    },
    Fail(usize),
    Recover(usize),
    SpareBack,
}

/// Runs a serving simulation to completion (all arrivals drained).
pub fn simulate(cfg: &ServingConfig, seed: u64) -> Result<ServingReport> {
    if cfg.instances == 0 || cfg.max_prefill_batch == 0 {
        return Err(SimError::InvalidParameter {
            name: "instances/max_prefill_batch",
            value: 0.0,
        });
    }
    let roles: Vec<Role> = match cfg.scheduler {
        SchedulerKind::Monolithic => vec![Role::Both; cfg.instances as usize],
        SchedulerKind::PhaseSplit { prefill_instances } => {
            if prefill_instances == 0 || prefill_instances >= cfg.instances {
                return Err(SimError::InvalidParameter {
                    name: "prefill_instances",
                    value: prefill_instances as f64,
                });
            }
            (0..cfg.instances)
                .map(|i| {
                    if i < prefill_instances {
                        Role::Prefill
                    } else {
                        Role::Decode
                    }
                })
                .collect()
        }
    };

    let mut insts: Vec<Inst> = Vec::new();
    for role in &roles {
        insts.push(Inst {
            role: *role,
            model: InstanceModel::new(
                cfg.gpu.clone(),
                cfg.gpus_per_instance,
                cfg.arch.clone(),
                cfg.params,
            )?,
            queue: VecDeque::new(),
            running: Vec::new(),
            in_transit: 0,
            busy: false,
            up: true,
            epoch: 0,
            down_since: None,
            downtime: 0,
        });
    }

    let requests = cfg.workload.generate(cfg.horizon_s, seed)?;
    let failures = cfg.failures.generate(insts.len(), cfg.horizon_s, seed)?;

    let mut q: EventQueue<Ev> = EventQueue::new();
    for (i, r) in requests.iter().enumerate() {
        q.schedule_at(r.arrival, Ev::Arrival(i));
    }
    for &(t, inst) in &failures {
        q.schedule_at(t, Ev::Fail(inst));
    }

    let mut ttft = Samples::new();
    let mut tbt = Samples::new();
    let mut e2e = Samples::new();
    let mut overflow: VecDeque<Request> = VecDeque::new();
    let mut decode_pending: VecDeque<ActiveSeq> = VecDeque::new();
    let mut completed = 0usize;
    let mut generated: u64 = 0;
    let mut spares_free = cfg.failures.spares as i64;
    let mut failures_seen = 0usize;
    let mut spare_hits = 0usize;
    // Latest completion so far: the only completion time the report reads.
    let mut last_done: SimTime = 0;

    // Helper closures can't borrow insts mutably twice; use fns instead.
    fn route_request(insts: &mut [Inst], overflow: &mut VecDeque<Request>, r: Request) {
        let target = insts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.up && matches!(s.role, Role::Both | Role::Prefill))
            .min_by_key(|(_, s)| s.queue.len())
            .map(|(i, _)| i);
        match target {
            Some(i) => insts[i].queue.push_back(r),
            None => overflow.push_back(r),
        }
    }

    fn kick(
        insts: &mut [Inst],
        q: &mut EventQueue<Ev>,
        decode_pending: &mut VecDeque<ActiveSeq>,
        i: usize,
        max_prefill_batch: u32,
    ) -> Result<()> {
        // Pull pending decode work into spare capacity first.
        if matches!(insts[i].role, Role::Decode | Role::Both) && insts[i].up {
            while !decode_pending.is_empty()
                && (insts[i].running.len() as u32 + insts[i].in_transit) < insts[i].model.max_batch
            {
                let s = decode_pending.pop_front().expect("non-empty");
                insts[i].running.push(s);
            }
        }
        if !insts[i].up || insts[i].busy {
            return Ok(());
        }
        let can_prefill = matches!(insts[i].role, Role::Both | Role::Prefill)
            && !insts[i].queue.is_empty()
            && (insts[i].role != Role::Both
                || (insts[i].running.len() as u32) < insts[i].model.max_batch);
        if can_prefill {
            let cap = match insts[i].role {
                Role::Both => insts[i].model.max_batch - insts[i].running.len() as u32,
                _ => max_prefill_batch,
            };
            let b = (insts[i].queue.len() as u32)
                .min(max_prefill_batch)
                .min(cap)
                .max(1);
            let mut seqs = Vec::with_capacity(b as usize);
            for _ in 0..b {
                let r = insts[i].queue.pop_front().expect("checked non-empty");
                seqs.push(ActiveSeq {
                    id: r.id,
                    arrival: r.arrival,
                    prompt_len: r.prompt_len,
                    remaining: r.output_len,
                });
            }
            let t = insts[i].model.prefill_time(b)?;
            let epoch = insts[i].epoch;
            insts[i].busy = true;
            q.schedule_in(
                t,
                Ev::PrefillDone {
                    inst: i,
                    epoch,
                    seqs,
                },
            );
            return Ok(());
        }
        if matches!(insts[i].role, Role::Both | Role::Decode) && !insts[i].running.is_empty() {
            let b = insts[i].running.len() as u32;
            let t = insts[i].model.decode_step_time(b)?;
            let epoch = insts[i].epoch;
            insts[i].busy = true;
            q.schedule_in(
                t,
                Ev::StepDone {
                    inst: i,
                    epoch,
                    step: t,
                },
            );
        }
        Ok(())
    }

    while let Some((now, ev)) = q.pop() {
        match ev {
            Ev::Arrival(idx) => {
                let r = requests[idx];
                route_request(&mut insts, &mut overflow, r);
                for i in 0..insts.len() {
                    kick(
                        &mut insts,
                        &mut q,
                        &mut decode_pending,
                        i,
                        cfg.max_prefill_batch,
                    )?;
                }
            }
            Ev::PrefillDone { inst, epoch, seqs } => {
                if !insts[inst].up || insts[inst].epoch != epoch {
                    // The instance died mid-prefill: treat the batch as
                    // fresh arrivals elsewhere (KV lost).
                    for s in seqs {
                        route_request(
                            &mut insts,
                            &mut overflow,
                            Request {
                                id: s.id,
                                arrival: s.arrival,
                                prompt_len: s.prompt_len,
                                output_len: s.remaining,
                            },
                        );
                    }
                } else {
                    insts[inst].busy = false;
                    for s in &seqs {
                        ttft.record(to_secs(now - s.arrival));
                    }
                    match insts[inst].role {
                        Role::Both => insts[inst].running.extend(seqs),
                        _ => {
                            // Stream KV to the least-loaded decode instance.
                            let t_x = insts[inst].model.kv_transfer_time(
                                seqs.iter().map(|s| s.prompt_len).max().unwrap_or(1),
                            );
                            let target = insts
                                .iter()
                                .enumerate()
                                .filter(|(_, s)| s.up && s.role == Role::Decode)
                                .filter(|(_, s)| {
                                    (s.running.len() as u32 + s.in_transit + seqs.len() as u32)
                                        <= s.model.max_batch
                                })
                                .min_by_key(|(_, s)| s.running.len() + s.in_transit as usize)
                                .map(|(i, _)| i);
                            match target {
                                Some(d) => {
                                    insts[d].in_transit += seqs.len() as u32;
                                    q.schedule_in(t_x, Ev::TransferDone { inst: d, seqs });
                                }
                                None => decode_pending.extend(seqs),
                            }
                        }
                    }
                }
                for i in 0..insts.len() {
                    kick(
                        &mut insts,
                        &mut q,
                        &mut decode_pending,
                        i,
                        cfg.max_prefill_batch,
                    )?;
                }
            }
            Ev::TransferDone { inst, seqs } => {
                insts[inst].in_transit = insts[inst].in_transit.saturating_sub(seqs.len() as u32);
                if insts[inst].up {
                    insts[inst].running.extend(seqs);
                } else {
                    decode_pending.extend(seqs);
                }
                kick(
                    &mut insts,
                    &mut q,
                    &mut decode_pending,
                    inst,
                    cfg.max_prefill_batch,
                )?;
            }
            Ev::StepDone { inst, epoch, step } => {
                if !insts[inst].up || insts[inst].epoch != epoch {
                    continue;
                }
                insts[inst].busy = false;
                tbt.record(to_secs(step));
                generated += insts[inst].running.len() as u64;
                let mut done = Vec::new();
                for s in insts[inst].running.iter_mut() {
                    s.remaining = s.remaining.saturating_sub(1);
                    if s.remaining == 0 {
                        done.push(s.arrival);
                    }
                }
                insts[inst].running.retain(|s| s.remaining > 0);
                for arrival in done {
                    completed += 1;
                    e2e.record(to_secs(now - arrival));
                    last_done = last_done.max(now);
                }
                kick(
                    &mut insts,
                    &mut q,
                    &mut decode_pending,
                    inst,
                    cfg.max_prefill_batch,
                )?;
            }
            Ev::Fail(inst) => {
                if !insts[inst].up {
                    continue;
                }
                failures_seen += 1;
                insts[inst].up = false;
                insts[inst].busy = false;
                insts[inst].epoch += 1;
                insts[inst].down_since = Some(now);
                // Requeue everything the instance held; generation restarts
                // from prefill (the KV cache died with the instance).
                let queued: Vec<Request> = insts[inst].queue.drain(..).collect();
                let running: Vec<ActiveSeq> = insts[inst].running.drain(..).collect();
                for r in queued {
                    route_request(&mut insts, &mut overflow, r);
                }
                for s in running {
                    route_request(
                        &mut insts,
                        &mut overflow,
                        Request {
                            id: s.id,
                            arrival: s.arrival,
                            prompt_len: s.prompt_len,
                            output_len: s.remaining,
                        },
                    );
                }
                let spare = spares_free > 0;
                if spare {
                    spares_free -= 1;
                    spare_hits += 1;
                    q.schedule_in(cfg.failures.recovery_delay(false), Ev::SpareBack);
                }
                q.schedule_in(cfg.failures.recovery_delay(spare), Ev::Recover(inst));
                for i in 0..insts.len() {
                    kick(
                        &mut insts,
                        &mut q,
                        &mut decode_pending,
                        i,
                        cfg.max_prefill_batch,
                    )?;
                }
            }
            Ev::Recover(inst) => {
                insts[inst].up = true;
                if let Some(since) = insts[inst].down_since.take() {
                    insts[inst].downtime += now - since;
                }
                while let Some(r) = overflow.pop_front() {
                    route_request(&mut insts, &mut overflow, r);
                    if overflow.back().map(|b| b.id) == Some(r.id) {
                        break; // Routing bounced it straight back: stop.
                    }
                }
                for i in 0..insts.len() {
                    kick(
                        &mut insts,
                        &mut q,
                        &mut decode_pending,
                        i,
                        cfg.max_prefill_batch,
                    )?;
                }
            }
            Ev::SpareBack => {
                spares_free += 1;
            }
        }
    }

    let drained_at = insts
        .iter()
        .flat_map(|s| s.down_since)
        .chain([last_done])
        .max()
        .unwrap_or(0)
        .max(1);
    let total_time: SimTime = drained_at * insts.len() as u64;
    let downtime: SimTime = insts
        .iter()
        .map(|s| {
            s.downtime
                + s.down_since
                    .map(|d| drained_at.saturating_sub(d))
                    .unwrap_or(0)
        })
        .sum();
    let slo = cfg.params.constraints;
    Ok(ServingReport {
        arrived: requests.len(),
        completed,
        generated_tokens: generated,
        horizon_s: cfg.horizon_s,
        drained_at_s: to_secs(drained_at),
        throughput_tps: generated as f64 / to_secs(drained_at),
        ttft_p50_s: ttft.percentile(50.0),
        ttft_p99_s: ttft.percentile(99.0),
        ttft_attainment: ttft.attainment(slo.ttft_max_s),
        tbt_p50_s: tbt.percentile(50.0),
        tbt_p99_s: tbt.percentile(99.0),
        tbt_attainment: tbt.attainment(slo.tbt_max_s),
        e2e_p50_s: e2e.percentile(50.0),
        availability: 1.0 - downtime as f64 / total_time as f64,
        failures: failures_seen,
        spare_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServingConfig {
        let mut c = ServingConfig::splitwise_h100_demo();
        c.workload.rate_per_s = 2.0;
        c.horizon_s = 30.0;
        c
    }

    #[test]
    fn all_requests_complete_without_failures() {
        let r = simulate(&small_cfg(), 1).unwrap();
        assert_eq!(r.arrived, r.completed);
        assert!(r.generated_tokens > 0);
        assert!(r.availability > 0.999);
        assert_eq!(r.failures, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = simulate(&small_cfg(), 5).unwrap();
        let b = simulate(&small_cfg(), 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn monolithic_also_completes() {
        let mut c = small_cfg();
        c.scheduler = SchedulerKind::Monolithic;
        let r = simulate(&c, 2).unwrap();
        assert_eq!(r.arrived, r.completed);
    }

    #[test]
    fn phase_split_isolates_tbt_from_prefill() {
        // The Splitwise motivation: monolithic serving interleaves 100ms+
        // prefills into the decode stream, inflating p99 TBT; phase
        // splitting keeps decode steps tight.
        let mut mono = small_cfg();
        mono.scheduler = SchedulerKind::Monolithic;
        mono.workload.rate_per_s = 6.0;
        let mut split = small_cfg();
        split.workload.rate_per_s = 6.0;
        let rm = simulate(&mono, 3).unwrap();
        let rs = simulate(&split, 3).unwrap();
        assert!(
            rs.tbt_p99_s <= rm.tbt_p99_s * 1.05,
            "split p99 {} vs mono p99 {}",
            rs.tbt_p99_s,
            rm.tbt_p99_s
        );
    }

    #[test]
    fn failures_reduce_availability_and_spares_help() {
        let mut c = small_cfg();
        c.horizon_s = 60.0;
        // Accelerated injection: ~1 failure per instance per minute.
        let mut stress = crate::failover::FailurePlan::stress(0);
        stress.failures_per_instance_hour = 60.0;
        stress.repair_s = 120.0;
        c.failures = stress;
        let no_spares = simulate(&c, 4).unwrap();
        assert!(no_spares.failures > 0);
        assert!(no_spares.availability < 1.0);
        stress.spares = 4;
        c.failures = stress;
        let with_spares = simulate(&c, 4).unwrap();
        assert!(with_spares.spare_hits > 0);
        assert!(
            with_spares.availability >= no_spares.availability,
            "spares {} vs none {}",
            with_spares.availability,
            no_spares.availability
        );
        // Every arrived request still completes (retries after failure).
        assert_eq!(with_spares.arrived, with_spares.completed);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = small_cfg();
        c.instances = 0;
        assert!(simulate(&c, 1).is_err());
        let mut c = small_cfg();
        c.scheduler = SchedulerKind::PhaseSplit {
            prefill_instances: 4,
        };
        assert!(simulate(&c, 1).is_err());
    }
}
