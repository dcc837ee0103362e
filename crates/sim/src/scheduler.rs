//! The serving event loop: monolithic vs. Splitwise-style phase-split
//! scheduling, with failure injection and hot spares.
//!
//! [`simulate`] runs one private `Sim` until its event queue drains. The
//! `Sim` owns the queue, the instances and what they share: one
//! [`InstanceModel`] (every instance has the same GPU, group size and
//! model), the requests that found no prefill-capable instance up, the
//! prefilled sequences waiting for decode batch room, the latency
//! samples and the counters. Each event kind has its own handler method,
//! and the run loop only dispatches. A running sequence is its
//! [`Request`], whose `output_len` counts down the tokens still to
//! generate.
//!
//! The queue breaks ties by insertion order, so the order in which the
//! handlers schedule events is part of the report bytes.
//! `tests/serving_and_designer.rs::des_reports_match_goldens` pins them
//! at seed 42, with rows that reach every failure branch.

use crate::des::{to_secs, EventQueue, SimTime};
use crate::failover::FailurePlan;
use crate::request::{Request, Workload};
use crate::server::InstanceModel;
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
    /// Median time to first token, seconds. TTFT ends when the request's
    /// prefill batch completes. On a phase-split run it therefore
    /// excludes the KV hand-off to a decode instance and any wait for
    /// decode batch room. The fleet engine (`litegpu-fleet`) records
    /// phase-split TTFT at KV delivery instead, so its TTFT includes
    /// both. A request prefilled again after a failure is sampled again.
    pub ttft_p50_s: f64,
    /// 99th-percentile TTFT, seconds (measured as for `ttft_p50_s`).
    pub ttft_p99_s: f64,
    /// Fraction of TTFT samples meeting the TTFT SLO (measured as for
    /// `ttft_p50_s`).
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
    queue: VecDeque<Request>,
    /// Sequences decoding here; a running request's `output_len` counts
    /// the tokens it has still to generate.
    running: Vec<Request>,
    in_transit: u32,
    busy: bool,
    up: bool,
    epoch: u64,
    down_since: Option<SimTime>,
    downtime: SimTime,
}

enum Ev {
    Arrival(Request),
    PrefillDone {
        inst: usize,
        epoch: u64,
        seqs: Vec<Request>,
    },
    TransferDone {
        inst: usize,
        seqs: Vec<Request>,
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

/// One serving run: the event queue, the instances and what they share
/// (one timing model, the overflow and pending-decode queues, the
/// latency samples and the counters). Each event kind has its own
/// handler. The queue breaks ties by insertion order, so the handlers'
/// order of `schedule_in` calls is part of the report bytes.
struct Sim<'a> {
    cfg: &'a ServingConfig,
    model: InstanceModel,
    q: EventQueue<Ev>,
    insts: Vec<Inst>,
    /// Requests that arrived while no prefill-capable instance was up.
    overflow: VecDeque<Request>,
    /// Prefilled sequences waiting for decode batch room.
    decode_pending: VecDeque<Request>,
    ttft: Samples,
    tbt: Samples,
    e2e: Samples,
    arrived: usize,
    completed: usize,
    generated: u64,
    spares_free: u32,
    failures: usize,
    spare_hits: usize,
    /// Latest completion so far: the only completion time the report
    /// reads.
    last_done: SimTime,
}

/// Runs a serving simulation to completion (all arrivals drained).
pub fn simulate(cfg: &ServingConfig, seed: u64) -> Result<ServingReport> {
    let mut sim = Sim::new(cfg, seed)?;
    while let Some((_, ev)) = sim.q.pop() {
        match ev {
            Ev::Arrival(r) => sim.arrival(r),
            Ev::PrefillDone { inst, epoch, seqs } => sim.prefill_done(inst, epoch, seqs),
            Ev::TransferDone { inst, seqs } => sim.transfer_done(inst, seqs),
            Ev::StepDone { inst, epoch, step } => sim.step_done(inst, epoch, step),
            Ev::Fail(inst) => sim.fail(inst),
            Ev::Recover(inst) => sim.recover(inst),
            Ev::SpareBack => sim.spare_back(),
        }
    }
    Ok(sim.report())
}

impl<'a> Sim<'a> {
    /// Validates `cfg`, builds the run's one timing model and schedules
    /// every arrival, then every failure.
    fn new(cfg: &'a ServingConfig, seed: u64) -> Result<Self> {
        if cfg.instances == 0 || cfg.max_prefill_batch == 0 {
            return Err(SimError::InvalidParameter {
                name: "instances/max_prefill_batch",
                value: 0.0,
            });
        }
        if let SchedulerKind::PhaseSplit { prefill_instances } = cfg.scheduler {
            if prefill_instances == 0 || prefill_instances >= cfg.instances {
                return Err(SimError::InvalidParameter {
                    name: "prefill_instances",
                    value: prefill_instances as f64,
                });
            }
        }
        let model = InstanceModel::new(
            cfg.gpu.clone(),
            cfg.gpus_per_instance,
            cfg.arch.clone(),
            cfg.params,
        )?;
        let insts: Vec<Inst> = (0..cfg.instances)
            .map(|i| Inst {
                role: match cfg.scheduler {
                    SchedulerKind::Monolithic => Role::Both,
                    SchedulerKind::PhaseSplit { prefill_instances } if i < prefill_instances => {
                        Role::Prefill
                    }
                    SchedulerKind::PhaseSplit { .. } => Role::Decode,
                },
                queue: VecDeque::new(),
                running: Vec::new(),
                in_transit: 0,
                busy: false,
                up: true,
                epoch: 0,
                down_since: None,
                downtime: 0,
            })
            .collect();
        let requests = cfg.workload.generate(cfg.horizon_s, seed)?;
        let mut q = EventQueue::new();
        for r in &requests {
            q.schedule_at(r.arrival, Ev::Arrival(*r));
        }
        for (t, inst) in cfg.failures.generate(insts.len(), cfg.horizon_s, seed)? {
            q.schedule_at(t, Ev::Fail(inst));
        }
        Ok(Self {
            cfg,
            model,
            q,
            insts,
            overflow: VecDeque::new(),
            decode_pending: VecDeque::new(),
            ttft: Samples::new(),
            tbt: Samples::new(),
            e2e: Samples::new(),
            arrived: requests.len(),
            completed: 0,
            generated: 0,
            spares_free: cfg.failures.spares,
            failures: 0,
            spare_hits: 0,
            last_done: 0,
        })
    }

    /// Queues `r` on the up prefill-capable instance with the shortest
    /// queue (the first of equals), or in `overflow` while none is up.
    fn route(&mut self, r: Request) {
        let target = self
            .insts
            .iter_mut()
            .filter(|s| s.up && s.role != Role::Decode)
            .min_by_key(|s| s.queue.len());
        match target {
            Some(s) => s.queue.push_back(r),
            None => self.overflow.push_back(r),
        }
    }

    /// Gives instance `inst` its next launch. A decode-capable instance
    /// that is up first pulls pending decode work into its free batch
    /// room. An idle instance then prefills from its queue (a monolithic
    /// one only while its batch has room), else steps its running batch.
    fn kick(&mut self, inst: usize) {
        let (max_batch, max_prefill_batch) = (self.model.max_batch, self.cfg.max_prefill_batch);
        let s = &mut self.insts[inst];
        if s.role != Role::Prefill && s.up {
            let room = max_batch.saturating_sub(s.running.len() as u32 + s.in_transit) as usize;
            let n = room.min(self.decode_pending.len());
            s.running.extend(self.decode_pending.drain(..n));
        }
        if !s.up || s.busy {
            return;
        }
        let running = s.running.len() as u32;
        if s.role != Role::Decode
            && !s.queue.is_empty()
            && (s.role != Role::Both || running < max_batch)
        {
            let cap = match s.role {
                Role::Both => max_batch - running,
                _ => max_prefill_batch,
            };
            let b = (s.queue.len() as u32).min(max_prefill_batch).min(cap);
            let seqs: Vec<Request> = s.queue.drain(..b as usize).collect();
            let (epoch, t) = (s.epoch, self.model.prefill_time(b));
            s.busy = true;
            self.q.schedule_in(t, Ev::PrefillDone { inst, epoch, seqs });
        } else if s.role != Role::Prefill && running > 0 {
            let (epoch, step) = (s.epoch, self.model.decode_step_time(running));
            s.busy = true;
            self.q.schedule_in(step, Ev::StepDone { inst, epoch, step });
        }
    }

    fn kick_all(&mut self) {
        for i in 0..self.insts.len() {
            self.kick(i);
        }
    }

    fn arrival(&mut self, r: Request) {
        self.route(r);
        self.kick_all();
    }

    /// A prefill batch finished on instance `inst`. A batch from before
    /// the instance failed lost its KV and is routed again. Otherwise its
    /// first tokens are out (TTFT) and it starts decoding: in place on a
    /// monolithic instance, else after a KV hand-off to the least-loaded
    /// decode instance with batch room, or from `decode_pending` while
    /// none has room.
    fn prefill_done(&mut self, inst: usize, epoch: u64, seqs: Vec<Request>) {
        let now = self.q.now();
        let s = &mut self.insts[inst];
        if !s.up || s.epoch != epoch {
            for r in seqs {
                self.route(r);
            }
        } else {
            s.busy = false;
            for r in &seqs {
                self.ttft.record(to_secs(now - r.arrival));
            }
            if s.role == Role::Both {
                s.running.extend(seqs);
            } else {
                let t_x = self
                    .model
                    .kv_transfer_time(seqs.iter().map(|r| r.prompt_len).max().unwrap_or(1));
                let (n, max_batch) = (seqs.len() as u32, self.model.max_batch);
                let target = self
                    .insts
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.up && d.role == Role::Decode)
                    .filter(|(_, d)| d.running.len() as u32 + d.in_transit + n <= max_batch)
                    .min_by_key(|(_, d)| d.running.len() + d.in_transit as usize)
                    .map(|(i, _)| i);
                match target {
                    Some(inst) => {
                        self.insts[inst].in_transit += n;
                        self.q.schedule_in(t_x, Ev::TransferDone { inst, seqs });
                    }
                    None => self.decode_pending.extend(seqs),
                }
            }
        }
        self.kick_all();
    }

    /// A KV hand-off landed on decode instance `inst`; if it went down
    /// meanwhile, the sequences wait in `decode_pending` instead.
    fn transfer_done(&mut self, inst: usize, seqs: Vec<Request>) {
        let s = &mut self.insts[inst];
        s.in_transit = s.in_transit.saturating_sub(seqs.len() as u32);
        if s.up {
            s.running.extend(seqs);
        } else {
            self.decode_pending.extend(seqs);
        }
        self.kick(inst);
    }

    /// A decode step of `step` µs finished on instance `inst`: one token
    /// per running sequence. A step begun before the instance failed is
    /// ignored, even if the instance is up again.
    fn step_done(&mut self, inst: usize, epoch: u64, step: SimTime) {
        let now = self.q.now();
        let s = &mut self.insts[inst];
        if !s.up || s.epoch != epoch {
            return;
        }
        s.busy = false;
        self.tbt.record(to_secs(step));
        self.generated += s.running.len() as u64;
        s.running.retain_mut(|r| {
            r.output_len = r.output_len.saturating_sub(1);
            if r.output_len > 0 {
                return true;
            }
            self.completed += 1;
            self.e2e.record(to_secs(now - r.arrival));
            self.last_done = now;
            false
        });
        self.kick(inst);
    }

    /// Instance `inst` fails (unless already down). Everything it held is
    /// routed again, its queue first, and generation restarts from
    /// prefill: the KV cache died with the instance. It recovers after a
    /// spare swap when a spare is free, else after a repair.
    fn fail(&mut self, inst: usize) {
        let s = &mut self.insts[inst];
        if !s.up {
            return;
        }
        self.failures += 1;
        s.up = false;
        s.busy = false;
        s.epoch += 1;
        s.down_since = Some(self.q.now());
        let queued = std::mem::take(&mut s.queue);
        let running = std::mem::take(&mut s.running);
        for r in queued.into_iter().chain(running) {
            self.route(r);
        }
        let (plan, spare) = (self.cfg.failures, self.spares_free > 0);
        if spare {
            self.spares_free -= 1;
            self.spare_hits += 1;
            self.q
                .schedule_in(plan.recovery_delay(false), Ev::SpareBack);
        }
        self.q
            .schedule_in(plan.recovery_delay(spare), Ev::Recover(inst));
        self.kick_all();
    }

    /// Instance `inst` is back up; requests parked in `overflow` are
    /// routed again until one bounces straight back.
    fn recover(&mut self, inst: usize) {
        let s = &mut self.insts[inst];
        s.up = true;
        if let Some(since) = s.down_since.take() {
            s.downtime += self.q.now() - since;
        }
        while let Some(r) = self.overflow.pop_front() {
            self.route(r);
            if self.overflow.back() == Some(&r) {
                break;
            }
        }
        self.kick_all();
    }

    /// The unit a spare replaced is repaired and joins the spare pool.
    fn spare_back(&mut self) {
        self.spares_free += 1;
    }

    fn report(&self) -> ServingReport {
        // Instances still down at the end extend the run to their
        // failure time and count as down from then on.
        let drained_at = self
            .insts
            .iter()
            .filter_map(|s| s.down_since)
            .fold(self.last_done, SimTime::max)
            .max(1);
        let total_time = drained_at * self.insts.len() as u64;
        let downtime: SimTime = self
            .insts
            .iter()
            .map(|s| s.downtime + s.down_since.map_or(0, |d| drained_at - d))
            .sum();
        let slo = self.cfg.params.constraints;
        ServingReport {
            arrived: self.arrived,
            completed: self.completed,
            generated_tokens: self.generated,
            horizon_s: self.cfg.horizon_s,
            drained_at_s: to_secs(drained_at),
            throughput_tps: self.generated as f64 / to_secs(drained_at),
            ttft_p50_s: self.ttft.percentile(50.0),
            ttft_p99_s: self.ttft.percentile(99.0),
            ttft_attainment: self.ttft.attainment(slo.ttft_max_s),
            tbt_p50_s: self.tbt.percentile(50.0),
            tbt_p99_s: self.tbt.percentile(99.0),
            tbt_attainment: self.tbt.attainment(slo.tbt_max_s),
            e2e_p50_s: self.e2e.percentile(50.0),
            availability: 1.0 - downtime as f64 / total_time as f64,
            failures: self.failures,
            spare_hits: self.spare_hits,
        }
    }
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
