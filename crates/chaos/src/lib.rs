//! `litegpu-chaos` — deterministic chaos campaigns over the fleet
//! simulator.
//!
//! The paper's §3 availability story ("smaller blast radius, cheaper
//! spares") is usually argued with i.i.d. per-GPU failures, but real
//! fleets die in *correlated* chunks: a rack PDU trips, a breaker group
//! browns out, a cooling loop degrades, a rollout drains a wave of
//! hosts. This crate compiles such **campaigns** into the schedule of
//! [`DomainEvent`]s that `litegpu-fleet` executes:
//!
//! - [`DomainPlan`] maps a [`FleetConfig`] onto the physical failure
//!   domains (instance → rack → power domain) via
//!   [`litegpu_cluster::DomainTopology`], using each fleet's *own* power
//!   draw — at equal rack power an H100 rack holds few fat instances
//!   and a Lite rack holds many small ones, so the same rack loss
//!   strands very different capacity fractions.
//! - [`Campaign`] names what goes wrong ([`CampaignKind`]), how often,
//!   for how long, and how hard ([`Campaign::intensity`]).
//! - [`compile`] turns `(config, plan, campaign, seed)` into a
//!   [`ChaosSpec`] **before** the fleet is sharded, from a dedicated RNG
//!   stream — so the byte-identical-report determinism guarantee holds
//!   at any shard or thread count under chaos too.
//! - [`excursion_clamp`] prices thermal excursions through the cooling
//!   model: the sustainable clock under an intensity-derated cooling
//!   limit. H100s run near their cooling class's ceiling and clamp
//!   hard; Lite-GPUs sit far below the forced-air limit and often ride
//!   the same excursion through at full clock.
//! - [`run_campaign_full`] runs a config under a campaign, and
//!   [`ChaosReport`] collects the per-fleet [`CampaignOutcome`]s
//!   (availability, per-tenant SLO attainment, energy, spares consumed,
//!   MTTR) that the `sim_chaos` binary sweeps.

use litegpu_cluster::DomainTopology;
use litegpu_fleet::engine::{ChaosSpec, DomainEvent, DomainEventKind, FleetConfig};
use litegpu_fleet::report::{FailureBreakdown, FleetReport};
use litegpu_fleet::{run_sharded_full, FleetRun};
use litegpu_specs::cooling::CoolingClass;
use litegpu_specs::power::PowerModel;
use litegpu_specs::GpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain separator for the campaign RNG stream: keeps chaos schedules
/// decoupled from the engine's per-instance and per-tenant streams even
/// under the same user seed.
pub const STREAM: u64 = 0x0043_4841_4f53; // "CHAOS"

/// Lowest clamp a thermal excursion can impose (the engine floors the
/// served clock at its lowest priced operating point anyway).
const MIN_CLAMP: f64 = 0.05;

/// Errors from campaign compilation or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// A campaign or plan parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The domain topology could not be built.
    Topology(litegpu_cluster::ClusterError),
    /// The underlying fleet run failed.
    Fleet(litegpu_fleet::FleetError),
}

impl core::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChaosError::InvalidParameter { name, value } => {
                write!(f, "invalid chaos parameter {name} = {value}")
            }
            ChaosError::Topology(e) => write!(f, "domain topology error: {e}"),
            ChaosError::Fleet(e) => write!(f, "fleet error: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<litegpu_cluster::ClusterError> for ChaosError {
    fn from(e: litegpu_cluster::ClusterError) -> Self {
        ChaosError::Topology(e)
    }
}

impl From<litegpu_fleet::FleetError> for ChaosError {
    fn from(e: litegpu_fleet::FleetError) -> Self {
        ChaosError::Fleet(e)
    }
}

/// Result alias for chaos operations.
pub type Result<T> = core::result::Result<T, ChaosError>;

/// The kinds of campaign the compiler knows how to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// Random whole-rack losses ([`DomainEventKind::RackLoss`]).
    RackOutages,
    /// Random breaker-group trips spanning several racks
    /// ([`DomainEventKind::PowerDomainLoss`]).
    PowerDomainOutages,
    /// Random cells cut off from the front door
    /// ([`DomainEventKind::NetworkPartition`]).
    NetworkPartitions,
    /// Cooling excursions clamping random racks' clocks
    /// ([`DomainEventKind::ThermalExcursion`]); the clamp comes from
    /// [`excursion_clamp`].
    ThermalExcursions,
    /// A planned rolling upgrade draining the fleet in sequential waves
    /// ([`DomainEventKind::RollingDrain`]).
    RollingDrain,
}

impl CampaignKind {
    /// Every campaign kind, in sweep order.
    pub const ALL: [CampaignKind; 5] = [
        CampaignKind::RackOutages,
        CampaignKind::PowerDomainOutages,
        CampaignKind::NetworkPartitions,
        CampaignKind::ThermalExcursions,
        CampaignKind::RollingDrain,
    ];

    /// Human-readable name.
    pub fn label(&self) -> &'static str {
        match self {
            CampaignKind::RackOutages => "rack outages",
            CampaignKind::PowerDomainOutages => "power-domain outages",
            CampaignKind::NetworkPartitions => "network partitions",
            CampaignKind::ThermalExcursions => "thermal excursions",
            CampaignKind::RollingDrain => "rolling drain",
        }
    }

    /// CLI / file-name slug.
    pub fn slug(&self) -> &'static str {
        match self {
            CampaignKind::RackOutages => "rack",
            CampaignKind::PowerDomainOutages => "power",
            CampaignKind::NetworkPartitions => "partition",
            CampaignKind::ThermalExcursions => "thermal",
            CampaignKind::RollingDrain => "drain",
        }
    }

    /// Parses a slug back into a kind.
    pub fn from_slug(s: &str) -> Option<CampaignKind> {
        CampaignKind::ALL.into_iter().find(|k| k.slug() == s)
    }

    /// Per-kind RNG sub-stream, so campaigns of different kinds under
    /// the same seed draw independent schedules.
    fn stream(&self) -> u64 {
        match self {
            CampaignKind::RackOutages => 1,
            CampaignKind::PowerDomainOutages => 2,
            CampaignKind::NetworkPartitions => 3,
            CampaignKind::ThermalExcursions => 4,
            CampaignKind::RollingDrain => 5,
        }
    }
}

/// One chaos campaign: what goes wrong, how often, and how hard.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// What happens.
    pub kind: CampaignKind,
    /// How many events to schedule over the horizon. For
    /// [`CampaignKind::RollingDrain`] this is the number of sequential
    /// drain waves (together they cover the whole fleet exactly once).
    pub events: u32,
    /// Duration of each event window, seconds (snapped up to the tick
    /// grid at compile time).
    pub duration_s: f64,
    /// Severity knob in `(0, 1]`. Only thermal campaigns read it today:
    /// the cooling limit is derated to `intensity × limit_w` and the
    /// clamp is the clock sustainable under that derated limit.
    pub intensity: f64,
}

impl Campaign {
    fn validate(&self) -> Result<()> {
        if self.events == 0 {
            return Err(ChaosError::InvalidParameter {
                name: "events",
                value: 0.0,
            });
        }
        if !(self.duration_s > 0.0 && self.duration_s.is_finite()) {
            return Err(ChaosError::InvalidParameter {
                name: "duration_s",
                value: self.duration_s,
            });
        }
        if !(self.intensity > 0.0 && self.intensity <= 1.0) {
            return Err(ChaosError::InvalidParameter {
                name: "intensity",
                value: self.intensity,
            });
        }
        Ok(())
    }
}

/// How the fleet maps onto physical failure domains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainPlan {
    /// Power budget of one rack, kW. The *same* budget hosts both
    /// fleets, so the instances-per-rack ratio (and hence blast radius)
    /// falls out of each GPU's own draw.
    pub rack_kw: f64,
    /// Racks fed by one breaker group.
    pub racks_per_power_domain: u32,
}

impl Default for DomainPlan {
    fn default() -> Self {
        DomainPlan {
            rack_kw: 10.0,
            racks_per_power_domain: 4,
        }
    }
}

/// Builds the failure-domain topology for a fleet config under a plan:
/// instance power is the config's own `tdp_w × gpus_per_instance`.
pub fn topology(cfg: &FleetConfig, plan: &DomainPlan) -> Result<DomainTopology> {
    if !(plan.rack_kw > 0.0 && plan.rack_kw.is_finite()) {
        return Err(ChaosError::InvalidParameter {
            name: "rack_kw",
            value: plan.rack_kw,
        });
    }
    let instance_mw = (cfg.gpu.tdp_w * cfg.gpus_per_instance as f64 * 1000.0).round() as u64;
    let rack_mw = (plan.rack_kw * 1_000_000.0).round() as u64;
    Ok(DomainTopology::new(
        cfg.instances,
        instance_mw,
        rack_mw,
        plan.racks_per_power_domain,
    )?)
}

/// The clock clamp a cooling excursion of the given intensity imposes on
/// this GPU: the clock sustainable when its cooling class delivers only
/// `intensity × limit_w`, via the cubic DVFS power model. A GPU running
/// near its class ceiling (H100 under advanced air) clamps hard; one
/// sitting far below it (Lite under forced air) may ride the excursion
/// through at full clock (clamp `1.0`).
pub fn excursion_clamp(spec: &GpuSpec, intensity: f64) -> f64 {
    let class = CoolingClass::required_for(spec.tdp_w);
    let derated_w = class.limit_w() * intensity.clamp(0.0, 1.0);
    let model = PowerModel::for_spec(spec);
    match model.max_clock_factor(derated_w) {
        Ok(f) => f.clamp(MIN_CLAMP, 1.0),
        // Derated limit at or below idle draw: clamp to the floor.
        Err(_) => MIN_CLAMP,
    }
}

/// Snaps `us` down to the tick grid.
fn snap(us: u64, tick_us: u64) -> u64 {
    (us / tick_us) * tick_us
}

/// Compiles a campaign into the deterministic event schedule the fleet
/// engine executes. The schedule depends only on `(cfg, plan, campaign,
/// seed)` — never on sharding — and every window is snapped to the tick
/// grid, so the same arguments always produce the same [`ChaosSpec`]
/// and the fleet report stays byte-identical at any shard/thread count.
pub fn compile(
    cfg: &FleetConfig,
    plan: &DomainPlan,
    campaign: &Campaign,
    seed: u64,
) -> Result<ChaosSpec> {
    campaign.validate()?;
    let topo = topology(cfg, plan)?;
    let tick_us = (cfg.tick_s * 1e6).round() as u64;
    let horizon_us = (cfg.horizon_s * 1e6).round() as u64;
    if tick_us == 0 || horizon_us < tick_us {
        return Err(ChaosError::InvalidParameter {
            name: "tick_s/horizon_s",
            value: cfg.tick_s,
        });
    }
    let duration_us = ((campaign.duration_s * 1e6).round() as u64)
        .div_ceil(tick_us)
        .max(1)
        * tick_us;
    if duration_us >= horizon_us {
        return Err(ChaosError::InvalidParameter {
            name: "duration_s (must fit inside the horizon)",
            value: campaign.duration_s,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM ^ campaign.kind.stream());
    let mut events = Vec::with_capacity(campaign.events as usize);
    if campaign.kind == CampaignKind::RollingDrain {
        // Sequential waves covering the fleet exactly once, evenly
        // spaced over the horizon. No randomness: upgrades are planned.
        let waves = u64::from(campaign.events)
            .min(u64::from(cfg.instances))
            .max(1);
        let n = u64::from(cfg.instances);
        for w in 0..waves {
            let lo = (w * n / waves) as u32;
            let hi = ((w + 1) * n / waves) as u32;
            if hi <= lo {
                continue;
            }
            let start = snap(w * horizon_us / waves, tick_us);
            events.push(DomainEvent {
                kind: DomainEventKind::RollingDrain,
                start_us: start,
                end_us: start + duration_us,
                instances: (lo..hi).collect(),
            });
        }
        return Ok(ChaosSpec { events });
    }
    let latest_start = horizon_us - duration_us;
    for _ in 0..campaign.events {
        let start = snap(rng.random_range(0..latest_start.max(1)), tick_us);
        let (kind, instances) = match campaign.kind {
            CampaignKind::RackOutages => {
                let rack = rng.random_range(0..topo.num_racks());
                (
                    DomainEventKind::RackLoss,
                    topo.rack_instances(rack).collect(),
                )
            }
            CampaignKind::PowerDomainOutages => {
                let dom = rng.random_range(0..topo.num_power_domains());
                (
                    DomainEventKind::PowerDomainLoss,
                    topo.power_domain_instances(dom).collect(),
                )
            }
            CampaignKind::NetworkPartitions => {
                // One marker instance per partitioned cell: the engine
                // partitions the whole cell containing each listed id.
                let cell = rng.random_range(0..cfg.num_cells());
                (
                    DomainEventKind::NetworkPartition,
                    vec![cell * cfg.cell_size],
                )
            }
            CampaignKind::ThermalExcursions => {
                let rack = rng.random_range(0..topo.num_racks());
                (
                    DomainEventKind::ThermalExcursion {
                        clamp: excursion_clamp(&cfg.gpu, campaign.intensity),
                    },
                    topo.rack_instances(rack).collect(),
                )
            }
            CampaignKind::RollingDrain => unreachable!("handled above"),
        };
        events.push(DomainEvent {
            kind,
            start_us: start,
            end_us: start + duration_us,
            instances,
        });
    }
    Ok(ChaosSpec { events })
}

/// Compiles the campaign into `cfg` and runs the fleet, with whatever
/// telemetry `cfg.telemetry` asked for (availability series, trace of the
/// campaign's outages/repairs, engine profile) — the recovery-timeline
/// view the per-campaign table cannot show.
pub fn run_campaign_full(
    cfg: &FleetConfig,
    plan: &DomainPlan,
    campaign: &Campaign,
    seed: u64,
    shards: u32,
    threads: u32,
) -> Result<FleetRun> {
    let spec = compile(cfg, plan, campaign, seed)?;
    let mut c = cfg.clone();
    c.chaos = spec;
    Ok(run_sharded_full(&c, seed, shards, threads)?)
}

/// Per-tenant SLO attainment inside a [`CampaignOutcome`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantSlo {
    /// Tenant name.
    pub name: String,
    /// Priority class label.
    pub priority: String,
    /// Fraction of completed requests meeting the tenant's TTFT SLO.
    pub ttft_attainment: f64,
    /// Fraction of completed requests meeting the tenant's TBT SLO.
    pub tbt_attainment: f64,
}

/// What one fleet did under one campaign.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignOutcome {
    /// Fleet label (e.g. `"h100"` / `"lite"`).
    pub fleet: String,
    /// Instance availability over the horizon.
    pub availability: f64,
    /// Fleet-wide TTFT SLO attainment.
    pub ttft_attainment: f64,
    /// Fleet-wide TBT SLO attainment.
    pub tbt_attainment: f64,
    /// Per-tenant SLO attainment.
    pub per_tenant: Vec<TenantSlo>,
    /// Total fleet energy, joules.
    pub energy_j: u64,
    /// Energy per generated token, joules.
    pub energy_per_token_j: f64,
    /// Spares consumed (spare-pool hits) over the horizon.
    pub spares_consumed: u64,
    /// Instance-down failures, all causes.
    pub failures: u64,
    /// Failures attributed by domain kind.
    pub breakdown: FailureBreakdown,
    /// Repair jobs handed to crews.
    pub repairs_dispatched: u64,
    /// Mean wait for a free crew, seconds.
    pub repair_wait_mean_s: f64,
    /// Mean time-to-restore across completed in-place repairs, seconds.
    pub mttr_s: f64,
    /// Requests shed while cells were partitioned.
    pub partition_shed: u64,
}

/// Extracts the campaign-facing numbers from a fleet report.
pub fn outcome(fleet: &str, report: &FleetReport) -> CampaignOutcome {
    let chaos = report.chaos.as_ref();
    CampaignOutcome {
        fleet: fleet.to_string(),
        availability: report.availability,
        ttft_attainment: report.ttft_attainment,
        tbt_attainment: report.tbt_attainment,
        per_tenant: report
            .per_tenant
            .iter()
            .map(|t| TenantSlo {
                name: t.name.clone(),
                priority: t.priority.clone(),
                ttft_attainment: t.ttft_attainment,
                tbt_attainment: t.tbt_attainment,
            })
            .collect(),
        energy_j: report.energy_j,
        energy_per_token_j: report.energy_per_token_j,
        spares_consumed: report.spare_hits,
        failures: report.failures,
        breakdown: report.failure_breakdown.clone(),
        repairs_dispatched: chaos.map_or(0, |c| c.repairs_dispatched),
        repair_wait_mean_s: chaos.map_or(0.0, |c| c.repair_wait_mean_s),
        mttr_s: chaos.map_or(0.0, |c| c.mttr_s),
        partition_shed: chaos.map_or(0, |c| c.partition_shed),
    }
}

/// One campaign's results across the fleets it was run against.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosReport {
    /// Campaign kind label.
    pub campaign: String,
    /// Events scheduled.
    pub events: u32,
    /// Event window, seconds.
    pub duration_s: f64,
    /// Severity knob.
    pub intensity: f64,
    /// Campaign seed.
    pub seed: u64,
    /// One outcome per fleet, in run order.
    pub outcomes: Vec<CampaignOutcome>,
}

impl ChaosReport {
    /// Assembles a report from a campaign and its per-fleet outcomes.
    pub fn new(campaign: &Campaign, seed: u64, outcomes: Vec<CampaignOutcome>) -> Self {
        ChaosReport {
            campaign: campaign.kind.label().to_string(),
            events: campaign.events,
            duration_s: campaign.duration_s,
            intensity: campaign.intensity,
            seed,
            outcomes,
        }
    }

    /// Deterministic pretty JSON (used for byte-comparison in CI).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("chaos report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litegpu_fleet::{run, run_sharded};
    use proptest::prelude::*;

    /// Four events of ten minutes at half-strength cooling.
    fn demo(kind: CampaignKind) -> Campaign {
        Campaign {
            kind,
            events: 4,
            duration_s: 600.0,
            intensity: 0.5,
        }
    }

    fn cfg() -> FleetConfig {
        let mut c = FleetConfig::h100_demo();
        c.instances = 48;
        c.cell_size = 8;
        c.horizon_s = 1800.0;
        c.failure_acceleration = 10_000.0;
        c
    }

    #[test]
    fn compile_is_deterministic() {
        let c = cfg();
        let plan = DomainPlan::default();
        for kind in CampaignKind::ALL {
            let camp = demo(kind);
            let a = compile(&c, &plan, &camp, 7).unwrap();
            let b = compile(&c, &plan, &camp, 7).unwrap();
            assert_eq!(a, b, "{kind:?} schedule must be seed-deterministic");
            assert!(!a.events.is_empty());
        }
    }

    #[test]
    fn compiled_specs_pass_fleet_validation() {
        let c = cfg();
        let plan = DomainPlan::default();
        for kind in CampaignKind::ALL {
            let spec = compile(&c, &plan, &demo(kind), 3).unwrap();
            let mut with = c.clone();
            with.chaos = spec;
            with.validate().unwrap();
        }
    }

    #[test]
    fn rack_events_match_topology_blast_radius() {
        let c = cfg();
        let plan = DomainPlan::default();
        let topo = topology(&c, &plan).unwrap();
        let spec = compile(&c, &plan, &demo(CampaignKind::RackOutages), 11).unwrap();
        let sizes: Vec<usize> = (0..topo.num_racks())
            .map(|r| topo.rack_instances(r).len())
            .collect();
        for e in &spec.events {
            assert_eq!(e.kind, DomainEventKind::RackLoss);
            assert!(sizes.contains(&e.instances.len()));
        }
    }

    #[test]
    fn rolling_drain_covers_fleet_exactly_once() {
        let c = cfg();
        let spec = compile(
            &c,
            &DomainPlan::default(),
            &demo(CampaignKind::RollingDrain),
            1,
        )
        .unwrap();
        let mut covered: Vec<u32> = spec
            .events
            .iter()
            .flat_map(|e| e.instances.clone())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..c.instances).collect::<Vec<_>>());
        // Waves start in sequence, not all at once.
        let starts: Vec<u64> = spec.events.iter().map(|e| e.start_us).collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn thermal_clamp_tracks_cooling_headroom() {
        let h100 = litegpu_specs::catalog::h100();
        let lite = litegpu_specs::catalog::lite_base();
        let (ch, cl) = (excursion_clamp(&h100, 0.5), excursion_clamp(&lite, 0.5));
        // H100 runs near its cooling class ceiling and clamps hard; Lite
        // has forced-air headroom and rides a half-strength excursion out.
        assert!(ch < 0.9, "H100 clamp {ch}");
        assert!((cl - 1.0).abs() < 1e-12, "Lite clamp {cl}");
        // Severity is monotone.
        assert!(excursion_clamp(&h100, 0.3) < ch);
        // Sub-idle derated limits floor out instead of erroring.
        assert_eq!(excursion_clamp(&h100, 0.01), MIN_CLAMP);
    }

    #[test]
    fn campaigns_run_and_report() {
        let mut c = cfg();
        c.workload = litegpu_fleet::WorkloadSpec::multi_tenant_demo(1.0);
        let camp = Campaign {
            kind: CampaignKind::RackOutages,
            events: 3,
            duration_s: 300.0,
            intensity: 0.5,
        };
        let report = run_campaign_full(&c, &DomainPlan::default(), &camp, 5, 2, 2)
            .unwrap()
            .report;
        let chaos = report
            .chaos
            .as_ref()
            .expect("campaign runs carry a chaos section");
        assert!(
            report.failure_breakdown.rack > 0,
            "rack losses must be attributed"
        );
        assert!(chaos.repairs_dispatched > 0);
        let out = outcome("h100", &report);
        assert_eq!(out.failures, report.failures);
        assert_eq!(out.per_tenant.len(), 3);
        let rep = ChaosReport::new(&camp, 5, vec![out]);
        assert!(rep.to_json().contains("\"rack\""));
    }

    #[test]
    fn invalid_campaigns_rejected() {
        let c = cfg();
        let plan = DomainPlan::default();
        let mut camp = demo(CampaignKind::RackOutages);
        camp.events = 0;
        assert!(compile(&c, &plan, &camp, 1).is_err());
        let mut camp = demo(CampaignKind::RackOutages);
        camp.duration_s = c.horizon_s * 2.0;
        assert!(compile(&c, &plan, &camp, 1).is_err());
        let mut camp = demo(CampaignKind::ThermalExcursions);
        camp.intensity = 0.0;
        assert!(compile(&c, &plan, &camp, 1).is_err());
        let mut plan_bad = plan;
        plan_bad.rack_kw = -1.0;
        assert!(topology(&c, &plan_bad).is_err());
    }

    proptest! {
        #[test]
        fn chaos_reports_stay_shard_invariant(
            seed in 0u64..50,
            kind_idx in 0usize..5,
        ) {
            let mut c = cfg();
            c.horizon_s = 600.0;
            let camp = Campaign {
                kind: CampaignKind::ALL[kind_idx],
                events: 2,
                duration_s: 120.0,
                intensity: 0.5,
            };
            let spec = compile(&c, &DomainPlan::default(), &camp, seed).unwrap();
            c.chaos = spec;
            let base = run(&c, seed).unwrap().to_json();
            let sharded = run_sharded(&c, seed, 3, 2).unwrap().to_json();
            prop_assert_eq!(base, sharded);
        }
    }
}
