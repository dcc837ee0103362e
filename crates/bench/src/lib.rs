//! Shared plumbing for the experiment binaries: artifact output under
//! `target/experiments/`, the silicon-equal fleet pairs, and the fleet
//! bins' declared flags ([`flags!`], [`cli`]).

use std::path::PathBuf;

/// Directory where experiment binaries drop machine-readable artifacts.
pub fn experiments_dir() -> PathBuf {
    let mut p =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()));
    p.push("experiments");
    p
}

/// Writes `contents` to `target/experiments/<name>`. Artifact output
/// is best-effort: a failure is ignored.
fn save_experiment(name: &str, contents: &str) {
    let dir = experiments_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(name), contents);
    }
}

/// Prints an experiment to stdout and writes companion artifacts
/// (`<id>.txt` plus any `(name, contents)` extras such as JSON or SVG).
pub fn emit(exp: &litegpu::experiments::Experiment, extras: &[(String, String)]) {
    println!("=== {} ===\n{}", exp.title, exp.output);
    save_experiment(&format!("{}.txt", exp.id), &exp.output);
    for (name, contents) in extras {
        save_experiment(name, contents);
    }
}

/// Renders Figure 3a or 3b as a grouped bar chart of normalized
/// tokens/s/SM per model and GPU type titled `svg_title`, and emits the
/// figure's text, JSON and SVG, each named after its id.
pub fn emit_fig3(
    fig: &litegpu_roofline::figures::Figure3,
    exp: &litegpu::experiments::Experiment,
    svg_title: &str,
) {
    let series: Vec<(String, Vec<f64>)> = fig
        .gpu_types
        .iter()
        .map(|g| {
            (
                g.clone(),
                fig.models
                    .iter()
                    .map(|m| fig.point(m, g).map(|p| p.normalized).unwrap_or(0.0))
                    .collect(),
            )
        })
        .collect();
    let svg =
        litegpu_plot::svg::grouped_bar_svg(svg_title, &fig.models, &series).unwrap_or_default();
    emit(
        exp,
        &[
            (format!("{}.json", exp.id), to_json(fig)),
            (format!("{}.svg", exp.id), svg),
        ],
    );
}

/// Serializes any serde value to pretty JSON (best-effort).
pub fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Writes a user-requested artifact (`--series`, `--trace`,
/// `--perf-json`, ...), exiting non-zero with a clean diagnostic when
/// the path is unwritable — a requested artifact that silently fails to
/// appear breaks the CI contract downstream.
pub fn write_artifact(what: &str, path: &str, bytes: &str) {
    match std::fs::write(path, bytes) {
        Ok(()) => eprintln!("# {what}: wrote {path}"),
        Err(e) => {
            eprintln!("{what} {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The silicon-equal H100-vs-Lite fleet pairs the experiment binaries
/// compare, built in one place instead of copy-pasted per binary.
///
/// Two constructions exist:
/// - the *demo* pairs ([`demo_pair`], [`ctrl_demo_pair`]): the fleet
///   engine's tensor-parallel Llama3-70B demo fleets with the
///   §3-appropriate power policy per GPU type;
/// - the *single-GPU* pair ([`pair_designs`], [`pair_configs`]): N
///   single-GPU Llama3-8B H100 instances in 8-wide cells with one spare
///   vs 4N Lite instances in 32-wide cells with four spares at a quarter
///   of the per-instance rate — the same silicon, demand and rack shape,
///   expressed as `litegpu_tco` design points so the chaos binary and
///   the TCO sweep study literally the same candidates.
///
/// [`demo_pair`]: fleet_pair::demo_pair
/// [`ctrl_demo_pair`]: fleet_pair::ctrl_demo_pair
/// [`pair_designs`]: fleet_pair::pair_designs
/// [`pair_configs`]: fleet_pair::pair_configs
pub mod fleet_pair {
    use litegpu_cluster::power_mgmt::Policy;
    use litegpu_fleet::FleetConfig;
    pub use litegpu_tco::{DesignPoint, SweepBase};

    /// The demo fleets with their §3 auto policies: H100 parks at the
    /// DVFS idle floor, Lite power-gates per unit.
    pub fn demo_pair() -> [(&'static str, FleetConfig, Policy); 2] {
        [
            ("h100", FleetConfig::h100_demo(), Policy::DvfsAll),
            ("lite", FleetConfig::lite_demo(), Policy::GateToEfficiency),
        ]
    }

    /// The controlled demo fleets (autoscaler + router + power policy
    /// already attached).
    pub fn ctrl_demo_pair() -> [(&'static str, FleetConfig); 2] {
        [
            ("h100", FleetConfig::h100_ctrl_demo()),
            ("lite", FleetConfig::lite_ctrl_demo()),
        ]
    }

    /// The canonical silicon-equal pair as TCO design points: die
    /// divisor 1 vs 4, 8-equivalent cells, one spare equivalent,
    /// monolithic serving, no DVFS.
    pub fn pair_designs() -> [(&'static str, DesignPoint); 2] {
        let base = DesignPoint {
            die_divisor: 1,
            cell_units: 8,
            spare_units: 1,
            split: false,
            dvfs: false,
        };
        [
            ("h100", base),
            (
                "lite",
                DesignPoint {
                    die_divisor: 4,
                    ..base
                },
            ),
        ]
    }

    /// The canonical pair as runnable fleet configurations over a sweep
    /// base. `controlled` keeps the divisor-appropriate control plane;
    /// the chaos binary strips it to study the fixed fleet.
    pub fn pair_configs(base: &SweepBase, controlled: bool) -> [(&'static str, FleetConfig); 2] {
        pair_designs().map(|(name, design)| {
            let mut cfg = design
                .fleet_config(base)
                .expect("the canonical pair is a valid design");
            if !controlled {
                cfg.ctrl = None;
            }
            (name, cfg)
        })
    }
}

/// Declares a struct of command-line flags for [`cli::parse`], one line
/// per flag:
///
/// ```text
/// field: Type = "--name" "PLACEHOLDER" "default" [smoke "value"] "help",
/// ```
///
/// then one line per embedded group of flags, `..field: Group,`. An
/// empty placeholder makes a switch; a placeholder `a|b|c` accepts only
/// those values. An empty default leaves the field at its `Default`.
/// `smoke` gives the value `--smoke` sets. The parser and `--help` both
/// read this one declaration.
#[macro_export]
macro_rules! flags {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($field:ident: $ty:ty = $flag:literal $value:literal $default:literal
            $(smoke $smoke:literal)? $help:literal,)*
        $(..$group:ident: $group_ty:ty,)*
    }) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $name {
            $(#[doc = $help] pub $field: $ty,)*
            $(#[doc = "An embedded group of flags."] pub $group: $group_ty,)*
        }

        impl $crate::cli::Flags for $name {
            fn visit(&mut self, f: &mut dyn FnMut(&$crate::cli::Flag, &mut dyn $crate::cli::Value)) {
                $(f(
                    &$crate::cli::Flag {
                        name: $flag,
                        value: $value,
                        default: $default,
                        smoke: None$(.or(Some($smoke)))?,
                        help: $help,
                    },
                    &mut self.$field,
                );)*
                $($crate::cli::Flags::visit(&mut self.$group, f);)*
            }
        }
    };
}

/// The fleet bins' command line: the parser and `--help` for structs
/// declared with [`flags!`](crate::flags), the value types they parse
/// into, and the flag groups `sim_fleet`, `sim_ctrl`, `sim_chaos` and
/// `sim_tco` share. A bad argument exits with status 2, a failed run
/// with status 1.
pub mod cli {
    use litegpu_fleet::ctrl::BalancerConfig;
    use litegpu_fleet::{
        run_sharded_full, FleetConfig, FleetRun, ServingMode, TelemetryConfig, WorkloadSpec,
    };

    /// One declared flag.
    pub struct Flag {
        /// The flag itself, `--name`.
        pub name: &'static str,
        /// Value placeholder; empty for a switch. A placeholder `a|b|c`
        /// lists the only values accepted.
        pub value: &'static str,
        /// Default value, parsed like one given on the command line;
        /// empty for none.
        pub default: &'static str,
        /// The value `--smoke` sets, if any.
        pub smoke: Option<&'static str>,
        /// One-line description for `--help`.
        pub help: &'static str,
    }

    /// A field a flag parses into.
    pub trait Value {
        /// Parses `raw` (empty for a switch) into the field, or returns
        /// the message to exit with.
        fn set(&mut self, flag: &Flag, raw: &str) -> Result<(), String>;
    }

    /// A struct of flags, declared with [`flags!`](crate::flags).
    pub trait Flags: Default {
        /// Calls `f` with each declared flag and the field it fills, in
        /// declaration order, embedded groups last.
        fn visit(&mut self, f: &mut dyn FnMut(&Flag, &mut dyn Value));
    }

    fn parse_value<T: std::str::FromStr>(flag: &Flag, raw: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("invalid value for {}: {raw}", flag.name))
    }

    macro_rules! from_str_value {
        ($($t:ty),*) => {$(
            impl Value for $t {
                fn set(&mut self, flag: &Flag, raw: &str) -> Result<(), String> {
                    *self = parse_value(flag, raw)?;
                    Ok(())
                }
            }
        )*};
    }
    from_str_value!(u16, u32, u64, f64);

    /// A switch: present means `true`.
    impl Value for bool {
        fn set(&mut self, _: &Flag, _: &str) -> Result<(), String> {
            *self = true;
            Ok(())
        }
    }

    /// Any text, or one of the placeholder's `a|b|c` choices.
    impl Value for String {
        fn set(&mut self, flag: &Flag, raw: &str) -> Result<(), String> {
            if flag.value.contains('|') && !flag.value.split('|').any(|c| c == raw) {
                return Err(format!(
                    "unknown {} {raw} (expected {})",
                    flag.name, flag.value
                ));
            }
            *self = raw.to_string();
            Ok(())
        }
    }

    /// A flag with no default: `None` until given.
    impl<T: Value + Default> Value for Option<T> {
        fn set(&mut self, flag: &Flag, raw: &str) -> Result<(), String> {
            self.insert(T::default()).set(flag, raw)
        }
    }

    /// `--series-dt`: a positive integer number of **simulated
    /// microseconds** per series sample window (e.g. `60000000` = 60 s
    /// windows), the unit of the engine's
    /// `TelemetryConfig::series_dt_us`.
    #[derive(Default)]
    pub struct SeriesDt(pub u64);

    impl Value for SeriesDt {
        fn set(&mut self, flag: &Flag, raw: &str) -> Result<(), String> {
            let us: u64 = raw.parse().map_err(|_| {
                format!(
                    "invalid value for {}: {raw} (expected integer µs of simulated time)",
                    flag.name
                )
            })?;
            if us == 0 {
                return Err(format!("{} must be >= 1 µs of simulated time", flag.name));
            }
            self.0 = us;
            Ok(())
        }
    }

    /// `--skew HxM`: the first `hot` cells at `mult`x their arrival rate
    /// (see [`skew_multipliers`]).
    #[derive(Default)]
    pub struct Skew {
        /// Hot cells, counted from cell 0.
        pub hot: u32,
        /// The hot cells' rate multiplier, at least 1.
        pub mult: f64,
    }

    impl Value for Skew {
        fn set(&mut self, flag: &Flag, raw: &str) -> Result<(), String> {
            let (hot, mult) = raw.split_once('x').ok_or_else(|| {
                format!(
                    "invalid value for {}: {raw} (expected HxM, e.g. 2x2.5)",
                    flag.name
                )
            })?;
            self.hot = parse_value(flag, hot)?;
            self.mult = parse_value(flag, mult)?;
            if !(self.mult.is_finite() && self.mult >= 1.0) {
                return Err(format!("{} hot multiplier must be >= 1", flag.name));
            }
            Ok(())
        }
    }

    /// The flags given on the command line.
    pub struct Given(pub(crate) Vec<&'static str>);

    impl Given {
        /// Warns (stderr only) about each flag of group `G` that was
        /// given although it is ignored in `context`. Never changes
        /// behavior or artifact bytes.
        pub fn warn_ignored<G: Flags>(&self, context: &str) {
            G::default().visit(&mut |flag, _| {
                if self.0.contains(&flag.name) {
                    eprintln!("# warning: {} is ignored {context}", flag.name);
                }
            });
        }
    }

    /// Prints `message` and exits 2, the status of a bad command line.
    pub fn fail(message: String) -> ! {
        eprintln!("{message}");
        std::process::exit(2);
    }

    /// A flag's default: the bin's override in `defaults`, else the
    /// declared one.
    fn default_of<'a>(flag: &'a Flag, defaults: &[(&str, &'a str)]) -> &'a str {
        defaults
            .iter()
            .find(|(name, _)| *name == flag.name)
            .map_or(flag.default, |&(_, value)| value)
    }

    /// Parses this process's arguments into `T`; see [`parse_args`].
    pub fn parse<T: Flags>(defaults: &[(&str, &str)]) -> (T, Given) {
        let argv: Vec<String> = std::env::args().collect();
        parse_args(&argv, defaults)
    }

    /// Parses `argv` (the program name first) into `T`. Every flag
    /// starts at its default, where `defaults` overrides the declared
    /// ones by name; then each argument sets its flag in order, so a
    /// later flag overrides an earlier one. `--smoke`, in a struct that
    /// declares smoke values, sets each of them where it stands.
    /// `--help` prints the usage on stdout and exits 0; an unknown
    /// flag, a missing value or a bad value exits 2.
    pub fn parse_args<T: Flags>(argv: &[String], defaults: &[(&str, &str)]) -> (T, Given) {
        let mut args = T::default();
        args.visit(&mut |flag, field| {
            let default = default_of(flag, defaults);
            if !default.is_empty() {
                field.set(flag, default).expect("declared defaults parse");
            }
        });
        let mut given = Vec::new();
        let mut i = 1;
        while i < argv.len() {
            let arg = argv[i].as_str();
            if arg == "--help" {
                print!("{}", usage::<T>(&argv[0], defaults));
                std::process::exit(0);
            }
            let mut known = false;
            args.visit(&mut |flag, field| {
                let raw = if arg == flag.name {
                    given.push(flag.name);
                    if flag.value.is_empty() {
                        ""
                    } else {
                        i += 1;
                        match argv.get(i) {
                            Some(raw) => raw.as_str(),
                            None => fail(format!("missing value for {arg}")),
                        }
                    }
                } else if let (Some(raw), "--smoke") = (flag.smoke, arg) {
                    raw
                } else {
                    return;
                };
                known = true;
                field.set(flag, raw).unwrap_or_else(|e| fail(e));
            });
            if !known {
                fail(format!("unknown argument: {arg}"));
            }
            i += 1;
        }
        (args, Given(given))
    }

    /// The `--help` text: one line per declared flag with its
    /// placeholder, default, smoke value and help.
    fn usage<T: Flags>(program: &str, defaults: &[(&str, &str)]) -> String {
        let bin = std::path::Path::new(program)
            .file_name()
            .map_or(program.into(), |name| name.to_string_lossy());
        let mut out = format!("usage: {bin} [FLAG]...\n");
        let mut smoke = false;
        let mut line = |usage: &str, help: &str| out += &format!("  {usage:<26}  {help}\n");
        T::default().visit(&mut |flag, _| {
            let mut help = flag.help.to_string();
            let default = default_of(flag, defaults);
            if !default.is_empty() {
                help += &format!(" (default {default})");
            }
            if let Some(value) = flag.smoke {
                smoke = true;
                help += &format!(" (--smoke {value})");
            }
            line(format!("{} {}", flag.name, flag.value).trim_end(), &help);
        });
        if smoke {
            line("--smoke", "set the --smoke values above, in place");
        }
        out
    }

    crate::flags! {
        /// Seed, worker threads and the report on stdout: every fleet
        /// bin.
        pub struct Run {
            seed: u64 = "--seed" "N" "42" "simulation seed",
            threads: u32 = "--threads" "N" "0" "worker threads; 0 is every available core",
            quiet_json: bool = "--quiet-json" "" "" "report JSON to target/experiments/ only",
        }
    }

    impl Run {
        /// The worker threads: `--threads`, or every available core.
        pub fn threads(&self) -> u32 {
            if self.threads > 0 {
                self.threads
            } else {
                std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
            }
        }

        /// Prints a report's JSON on stdout unless `--quiet-json`, and
        /// writes it to `target/experiments/<file>` (best-effort).
        pub fn emit_json(&self, file: &str, json: &str) {
            if !self.quiet_json {
                println!("{json}");
            }
            crate::save_experiment(file, json);
        }
    }

    crate::flags! {
        /// The sharded engine's layout and series window: `sim_fleet`,
        /// `sim_ctrl` and `sim_chaos`.
        pub struct Engine {
            shards: u32 = "--shards" "N" "0" "shards; 0 is one per repair cell",
            series_dt: SeriesDt = "--series-dt" "US" "60000000" "series window, simulated µs",
            ..run: Run,
        }
    }

    impl Engine {
        /// `(shards, threads)` for `cfg`: `--shards`, or one shard per
        /// repair cell (the engine's natural partition), and
        /// [`Run::threads`].
        pub fn layout(&self, cfg: &FleetConfig) -> (u32, u32) {
            let shards = if self.shards > 0 {
                self.shards
            } else {
                cfg.num_cells()
            };
            (shards, self.run.threads())
        }

        /// Runs `cfg` on [`Engine::layout`] and returns the run with its
        /// wall time in seconds; exits 1 with `{what}: {error}` if the
        /// run fails.
        pub fn run_fleet(&self, what: &str, cfg: &FleetConfig) -> (FleetRun, f64) {
            let (shards, threads) = self.layout(cfg);
            let start = std::time::Instant::now();
            let run = or_exit(what, run_sharded_full(cfg, self.run.seed, shards, threads));
            (run, start.elapsed().as_secs_f64())
        }

        /// The telemetry that records the series every `--series-dt`
        /// when `series` is on, and nothing otherwise.
        pub fn telemetry(&self, series: bool) -> TelemetryConfig {
            TelemetryConfig {
                series_dt_us: if series { self.series_dt.0 } else { 0 },
                ..TelemetryConfig::default()
            }
        }
    }

    /// Unwraps a run's result, or exits 1 with `{what}: {error}`.
    pub fn or_exit<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
        result.unwrap_or_else(|e| {
            eprintln!("{what}: {e}");
            std::process::exit(1);
        })
    }

    crate::flags! {
        /// The fleet shape `sim_fleet` and `sim_ctrl` both map onto a
        /// [`FleetConfig`] ([`Shape::apply`]).
        pub struct Shape {
            instances: u32 = "--instances" "N" "1000" "instances per fleet",
            hours: f64 = "--hours" "H" "24" "simulated horizon, hours",
            rate: f64 = "--rate" "R" "1.5" "base request rate per instance, req/s",
            accel: f64 = "--accel" "A" "200" "failure-rate acceleration",
            cell_size: u32 = "--cell-size" "N" "20" "instances per repair cell",
            tick: f64 = "--tick" "S" "1" "simulation tick, seconds",
            workload: String = "--workload" "single|multi" "single" "one or three demo tenants",
            serving: String = "--serving" "mono|split" "mono" "monolithic, or prefill/decode pools",
            ..ctrl: CtrlKnobs,
        }
    }

    crate::flags! {
        /// Knobs of a cell control plane, ignored on a fleet without one.
        pub struct CtrlKnobs {
            control_interval: f64 = "--control-interval" "S" "5" "seconds between control ticks",
            warm_pool: u32 = "--warm-pool" "N" "1" "parked instances kept warm per cell",
        }
    }

    impl Shape {
        /// Maps the shape onto `cfg`: size, horizon, workload, failure
        /// acceleration, cells, tick, phase-split serving with the demo
        /// defaults, and the knobs of the control plane `cfg` carries.
        pub fn apply(&self, cfg: &mut FleetConfig) {
            cfg.instances = self.instances;
            cfg.horizon_s = self.hours * 3600.0;
            cfg.workload = match self.workload.as_str() {
                "multi" => WorkloadSpec::multi_tenant_demo(self.rate),
                _ => WorkloadSpec::diurnal_demo(self.rate),
            };
            cfg.failure_acceleration = self.accel;
            cfg.cell_size = self.cell_size;
            cfg.tick_s = self.tick;
            if self.serving == "split" {
                cfg.serving = ServingMode::split_demo(&cfg.gpu, cfg.gpus_per_instance);
            }
            if let Some(ctrl) = cfg.ctrl.as_mut() {
                ctrl.control_interval_s = self.ctrl.control_interval;
                if let Some(power) = ctrl.power.as_mut() {
                    power.warm_pool = self.ctrl.warm_pool;
                }
            }
        }
    }

    crate::flags! {
        /// The fleet-scope spill-over balancer and demand skew: every
        /// fleet bin.
        pub struct Balancer {
            balancer: bool = "--balancer" "" "" "add the fleet-scope spill-over balancer",
            skew: Option<Skew> = "--skew" "HxM" "" "first H cells at M x rate, same fleet demand",
            ..knobs: BalancerKnobs,
        }
    }

    crate::flags! {
        /// Overrides of [`BalancerConfig`]'s defaults; each needs
        /// `--balancer`.
        pub struct BalancerKnobs {
            interval_s: Option<f64> = "--balancer-interval" "S" "" "seconds between fleet ticks",
            spill_permille: Option<u16> = "--spill-permille" "N" "" "spill cap, permille",
            hot_factor: Option<f64> = "--hot-factor" "F" "" "hot threshold, x the fleet-mean queue",
            quota_headroom: Option<f64> = "--quota-headroom" "F" "" "admission quota headroom",
            kv_slack_us: Option<u64> = "--kv-slack-us" "N" "" "KV slack a split spill needs, µs",
        }
    }

    impl Balancer {
        /// The balancer configuration the knob flags resolve to.
        pub fn config(&self) -> BalancerConfig {
            let (k, mut b) = (&self.knobs, BalancerConfig::default());
            b.interval_s = k.interval_s.unwrap_or(b.interval_s);
            b.spill_permille = k.spill_permille.unwrap_or(b.spill_permille);
            b.hot_factor = k.hot_factor.unwrap_or(b.hot_factor);
            b.quota_headroom = k.quota_headroom.unwrap_or(b.quota_headroom);
            b.kv_slack_us = k.kv_slack_us.unwrap_or(b.kv_slack_us);
            b
        }

        /// Applies the skew multipliers and (with `--balancer`) attaches
        /// the fleet-scope balancer on top of whatever cell-scope control
        /// the config already carries. Call after the instance count and
        /// cell size are final — the multiplier vector is sized to
        /// `num_cells()`. Prints nothing: sweeps call it per design from
        /// several threads.
        pub fn apply(&self, cfg: &mut FleetConfig) {
            if let Some(skew) = &self.skew {
                cfg.cell_rate_multipliers = skew_multipliers(cfg.num_cells(), skew.hot, skew.mult);
            }
            if self.balancer {
                let ctrl = cfg.ctrl.take().unwrap_or_default();
                cfg.ctrl = Some(ctrl.with_balancer(self.config()));
            }
        }

        /// Warns (stderr only) about knob flags given without
        /// `--balancer`, which would otherwise be silently ignored.
        pub fn warn_if_ignored(&self, given: &Given) {
            if !self.balancer {
                given.warn_ignored::<BalancerKnobs>("without --balancer");
            }
        }
    }

    /// The hot/cold multiplier vector for `--skew HxM`: the first `hot`
    /// cells at `mult`x, the remainder scaled so the fleet-total arrival
    /// rate matches the unskewed fleet exactly (clamped at 0 when the
    /// hot cells already exceed it).
    pub fn skew_multipliers(num_cells: u32, hot: u32, mult: f64) -> Vec<f64> {
        let n = num_cells as usize;
        let hot = (hot as usize).min(n);
        let cold = n - hot;
        let cold_mult = if cold == 0 {
            0.0
        } else {
            ((n as f64 - hot as f64 * mult) / cold as f64).max(0.0)
        };
        let mut m = vec![mult; hot];
        m.resize(n, cold_mult);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_ends_with_experiments() {
        assert!(experiments_dir().ends_with("experiments"));
    }

    #[test]
    fn json_serializes() {
        let s = to_json(&vec![1, 2, 3]);
        assert!(s.contains('1'));
    }

    #[test]
    fn pair_configs_are_silicon_equal() {
        let base = fleet_pair::SweepBase {
            equiv_instances: 24,
            rate_per_equiv: 2.0,
            hours: 0.5,
            accel: 10_000.0,
        };
        let [(hn, h), (ln, l)] = fleet_pair::pair_configs(&base, false);
        assert_eq!((hn, ln), ("h100", "lite"));
        assert_eq!((h.gpu.name.as_str(), l.gpu.name.as_str()), ("H100", "Lite"));
        // 4x the instances at 1/4 the capability, same cells and spare
        // silicon, same total demand, no control plane.
        assert_eq!((h.instances, l.instances), (24, 96));
        assert_eq!((h.cell_size, l.cell_size), (8, 32));
        assert_eq!((h.spares_per_cell, l.spares_per_cell), (1, 4));
        assert_eq!(h.num_cells(), l.num_cells());
        assert_eq!(h.gpus_per_instance, 1);
        assert!(h.ctrl.is_none() && l.ctrl.is_none());
        assert!(
            (h.workload.rate_per_instance_s - 4.0 * l.workload.rate_per_instance_s).abs() < 1e-12
        );
        // The controlled variant keeps the divisor-appropriate policies.
        let [(_, hc), (_, lc)] = fleet_pair::pair_configs(&base, true);
        use litegpu_cluster::power_mgmt::Policy;
        assert_eq!(hc.ctrl.unwrap().power.unwrap().policy, Policy::DvfsAll);
        assert_eq!(
            lc.ctrl.unwrap().power.unwrap().policy,
            Policy::GateToEfficiency
        );
    }

    #[test]
    fn skew_multipliers_conserve_fleet_demand() {
        let m = cli::skew_multipliers(8, 2, 2.5);
        assert_eq!(m.len(), 8);
        assert_eq!(&m[..2], &[2.5, 2.5]);
        assert!(m[2..].iter().all(|&c| (c - 0.5).abs() < 1e-12));
        assert!((m.iter().sum::<f64>() - 8.0).abs() < 1e-12);
        // Overcommitted hot cells clamp the cold remainder at zero.
        let m = cli::skew_multipliers(4, 3, 2.0);
        assert_eq!(m, vec![2.0, 2.0, 2.0, 0.0]);
        // All-hot leaves no cold remainder to scale.
        assert_eq!(cli::skew_multipliers(2, 5, 3.0), vec![3.0, 3.0]);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        std::iter::once("bin")
            .chain(args.iter().copied())
            .map(String::from)
            .collect()
    }

    crate::flags! {
        /// A struct with every kind of field the parser fills.
        struct Probe {
            count: u32 = "--count" "N" "7" smoke "1" "a number",
            mode: String = "--mode" "a|b" "a" smoke "b" "a choice",
            path: Option<String> = "--path" "PATH" "" "optional text",
            on: bool = "--on" "" "" "a switch",
            ..shape: cli::Shape,
        }
    }

    #[test]
    fn flags_parse_in_order_from_their_defaults() {
        let (p, _) = cli::parse_args::<Probe>(&argv(&[]), &[("--instances", "500")]);
        assert_eq!(
            (p.count, p.mode.as_str(), p.path, p.on),
            (7, "a", None, false)
        );
        assert_eq!((p.shape.instances, p.shape.rate), (500, 1.5));
        assert_eq!(p.shape.ctrl.warm_pool, 1);
        // A later flag overrides an earlier one, and --smoke sets its
        // values where it stands.
        let (p, given) = cli::parse_args::<Probe>(
            &argv(&[
                "--count", "3", "--smoke", "--mode", "a", "--path", "x", "--on",
            ]),
            &[],
        );
        assert_eq!((p.count, p.mode.as_str()), (1, "a"));
        assert_eq!((p.path.as_deref(), p.on), (Some("x"), true));
        let (p, _) = cli::parse_args::<Probe>(&argv(&["--smoke", "--count", "3"]), &[]);
        assert_eq!((p.count, p.mode.as_str()), (3, "b"));
        // Only flags given by name count as given.
        assert_eq!(given.0, ["--count", "--mode", "--path", "--on"]);
    }

    #[test]
    fn bad_values_name_their_flag() {
        let flag = |name, value| cli::Flag {
            name,
            value,
            default: "",
            smoke: None,
            help: "",
        };
        let mut n = 0u32;
        assert_eq!(
            cli::Value::set(&mut n, &flag("--n", "N"), "x"),
            Err("invalid value for --n: x".to_string())
        );
        let mut s = String::new();
        assert_eq!(
            cli::Value::set(&mut s, &flag("--mode", "a|b"), "c"),
            Err("unknown --mode c (expected a|b)".to_string())
        );
        let mut dt = cli::SeriesDt::default();
        assert!(cli::Value::set(&mut dt, &flag("--series-dt", "US"), "0").is_err());
        let mut skew = cli::Skew::default();
        for bad in ["2", "2x0.5", "ax2"] {
            assert!(cli::Value::set(&mut skew, &flag("--skew", "HxM"), bad).is_err());
        }
    }

    #[test]
    fn balancer_flags_resolve_config_and_attach() {
        let (b, _) = cli::parse_args::<cli::Balancer>(
            &argv(&["--balancer", "--spill-permille", "450", "--skew", "2x2.5"]),
            &[],
        );
        assert!(b.balancer);
        assert_eq!(b.config().spill_permille, 450);
        let mut cfg = litegpu_fleet::FleetConfig::lite_demo();
        cfg.instances = 64;
        cfg.cell_size = 8;
        b.apply(&mut cfg);
        assert_eq!(cfg.cell_rate_multipliers, cli::skew_multipliers(8, 2, 2.5));
        let ctrl = cfg.ctrl.expect("balancer attaches a control plane");
        assert_eq!(ctrl.balancer.expect("balancer set").spill_permille, 450);
        assert_eq!(ctrl.label(), "balancer");
    }

    #[test]
    fn engine_layout_defaults_resolve() {
        let cfg = litegpu_fleet::FleetConfig::h100_demo();
        let (engine, _) = cli::parse_args::<cli::Engine>(&argv(&[]), &[]);
        let (shards, threads) = engine.layout(&cfg);
        assert_eq!(shards, cfg.num_cells());
        assert!(threads >= 1);
        let (engine, _) =
            cli::parse_args::<cli::Engine>(&argv(&["--shards", "5", "--threads", "3"]), &[]);
        assert_eq!(engine.layout(&cfg), (5, 3));
    }
}
