//! Deterministic observability primitives for the fleet simulator.
//!
//! Three layers, matching what the engine wires in:
//!
//! - [`series`]: integer time-series metrics ([`SeriesRecorder`]) sampled
//!   on a fixed integer-µs cadence inside the shard partition. Samples
//!   are derived purely from simulation state at integer timestamps and
//!   merge by elementwise addition, so the exported JSONL/CSV bytes are
//!   shard/thread-invariant — the same guarantee the `FleetReport`
//!   carries.
//! - [`trace`]: structured event export ([`TraceEvent`]) in Chrome
//!   trace-event JSON, openable directly in Perfetto or
//!   `chrome://tracing`. Events carry deterministic identities (RNG-free
//!   span ids) and are totally ordered before rendering, so trace bytes
//!   are shard/thread-invariant too.
//! - [`profile`]: engine self-profiling ([`PhaseProfile`]) — per-phase
//!   wall-clock nanoseconds. Explicitly *not* deterministic (it measures
//!   the host), and therefore kept out of every determinism-diffed
//!   artifact; it feeds `BENCH_fleet.json` only.
//!
//! The crate is dependency-free: all exports are hand-built JSON over
//! integers, and [`trace::validate_json`] is a small self-contained
//! well-formedness checker used by the schema tests.

pub mod profile;
pub mod series;
pub mod trace;

pub use profile::{PhaseProfile, PHASES};
pub use series::{Metric, MetricId, MetricKind, SeriesRecorder};
pub use trace::{render_chrome_trace, validate_json, Ph, SpanSampler, TraceEvent};
