//! Deterministic time-series metrics over fixed integer-µs windows.
//!
//! A [`SeriesRecorder`] holds named metrics, each a vector with one `u64`
//! value per sample window. Gauges accumulate state read at the window's
//! sample instant (summing across cells gives the fleet-wide value);
//! counters accumulate per-window deltas of monotone totals. Both merge
//! across shards by elementwise addition keyed on a `BTreeMap`, so the
//! merged recorder — and the JSONL/CSV bytes rendered from it — is
//! identical for any shard/thread partition.

use std::collections::BTreeMap;
use std::fmt::Write;

/// How a metric's per-window values combine and read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// State sampled at the window's end instant (e.g. queue depth).
    Gauge,
    /// Events counted within the window (e.g. arrivals).
    Counter,
}

impl MetricKind {
    /// Stable lowercase label for export headers.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Gauge => "gauge",
            MetricKind::Counter => "counter",
        }
    }
}

/// One named series: a kind plus one value per sample window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Gauge or counter.
    pub kind: MetricKind,
    /// One value per window, index `w` covering
    /// `(w·dt_us, (w+1)·dt_us]` of simulated time.
    pub values: Vec<u64>,
}

/// A stable handle to one metric of a [`SeriesRecorder`], for hot paths
/// that sample the same metrics every window: resolve the name once with
/// [`SeriesRecorder::id`], then accumulate by index with
/// [`SeriesRecorder::add_at`] — no per-sample string formatting or map
/// lookup. Ids are only meaningful for the recorder that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// A set of named integer time series over a fixed window grid.
///
/// Names resolve through a `BTreeMap` index into a dense metric vector,
/// so exports iterate lexicographically (shard-invariant bytes) while
/// id-based accumulation is an array index.
#[derive(Debug, Clone)]
pub struct SeriesRecorder {
    dt_us: u64,
    windows: usize,
    index: BTreeMap<String, usize>,
    metrics: Vec<Metric>,
}

/// Equality is semantic — the same named series with the same values —
/// not registration order, so recorders merged in different shard orders
/// still compare equal.
impl PartialEq for SeriesRecorder {
    fn eq(&self, other: &Self) -> bool {
        self.dt_us == other.dt_us
            && self.windows == other.windows
            && self.index.len() == other.index.len()
            && self
                .sorted()
                .zip(other.sorted())
                .all(|((an, am), (bn, bm))| an == bn && am == bm)
    }
}

impl SeriesRecorder {
    /// Creates a recorder with `windows` sample windows of `dt_us`
    /// microseconds each.
    pub fn new(dt_us: u64, windows: usize) -> Self {
        Self {
            dt_us: dt_us.max(1),
            windows,
            index: BTreeMap::new(),
            metrics: Vec::new(),
        }
    }

    /// Metrics in export (lexicographic) order.
    fn sorted(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.index
            .iter()
            .map(|(n, &i)| (n.as_str(), &self.metrics[i]))
    }

    /// Resolves (registering on first touch) the [`MetricId`] for
    /// `name`; `kind` must stay consistent across touches.
    pub fn id(&mut self, name: &str, kind: MetricKind) -> MetricId {
        if let Some(&i) = self.index.get(name) {
            debug_assert_eq!(
                self.metrics[i].kind, kind,
                "metric {name} re-registered with a different kind"
            );
            return MetricId(i);
        }
        let i = self.metrics.len();
        self.index.insert(name.to_string(), i);
        self.metrics.push(Metric {
            kind,
            values: vec![0; self.windows],
        });
        MetricId(i)
    }

    /// Accumulates `value` at `window` by id (out-of-range windows are
    /// ignored — the horizon's trailing partial window is dropped by
    /// construction).
    #[inline]
    pub fn add_at(&mut self, id: MetricId, window: usize, value: u64) {
        if window < self.windows {
            self.metrics[id.0].values[window] += value;
        }
    }

    /// Window length, microseconds of simulated time.
    pub fn dt_us(&self) -> u64 {
        self.dt_us
    }

    /// Number of sample windows.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.index.get(name).map(|&i| &self.metrics[i])
    }

    /// Metric names in export (lexicographic) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Adds `other` into `self` elementwise (associative, commutative —
    /// shards merge in any order to the same recorder). Both recorders
    /// must share the window grid.
    pub fn merge(&mut self, other: &SeriesRecorder) {
        debug_assert_eq!(self.dt_us, other.dt_us);
        debug_assert_eq!(self.windows, other.windows);
        for (name, &i) in &other.index {
            let m = &other.metrics[i];
            let mine = self.id(name, m.kind);
            for (a, b) in self.metrics[mine.0].values.iter_mut().zip(&m.values) {
                *a += b;
            }
        }
    }

    /// Renders the series as JSONL: a meta header line (window grid,
    /// metric names, which metrics are counters), then one all-integer
    /// object per window keyed by metric name, `t_us` being the window's
    /// end instant. Purely integer content over a deterministic metric
    /// order, so the bytes are shard/thread-invariant.
    pub fn to_jsonl(&self) -> String {
        // Numbers are written straight into `out`: writing to a `String`
        // cannot fail.
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"litegpu-series-v1\",\"dt_us\":{},\"windows\":{},\"metrics\":[",
            self.dt_us, self.windows
        );
        for (i, name) in self.names().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push('"');
        }
        out.push_str("],\"counters\":[");
        let mut first = true;
        for (name, m) in self.sorted() {
            if m.kind == MetricKind::Counter {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(name);
                out.push('"');
            }
        }
        out.push_str("]}\n");
        for w in 0..self.windows {
            let _ = write!(out, "{{\"t_us\":{}", (w as u64 + 1) * self.dt_us);
            for (name, m) in self.sorted() {
                let _ = write!(out, ",\"{name}\":{}", m.values[w]);
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders the series as CSV: a `t_us,...names` header then one
    /// integer row per window.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_us");
        for name in self.names() {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for w in 0..self.windows {
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{}", (w as u64 + 1) * self.dt_us);
            for (_, m) in self.sorted() {
                let _ = write!(out, ",{}", m.values[w]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accumulates by name, registering the metric on first touch.
    fn add(r: &mut SeriesRecorder, name: &str, kind: MetricKind, window: usize, value: u64) {
        let id = r.id(name, kind);
        r.add_at(id, window, value);
    }

    #[test]
    fn id_based_accumulation_matches_named() {
        let mut by_name = SeriesRecorder::new(10, 4);
        let mut by_id = SeriesRecorder::new(10, 4);
        let q = by_id.id("queued", MetricKind::Gauge);
        let a = by_id.id("arrived", MetricKind::Counter);
        assert_eq!(q, by_id.id("queued", MetricKind::Gauge), "ids are stable");
        for w in 0..5 {
            add(&mut by_name, "queued", MetricKind::Gauge, w, 3);
            add(&mut by_name, "arrived", MetricKind::Counter, w, w as u64);
            by_id.add_at(q, w, 3);
            by_id.add_at(a, w, w as u64);
        }
        assert_eq!(by_name, by_id);
        assert_eq!(by_name.to_jsonl(), by_id.to_jsonl());
    }

    #[test]
    fn add_accumulates_and_ignores_out_of_range() {
        let mut r = SeriesRecorder::new(1_000_000, 3);
        add(&mut r, "queued", MetricKind::Gauge, 0, 5);
        add(&mut r, "queued", MetricKind::Gauge, 0, 2);
        add(&mut r, "queued", MetricKind::Gauge, 2, 9);
        add(&mut r, "queued", MetricKind::Gauge, 3, 99); // dropped
        assert_eq!(r.get("queued").unwrap().values, vec![7, 0, 9]);
        assert_eq!(r.metrics.len(), 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |vals: &[(usize, u64)], name: &str| {
            let mut r = SeriesRecorder::new(10, 4);
            for &(w, v) in vals {
                add(&mut r, name, MetricKind::Counter, w, v);
            }
            r
        };
        let a = mk(&[(0, 1), (2, 3)], "arrived");
        let b = mk(&[(1, 5), (2, 4)], "arrived");
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("arrived").unwrap().values, vec![1, 5, 7, 0]);
        // A metric only one shard saw merges as if the other held zeros.
        let mut c = SeriesRecorder::new(10, 4);
        add(&mut c, "shed", MetricKind::Counter, 3, 2);
        ab.merge(&c);
        assert_eq!(ab.get("shed").unwrap().values, vec![0, 0, 0, 2]);
    }

    #[test]
    fn jsonl_and_csv_are_integer_and_ordered() {
        let mut r = SeriesRecorder::new(60_000_000, 2);
        add(&mut r, "b_gauge", MetricKind::Gauge, 0, 11);
        add(&mut r, "a_count", MetricKind::Counter, 1, 7);
        let jsonl = r.to_jsonl();
        let mut lines = jsonl.lines();
        let head = lines.next().unwrap();
        assert!(
            head.contains("\"metrics\":[\"a_count\",\"b_gauge\"]"),
            "{head}"
        );
        assert!(head.contains("\"counters\":[\"a_count\"]"), "{head}");
        assert_eq!(
            lines.next().unwrap(),
            "{\"t_us\":60000000,\"a_count\":0,\"b_gauge\":11}"
        );
        assert_eq!(
            lines.next().unwrap(),
            "{\"t_us\":120000000,\"a_count\":7,\"b_gauge\":0}"
        );
        let csv = r.to_csv();
        assert_eq!(csv, "t_us,a_count,b_gauge\n60000000,0,11\n120000000,7,0\n");
    }
}
