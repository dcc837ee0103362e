//! Chrome trace-event export with deterministic, totally ordered events.
//!
//! [`TraceEvent`] is a compact integer record of one simulator event —
//! a request-lifecycle span, a control-plane command, a chaos event, a
//! repair dispatch. Shards emit events independently; the engine
//! concatenates and sorts them under the struct's total order before
//! rendering, so the JSON bytes are identical for any shard/thread
//! partition. [`render_chrome_trace`] emits the
//! [Chrome trace-event format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! (`{"traceEvents":[...]}`), which Perfetto and `chrome://tracing` open
//! directly: `pid` rows are cells, `tid` rows are instances/slots,
//! request spans nest by phase, and KV-transfer/decode legs are async
//! spans keyed by the RNG-free span id.

use std::fmt::Write;

/// Chrome trace-event phase of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ph {
    /// A complete span (`ph:"X"`, has a duration).
    Complete,
    /// A point-in-time instant (`ph:"i"`).
    Instant,
    /// Async-span begin (`ph:"b"`, carries an id).
    AsyncBegin,
    /// Async-span end (`ph:"e"`, carries an id).
    AsyncEnd,
}

impl Ph {
    fn code(self) -> char {
        match self {
            Ph::Complete => 'X',
            Ph::Instant => 'i',
            Ph::AsyncBegin => 'b',
            Ph::AsyncEnd => 'e',
        }
    }
}

/// One trace event. Field order *is* the sort key: events sort by
/// timestamp, then cell, then instance/slot, then category/name/phase,
/// then id/duration/argument — a total order over every field, so the
/// post-merge sort leaves exactly one byte rendering per event multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Simulated timestamp, µs (the engine's native integer time).
    pub ts_us: u64,
    /// Cell index (rendered as `pid`).
    pub pid: u32,
    /// Instance global index or cell-local slot (rendered as `tid`).
    pub tid: u32,
    /// Event category (`req`, `ctrl`, `chaos`).
    pub cat: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Phase.
    pub ph: Ph,
    /// Async span id (0 for non-async events).
    pub id: u64,
    /// Duration, µs (complete spans only).
    pub dur_us: u64,
    /// One free integer argument (tenant id, affected count, wait µs...).
    pub arg: u64,
}

impl TraceEvent {
    /// A complete (`X`) span.
    pub fn complete(
        cat: &'static str,
        name: &'static str,
        ts_us: u64,
        dur_us: u64,
        pid: u32,
        tid: u32,
        arg: u64,
    ) -> Self {
        Self {
            ts_us,
            pid,
            tid,
            cat,
            name,
            ph: Ph::Complete,
            id: 0,
            dur_us,
            arg,
        }
    }

    /// A point-in-time (`i`) instant.
    pub fn instant(
        cat: &'static str,
        name: &'static str,
        ts_us: u64,
        pid: u32,
        tid: u32,
        arg: u64,
    ) -> Self {
        Self {
            ts_us,
            pid,
            tid,
            cat,
            name,
            ph: Ph::Instant,
            id: 0,
            dur_us: 0,
            arg,
        }
    }

    /// An async-begin (`b`) event keyed by `id`.
    pub fn async_begin(
        cat: &'static str,
        name: &'static str,
        ts_us: u64,
        pid: u32,
        tid: u32,
        id: u64,
        arg: u64,
    ) -> Self {
        Self {
            ts_us,
            pid,
            tid,
            cat,
            name,
            ph: Ph::AsyncBegin,
            id,
            dur_us: 0,
            arg,
        }
    }

    /// An async-end (`e`) event keyed by `id`.
    pub fn async_end(
        cat: &'static str,
        name: &'static str,
        ts_us: u64,
        pid: u32,
        tid: u32,
        id: u64,
        arg: u64,
    ) -> Self {
        Self {
            ts_us,
            pid,
            tid,
            cat,
            name,
            ph: Ph::AsyncEnd,
            id,
            dur_us: 0,
            arg,
        }
    }
}

/// The 1-in-`every` trace sample of span ids. Span ids pack
/// `(instance_global_index << 32) | launch_counter`; sampling keys on
/// the launch counter so every instance contributes evenly. `every == 0`
/// disables tracing entirely.
///
/// Division-free for per-launch hot paths: the divisibility test is a
/// wrapping multiply against a precomputed constant (D. Lemire's fast
/// remainder check), so a sampler in the serve loop costs one multiply
/// per span instead of a 64-bit division.
#[derive(Debug, Clone, Copy)]
pub struct SpanSampler {
    every: u32,
    /// `ceil(2^64 / every)` as a wrapping constant; unused for
    /// `every <= 1`.
    m: u64,
}

impl SpanSampler {
    /// Builds a sampler for the 1-in-`every` sample (`0` disables).
    pub fn new(every: u32) -> Self {
        let m = if every > 1 {
            (u64::MAX / every as u64).wrapping_add(1)
        } else {
            0
        };
        Self { every, m }
    }

    /// Whether `span` is in the sample: whether its launch counter (the
    /// low 32 bits) is a multiple of `every`.
    #[inline]
    pub fn sampled(&self, span: u64) -> bool {
        match self.every {
            0 => false,
            1 => true,
            // `x` divides by `every` iff `x * m` wraps below `m`.
            _ => (span & 0xFFFF_FFFF).wrapping_mul(self.m) < self.m,
        }
    }
}

/// Sorts `events` into their total order and renders Chrome trace-event
/// JSON. Sorting here (rather than trusting emission order) is what
/// makes the bytes shard/thread-invariant.
pub fn render_chrome_trace(events: &mut [TraceEvent]) -> String {
    events.sort_unstable();
    let mut out = String::with_capacity(events.len() * 110 + 64);
    out.push_str("{\"traceEvents\":[");
    // Fields are written straight into `out`: writing to a `String`
    // cannot fail.
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{}",
            e.name,
            e.cat,
            e.ph.code(),
            e.ts_us
        );
        if e.ph == Ph::Complete {
            let _ = write!(out, ",\"dur\":{}", e.dur_us);
        }
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.pid, e.tid);
        if matches!(e.ph, Ph::AsyncBegin | Ph::AsyncEnd) {
            let _ = write!(out, ",\"id\":\"{:#x}\"", e.id);
        }
        if e.ph == Ph::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"args\":{{\"v\":{}}}}}", e.arg);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Validates that `s` is one well-formed JSON value (the whole input).
/// A minimal hand-rolled checker — the workspace's vendored `serde_json`
/// shim serializes but does not parse — used by the trace schema tests
/// to prove exported files open in Perfetto-compatible readers.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i, 0)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing content at byte {i}"));
    }
    Ok(())
}

const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    match b.get(*i) {
        Some(b'{') => object(b, i, depth),
        Some(b'[') => array(b, i, depth),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *i)),
        None => Err("unexpected end of input".into()),
    }
}

fn object(b: &[u8], i: &mut usize, depth: usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("object key must be a string at byte {i}", i = *i));
        }
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}", i = *i));
        }
        *i += 1;
        skip_ws(b, i);
        value(b, i, depth + 1)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}", i = *i)),
        }
    }
}

fn array(b: &[u8], i: &mut usize, depth: usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        value(b, i, depth + 1)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {i}", i = *i)),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // opening quote
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => match b.get(*i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 2,
                Some(b'u') => {
                    let hex = b.get(*i + 2..*i + 6).ok_or("truncated \\u escape")?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {i}", i = *i));
                    }
                    *i += 6;
                }
                _ => return Err(format!("bad escape at byte {i}", i = *i)),
            },
            0x00..=0x1F => return Err(format!("raw control byte in string at {i}", i = *i)),
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(format!("expected digits at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("expected fraction digits at byte {i}", i = *i));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("expected exponent digits at byte {i}", i = *i));
        }
    }
    Ok(())
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.get(*i..*i + lit.len()) == Some(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}", i = *i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sort_total_and_render_valid_json() {
        let mut ev = vec![
            TraceEvent::async_end("req", "decode", 2_000_000, 0, 3, 0x1_0000_0001, 0),
            TraceEvent::complete("req", "prefill", 1_000_000, 50_000, 0, 3, 1),
            TraceEvent::instant("ctrl", "activate", 1_000_000, 0, 2, 0),
            TraceEvent::async_begin("req", "decode", 1_000_000, 0, 3, 0x1_0000_0001, 0),
        ];
        let json = render_chrome_trace(&mut ev);
        validate_json(&json).expect("chrome trace must be well-formed JSON");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"id\":\"0x100000001\""));
        // Same multiset in any order renders the same bytes.
        let mut shuffled = vec![ev[3], ev[1], ev[0], ev[2]];
        assert_eq!(render_chrome_trace(&mut shuffled), json);
    }

    #[test]
    fn span_sampling_keys_on_launch_counter() {
        let sampled = |span, every| SpanSampler::new(every).sampled(span);
        assert!(!sampled(5, 0)); // disabled
        assert!(sampled((7u64 << 32) | 64, 64));
        assert!(!sampled((7u64 << 32) | 65, 64));
        assert!(sampled(u64::MAX, 1)); // every launch
    }

    #[test]
    fn sampler_matches_the_modulo_definition() {
        for every in [0u32, 1, 2, 3, 5, 7, 64, 100, 4096, 9999, u32::MAX] {
            let s = SpanSampler::new(every);
            assert_eq!(s.every, every);
            for low in (0u64..5000).chain([u32::MAX as u64 - 1, u32::MAX as u64]) {
                let span = (42u64 << 32) | low;
                let want = every > 0 && low % every as u64 == 0;
                assert_eq!(s.sampled(span), want, "every={every} low={low}");
            }
        }
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "{\"a\":[1,2,{\"b\":\"c\\n\\u00e9\"}],\"d\":true}",
            " { \"x\" : [ ] } ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "\"unterminated",
            "01x",
            "{} extra",
            "{\"a\":1,}",
        ] {
            assert!(validate_json(bad).is_err(), "must reject {bad:?}");
        }
    }
}
