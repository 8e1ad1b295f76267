//! Simulator-wide observability: structured event recording, periodic
//! time-series sampling, and export as a Chrome trace-event (Perfetto)
//! document or a greppable text timeline.
//!
//! Built on the generic [`nw_sim::trace`] ring buffer; this module
//! assigns the meaning: track groups for the five subsystems (mesh,
//! ring, disk, directory, VM) plus a machine-wide lane for sampler
//! counters, the export formats, and an in-tree validator for the
//! emitted JSON (the workspace takes no external dependencies, so the
//! CI trace-smoke job validates with this parser).
//!
//! ## Invariants
//!
//! * **Behavior invariance.** Enabling an observer never changes what
//!   the simulation computes: hooks only *copy* state out, the sampler
//!   reads component state without touching it, and nothing here feeds
//!   back into event scheduling. `RunMetrics` is bit-identical with
//!   observation on or off — the `observability` integration suite
//!   pins this differentially across clean and faulted cells, serial
//!   and parallel.
//! * **Bounded memory.** The event buffer is a fixed-capacity ring
//!   (oldest events overwritten, drop count kept); every sampled
//!   series is a [`BoundedSeries`] that doubles its interval rather
//!   than grow without bound.
//! * **Near-free when off.** The machine stores the observer as an
//!   `Option<Box<Observer>>`; every hook is a single `None` check.

use crate::metrics::{json_escape, json_f64};
use nw_sim::stats::BoundedSeries;
use nw_sim::trace::{TraceBuffer, TraceEvent};
use nw_sim::Time;
use std::sync::Mutex;

/// Track groups: one per instrumented subsystem. Exported as Chrome
/// trace "processes" (`pid = group + 1`).
pub mod groups {
    /// Mesh interconnect; lanes are source nodes.
    pub const MESH: u8 = 0;
    /// Optical ring; lanes are cache channels.
    pub const RING: u8 = 1;
    /// Disk controllers; lanes are disks.
    pub const DISK: u8 = 2;
    /// Coherence directory; single lane (home-node logic).
    pub const DIR: u8 = 3;
    /// Virtual memory (faults, evictions, swaps); lanes are nodes.
    pub const VM: u8 = 4;
    /// Machine-wide counters (event-queue depth).
    pub const SIM: u8 = 5;
}

/// Human name of a track group.
pub fn group_name(group: u8) -> &'static str {
    match group {
        groups::MESH => "mesh",
        groups::RING => "ring",
        groups::DISK => "disk",
        groups::DIR => "directory",
        groups::VM => "vm",
        groups::SIM => "sim",
        _ => "unknown",
    }
}

/// Human name of a lane within a group.
pub fn lane_name(group: u8, index: u32) -> String {
    match group {
        groups::MESH | groups::VM => format!("node {index}"),
        groups::RING => format!("channel {index}"),
        groups::DISK => format!("disk {index}"),
        groups::DIR => "home".to_string(),
        groups::SIM => "machine".to_string(),
        _ => format!("lane {index}"),
    }
}

/// Simulated pcycles to trace microseconds (1 pcycle = 5 ns).
fn ts_us(t: Time) -> f64 {
    t as f64 * 0.005
}

/// Observer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Maximum structured events retained (ring buffer; oldest events
    /// are overwritten past this).
    pub trace_capacity: usize,
    /// Sampling period for the time-series counters, in pcycles.
    pub sample_interval: Time,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            trace_capacity: 65_536,
            // One sample per ~250 us of simulated time.
            sample_interval: 50_000,
        }
    }
}

/// Per-counter sample cap; a series that outgrows this doubles its
/// interval instead of allocating (see [`BoundedSeries`]).
const COUNTER_SAMPLE_CAP: usize = 4_096;

/// One sampled time series (queue depth, channel occupancy, …).
#[derive(Debug, Clone)]
pub struct Counter {
    /// Stable counter name (e.g. `"ring.ch0.occupancy"`).
    pub name: String,
    /// Track group the counter renders under.
    pub group: u8,
    /// Lane within the group.
    pub index: u32,
    /// The bounded, downsampled samples.
    pub series: BoundedSeries,
}

/// The live recorder attached to a running machine.
#[derive(Debug)]
pub struct Observer {
    pub(crate) buf: TraceBuffer,
    pub(crate) sample_interval: Time,
    /// Next simulated time at or after which the machine samples its
    /// counters (checked in the event loop's pop path).
    pub(crate) next_sample_due: Time,
    pub(crate) counters: Vec<Counter>,
}

impl Observer {
    /// A fresh observer for `cfg`.
    pub fn new(cfg: &ObserveConfig) -> Self {
        assert!(cfg.sample_interval > 0, "sample interval must be positive");
        Observer {
            buf: TraceBuffer::new(cfg.trace_capacity.max(1)),
            sample_interval: cfg.sample_interval,
            next_sample_due: 0,
            counters: Vec::new(),
        }
    }

    /// Register a counter; the machine records values in registration
    /// order on every sampling tick.
    pub(crate) fn add_counter(&mut self, name: String, group: u8, index: u32) {
        self.counters.push(Counter {
            name,
            group,
            index,
            series: BoundedSeries::new(self.sample_interval, COUNTER_SAMPLE_CAP),
        });
    }

    /// Finalize into an export-ready [`TraceData`].
    pub(crate) fn into_data(self, app: String, machine: String) -> TraceData {
        let dropped = self.buf.dropped();
        let recorded = self.buf.recorded();
        TraceData {
            app,
            machine,
            dropped,
            recorded,
            events: self.buf.into_events(),
            counters: self.counters,
        }
    }
}

/// Everything one observed run produced, detached from the machine.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Application name.
    pub app: String,
    /// Machine kind ("standard" / "nwcache" / "dcd").
    pub machine: String,
    /// Structured events in emission order (the buffer's tail if the
    /// run produced more than the capacity).
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring buffer was full.
    pub dropped: u64,
    /// Total events offered to the buffer.
    pub recorded: u64,
    /// Sampled time series.
    pub counters: Vec<Counter>,
}

impl TraceData {
    /// Serialize as a Chrome trace-event JSON document loadable by
    /// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
    /// subsystems become processes, lanes become threads, spans are
    /// `"X"` (complete) events, instants `"i"`, and the sampled series
    /// `"C"` counter events. Times are microseconds of simulated time.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 4_096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, s: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&s);
        };

        // Metadata: name every process (track group) and thread (lane)
        // that actually carries events or counters.
        let mut tracks: Vec<(u8, u32)> = self
            .events
            .iter()
            .map(|e| (e.track.group, e.track.index))
            .chain(self.counters.iter().map(|c| (c.group, c.index)))
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        let mut named_groups: Vec<u8> = Vec::new();
        for &(g, i) in &tracks {
            if !named_groups.contains(&g) {
                named_groups.push(g);
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        g as u32 + 1,
                        json_escape(group_name(g)),
                    ),
                );
            }
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    g as u32 + 1,
                    i + 1,
                    json_escape(&lane_name(g, i)),
                ),
            );
        }

        for e in &self.events {
            let pid = e.track.group as u32 + 1;
            let tid = e.track.index + 1;
            let s = if e.dur > 0 {
                format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"args\":{{\"a0\":{},\"a1\":{}}}}}",
                    json_f64(ts_us(e.at)),
                    json_f64(ts_us(e.dur)),
                    json_escape(e.name),
                    e.arg0,
                    e.arg1,
                )
            } else {
                format!(
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"{}\",\"args\":{{\"a0\":{},\"a1\":{}}}}}",
                    json_f64(ts_us(e.at)),
                    json_escape(e.name),
                    e.arg0,
                    e.arg1,
                )
            };
            push(&mut out, &mut first, s);
        }

        for c in &self.counters {
            let pid = c.group as u32 + 1;
            let tid = c.index + 1;
            for (t, v) in c.series.samples() {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\
                         \"name\":\"{}\",\"args\":{{\"value\":{v}}}}}",
                        json_f64(ts_us(t)),
                        json_escape(&c.name),
                    ),
                );
            }
        }

        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        out.push_str(&format!(
            "\"app\":\"{}\",\"machine\":\"{}\",\"events\":{},\"dropped\":{}",
            json_escape(&self.app),
            json_escape(&self.machine),
            self.events.len(),
            self.dropped,
        ));
        out.push_str("}}");
        out
    }

    /// A compact, greppable text timeline: one line per event in time
    /// order, followed by a per-counter summary.
    pub fn to_text_timeline(&self) -> String {
        let mut idx: Vec<usize> = (0..self.events.len()).collect();
        // Stable sort by start time: equal-time events keep emission
        // order, which is the causal order within one pcycle.
        idx.sort_by_key(|&i| self.events[i].at);
        let mut out = String::new();
        out.push_str(&format!(
            "# trace: app={} machine={} events={} dropped={}\n",
            self.app,
            self.machine,
            self.events.len(),
            self.dropped
        ));
        for i in idx {
            let e = &self.events[i];
            let track = format!("{}/{}", group_name(e.track.group), lane_name(e.track.group, e.track.index));
            if e.dur > 0 {
                out.push_str(&format!(
                    "{:>14.3}us {:<18} {:<20} dur={:.3}us a0={} a1={}\n",
                    ts_us(e.at),
                    track,
                    e.name,
                    ts_us(e.dur),
                    e.arg0,
                    e.arg1
                ));
            } else {
                out.push_str(&format!(
                    "{:>14.3}us {:<18} {:<20} a0={} a1={}\n",
                    ts_us(e.at),
                    track,
                    e.name,
                    e.arg0,
                    e.arg1
                ));
            }
        }
        for c in &self.counters {
            out.push_str(&format!(
                "# counter {}: {} samples, interval {} pcycles, max {}\n",
                c.name,
                c.series.len(),
                c.series.interval(),
                c.series.max_value().unwrap_or(0)
            ));
        }
        out
    }

    /// One page's lifecycle, in emission order: every VM, ring and
    /// disk event whose `arg0` is `vpn` (DESIGN.md §12 lists them).
    /// `ring.fail` and `disk.flush` are left out, because their `arg0`
    /// is a count; directory and mesh events carry lines and nodes. A
    /// VM span is a wait and ends at its step; other events start at it.
    pub fn page_events(&self, vpn: u64) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| {
            matches!(e.track.group, groups::VM | groups::RING | groups::DISK)
                && !matches!(e.name, "ring.fail" | "disk.flush")
                && e.arg0 == vpn
        })
    }
}

// ---------------------------------------------------------------------------
// Global default: lets the sweep harness (and anything else that builds
// machines internally) observe runs without threading a config through
// every call. `Machine::try_from_build` consults this once per build.

static GLOBAL_OBSERVE: Mutex<Option<ObserveConfig>> = Mutex::new(None);

/// Set (or clear, with `None`) the process-wide default observer
/// configuration. Machines built while a config is set start with an
/// observer attached; retrieve results with
/// [`crate::Machine::take_observation`]. Affects only machines built
/// *after* the call.
pub fn set_global(cfg: Option<ObserveConfig>) {
    *GLOBAL_OBSERVE.lock().unwrap_or_else(|e| e.into_inner()) = cfg;
}

/// The current process-wide default observer configuration, if any.
pub fn global() -> Option<ObserveConfig> {
    GLOBAL_OBSERVE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

// ---------------------------------------------------------------------------
// Process-wide run totals: cheap monotonic counters the long-running
// service's metrics endpoint exports. One atomic add per *completed*
// run (never per event), so the hot path pays nothing.

static TOTAL_RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_EVENTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_SIM_PCYCLES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Aggregate simulation work performed by this process since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessTotals {
    /// Simulations run to completion.
    pub runs: u64,
    /// Events dispatched across all completed runs.
    pub events: u64,
    /// Simulated pcycles across all completed runs (sum of exec times).
    pub sim_pcycles: u64,
}

/// Record one completed run. Called by the machine when it collects
/// final metrics; saturating so a pathological soak can't wrap.
pub(crate) fn record_completed_run(events: u64, exec_pcycles: u64) {
    use std::sync::atomic::Ordering::Relaxed;
    TOTAL_RUNS.fetch_add(1, Relaxed);
    TOTAL_EVENTS.fetch_add(events, Relaxed);
    TOTAL_SIM_PCYCLES.fetch_add(exec_pcycles, Relaxed);
}

/// Snapshot the process-wide totals (metrics-endpoint feed).
pub fn process_totals() -> ProcessTotals {
    use std::sync::atomic::Ordering::Relaxed;
    ProcessTotals {
        runs: TOTAL_RUNS.load(Relaxed),
        events: TOTAL_EVENTS.load(Relaxed),
        sim_pcycles: TOTAL_SIM_PCYCLES.load(Relaxed),
    }
}

// ---------------------------------------------------------------------------
// In-tree Chrome-trace validator: a minimal JSON parser plus the
// structural checks the trace-smoke CI job and tests rely on. No
// external dependencies.

/// What [`validate_chrome_trace`] found in a well-formed document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Complete (`"X"`) span events.
    pub spans: usize,
    /// Instant (`"i"`) events.
    pub instants: usize,
    /// Counter (`"C"`) samples.
    pub counters: usize,
    /// Metadata (`"M"`) records.
    pub metadata: usize,
    /// Distinct `pid`s seen (track groups + 1), ascending.
    pub pids: Vec<u32>,
}

/// Parse `doc` as JSON and verify it is a loadable Chrome trace-event
/// document: a top-level object with a `traceEvents` array whose
/// entries each carry `name`, `ph`, `pid` and `tid`, with a numeric
/// `ts` on every non-metadata event and a `dur` on every span.
pub fn validate_chrome_trace(doc: &str) -> Result<TraceStats, String> {
    let v = json::parse(doc)?;
    v.as_object().ok_or("top level is not an object")?;
    let events = v
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut stats = TraceStats::default();
    for (i, e) in events.iter().enumerate() {
        e.as_object()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        let get = |k: &str| e.get(k);
        let ph = get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("traceEvents[{i}] missing string \"ph\""))?;
        for key in ["name", "pid", "tid"] {
            if get(key).is_none() {
                return Err(format!("traceEvents[{i}] (ph={ph}) missing \"{key}\""));
            }
        }
        if get("pid").and_then(|v| v.as_f64()).is_none() {
            return Err(format!("traceEvents[{i}] \"pid\" is not a number"));
        }
        match ph {
            "M" => stats.metadata += 1,
            "X" => {
                for key in ["ts", "dur"] {
                    if get(key).and_then(|v| v.as_f64()).is_none() {
                        return Err(format!("traceEvents[{i}] span missing numeric \"{key}\""));
                    }
                }
                stats.spans += 1;
            }
            "i" | "C" => {
                if get("ts").and_then(|v| v.as_f64()).is_none() {
                    return Err(format!("traceEvents[{i}] missing numeric \"ts\""));
                }
                if ph == "i" {
                    stats.instants += 1;
                } else {
                    stats.counters += 1;
                }
            }
            other => return Err(format!("traceEvents[{i}] unknown ph {other:?}")),
        }
        if let Some(pid) = get("pid").and_then(|v| v.as_f64()) {
            let pid = pid as u32;
            if !stats.pids.contains(&pid) {
                stats.pids.push(pid);
            }
        }
        stats.events += 1;
    }
    stats.pids.sort_unstable();
    Ok(stats)
}

/// Minimal recursive-descent JSON parser — the workspace's one JSON
/// reader (trace validation), with no external crates.
pub(crate) mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A non-negative integer literal that fits in a `u64`, kept
        /// exact (an `f64` loses integers above 2^53).
        Int(u64),
        /// Any other JSON number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The object's members, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }

        /// The member named `key`, if this is an object that has one.
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        /// The array's elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The string contents, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Int(n) => Some(*n as f64),
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    /// Parse one complete JSON document.
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.b
                .get(self.i)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? != c {
                return Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    c as char, self.i, self.b[self.i] as char
                ));
            }
            self.i += 1;
            Ok(())
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                b'-' | b'0'..=b'9' => self.number(),
                c => Err(format!("unexpected {:?} at byte {}", c as char, self.i)),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.i;
            if self.b[self.i] == b'-' {
                self.i += 1;
            }
            while self.i < self.b.len()
                && matches!(self.b[self.i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                self.i += 1;
            }
            // The scan above accepted only ASCII bytes.
            let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or_default();
            if text.bytes().all(|c| c.is_ascii_digit()) {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::Int(n));
                }
            }
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let c = *self
                    .b
                    .get(self.i)
                    .ok_or_else(|| "unterminated string".to_string())?;
                self.i += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let e = *self
                            .b
                            .get(self.i)
                            .ok_or_else(|| "unterminated escape".to_string())?;
                        self.i += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .b
                                    .get(self.i..self.i + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                                self.i += 4;
                                // Surrogate pairs are not emitted by our
                                // exporter; map lone surrogates to the
                                // replacement character.
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(format!("bad escape at byte {}", self.i - 1)),
                        }
                    }
                    _ => {
                        // Re-decode multi-byte UTF-8 sequences.
                        let start = self.i - 1;
                        let len = match c {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        self.i = start + len;
                        let s = self
                            .b
                            .get(start..start + len)
                            .and_then(|b| std::str::from_utf8(b).ok())
                            .ok_or_else(|| format!("bad utf-8 at byte {start}"))?;
                        out.push_str(s);
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            if self.peek()? == b']' {
                self.i += 1;
                return Ok(Value::Arr(out));
            }
            loop {
                out.push(self.value()?);
                match self.peek()? {
                    b',' => self.i += 1,
                    b']' => {
                        self.i += 1;
                        return Ok(Value::Arr(out));
                    }
                    c => return Err(format!("expected ',' or ']', found {:?}", c as char)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut out = Vec::new();
            if self.peek()? == b'}' {
                self.i += 1;
                return Ok(Value::Obj(out));
            }
            loop {
                self.skip_ws();
                let k = self.string()?;
                self.expect(b':')?;
                let v = self.value()?;
                out.push((k, v));
                match self.peek()? {
                    b',' => self.i += 1,
                    b'}' => {
                        self.i += 1;
                        return Ok(Value::Obj(out));
                    }
                    c => return Err(format!("expected ',' or '}}', found {:?}", c as char)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::trace::TrackId;

    fn sample_data() -> TraceData {
        let cfg = ObserveConfig {
            trace_capacity: 16,
            sample_interval: 100,
        };
        let mut o = Observer::new(&cfg);
        o.add_counter("ring.ch0.occupancy".into(), groups::RING, 0);
        o.buf
            .span(100, 300, TrackId::new(groups::MESH, 2), "mesh.page", 5, 4096);
        o.buf
            .instant(150, TrackId::new(groups::DISK, 0), "disk.nack", 7, 0);
        o.counters[0].series.record(100, 3);
        o.counters[0].series.record(250, 5);
        o.into_data("gauss".into(), "nwcache".into())
    }

    #[test]
    fn chrome_export_validates() {
        let d = sample_data();
        let j = d.to_chrome_json();
        let stats = validate_chrome_trace(&j).expect("exporter output must validate");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 2);
        assert!(stats.metadata >= 3); // 2+ process names, 2+ thread names
        // pid = group + 1 for each group present.
        for g in [groups::MESH, groups::RING, groups::DISK] {
            assert!(stats.pids.contains(&(g as u32 + 1)), "missing pid for {}", group_name(g));
        }
    }

    #[test]
    fn text_timeline_is_time_sorted() {
        let d = sample_data();
        let txt = d.to_text_timeline();
        let nack = txt.find("disk.nack").unwrap();
        let page = txt.find("mesh.page").unwrap();
        // mesh.page starts at t=100 (0.5us), disk.nack at t=150.
        assert!(page < nack, "events out of time order:\n{txt}");
        assert!(txt.contains("# counter ring.ch0.occupancy: 2 samples"));
    }

    #[test]
    fn page_events_keep_only_events_about_the_page() {
        let mut o = Observer::new(&ObserveConfig::default());
        // Every event's arg0 is 7 but the ring.ack's: only page events
        // about page 7 are kept, in emission order.
        for (group, name) in [
            (groups::VM, "vm.fault.disk"),
            (groups::MESH, "mesh.ctl"),
            (groups::DIR, "dir.read"),
            (groups::DISK, "disk.read.hit"),
            (groups::DISK, "disk.flush"),
            (groups::RING, "ring.fail"),
            (groups::RING, "ring.ack"),
            (groups::VM, "vm.fault.disk_hit"),
        ] {
            let page = if name == "ring.ack" { 8 } else { 7 };
            o.buf.span(1, 5, TrackId::new(group, 0), name, page, 0);
        }
        let d = o.into_data("sor".into(), "nwcache".into());
        let names: Vec<&str> = d.page_events(7).map(|e| e.name).collect();
        assert_eq!(names, ["vm.fault.disk", "disk.read.hit", "vm.fault.disk_hit"]);
        assert_eq!(d.page_events(8).count(), 1);
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        // Missing "tid".
        let bad = "{\"traceEvents\":[{\"ph\":\"i\",\"pid\":1,\"ts\":0,\"name\":\"x\"}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Unknown phase.
        let bad = "{\"traceEvents\":[{\"ph\":\"Q\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"x\"}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Span without dur.
        let bad =
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"x\"}]}";
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn validator_accepts_minimal_document() {
        let ok = "{\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"p\"}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.5,\"dur\":1.5,\"name\":\"s\"},\
            {\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":2,\"name\":\"c\",\"args\":{\"value\":9}}\
        ]}";
        let stats = validate_chrome_trace(ok).unwrap();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.metadata, 1);
        assert_eq!(stats.pids, vec![1]);
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = json::parse(
            "{\"a\":[1,-2.5,3e2,true,false,null],\"b\":\"q\\\"\\n\\u0041\",\"c\":{\"d\":[]}}",
        )
        .unwrap();
        let obj = v.as_object().unwrap();
        let a = obj[0].1.as_array().unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(300.0));
        assert_eq!(a[0], json::Value::Int(1));
        assert_eq!(a[1], json::Value::Num(-2.5));
        // Integers above 2^53 read back exactly.
        let big = json::parse("[9007199254740993, 18446744073709551616]").unwrap();
        let big = big.as_array().unwrap();
        assert_eq!(big[0], json::Value::Int(9_007_199_254_740_993));
        assert!(matches!(big[1], json::Value::Num(_)), "past u64::MAX falls back to f64");
        assert_eq!(obj[2].1.get("d").and_then(|d| d.as_array()).map(|d| d.len()), Some(0));
        assert_eq!(obj[1].1.as_str(), Some("q\"\nA"));
        // A pretty-printed document, one field per line.
        let pretty = json::parse(
            "{\n  \"quick\": false,\n  \"rows\": [\n    {\n      \"name\": \"x\",\n      \
             \"n\": 250.5\n    }\n  ]\n}",
        )
        .unwrap();
        assert_eq!(pretty.get("quick"), Some(&json::Value::Bool(false)));
        let row = &pretty.get("rows").and_then(|r| r.as_array()).unwrap()[0];
        assert_eq!(row.get("name").and_then(|n| n.as_str()), Some("x"));
        assert_eq!(row.get("n").and_then(|n| n.as_f64()), Some(250.5));
        assert!(json::parse("{\"a\":}").is_err());
        assert!(json::parse("[1,2").is_err());
        assert!(json::parse("[1,2] extra").is_err());
    }

    #[test]
    fn global_switch_round_trips() {
        // Serialized with other global-switch users via the state
        // itself being process-wide: set, read back, clear.
        let cfg = ObserveConfig {
            trace_capacity: 8,
            sample_interval: 10,
        };
        set_global(Some(cfg.clone()));
        assert_eq!(global(), Some(cfg));
        set_global(None);
        assert_eq!(global(), None);
    }
}
