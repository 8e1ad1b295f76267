//! In-memory spans recorded around the benchmark's calls into each
//! simulator layer, written out as a Chrome trace when the run ends.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `parent` is the span that caused it (0 = none) and
/// `req` identifies the cell or job every span of one request shares.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u32,
    /// Id of the enclosing span, or 0.
    pub parent: u32,
    /// Request (cell or job) id.
    pub req: u32,
    /// Layer call, e.g. `machine.run_chunk`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span store shared by the traced pass's workers.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve an id for a span whose children are recorded before it.
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span under a reserved id.
    pub fn record_as(&self, id: u32, parent: u32, req: u32, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Record a span that started at `start_ns` and ends now.
    pub fn record(&self, parent: u32, req: u32, name: &'static str, start_ns: u64) {
        self.record_as(self.reserve(), parent, req, name, start_ns);
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total nanoseconds spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, one track
    /// per request), loadable in Perfetto.
    pub fn to_chrome_json(&self, req_labels: &[String]) -> String {
        let spans = self.snapshot();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let label = req_labels
                .get(s.req as usize)
                .map(String::as_str)
                .unwrap_or("");
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":\"{}\"}}}}",
                s.name,
                s.req,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.id,
                s.parent,
                label.replace('\\', "\\\\").replace('"', "\\\""),
            ));
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}
