//! In-memory span recorder for the traced runs.
//!
//! The benchmark opens a span around each call it makes into one of the
//! program's layers (`name` = `<layer>.<module>.<call>`), and a root span
//! (`bench.*`) around each workload phase or served request. Spans carry
//! name, start, end, parent span and request id; they stay in memory and
//! are written out when the run ends. With tracing off, [`span`] returns
//! `None` and records nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// Enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// Request the span served (0 = none).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ON.store(true, Ordering::SeqCst);
}

/// Stops recording; spans already recorded are kept.
pub fn disable() {
    ON.store(false, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    ns_since_epoch(Instant::now())
}

/// `t` as nanoseconds since the trace epoch (0 before it).
pub fn ns_since_epoch(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Sets the request id stamped on spans opened by this thread.
pub fn set_request(req: u64) {
    REQUEST.with(|r| r.set(req));
}

/// An open span; records itself when dropped.
pub struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span named `name` now, as a child of this thread's innermost
/// open span. `None` when tracing is off.
#[must_use]
pub fn span(name: &'static str) -> Option<Span> {
    enabled().then(|| open(name, now_ns()))
}

/// Opens a span whose start lies at `start` (a request's due time).
#[must_use]
pub fn span_from(name: &'static str, start: Instant) -> Option<Span> {
    enabled().then(|| open(name, ns_since_epoch(start)))
}

fn open(name: &'static str, start_ns: u64) -> Span {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span {
        id,
        parent,
        req: REQUEST.with(Cell::get),
        name,
        start_ns,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.truncate(pos);
            }
        });
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned lock only means another thread panicked while
        // pushing; the vector itself is still valid.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
    }
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Aggregates of one traced run.
#[derive(Debug, Default)]
pub struct Summary {
    /// Durations per span name, in nanoseconds, in recording order.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// Self time per layer (span time not covered by child spans), s.
    pub layer_self_s: BTreeMap<&'static str, f64>,
    /// Sum of root-span durations, s.
    pub wall_s: f64,
    /// Part of `wall_s` covered by layer spans, s.
    pub attributed_s: f64,
}

impl Summary {
    /// Durations of `name` in microseconds.
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.scaled(name, 1e-3)
    }

    /// Durations of `name` in milliseconds.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.scaled(name, 1e-6)
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.scaled(name, 1e-9).iter().sum()
    }

    fn scaled(&self, name: &str, factor: f64) -> Vec<f64> {
        self.durations
            .get(name)
            .map(|v| v.iter().map(|d| d * factor).collect())
            .unwrap_or_default()
    }
}

/// Computes durations, self times and attribution. Root spans are the
/// benchmark's own (`bench.*`) phases and requests; everything under
/// them is attributed to the layer named by the span. Only the trees of
/// roots whose name passes `counts` enter the wall, attributed and
/// per-layer self-time sums, so the layers' self times add up to the
/// attributed time; durations are kept for every span.
pub fn summarize(spans: &[SpanRec], counts: impl Fn(&str) -> bool) -> Summary {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let by_id: BTreeMap<u64, (u64, &'static str)> =
        spans.iter().map(|s| (s.id, (s.parent, s.name))).collect();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let root_name = |s: &SpanRec| {
        let (mut parent, mut name) = (s.parent, s.name);
        while let Some(&(p, n)) = by_id.get(&parent) {
            (parent, name) = (p, n);
        }
        name
    };
    let mut out = Summary::default();
    for s in spans {
        let dur = s.dur_ns();
        out.durations.entry(s.name).or_default().push(dur as f64);
        if !counts(root_name(s)) {
            continue;
        }
        let self_ns = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        if s.parent == 0 {
            out.wall_s += dur as f64 * 1e-9;
            out.attributed_s += (dur - self_ns) as f64 * 1e-9;
        } else if s.layer() != "bench" {
            *out.layer_self_s.entry(s.layer()).or_default() += self_ns as f64 * 1e-9;
        }
    }
    out
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            rec(1, 0, "bench.phase", 0, 100),
            rec(2, 1, "nn.a", 10, 60),
            rec(3, 2, "tensor.b", 20, 40),
            rec(4, 1, "serve.c", 70, 90),
        ];
        let s = summarize(&spans, |_| true);
        assert!((s.wall_s - 100e-9).abs() < 1e-15);
        assert!((s.attributed_s - 70e-9).abs() < 1e-15);
        assert!((s.layer_self_s["nn"] - 30e-9).abs() < 1e-15);
        assert!((s.layer_self_s["tensor"] - 20e-9).abs() < 1e-15);
        assert!((s.layer_self_s["serve"] - 20e-9).abs() < 1e-15);
    }
}
