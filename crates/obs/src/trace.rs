//! The span/event tracing core: monotonic timestamps, a pluggable sink,
//! and a disabled path that costs one atomic load.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Whether a sink is installed, mirrored out of [`SINK`] (both change
/// under its write lock) so the disabled path reads one relaxed atomic and
/// takes no lock. It publishes nothing: a recording span reaches the sink
/// through the lock.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static SPANS_OPENED: AtomicU64 = AtomicU64::new(0);
static SPANS_CLOSED: AtomicU64 = AtomicU64::new(0);
static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);

/// The process-wide monotonic epoch every span timestamp is relative to
/// (pinned on first use, so timestamps across threads are comparable).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotonic).
fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Whether spans are currently recorded — one relaxed atomic load, the
/// whole cost of instrumented code when tracing is off.
#[inline]
fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on: install the global sink closed spans are delivered to
/// (replacing any previous one). Tracing is on exactly while a sink is
/// installed; with none — the production default — [`span`] returns an
/// inert guard without reading the clock or allocating. Spans created
/// while off stay inert even if a sink arrives before they drop.
pub fn install_sink(sink: Arc<dyn TraceSink>) {
    let mut slot = SINK.write().unwrap();
    *slot = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off: remove and return the installed sink, if any. Spans
/// already in flight close normally (their open is always balanced by a
/// close, and counted); they are delivered to whatever sink is installed
/// when they do.
pub fn clear_sink() -> Option<Arc<dyn TraceSink>> {
    let mut slot = SINK.write().unwrap();
    ENABLED.store(false, Ordering::Relaxed);
    slot.take()
}

/// Spans opened since process start (only counted while tracing is on).
pub fn spans_opened() -> u64 {
    SPANS_OPENED.load(Ordering::Relaxed)
}

/// Spans closed since process start. Every opened span closes when its
/// guard drops — even on a panic unwinding through it — so after
/// quiescence `spans_opened() == spans_closed()`; the faulted hammer in
/// `crates/serve/tests/observability.rs` fails when they disagree (a
/// leaked guard or a span held across a request boundary).
pub fn spans_closed() -> u64 {
    SPANS_CLOSED.load(Ordering::Relaxed)
}

/// One tag value on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum TagValue {
    /// An unsigned integer (ids, byte counts, hashes).
    U64(u64),
    /// A static string (enum-like outcomes: rung names, abort causes).
    Str(&'static str),
    /// An owned string, for values only known at runtime (e.g. a
    /// degradation cause list). Allocates — only attach while recording.
    Text(String),
}

/// A closed span, as delivered to a [`TraceSink`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = a root span).
    pub parent: u64,
    /// Static span name (see the taxonomy in `docs/OBSERVABILITY.md`).
    pub name: &'static str,
    /// Start, in nanoseconds since the process trace epoch (monotonic).
    pub start_nanos: u64,
    /// End, same clock. `end_nanos - start_nanos` is the duration.
    pub end_nanos: u64,
    /// Tags attached while the span was open, in attachment order.
    pub tags: Vec<(&'static str, TagValue)>,
}

impl SpanRecord {
    /// The span duration in nanoseconds.
    pub fn dur_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    /// The first tag named `key`, if any.
    pub fn tag(&self, key: &str) -> Option<&TagValue> {
        self.tags.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Where closed spans go. Implementations must be cheap and must never
/// panic — a sink runs inside guard drops on every instrumented path.
pub trait TraceSink: Send + Sync {
    /// Deliver one closed span.
    fn record(&self, span: &SpanRecord);
}

thread_local! {
    /// Innermost open span on this thread (0 = none) — how child spans
    /// find their parent without any cross-thread coordination.
    static CURRENT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

struct SpanData {
    id: u64,
    parent: u64,
    name: &'static str,
    start_nanos: u64,
    tags: Vec<(&'static str, TagValue)>,
}

/// An open span guard: closes (and delivers to the sink) on drop, even
/// while a panic unwinds through it. Inert — zero-allocation, no clock —
/// when created with tracing off.
pub struct Span {
    data: Option<Box<SpanData>>,
}

/// Open a span. With tracing off this is one relaxed atomic load and an
/// inert guard; with tracing on it reads the monotonic clock, allocates
/// the record and links into the thread's span stack.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span { data: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    SPANS_OPENED.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    Span {
        data: Some(Box::new(SpanData {
            id,
            parent,
            name,
            start_nanos: now_nanos(),
            tags: Vec::new(),
        })),
    }
}

impl Span {
    /// Whether this span actually records (tracing was on at creation).
    /// Gate any tag computation that would itself allocate on this.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.data.is_some()
    }

    /// Attach an integer tag (no-op on an inert span).
    #[inline]
    pub fn tag_u64(&mut self, key: &'static str, value: u64) {
        if let Some(d) = self.data.as_mut() {
            d.tags.push((key, TagValue::U64(value)));
        }
    }

    /// Attach a static-string tag (no-op on an inert span).
    #[inline]
    pub fn tag_str(&mut self, key: &'static str, value: &'static str) {
        if let Some(d) = self.data.as_mut() {
            d.tags.push((key, TagValue::Str(value)));
        }
    }

    /// Attach an owned-string tag (no-op on an inert span; the string is
    /// only worth building after [`Span::is_recording`]).
    pub fn tag_text(&mut self, key: &'static str, value: String) {
        if let Some(d) = self.data.as_mut() {
            d.tags.push((key, TagValue::Text(value)));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        CURRENT.with(|c| c.set(data.parent));
        let record = SpanRecord {
            id: data.id,
            parent: data.parent,
            name: data.name,
            start_nanos: data.start_nanos,
            end_nanos: now_nanos(),
            tags: data.tags,
        };
        SPANS_CLOSED.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = SINK.read().unwrap().as_ref() {
            sink.record(&record);
        }
    }
}

/// A bounded in-memory sink: keeps the most recent `capacity` spans.
/// The test sink — cheap, inspectable, never grows without bound.
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<SpanRecord>>,
}

impl RingSink {
    /// A ring keeping at most `capacity` spans (oldest evicted first).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Drain and return the current contents, oldest first.
    pub fn take(&self) -> Vec<SpanRecord> {
        self.buf.lock().unwrap().drain(..).collect()
    }
}

impl TraceSink for RingSink {
    fn record(&self, span: &SpanRecord) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(span.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace tests mutate process-global state (the sink), so
    /// they serialize on one mutex instead of racing each other.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = trace_lock();
        let opened = spans_opened();
        let mut s = span("test.inert");
        assert!(!s.is_recording());
        s.tag_u64("k", 1);
        drop(s);
        assert_eq!(opened, spans_opened(), "inert spans must not be counted");
    }

    #[test]
    fn spans_nest_and_record() {
        let _guard = trace_lock();
        let ring = Arc::new(RingSink::new(16));
        install_sink(ring.clone());
        {
            let mut root = span("test.root");
            root.tag_u64("n", 6);
            {
                let mut child = span("test.child");
                child.tag_str("outcome", "completed");
            }
        }
        clear_sink();
        let spans = ring.take();
        assert_eq!(2, spans.len());
        // Children close before their parent: child, root.
        assert_eq!("test.child", spans[0].name);
        assert_eq!("test.root", spans[1].name);
        assert_eq!(spans[1].id, spans[0].parent, "child must parent to root");
        assert_eq!(Some(&TagValue::U64(6)), spans[1].tag("n"));
        assert_eq!(Some(&TagValue::Str("completed")), spans[0].tag("outcome"));
        assert_eq!(spans_opened(), spans_closed());
    }

    #[test]
    fn span_closes_during_unwind() {
        let _guard = trace_lock();
        let ring = Arc::new(RingSink::new(16));
        install_sink(ring.clone());
        let unwound = std::panic::catch_unwind(|| {
            let _s = span("test.unwound");
            panic!("injected");
        });
        clear_sink();
        assert!(unwound.is_err());
        assert!(
            ring.take().iter().any(|s| s.name == "test.unwound"),
            "a span guard must close on unwind"
        );
        assert_eq!(spans_opened(), spans_closed());
    }

    #[test]
    fn ring_sink_bounds_capacity() {
        let ring = RingSink::new(2);
        for i in 0..5u64 {
            ring.record(&SpanRecord {
                id: i + 1,
                parent: 0,
                name: "r",
                start_nanos: i,
                end_nanos: i,
                tags: Vec::new(),
            });
        }
        let spans = ring.take();
        assert_eq!(2, spans.len());
        assert_eq!(3, spans[0].start_nanos, "oldest spans evicted first");
    }
}
