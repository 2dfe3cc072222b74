//! Lock-free metrics: counters, gauges and log2-bucket histograms, a
//! process registry that names them, and Prometheus text exposition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: one per power of two of `u64` plus the
/// zero bucket. Bucket `i` (for `i < 64`) holds values `<= 2^i - 1`; the
/// top bucket is unbounded (`+Inf`).
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing count — one relaxed atomic add to bump.
#[derive(Debug, Default)]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add one and return the *previous* count — an atomic sequence
    /// number for callers that index per-event state (e.g. deterministic
    /// fault schedules) off the same cell they count with.
    #[inline]
    pub fn fetch_inc(&self) -> u64 {
        self.cell.fetch_add(1, Ordering::Relaxed)
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down, with a high-water mark. `sub`
/// saturates at zero (a CAS loop) so a racy over-release cannot wrap the
/// gauge to `u64::MAX` and panic downstream consumers.
#[derive(Debug, Default)]
pub struct Gauge {
    cell: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value (peak is raised if exceeded).
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Raise by `n` (peak is raised if exceeded).
    #[inline]
    pub fn add(&self, n: u64) {
        let now = self.cell.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Lower by `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .cell
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Highest value ever held (monotone).
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Which bucket a value lands in: `0 → 0`, otherwise the position of the
/// highest set bit plus one, so bucket `i` spans `[2^(i-1), 2^i - 1]`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Upper bound of bucket `i` as a Prometheus `le` label value.
fn bucket_le(i: usize) -> String {
    if i >= HIST_BUCKETS - 1 {
        "+Inf".to_string()
    } else {
        // 2^i - 1; for i = 0 this is the zero bucket (le="0").
        ((1u128 << i) - 1).to_string()
    }
}

/// A fixed log2-bucket histogram: `observe` is a `leading_zeros` and
/// three relaxed atomic adds — lock-free, allocation-free, always on.
/// Log2 buckets give ~±50% quantile resolution across the full `u64`
/// range, which is plenty to tell a 2 ms p99 from a 200 ms one.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the buckets and totals. Taken cell-by-cell
    /// without a lock, so under concurrent writes the copy can be a few
    /// observations torn — fine for monitoring, which is its only use.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile estimation.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket `i` holds `<= 2^i - 1`;
    /// the last bucket is unbounded).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`), i.e. an over-estimate by at most one bucket
    /// width. Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return if i >= HIST_BUCKETS - 1 {
                    u64::MAX
                } else {
                    ((1u128 << i) - 1) as u64
                };
            }
        }
        u64::MAX
    }
}

/// The kind of a registered metric (drives the Prometheus `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count.
    Counter,
    /// Up/down value.
    Gauge,
    /// Log2-bucket distribution.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A point-in-time value in a [`MetricsSnapshot`].
// Snapshot values exist only on the cold render/inspection path, so the
// 500-byte bucket array is better inline than behind one more allocation
// per scraped series.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A counter's count.
    Counter(u64),
    /// A gauge's value and high-water mark.
    Gauge {
        /// Current value.
        value: u64,
        /// Highest value ever held.
        peak: u64,
    },
    /// A histogram's buckets and totals.
    Histogram(HistogramSnapshot),
}

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> MetricKind {
        match self {
            Handle::Counter(_) => MetricKind::Counter,
            Handle::Gauge(_) => MetricKind::Gauge,
            Handle::Histogram(_) => MetricKind::Histogram,
        }
    }

    fn snapshot(&self) -> MetricValue {
        match self {
            Handle::Counter(c) => MetricValue::Counter(c.get()),
            Handle::Gauge(g) => MetricValue::Gauge {
                value: g.get(),
                peak: g.peak(),
            },
            Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, &'static str)>,
    handle: Handle,
}

/// Names a set of metric handles and renders point-in-time snapshots.
///
/// Registration is idempotent on `(name, labels)`: asking twice returns
/// the same handle, so components can register lazily without
/// coordination. Names, help strings and label values are all
/// `&'static str` — label cardinality is bounded at compile time by
/// construction (enum-derived values, never request data).
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The handle registered under `(name, labels)`: the existing one,
    /// or `fresh` after registering it.
    fn get_or_insert(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &'static str)],
        fresh: Handle,
    ) -> Handle {
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            assert_eq!(
                fresh.kind(),
                e.handle.kind(),
                "metric {name} re-registered with a different kind"
            );
            return e.handle.clone();
        }
        entries.push(Entry {
            name,
            help,
            labels: labels.to_vec(),
            handle: fresh.clone(),
        });
        fresh
    }

    /// Register (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Register (or fetch) a labeled counter.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &'static str)],
    ) -> Arc<Counter> {
        self.register_counter(name, help, labels, Arc::new(Counter::new()))
    }

    /// Register an existing counter handle (a component-owned cell the
    /// service exposes, e.g. the plan cache's hit counter). Idempotent
    /// like the other registrations; if `(name, labels)` is already
    /// present the registered handle wins and is returned.
    pub fn register_counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &'static str)],
        counter: Arc<Counter>,
    ) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, Handle::Counter(counter)) {
            Handle::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register an existing gauge handle (e.g. [`global_live_bytes`],
    /// which must be shared between the core engine and the registry).
    /// Idempotent like the other registrations; if `(name, labels)` is
    /// already present the registered handle wins and is returned.
    pub fn register_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &'static str)],
        gauge: Arc<Gauge>,
    ) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, Handle::Gauge(gauge)) {
            Handle::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Register (or fetch) an unlabeled histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        let fresh = Handle::Histogram(Arc::new(Histogram::new()));
        match self.get_or_insert(name, help, &[], fresh) {
            Handle::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Point-in-time snapshot of every registered metric, grouped by
    /// family (same name, different labels) in registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().unwrap();
        let mut families: Vec<FamilySnapshot> = Vec::new();
        for e in entries.iter() {
            let value = e.handle.snapshot();
            match families.iter_mut().find(|f| f.name == e.name) {
                Some(f) => f.series.push((e.labels.clone(), value)),
                None => families.push(FamilySnapshot {
                    name: e.name,
                    help: e.help,
                    kind: e.handle.kind(),
                    series: vec![(e.labels.clone(), value)],
                }),
            }
        }
        MetricsSnapshot { families }
    }
}

/// One metric family (a name plus every label combination under it).
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Kind of every series in the family.
    pub kind: MetricKind,
    /// `(labels, value)` per series, in registration order.
    pub series: Vec<(Vec<(&'static str, &'static str)>, MetricValue)>,
}

/// A point-in-time snapshot of a whole [`Registry`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Every family, in first-registration order.
    pub families: Vec<FamilySnapshot>,
}

/// Write one sample line: `name[suffix][{labels[,le="…"]}] value`.
fn render_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(&str, &str)],
    le: Option<&str>,
    value: u64,
) {
    out.push_str(name);
    out.push_str(suffix);
    let mut sep = '{';
    for (k, v) in labels.iter().copied().chain(le.map(|le| ("le", le))) {
        out.push(sep);
        sep = ',';
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    if sep == ',' {
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

impl MetricsSnapshot {
    /// The family named `name`, if present.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Sum of a counter family across all its label sets (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name)
            .map(|f| {
                f.series
                    .iter()
                    .map(|(_, v)| match v {
                        MetricValue::Counter(c) => *c,
                        _ => 0,
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Render in Prometheus text exposition format (v0.0.4): `# HELP` /
    /// `# TYPE` per family, then one sample line per series. Histograms
    /// expand to cumulative `_bucket{le=...}` lines (empty buckets are
    /// skipped — cumulative counts are unchanged by them — with the
    /// `+Inf` bucket always present), plus `_sum` and `_count`. Gauges
    /// also emit a companion `<name>_peak` gauge with the high-water
    /// mark. Output always ends with a newline.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        for f in &self.families {
            out.push_str("# HELP ");
            out.push_str(f.name);
            out.push(' ');
            out.push_str(f.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(f.name);
            out.push(' ');
            out.push_str(f.kind.as_str());
            out.push('\n');
            for (labels, value) in &f.series {
                match value {
                    MetricValue::Counter(c) => {
                        render_sample(&mut out, f.name, "", labels, None, *c)
                    }
                    MetricValue::Gauge { value, .. } => {
                        render_sample(&mut out, f.name, "", labels, None, *value)
                    }
                    MetricValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, &b) in h.buckets.iter().enumerate() {
                            cum += b;
                            if b == 0 && i < HIST_BUCKETS - 1 {
                                continue;
                            }
                            let le = bucket_le(i);
                            render_sample(&mut out, f.name, "_bucket", labels, Some(&le), cum);
                        }
                        render_sample(&mut out, f.name, "_sum", labels, None, h.sum);
                        render_sample(&mut out, f.name, "_count", labels, None, h.count);
                    }
                }
            }
            // Companion peak gauge, emitted as its own family.
            if f.kind == MetricKind::Gauge {
                out.push_str("# HELP ");
                out.push_str(f.name);
                out.push_str("_peak High-water mark of ");
                out.push_str(f.name);
                out.push('\n');
                out.push_str("# TYPE ");
                out.push_str(f.name);
                out.push_str("_peak gauge\n");
                for (labels, value) in &f.series {
                    if let MetricValue::Gauge { peak, .. } = value {
                        render_sample(&mut out, f.name, "_peak", labels, None, *peak);
                    }
                }
            }
        }
        out
    }
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one sample line into `(metric_name, le_label, value)`.
fn parse_sample(line: &str) -> Result<(String, Option<String>, f64), String> {
    let mut le = None;
    let (name_part, value_part) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unclosed label set: {line}"))?;
            if close < brace {
                return Err(format!("malformed label set: {line}"));
            }
            let labels = &line[brace + 1..close];
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label without '=': {line}"))?;
                if !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    return Err(format!("unquoted label value: {line}"));
                }
                if !valid_metric_name(k) {
                    return Err(format!("bad label name {k:?}: {line}"));
                }
                if k == "le" {
                    le = Some(v[1..v.len() - 1].to_string());
                }
            }
            (&line[..brace], line[close + 1..].trim())
        }
        None => {
            let sp = line
                .find(' ')
                .ok_or_else(|| format!("sample without value: {line}"))?;
            (&line[..sp], line[sp + 1..].trim())
        }
    };
    let name = name_part.trim();
    if !valid_metric_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let value: f64 = value_part
        .parse()
        .map_err(|_| format!("unparseable value {value_part:?} on line: {line}"))?;
    Ok((name.to_string(), le, value))
}

/// Lint a Prometheus text exposition: every sample's metric must have a
/// preceding `# TYPE`, names and labels must be well-formed, values must
/// parse, histogram `_bucket` series must be cumulative with a final
/// `+Inf` equal to `_count`, and the text must end with a newline.
/// Returns the first problem found.
pub fn lint_prometheus_text(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".to_string());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".to_string());
    }
    let mut typed: Vec<(String, String)> = Vec::new(); // (name, kind)
                                                       // per histogram base name: (last cumulative, saw +Inf, +Inf value)
    let mut hist: Vec<(String, u64, bool, u64)> = Vec::new();
    let mut counts: Vec<(String, u64)> = Vec::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("bad TYPE name: {line}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("bad TYPE kind: {line}"));
            }
            typed.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        let (name, le, value) = parse_sample(line)?;
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(&name);
        let is_hist_series = typed.iter().any(|(n, k)| n == base && k == "histogram");
        let declared = typed.iter().any(|(n, _)| n == &name) || is_hist_series;
        if !declared {
            return Err(format!("sample for undeclared metric {name:?}"));
        }
        if is_hist_series && name.ends_with("_bucket") {
            let le = le.ok_or_else(|| format!("_bucket without le label: {line}"))?;
            let v = value as u64;
            match hist.iter_mut().find(|(n, ..)| n == base) {
                Some((_, last, saw_inf, inf_v)) => {
                    if v < *last {
                        return Err(format!("non-cumulative buckets for {base}"));
                    }
                    *last = v;
                    if le == "+Inf" {
                        *saw_inf = true;
                        *inf_v = v;
                    }
                }
                None => hist.push((base.to_string(), v, le == "+Inf", v)),
            }
        }
        if is_hist_series && name.ends_with("_count") {
            counts.push((base.to_string(), value as u64));
        }
    }
    for (base, _, saw_inf, inf_v) in &hist {
        if !saw_inf {
            return Err(format!("histogram {base} missing +Inf bucket"));
        }
        match counts.iter().find(|(n, _)| n == base) {
            Some((_, c)) if c == inf_v => {}
            Some((_, c)) => {
                return Err(format!(
                    "histogram {base}: +Inf bucket {inf_v} != _count {c}"
                ));
            }
            None => return Err(format!("histogram {base} missing _count")),
        }
    }
    Ok(())
}

/// The process-wide live-bytes gauge the core engine samples into at
/// work-unit granularity (mid-run memory visibility between pool
/// check-in boundaries). Shared as a static so `dpnext-core` can update
/// it without depending on any serving-layer registry; the service
/// registers this same handle under `dpnext_live_bytes_midrun`.
pub fn global_live_bytes() -> Arc<Gauge> {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| Arc::new(Gauge::new())).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(5, c.get());

        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(7, g.get());
        assert_eq!(10, g.peak());
        g.sub(100);
        assert_eq!(0, g.get(), "sub saturates at zero");
        g.set(42);
        assert_eq!(42, g.peak());
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(0, bucket_index(0));
        assert_eq!(1, bucket_index(1));
        assert_eq!(2, bucket_index(2));
        assert_eq!(2, bucket_index(3));
        assert_eq!(3, bucket_index(4));
        assert_eq!(63, bucket_index((1u64 << 63) - 1));
        assert_eq!(64, bucket_index(1u64 << 63));
        assert_eq!(64, bucket_index(u64::MAX));
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        // 90 fast observations (~1000ns) and 10 slow (~1_000_000ns).
        for _ in 0..90 {
            h.observe(1000);
        }
        for _ in 0..10 {
            h.observe(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(100, s.count);
        assert_eq!(90 * 1000 + 10 * 1_000_000, s.sum);
        // 1000 lands in bucket 10 (le 1023); 1_000_000 in bucket 20.
        assert_eq!(1023, s.quantile(0.50));
        assert_eq!(1023, s.quantile(0.90));
        assert_eq!((1u64 << 20) - 1, s.quantile(0.99));
        assert_eq!(0, Histogram::new().snapshot().quantile(0.5));
    }

    #[test]
    fn registry_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("dpnext_test_total", "test");
        let b = r.counter("dpnext_test_total", "test");
        a.inc();
        assert_eq!(1, b.get(), "same (name, labels) must share one cell");
        let l1 = r.counter_with("dpnext_test_total", "test", &[("rung", "exact")]);
        l1.add(3);
        let snap = r.snapshot();
        assert_eq!(4, snap.counter_total("dpnext_test_total"));
        assert_eq!(1, snap.families.len(), "labeled series join the family");
        assert_eq!(2, snap.families[0].series.len());
    }

    #[test]
    fn shared_gauge_registration() {
        let r = Registry::new();
        let g = global_live_bytes();
        let reg = r.register_gauge("dpnext_live_bytes_midrun", "live bytes", &[], g.clone());
        g.set(123);
        assert_eq!(123, reg.get());
        let again = r.register_gauge(
            "dpnext_live_bytes_midrun",
            "live bytes",
            &[],
            Arc::new(Gauge::new()),
        );
        assert_eq!(
            123,
            again.get(),
            "second registration returns the first handle"
        );
        g.set(0);
    }

    #[test]
    fn render_text_passes_lint() {
        let r = Registry::new();
        r.counter("dpnext_requests_total", "Requests.").add(7);
        r.register_gauge(
            "dpnext_queue_depth",
            "Waiters.",
            &[],
            Arc::new(Gauge::new()),
        )
        .set(2);
        r.counter_with("dpnext_rung_total", "Rungs.", &[("mode", "exact")])
            .add(4);
        let h = r.histogram("dpnext_latency_nanos", "Request latency.");
        h.observe(0);
        h.observe(900);
        h.observe(u64::MAX);
        let text = r.snapshot().render_text();
        lint_prometheus_text(&text).expect("rendered text must lint clean");
        assert!(text.contains("# TYPE dpnext_latency_nanos histogram\n"));
        assert!(text.contains("dpnext_rung_total{mode=\"exact\"} 4\n"));
        assert!(text.contains("dpnext_latency_nanos_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("dpnext_latency_nanos_bucket{le=\"1023\"} 2\n"));
        assert!(text.contains("dpnext_latency_nanos_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("dpnext_latency_nanos_count 3\n"));
        assert!(text.contains("dpnext_queue_depth 2\n"));
        assert!(text.contains("dpnext_queue_depth_peak 2\n"));
        assert!(text.ends_with('\n'));

        // A histogram series carrying labels of its own: `le` joins them.
        let labelled = MetricsSnapshot {
            families: vec![FamilySnapshot {
                name: "dpnext_latency_nanos",
                help: "Request latency.",
                kind: MetricKind::Histogram,
                series: vec![(
                    vec![("path", "serve")],
                    MetricValue::Histogram(h.snapshot()),
                )],
            }],
        }
        .render_text();
        lint_prometheus_text(&labelled).expect("labelled histogram must lint clean");
        assert!(labelled.contains("dpnext_latency_nanos_bucket{path=\"serve\",le=\"0\"} 1\n"));
        assert!(labelled.contains("dpnext_latency_nanos_bucket{path=\"serve\",le=\"+Inf\"} 3\n"));
        assert!(labelled.contains("dpnext_latency_nanos_count{path=\"serve\"} 3\n"));
    }

    #[test]
    fn lint_rejects_malformed_text() {
        assert!(lint_prometheus_text("").is_err());
        assert!(lint_prometheus_text("no_newline 1").is_err());
        assert!(lint_prometheus_text("undeclared_metric 1\n").is_err());
        assert!(
            lint_prometheus_text("# TYPE m counter\nm{l=unquoted} 1\n").is_err(),
            "label values must be quoted"
        );
        assert!(
            lint_prometheus_text(
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n"
            )
            .is_err(),
            "buckets must be cumulative"
        );
        assert!(
            lint_prometheus_text("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\n")
                .is_err(),
            "+Inf must equal _count"
        );
        assert!(lint_prometheus_text("# TYPE m counter\nm 1\n").is_ok());
    }
}
