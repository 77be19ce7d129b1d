//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out at the end as Chrome trace-event JSON (opens in Perfetto).
//!
//! Spans are recorded only by the benchmark's own code; the program under
//! test carries no instrumentation.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `npm.reduce_sync`.
    pub name: &'static str,
    /// Host the span ran on; `None` for work on the benchmark's main thread.
    pub host: Option<usize>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End in the same clock; equal to `start_ns` while the span is open.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &'static str, host: Option<usize>, parent: Option<SpanId>) -> SpanId {
        let t = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            host,
            parent,
            start_ns: t,
            end_ns: t,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&self, id: SpanId) -> f64 {
        let t = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = t;
        spans[id].nanos() as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn time<R>(
        &self,
        name: &'static str,
        host: Option<usize>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, host, parent);
        let r = f();
        (r, self.close(id))
    }

    /// Span `id`'s duration in seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        self.lock()[id].nanos() as f64 * 1e-9
    }

    /// Per-name `(total seconds, count)` of `parent`'s direct children,
    /// together with the check that they lie inside the parent and do not
    /// overlap one another (so their sum is the time they cover).
    pub fn children(&self, parent: SpanId) -> Children {
        let spans = self.lock();
        let p = &spans[parent];
        let mut kids: Vec<&Span> = spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect();
        kids.sort_by_key(|s| s.start_ns);
        let mut by_name: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        let mut nested = true;
        let mut last_end = p.start_ns;
        for s in kids {
            nested &= s.start_ns >= last_end && s.end_ns <= p.end_ns;
            last_end = s.end_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += s.nanos() as f64 * 1e-9;
            e.1 += 1;
        }
        Children { by_name, nested }
    }

    /// Writes every span as a Chrome trace-event JSON document: one
    /// complete (`"ph":"X"`) event per span, one track per host.
    pub fn write_chrome<W: Write>(&self, mut w: W, meta: &str) -> io::Result<()> {
        let spans = self.lock();
        writeln!(w, "{{\"metadata\":{meta},\"traceEvents\":[")?;
        for (id, s) in spans.iter().enumerate() {
            let tid = s.host.map_or(0, |h| h + 1);
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}},",
                s.name,
                s.start_ns as f64 / 1e3,
                s.nanos() as f64 / 1e3,
            )?;
        }
        // Track names; this last event also closes the list without a
        // trailing comma.
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"main\"}}}}"
        )?;
        let hosts = spans
            .iter()
            .filter_map(|s| s.host)
            .max()
            .map_or(0, |h| h + 1);
        for h in 0..hosts {
            write!(
                w,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"host {h}\"}}}}",
                h + 1
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// The direct children of one span, summed by name.
#[derive(Debug, Default)]
pub struct Children {
    /// Name → `(total seconds, count)`.
    pub by_name: BTreeMap<&'static str, (f64, u64)>,
    /// Every child lies inside the parent and after its previous sibling.
    pub nested: bool,
}

impl Children {
    /// Total seconds of the children whose name starts with `prefix`.
    pub fn secs_with_prefix(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v.0)
            .sum()
    }

    /// Number of children whose name starts with `prefix`.
    pub fn count_with_prefix(&self, prefix: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v.1)
            .sum()
    }

    /// Total seconds of the children named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_sum_by_name_and_detect_overlap() {
        let t = Tracer::default();
        let root = t.open("solve", Some(0), None);
        t.time("npm.reduce_sync", Some(0), Some(root), || ());
        t.time("npm.reduce_sync", Some(0), Some(root), || ());
        t.time("npm.is_updated", Some(0), Some(root), || ());
        t.close(root);
        let c = t.children(root);
        assert!(c.nested);
        assert_eq!(c.by_name["npm.reduce_sync"].1, 2);
        assert_eq!(c.count_with_prefix("npm."), 3);
        assert!(c.secs_with_prefix("npm.") <= t.secs(root));

        // A child opened before and closed after its sibling overlaps it.
        let root = t.open("solve", Some(0), None);
        let a = t.open("npm.a", Some(0), Some(root));
        std::thread::sleep(std::time::Duration::from_millis(1));
        let b = t.open("npm.b", Some(0), Some(root));
        t.close(a);
        t.close(b);
        t.close(root);
        assert!(!t.children(root).nested);
    }

    #[test]
    fn chrome_trace_is_one_json_document() {
        let t = Tracer::default();
        let root = t.open("iteration", None, None);
        t.time("algos.solve", Some(1), Some(root), || ());
        t.close(root);
        let mut buf = Vec::new();
        t.write_chrome(&mut buf, "{\"seed\":1}").unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("{\"metadata\":{\"seed\":1},\"traceEvents\":["));
        assert!(s.trim_end().ends_with("]}"));
        assert_eq!(s.matches("\"ph\":\"X\"").count(), 2);
        assert!(s.contains("\"name\":\"host 1\""));
        assert!(!s.contains(",\n]"), "no trailing comma");
    }
}
