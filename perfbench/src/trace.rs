//! In-memory span recording around the calls the benchmark makes into
//! each layer, and the self-time derivation over them.
//!
//! A disabled [`Tracer`] reads no clock and stores nothing, so the
//! untraced run pays one branch per call site. A layer the benchmark can
//! only reach inside another layer's call (the plan kernels inside
//! `Optimizer::step`, the optimizer inside `ClosedLoop::step_window`) is
//! read from the program's own profiler or metrics registry and entered
//! with [`Tracer::attribute`] as time spent inside the enclosing layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`layer.call`).
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u32,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Time measured inside a layer by the program's own instrumentation.
#[derive(Debug, Clone)]
struct Attributed {
    parent: &'static str,
    name: &'static str,
    ns: u64,
    calls: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans (or program-side calls) recorded under the name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: f64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: f64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
    attributed: Vec<Attributed>,
}

impl Tracer {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            attributed: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags subsequent spans with op id `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op: self.op, parent, start_ns, end_ns: start_ns });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("close matches an open");
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Enters `ns` nanoseconds over `calls` calls that the program's own
    /// instrumentation measured for layer `name` inside spans named
    /// `parent`: they are subtracted from `parent`'s self time.
    pub fn attribute(&mut self, parent: &'static str, name: &'static str, ns: u64, calls: u64) {
        if self.on {
            self.attributed.push(Attributed { parent, name, ns, calls });
        }
    }

    /// Per-layer call counts, total and self times.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns) as f64;
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.total_ns += dur;
            l.self_ns += dur;
            if s.parent != ROOT {
                out.entry(self.spans[s.parent as usize].name).or_default().self_ns -= dur;
            }
        }
        for a in &self.attributed {
            out.entry(a.parent).or_default().self_ns -= a.ns as f64;
            let l = out.entry(a.name).or_default();
            l.calls += a.calls;
            l.total_ns += a.ns as f64;
            l.self_ns += a.ns as f64;
        }
        out
    }

    /// Writes every span (tab-separated: op, id, parent, name, start,
    /// end) followed by the attributed program-side totals.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(w, "{}\t{i}\t{parent}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        writeln!(w, "# attributed\tparent\tname\tns\tcalls")?;
        for a in &self.attributed {
            writeln!(w, "# attributed\t{}\t{}\t{}\t{}", a.parent, a.name, a.ns, a.calls)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_attributions() {
        let mut t = Tracer::new(true);
        t.open("op");
        t.span("child", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close();
        t.attribute("child", "inner", 1_000_000, 3);
        let layers = t.layers();
        let op = layers["op"];
        let child = layers["child"];
        let inner = layers["inner"];
        assert!(op.self_ns >= 0.0 && op.self_ns < op.total_ns);
        assert!((child.self_ns - (child.total_ns - 1e6)).abs() < 1.0);
        assert_eq!(inner.calls, 3);
        let sum = op.self_ns + child.self_ns + inner.self_ns;
        assert!((sum - op.total_ns).abs() < 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("op");
        t.close();
        t.attribute("op", "x", 5, 1);
        assert!(t.layers().is_empty());
    }
}
