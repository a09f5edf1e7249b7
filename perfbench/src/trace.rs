//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span times one call into a library layer. The benchmark cannot put
//! spans inside the library, so the part of a call spent in a lower layer
//! is measured by replaying that lower layer alone on the same input (a
//! *probe*) and crediting the probe's duration to the span as a child. A
//! span's self time is its duration minus its credited children; a
//! credited child's self time is its own duration. Probe time is kept out
//! of the traced wall time, so layer self times plus the benchmark's own
//! glue add up to the wall time.
//!
//! With tracing off every call is a plain function call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Handle of a recorded span (only meaningful while tracing).
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

struct Span {
    name: &'static str,
    parent: Option<usize>,
    dur: Duration,
}

pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    excluded: Duration,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, spans: Vec::new(), excluded: Duration::ZERO }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` as a span named after the layer call it makes.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, SpanId) {
        if !self.on {
            return (f(), SpanId(None));
        }
        let t = Instant::now();
        let r = f();
        let dur = t.elapsed();
        self.spans.push(Span { name, parent: None, dur });
        (r, SpanId(Some(self.spans.len() - 1)))
    }

    /// Time a replay of a lower layer; its duration leaves the wall time.
    /// Returns `None` without running `f` when tracing is off.
    pub fn probe<R>(&mut self, f: impl FnOnce() -> R) -> Option<(R, Duration)> {
        if !self.on {
            return None;
        }
        let t = Instant::now();
        let r = f();
        let dur = t.elapsed();
        self.excluded += dur;
        Some((r, dur))
    }

    /// Run `f`, a check that calls into the library, keeping its time out
    /// of the pass wall time, traced or not.
    pub fn aside<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.excluded += t.elapsed();
        r
    }

    /// Record `dur` of layer `name` as a child of `parent`.
    pub fn credit(&mut self, parent: SpanId, name: &'static str, dur: Duration) {
        if let SpanId(Some(p)) = parent {
            self.spans.push(Span { name, parent: Some(p), dur });
        }
    }

    /// Drain the recorded spans into per-name totals and self times, and
    /// the probe time to subtract from the wall.
    pub fn take(&mut self) -> Totals {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur;
            }
        }
        let mut totals = Totals { excluded: self.excluded, ..Totals::default() };
        for (s, child) in self.spans.iter().zip(children) {
            *totals.total.entry(s.name).or_default() += s.dur.as_secs_f64();
            *totals.self_time.entry(s.name).or_default() +=
                s.dur.as_secs_f64() - child.as_secs_f64();
        }
        self.spans.clear();
        self.excluded = Duration::ZERO;
        totals
    }
}

/// Per-name span sums for one pass, in seconds.
#[derive(Default)]
pub struct Totals {
    pub total: BTreeMap<&'static str, f64>,
    pub self_time: BTreeMap<&'static str, f64>,
    pub excluded: Duration,
}

impl Totals {
    pub fn total(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_time(&self, name: &str) -> f64 {
        self.self_time.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of every span whose name starts with `layer.`.
    pub fn layer_self(&self, layer: &str) -> f64 {
        self.self_time
            .iter()
            .filter(|(k, _)| k.split('.').next() == Some(layer))
            .map(|(_, v)| v)
            .sum()
    }

    pub fn all_self(&self) -> f64 {
        self.self_time.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credited_children_leave_parent_self_time() {
        let mut t = Tracer::new(true);
        let (_, id) = t.span("core.encode", || std::thread::sleep(Duration::from_millis(4)));
        let (_, d) = t.probe(|| std::thread::sleep(Duration::from_millis(1))).expect("tracing on");
        t.credit(id, "ecc.encode", d);
        let totals = t.take();
        let enc = totals.total("core.encode");
        assert!((totals.all_self() - enc).abs() < 1e-9);
        assert!(
            (totals.self_time("core.encode") + totals.self_time("ecc.encode") - enc).abs() < 1e-9
        );
        assert_eq!(totals.excluded, d);
        assert!((totals.layer_self("ecc") - d.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, _) = t.span("sz.compress", || 7);
        assert_eq!(v, 7);
        assert!(t.probe(|| ()).is_none());
        t.aside(|| std::thread::sleep(Duration::from_millis(1)));
        let totals = t.take();
        assert!(totals.total.is_empty());
        assert!(totals.excluded >= Duration::from_millis(1));
    }
}
