//! Spans and counters recorded from the benchmark's own files, around
//! each call into a layer's public functions.
//!
//! A span has a name, a start, an end and a parent; spans are kept in
//! memory and folded into per-layer busy and self time at the end. The
//! replay runs on one thread, so a span's children are exactly the spans
//! opened while it was the innermost open span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span, times in seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// Records spans when enabled; a disabled tracer only runs the closures,
/// which is how the replay measures its own tracing overhead.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    state: RefCell<State>,
}

/// Busy and self time of one span name, and how many spans it had.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub busy: f64,
    pub self_time: f64,
    pub calls: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let start = self.t0.elapsed().as_secs_f64();
            st.spans.push(Span {
                name,
                start,
                end: start,
                parent,
            });
            st.open.push(id);
            id
        };
        let out = f();
        let mut st = self.state.borrow_mut();
        st.spans[id].end = self.t0.elapsed().as_secs_f64();
        st.open.pop();
        out
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&self, name: &'static str, v: f64) {
        if self.enabled {
            *self.state.borrow_mut().counters.entry(name).or_default() += v;
        }
    }

    /// Raises the counter `name` to at least `v`.
    pub fn count_max(&self, name: &'static str, v: f64) {
        if self.enabled {
            let mut st = self.state.borrow_mut();
            let c = st.counters.entry(name).or_default();
            *c = c.max(v);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.state
            .borrow()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Per span name: busy time (sum of durations), self time (durations
    /// minus the part covered by child spans) and call count.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let st = self.state.borrow();
        let mut child_time = vec![0.0; st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in st.spans.iter().enumerate() {
            let d = s.end - s.start;
            let e = out.entry(s.name).or_default();
            e.busy += d;
            e.self_time += d - child_time[i];
            e.calls += 1;
        }
        out
    }

    /// Total duration of the spans that have no parent.
    pub fn top_level_time(&self) -> f64 {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new(true);
        tr.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(30))
            });
        });
        let l = tr.layers();
        let (outer, inner) = (l["outer"], l["inner"]);
        assert!(outer.busy >= 0.05);
        assert!((outer.self_time - (outer.busy - inner.busy)).abs() < 1e-9);
        assert!(inner.self_time >= 0.03);
        assert!((tr.top_level_time() - outer.busy).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 7), 7);
        tr.count("c", 1.0);
        assert!(tr.layers().is_empty());
        assert_eq!(tr.counter("c"), 0.0);
    }
}
