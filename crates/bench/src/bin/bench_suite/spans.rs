//! Bench-side spans: one per call into a layer, recorded from outside
//! the program, kept in memory and written out when the run ends.

use std::time::Instant;

/// One timed call: which layer, when, caused by which span, on behalf of
/// which request (a pass number, or a request ordinal on a connection).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// The in-memory span log of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// this tracer become its children. Returns the span's id with
    /// `f`'s value.
    pub fn scope<T>(
        &mut self,
        name: &str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (usize, T) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (id, value)
    }

    /// Record a span timed elsewhere (a generator thread's round trip).
    pub fn record(&mut self, name: &str, request: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_ms(&self, id: usize) -> f64 {
        duration_ns(&self.spans[id]) as f64 / 1e6
    }

    /// Duration of the first child of `parent` named `name`, in
    /// milliseconds (0 when the pass never called that layer).
    pub fn child_ms(&self, parent: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .position(|s| s.parent == Some(parent) && s.name == name)
            .map_or(0.0, |id| self.duration_ms(id))
    }

    pub fn self_ms(&self, id: usize) -> f64 {
        self_ns(&self.spans, id) as f64 / 1e6
    }

    /// Self times of `root` and all its descendants, summed: equals
    /// `root`'s duration when every child lies inside its parent.
    pub fn tree_self_ms(&self, root: usize) -> f64 {
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        // Parents are recorded before their children.
        for id in root + 1..self.spans.len() {
            in_tree[id] = self.spans[id].parent.is_some_and(|parent| in_tree[parent]);
        }
        (root..self.spans.len())
            .filter(|&id| in_tree[id])
            .map(|id| self.self_ms(id))
            .sum()
    }

    /// The whole log as one JSON document (`trace_<workload>.json`).
    pub fn to_json(&self, workload: &str) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                     \"parent\":{},\"request\":{},\"self_ns\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.request,
                    self_ns(&self.spans, id),
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"spans\":[\n{}\n]}}\n",
            rows.join(",\n")
        )
    }
}

fn duration_ns(span: &Span) -> u64 {
    span.end_ns.saturating_sub(span.start_ns)
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap one another (parallel calls)
/// and are clipped to the parent, so covered time is counted once.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    duration_ns(parent) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 30);
        assert_eq!(self_ns(&spans, 1), 20);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 50, 55, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("pass", 50, 100, None),
            span("early", 0, 60, Some(0)),
            span("late", 90, 150, Some(0)),
            span("outside", 200, 300, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 30);
    }

    #[test]
    fn grandchildren_count_against_their_own_parent_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 0, 50, Some(0)),
            span("a.inner", 10, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 50);
        assert_eq!(self_ns(&spans, 1), 40);
        let total: u64 = (0..spans.len()).map(|id| self_ns(&spans, id)).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn scopes_nest_and_time_forward() {
        let mut tracer = Tracer::new();
        let (root, inner) = tracer.scope("pass", 1, |t| t.scope("layer", 1, |_| 7).0);
        assert_eq!(tracer.spans()[inner].parent, Some(root));
        assert_eq!(tracer.spans()[root].parent, None);
        assert!(tracer.spans()[root].end_ns >= tracer.spans()[inner].end_ns);
        assert!(tracer.child_ms(root, "layer") >= 0.0);
        assert_eq!(tracer.child_ms(root, "absent"), 0.0);
        assert!(tracer.to_json("w").contains("\"name\":\"layer\""));
        let whole = tracer.duration_ms(root);
        assert!((tracer.tree_self_ms(root) - whole).abs() < 1e-9);
    }
}
