//! Spans recorded from outside the program, folded into self time, and
//! exported as Chrome trace-event JSON (opens in Perfetto or
//! `chrome://tracing`).
//!
//! Spans are kept in memory and written once, when the run ends. Each
//! has a name, a layer, a start and end on the run's clock, the span
//! that caused it, and the request it belongs to.

use serde_json::Value;
use std::time::Instant;

/// One timed interval, in microseconds since the run began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed, e.g. `submit` or `step`.
    pub name: &'static str,
    /// The layer the span belongs to: `loadgen`, `serve` or `engine`.
    pub layer: &'static str,
    /// Start, in microseconds since the run began.
    pub start_us: f64,
    /// End, in microseconds since the run began.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request id, for spans that belong to one request.
    pub req: Option<u64>,
    /// Trace lane: one per phase or round series.
    pub lane: usize,
    /// Row within the lane: one per request, row 0 for phase-wide spans.
    pub row: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The spans of one run plus the names of its lanes.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    lanes: Vec<String>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// Microseconds since the trace's origin.
    pub fn now_us(&self) -> f64 {
        self.at_us(Instant::now())
    }

    /// Microseconds from the trace's origin to `t`.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// A zero-length, parentless span starting at `start_us`, to be
    /// completed with struct-update syntax.
    pub fn span(
        &self,
        name: &'static str,
        layer: &'static str,
        lane: usize,
        start_us: f64,
    ) -> Span {
        Span {
            name,
            layer,
            start_us,
            end_us: start_us,
            parent: None,
            req: None,
            lane,
            row: 0,
        }
    }

    /// Close span `idx` at `end_us`.
    pub fn end(&mut self, idx: usize, end_us: f64) {
        self.spans[idx].end_us = end_us;
    }

    /// Open a lane (a Perfetto process row) for one phase.
    pub fn lane(&mut self, name: String) -> usize {
        self.lanes.push(name);
        self.lanes.len() - 1
    }

    /// Record a span, returning its index for use as a parent.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, one process per lane and one thread per request.
    pub fn chrome_json(&self) -> String {
        let mut events: Vec<Value> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(pid, name)| {
                obj(vec![
                    ("name", Value::Str("process_name".into())),
                    ("ph", Value::Str("M".into())),
                    ("pid", Value::Int(pid as i64)),
                    ("args", obj(vec![("name", Value::Str(name.clone()))])),
                ])
            })
            .collect();
        events.extend(self.spans.iter().enumerate().map(|(i, s)| {
            let mut args = vec![("span", Value::Int(i as i64))];
            if let Some(p) = s.parent {
                args.push(("parent", Value::Int(p as i64)));
            }
            if let Some(r) = s.req {
                args.push(("req", Value::Int(r as i64)));
            }
            obj(vec![
                ("name", Value::Str(s.name.into())),
                ("cat", Value::Str(s.layer.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(s.start_us)),
                ("dur", Value::Float(s.duration_us().max(0.0))),
                ("pid", Value::Int(s.lane as i64)),
                ("tid", Value::Int(s.row as i64)),
                ("args", obj(args)),
            ])
        }));
        let doc = obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
        ]);
        serde_json::to_string(&doc).expect("a Value tree always serializes")
    }
}

/// A JSON object from its fields, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are merged first, and a
/// child sticking out of its parent only counts inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(f64, f64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_us.max(s.start_us),
                        spans[c].end_us.min(s.end_us),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut run: Option<(f64, f64)> = None;
            for (a, b) in cover {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Total and self time of all spans sharing a layer and name.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldRow {
    /// Layer of the spans.
    pub layer: &'static str,
    /// Name of the spans.
    pub name: &'static str,
    /// How many spans.
    pub count: usize,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Summed self time, microseconds.
    pub self_us: f64,
}

/// Fold spans by (layer, name), largest self time first.
pub fn fold(spans: &[Span]) -> Vec<FoldRow> {
    let selfs = self_times(spans);
    let mut rows: Vec<FoldRow> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows
            .iter_mut()
            .find(|r| r.layer == s.layer && r.name == s.name)
        {
            Some(r) => {
                r.count += 1;
                r.total_us += s.duration_us();
                r.self_us += own;
            }
            None => rows.push(FoldRow {
                layer: s.layer,
                name: s.name,
                count: 1,
                total_us: s.duration_us(),
                self_us: own,
            }),
        }
    }
    rows.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer: "engine",
            start_us,
            end_us,
            parent,
            req: None,
            lane: 0,
            row: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("root", 0.0, 100.0, None),
            // Two children overlapping on [20, 30]: union [10, 40].
            span("a", 10.0, 30.0, Some(0)),
            span("b", 20.0, 40.0, Some(0)),
            // A child hanging past the parent's end only counts inside.
            span("c", 90.0, 120.0, Some(0)),
            // A grandchild is charged to its own parent, not the root.
            span("d", 12.0, 18.0, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100.0 - 30.0 - 10.0);
        assert_eq!(selfs[1], 20.0 - 6.0);
        assert_eq!(selfs[2], 20.0);
        assert_eq!(selfs[3], 30.0);
        assert_eq!(selfs[4], 6.0);
    }

    #[test]
    fn fold_groups_by_layer_and_name() {
        let spans = [
            span("root", 0.0, 10.0, None),
            span("step", 0.0, 4.0, Some(0)),
            span("step", 4.0, 7.0, Some(0)),
        ];
        let rows = fold(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].name, rows[0].count), ("step", 2));
        assert_eq!(rows[0].self_us, 7.0);
        assert_eq!((rows[1].name, rows[1].self_us), ("root", 3.0));
    }

    #[test]
    fn chrome_export_is_trace_event_json() {
        let mut t = Trace::new(Instant::now());
        let lane = t.lane("burst".into());
        let root = t.push(Span {
            lane,
            ..span("replay", 0.0, 5.0, None)
        });
        t.push(Span {
            req: Some(3),
            lane,
            row: 4,
            ..span("admit", 1.0, 2.5, Some(root))
        });
        let doc: Value = serde_json::from_str(&t.chrome_json()).unwrap();
        let Value::Object(fields) = doc else {
            panic!("top level must be an object")
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 3, "one process name plus two spans");
        let text = t.chrome_json();
        assert!(text.contains(r#""ph":"X""#));
        assert!(text.contains(r#""dur":1.5"#));
        assert!(text.contains(r#""parent":0"#));
    }
}
