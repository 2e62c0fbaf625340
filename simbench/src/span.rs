//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name (`<layer>.<call>`), start and end on one
//! monotonic clock, the span that caused it, the phase of the run it
//! belongs to (set-up, one measured pass, or a probe) and the executor
//! task it ran in. Spans are kept in memory and written out once the run
//! ends. A disabled tracer records nothing and reads no clock, so
//! untraced passes pay only a branch per call site.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use unicache_timing::Stopwatch;

/// Which part of the run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    /// A measured pass (numbered from 0).
    Pass(u32),
    /// Work done only to attribute time to one layer (traced runs).
    Probe,
}

/// Where a new span hangs: its parent, phase and task.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub parent: Option<u32>,
    pub phase: Phase,
    pub task: u32,
}

impl Ctx {
    pub fn root(phase: Phase) -> Self {
        Ctx {
            parent: None,
            phase,
            task: 0,
        }
    }

    /// The same context, attributed to executor task `task`.
    pub fn task(self, task: usize) -> Self {
        Ctx {
            task: task as u32,
            ..self
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub phase: Phase,
    pub task: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    clock: Option<Stopwatch>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            clock: enabled.then(Stopwatch::start),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the context its
    /// own child spans should use.
    pub fn record<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        let Some(clock) = self.clock else {
            return f(ctx);
        };
        let id = {
            let mut spans = self.spans.lock().expect("span buffer lock poisoned");
            let id = spans.len() as u32;
            // Reserve the id now so children (which finish first) can
            // name their parent; the slot is filled in when `f` returns.
            spans.push(Span {
                id,
                name,
                start_ns: 0,
                end_ns: 0,
                parent: ctx.parent,
                phase: ctx.phase,
                task: ctx.task,
            });
            id
        };
        let start_ns = clock.elapsed_nanos();
        let out = f(Ctx {
            parent: Some(id),
            ..ctx
        });
        let end_ns = clock.elapsed_nanos();
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        let s = &mut spans[id as usize];
        s.start_ns = start_ns;
        s.end_ns = end_ns;
        out
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }
}

/// Seconds spent in spans named `name` among `spans`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.secs())
}

/// Self time per layer: each span's duration minus the part of it that
/// its child spans cover (children on several worker threads may
/// overlap; their union is subtracted once). Spans whose parent is not
/// in `spans` still count their own self time.
pub fn self_secs_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// The spans as a JSON array (times in nanoseconds from the tracer's
/// start).
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                let (phase, pass) = match s.phase {
                    Phase::Setup => ("setup", Value::Null),
                    Phase::Pass(n) => ("pass", Value::from(n as u64)),
                    Phase::Probe => ("probe", Value::Null),
                };
                obj([
                    ("id", Value::from(s.id as u64)),
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                    ),
                    ("phase", Value::from(phase)),
                    ("pass", pass),
                    ("task", Value::from(s.task as u64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            phase: Phase::Pass(0),
            task: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, "exec.map", 0, 100, None),
            // Two workers: [10, 60) and [40, 90) overlap on [40, 60).
            span(1, "core.run_fused", 10, 60, Some(0)),
            span(2, "core.run_fused", 40, 90, Some(0)),
            span(3, "indexing.index_many", 20, 30, Some(1)),
        ];
        let by_layer = self_secs_by_layer(&spans);
        assert!((by_layer["exec"] - 20e-9).abs() < 1e-15);
        assert!((by_layer["core"] - 90e-9).abs() < 1e-15);
        assert!((by_layer["indexing"] - 10e-9).abs() < 1e-15);
        let total: f64 = by_layer.values().sum();
        assert!((total - 120e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let got = t.record("core.run_fused", Ctx::root(Phase::Setup), |_| 7);
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_records_link_parents_and_close_in_order() {
        let t = Tracer::new(true);
        t.record("exec.map", Ctx::root(Phase::Pass(3)), |c| {
            t.record("core.run_fused", c.task(5), |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].task, 5);
        assert_eq!(spans[1].phase, Phase::Pass(3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(total_secs(&spans, "exec.map"), spans[0].secs());
    }
}
