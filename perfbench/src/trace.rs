//! In-memory span recorder for the traced run.
//!
//! Every timed call into a layer is wrapped in a span: name, start, end,
//! parent span, thread, run id, plus the process CPU and thread count
//! read from `/proc` around it. Spans stay in memory and are written out
//! once, at exit, as Chrome trace-event JSON (load it in `chrome://tracing`
//! or Perfetto). With tracing off a span is a plain call.

use crate::procfs::Sample;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub tid: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// Operations the span covers (a batch of `ops` identical calls).
    pub ops: u64,
    pub user_s: f64,
    pub sys_s: f64,
    pub threads: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: String) -> Self {
        Self {
            enabled,
            run_id,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_ops(name, 1, f)
    }

    /// Runs `f`, a batch of `ops` identical calls, inside one span.
    pub fn span_ops<R>(&self, name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let before = Sample::now();
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let after = Sample::now();
        STACK.with(|s| s.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            name,
            tid: TID.with(|t| *t),
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            ops,
            user_s: after.user_s - before.user_s,
            sys_s: after.sys_s - before.sys_s,
            threads: after.threads.max(before.threads),
        });
        out
    }

    /// Records a span whose interval was measured by the caller, as a
    /// child of the innermost open span on this thread.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: STACK.with(|s| s.borrow().last().copied()),
            name,
            tid: TID.with(|t| *t),
            start_us: at(start),
            end_us: at(end),
            ops: 1,
            user_s: 0.0,
            sys_s: 0.0,
            threads: 0,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking benchmark thread")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking benchmark thread")
            .clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Per-operation durations in seconds of every span named `name`.
    pub fn per_op_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s() / s.ops.max(1) as f64)
            .collect()
    }

    /// Self time in seconds of every span named `name`: its duration
    /// minus the part of its interval that its child spans cover.
    pub fn self_times_s(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s() - covered_us(s, &spans) / 1e6)
            .collect()
    }

    /// For every span named `parent`, the summed duration in seconds of
    /// its direct children named `child`.
    pub fn child_sums_s(&self, child: &str, parent: &str) -> Vec<f64> {
        let spans = self.spans();
        spans
            .iter()
            .filter(|p| p.name == parent)
            .map(|p| {
                spans
                    .iter()
                    .filter(|c| c.name == child && c.parent == Some(p.id))
                    .map(Span::dur_s)
                    .sum()
            })
            .collect()
    }

    /// Share of each `name` span's interval covered by its children.
    pub fn child_coverage(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| covered_us(s, &spans) / (s.end_us - s.start_us).max(1e-9))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking benchmark thread")
            .len()
    }

    /// The spans as Chrome trace-event JSON (complete `X` events).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"run\":\"{}\",\"id\":{},\
                 \"parent\":{},\"ops\":{},\"user_s\":{:.3},\"sys_s\":{:.3},\"threads\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                s.start_us,
                s.end_us - s.start_us,
                self.run_id,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.ops,
                s.user_s,
                s.sys_s,
                s.threads,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Microseconds of `parent`'s interval covered by the union of its
/// direct children's intervals.
fn covered_us(parent: &Span, spans: &[Span]) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(parent.id))
        .map(|c| (c.start_us.max(parent.start_us), c.end_us.min(parent.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Cost in seconds of one span in this process, measured by timing a
/// batch of empty spans in a scratch tracer.
pub fn span_cost_s() -> f64 {
    const N: u32 = 200;
    let scratch = Tracer::new(true, String::new());
    let start = Instant::now();
    for _ in 0..N {
        scratch.span("empty", || ());
    }
    start.elapsed().as_secs_f64() / f64::from(N)
}
