//! In-memory span collection for the traced run.
//!
//! Two sources feed one buffer: the program's own spans (`dse.*`,
//! `refine.*`, `scenario.*`), delivered through the process-wide
//! [`actuary_obs::span::set_observer`] hook, and the benchmark's timers
//! around the public calls it makes ([`timed`]). Nothing is recorded
//! until [`enable`] installs the observer — the untraced end-to-end runs
//! never call it — and [`take`] hands the buffer over for [`profile`],
//! which turns nested intervals into per-name self times.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, ThreadId};
use std::time::Instant;

use actuary_obs::span::{set_observer, SpanObserver};

/// One closed span: seconds since the trace origin.
#[derive(Debug, Clone)]
pub struct Closed {
    pub name: &'static str,
    pub thread: ThreadId,
    pub start: f64,
    pub end: f64,
    pub fields: Vec<(&'static str, u64)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Closed>> = Mutex::new(Vec::new());

fn now() -> f64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn push(span: Closed) {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Forwards the program's closed spans into the buffer. The observer is
/// told the duration at close, so the start is reconstructed from it.
struct Recorder;

impl SpanObserver for Recorder {
    fn on_close(&self, name: &'static str, seconds: f64, fields: &[(&'static str, u64)]) {
        let end = now();
        push(Closed {
            name,
            thread: thread::current().id(),
            start: end - seconds,
            end,
            fields: fields.to_vec(),
        });
    }
}

/// Starts tracing: installs the observer (once per process) and turns
/// the benchmark's own timers on.
pub fn enable() {
    now();
    // A second install attempt is harmless: the first observer stays.
    let _ = set_observer(Box::new(Recorder));
    ENABLED.store(true, Ordering::SeqCst);
}

/// Runs `f`; while tracing, records it as a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let start = now();
    let out = f();
    let end = now();
    push(Closed {
        name,
        thread: thread::current().id(),
        start,
        end,
        fields: Vec::new(),
    });
    out
}

/// Empties the buffer, returning everything recorded since the last call.
pub fn take() -> Vec<Closed> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Stat {
    /// Duration minus the time covered by direct child spans.
    pub self_s: f64,
    /// Summed durations.
    pub total_s: f64,
    pub count: u64,
    /// Summed recorded fields.
    pub fields: BTreeMap<&'static str, u64>,
}

/// Slack for nesting a reconstructed program-span interval: its end is
/// read after the program's own stopwatch, about a microsecond late. It
/// must stay below the shortest real span, or a sibling that starts as
/// another ends would pass for its child.
const NEST_SLACK_S: f64 = 2e-6;

/// Self times per span name. Spans nest per thread: a span's parent is
/// the innermost earlier span on the same thread that contains it.
pub fn profile(spans: &[Closed]) -> BTreeMap<&'static str, Stat> {
    let mut by_thread: Vec<(ThreadId, Vec<&Closed>)> = Vec::new();
    for span in spans {
        match by_thread.iter_mut().find(|(id, _)| *id == span.thread) {
            Some((_, list)) => list.push(span),
            None => by_thread.push((span.thread, vec![span])),
        }
    }
    let mut out: BTreeMap<&'static str, Stat> = BTreeMap::new();
    for (_, mut list) in by_thread {
        // Parents first: earlier start, and the containing span when two
        // starts lie within the slack (a reconstructed start can trail
        // its child's by the observer's own latency).
        list.sort_by(|a, b| a.start.total_cmp(&b.start).then(b.end.total_cmp(&a.end)));
        for i in 1..list.len() {
            let mut j = i;
            while j > 0 && list[j].start - list[j - 1].start < NEST_SLACK_S && {
                let (outer, inner) = (list[j], list[j - 1]);
                outer.end - outer.start > inner.end - inner.start
                    && inner.end <= outer.end + NEST_SLACK_S
            } {
                list.swap(j, j - 1);
                j -= 1;
            }
        }
        let mut child_time = vec![0.0f64; list.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, span) in list.iter().enumerate() {
            while let Some(&top) = stack.last() {
                let parent = list[top];
                if span.start >= parent.start - NEST_SLACK_S
                    && span.end <= parent.end + NEST_SLACK_S
                {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child_time[parent] += span.end - span.start;
            }
            stack.push(i);
        }
        for (span, children) in list.iter().zip(child_time) {
            let duration = span.end - span.start;
            let stat = out.entry(span.name).or_default();
            stat.self_s += (duration - children).max(0.0);
            stat.total_s += duration;
            stat.count += 1;
            for &(key, value) in &span.fields {
                *stat.fields.entry(key).or_insert(0) += value;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64) -> Closed {
        Closed {
            name,
            thread: thread::current().id(),
            start,
            end,
            fields: vec![("cells", 2)],
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("run", 0.0, 10.0),
            span("explore", 1.0, 9.0),
            span("evaluate", 2.0, 4.0),
            span("amortize", 4.0, 8.0),
            span("render", 9.5, 10.0),
        ];
        let p = profile(&spans);
        assert!((p["run"].self_s - 1.5).abs() < 1e-9);
        assert!((p["explore"].self_s - 2.0).abs() < 1e-9);
        assert!((p["amortize"].self_s - 4.0).abs() < 1e-9);
        assert_eq!(p["evaluate"].fields["cells"], 2);
        let covered: f64 = p.values().map(|s| s.self_s).sum();
        assert!((covered - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_parent_reconstructed_late_still_adopts_its_child() {
        let spans = [
            span("run", 0.0, 10.0),
            span("explore", 1.000_001, 9.0),
            span("classify", 1.000_000_5, 2.0),
        ];
        let p = profile(&spans);
        assert!((p["explore"].self_s - (7.999_999 - 0.999_999_5)).abs() < 1e-9);
        let covered: f64 = p.values().map(|s| s.self_s).sum();
        assert!((covered - 10.0).abs() < 1e-9);
    }
}
