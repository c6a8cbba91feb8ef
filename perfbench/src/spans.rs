//! The benchmark's own spans, recorded through `pygb_obs` so program
//! spans and benchmark spans land in one buffer and one Chrome trace.
//!
//! A benchmark span wraps one call into a layer's public function. It
//! carries its own id, its parent's id and a request id in its `args`,
//! so the exported trace shows which benchmark call caused which
//! program spans; spans of one request share the request id. Nothing
//! is recorded while `pygb_obs` tracing is off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use pygb_obs::{Cat, SpanEvent};

/// Name prefix that marks a span as the benchmark's own.
pub const PREFIX: &str = "bench/";

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open benchmark spans on this thread: `(span id, request id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A live benchmark span; closes (and is buffered) on drop.
pub struct BenchSpan {
    inner: Option<(pygb_obs::Span, u64)>,
}

/// Open a span named `bench/<name>`. `cat` is the `pygb_obs` category
/// of the layer the call enters. A span opened inside another belongs
/// to its request; an outermost span starts a new request.
pub fn open(cat: Cat, name: &str) -> BenchSpan {
    if !pygb_obs::enabled() {
        return BenchSpan { inner: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, req) = OPEN
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| (0, NEXT_REQ.fetch_add(1, Ordering::Relaxed)));
    let mut span = pygb_obs::span_labeled(cat, || format!("{PREFIX}{name}"));
    span.arg("span", id.to_string());
    span.arg("parent", parent.to_string());
    span.arg("req", req.to_string());
    OPEN.with(|s| s.borrow_mut().push((id, req)));
    BenchSpan {
        inner: Some((span, id)),
    }
}

impl Drop for BenchSpan {
    fn drop(&mut self) {
        if let Some((span, id)) = self.inner.take() {
            OPEN.with(|s| {
                let mut s = s.borrow_mut();
                if s.last().is_some_and(|&(top, _)| top == id) {
                    s.pop();
                }
            });
            drop(span);
        }
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover. Children are found by time containment on the same thread
/// lane, which is how the program's own spans nest.
pub fn self_times(events: &[SpanEvent]) -> Vec<(&SpanEvent, u64)> {
    let mut by_lane: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        by_lane.entry(ev.tid).or_default().push(i);
    }
    let mut child_ns = vec![0u64; events.len()];
    for lane in by_lane.values_mut() {
        // Parents first: earlier start, then longer duration.
        lane.sort_by(|&a, &b| {
            let (ea, eb) = (&events[a], &events[b]);
            ea.ts_ns.cmp(&eb.ts_ns).then(eb.dur_ns.cmp(&ea.dur_ns))
        });
        let mut stack: Vec<usize> = Vec::new();
        for &i in lane.iter() {
            let ev = &events[i];
            while let Some(&top) = stack.last() {
                let t = &events[top];
                if ev.ts_ns >= t.ts_ns + t.dur_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                child_ns[top] += ev.dur_ns;
            }
            stack.push(i);
        }
    }
    events
        .iter()
        .zip(child_ns)
        .map(|(ev, c)| (ev, ev.dur_ns.saturating_sub(c)))
        .collect()
}

/// Total self time of the program's spans per `pygb_obs` category.
pub fn program_self_ns(events: &[SpanEvent]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (ev, ns) in self_times(events) {
        if !ev.name.starts_with(PREFIX) {
            *out.entry(ev.cat.name()).or_insert(0) += ns;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ts: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat: Cat::Flush,
            ts_ns: ts,
            dur_ns: dur,
            tid: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            ev("bench/outer", 0, 100),
            ev("child", 10, 50),
            ev("grandchild", 20, 10),
            ev("sibling", 70, 20),
        ];
        let st: Vec<u64> = self_times(&events).into_iter().map(|(_, ns)| ns).collect();
        assert_eq!(st, vec![30, 40, 10, 20]);
        assert_eq!(program_self_ns(&events)["flush"], 70);
    }
}
