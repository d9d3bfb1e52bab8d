//! The traced run: spans around every call the harness makes into a
//! layer, plus host timestamps of the `Observer` hooks, kept in memory
//! and written as a Chrome trace-event file when the workload ends.
//!
//! Spans live in the benchmark's own files only; spans inside the
//! crates are ROADMAP item 1's `RunProfile`.

use crate::json::Json;
use hvft_core::observer::{DropReason, Observer};
use hvft_core::system::FailoverInfo;
use hvft_sim::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One harness-side span. `parent` indexes the enclosing span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    EpochBoundary,
    MessageSent,
    MessageDropped,
    Retransmit,
    Failover,
    SnapshotTaken,
    ReplicaReintegrated,
}

impl Hook {
    fn name(self) -> &'static str {
        match self {
            Hook::EpochBoundary => "epoch_boundary",
            Hook::MessageSent => "message_sent",
            Hook::MessageDropped => "message_dropped",
            Hook::Retransmit => "retransmit",
            Hook::Failover => "failover",
            Hook::SnapshotTaken => "snapshot_taken",
            Hook::ReplicaReintegrated => "replica_reintegrated",
        }
    }

    fn layer(self) -> &'static str {
        match self {
            Hook::EpochBoundary | Hook::SnapshotTaken => "hvft-hypervisor",
            Hook::MessageSent | Hook::MessageDropped | Hook::Retransmit => "hvft-net",
            Hook::Failover | Hook::ReplicaReintegrated => "hvft-core",
        }
    }
}

/// Host time at which an observer hook fired.
#[derive(Clone, Copy, Debug)]
pub struct HookEvent {
    pub hook: Hook,
    pub replica: u32,
    /// The epoch of an [`Hook::EpochBoundary`]; 0 for other hooks.
    pub epoch: u64,
    pub at_ns: u64,
}

/// Hook instants written per trace file; a `paper-el1k` run fires
/// ~850 000 hooks and the file is for looking at, so the rest are
/// thinned evenly (the count before thinning is in the file's metadata).
const MAX_HOOK_EVENTS_WRITTEN: usize = 50_000;

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    hooks: Vec<HookEvent>,
}

/// In-memory trace of one workload. Cloning shares the buffer, which is
/// how the boxed [`HookRecorder`] handed to a `Runner` reports back.
#[derive(Clone)]
pub struct Tracer {
    t0: Instant,
    inner: Rc<RefCell<Inner>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            inner: Rc::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name: name.to_owned(),
                layer,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            inner.open.push(idx);
            idx
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx].end_ns = self.now_ns();
        inner.open.pop();
        out
    }

    /// An observer that timestamps hooks into this trace.
    pub fn recorder(&self) -> Box<dyn Observer> {
        Box::new(HookRecorder(self.clone()))
    }

    fn hook(&self, hook: Hook, replica: usize, epoch: u64) {
        let at_ns = self.now_ns();
        self.inner.borrow_mut().hooks.push(HookEvent {
            hook,
            replica: replica as u32,
            epoch,
            at_ns,
        });
    }

    /// Host microseconds between the hooks of consecutive epoch
    /// boundaries of `replica`. Consecutive epoch numbers keep the gap
    /// between two passes out.
    pub fn epoch_gaps_us(&self, replica: u32) -> Vec<f64> {
        let inner = self.inner.borrow();
        let boundaries: Vec<&HookEvent> = inner
            .hooks
            .iter()
            .filter(|h| h.hook == Hook::EpochBoundary && h.replica == replica)
            .collect();
        boundaries
            .windows(2)
            .filter(|w| w[1].epoch == w[0].epoch + 1)
            .map(|w| (w[1].at_ns - w[0].at_ns) as f64 / 1000.0)
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): spans as
    /// complete events, hooks as instants on one thread row per replica.
    pub fn to_chrome_json(&self, workload: &str) -> Json {
        let inner = self.inner.borrow();
        let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
        let mut events: Vec<Json> = inner
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", us(s.start_ns)),
                    ("dur", us(s.end_ns.saturating_sub(s.start_ns))),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(0.0)),
                    (
                        "args",
                        Json::obj([
                            ("workload", Json::str(workload)),
                            ("layer", Json::str(s.layer)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        let stride = inner.hooks.len().div_ceil(MAX_HOOK_EVENTS_WRITTEN).max(1);
        events.extend(inner.hooks.iter().step_by(stride).map(|h| {
            Json::obj([
                ("name", Json::str(h.hook.name())),
                ("cat", Json::str(h.hook.layer())),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("ts", us(h.at_ns)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(h.replica) + 1.0)),
            ])
        }));
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("spans", Json::Num(inner.spans.len() as f64)),
                    ("hooks_recorded", Json::Num(inner.hooks.len() as f64)),
                    ("hooks_written_every", Json::Num(stride as f64)),
                ]),
            ),
        ])
    }
}

struct HookRecorder(Tracer);

impl Observer for HookRecorder {
    fn epoch_boundary(&mut self, replica: usize, epoch: u64, _at: SimTime) {
        self.0.hook(Hook::EpochBoundary, replica, epoch);
    }
    fn failover(&mut self, _info: &FailoverInfo) {
        self.0.hook(Hook::Failover, 0, 0);
    }
    fn message_sent(&mut self, from: usize, _to: usize, _bytes: usize, _at: SimTime) {
        self.0.hook(Hook::MessageSent, from, 0);
    }
    fn message_dropped(&mut self, from: usize, _to: usize, _at: SimTime, _reason: DropReason) {
        self.0.hook(Hook::MessageDropped, from, 0);
    }
    fn retransmit(&mut self, from: usize, _to: usize, _frames: usize, _at: SimTime) {
        self.0.hook(Hook::Retransmit, from, 0);
    }
    fn snapshot_taken(&mut self, replica: usize, _epoch: u64, _bytes: u64, _at: SimTime) {
        self.0.hook(Hook::SnapshotTaken, replica, 0);
    }
    fn replica_reintegrated(&mut self, replica: usize, _epoch: u64, _bytes: u64, _at: SimTime) {
        self.0.hook(Hook::ReplicaReintegrated, replica, 0);
    }
}

/// Runs `f`, inside a span when tracing, and returns its result with
/// the host nanoseconds it took — the one way the harness times a call
/// into a layer, traced or not.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &str,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let t0 = Instant::now();
    let out = match tracer {
        Some(t) => t.span(name, layer, f),
        None => f(),
    };
    (out, t0.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let t = Tracer::new();
        t.span("outer", "bench", || {
            t.span("inner", "hvft-core", || ());
        });
        {
            let inner = t.inner.borrow();
            assert_eq!(inner.spans[0].parent, None);
            assert_eq!(inner.spans[1].parent, Some(0));
            assert!(inner.spans[0].end_ns >= inner.spans[1].end_ns);
        }
        t.recorder().epoch_boundary(1, 0, SimTime::ZERO);
        let json = t.to_chrome_json("w");
        assert_eq!(json.get("traceEvents").unwrap().as_arr().len(), 3);
        assert!(Json::parse(&json.render()).is_ok());
    }
}
