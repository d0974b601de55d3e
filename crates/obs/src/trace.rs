//! The event buffer: spans, instants and counters on named tracks.
//!
//! A [`Trace`] is a cheaply cloneable handle onto one shared in-memory
//! buffer. Instrumentation points accept a `&Trace` and record into it;
//! a *disabled* trace ([`Trace::disabled`]) turns every call into a
//! no-op without branching at the call sites, so the instrumented hot
//! paths cost nothing when nobody is watching.
//!
//! Two [`ClockDomain`]s exist:
//!
//! * [`ClockDomain::Monotonic`] — timestamps are nanoseconds since the
//!   trace's creation, read from the host's monotonic clock. Used by
//!   the real threaded compiler. Record with the RAII [`SpanGuard`]
//!   returned by [`Trace::span`].
//! * [`ClockDomain::Virtual`] — timestamps are the deterministic
//!   virtual nanoseconds of the `warp-netsim` discrete-event engine.
//!   The engine knows both endpoints of every interval, so it records
//!   with the explicit [`Trace::record_span`].
//!
//! Both domains share one record layout, one exporter and one summary
//! renderer; a consumer tells them apart via
//! [`TraceSnapshot::domain`].

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which clock produced a trace's timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Host monotonic time, nanoseconds since the trace was created.
    Monotonic,
    /// The netsim engine's deterministic virtual clock (simulated 1989
    /// seconds, stored as nanoseconds).
    Virtual,
}

/// Identifier of a track (a row in the timeline UI; exported as a
/// Chrome `tid`). Obtain one from [`Trace::track`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub u32);

/// A closed interval of work.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. `"fn dot8"`, `"fold_constants"`).
    pub name: String,
    /// Category: `"driver"`, `"worker"`, `"pass"`, `"verify"`,
    /// `"cache"`, `"service"`, `"process"`, `"cpu"`, `"net"`, `"disk"`,
    /// `"fault"`, `"retry"` (see docs/TRACING.md).
    pub cat: &'static str,
    /// Track the span belongs to.
    pub track: TrackId,
    /// Start timestamp, nanoseconds in the trace's clock domain.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric key/value annotations (exported as Chrome `args`).
    pub args: Vec<(&'static str, f64)>,
}

impl SpanRecord {
    /// End timestamp (`start_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// The value of argument `key`, if present.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// A point event (no duration).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRecord {
    /// Event name (e.g. `"dispatch fn-master f_large.2"`).
    pub name: String,
    /// Category (e.g. `"sched"`).
    pub cat: &'static str,
    /// Track the event belongs to.
    pub track: TrackId,
    /// Timestamp, nanoseconds in the trace's clock domain.
    pub ts_ns: u64,
}

/// A sampled numeric value.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRecord {
    /// Counter name (e.g. `"workstations"`).
    pub name: String,
    /// Track the counter is attached to.
    pub track: TrackId,
    /// Timestamp, nanoseconds in the trace's clock domain.
    pub ts_ns: u64,
    /// Sampled value.
    pub value: f64,
}

#[derive(Debug, Default)]
struct State {
    tracks: Vec<String>,
    spans: Vec<SpanRecord>,
    instants: Vec<InstantRecord>,
    counters: Vec<CounterRecord>,
}

#[derive(Debug)]
struct Inner {
    domain: ClockDomain,
    epoch: Instant,
    state: Mutex<State>,
}

/// An immutable copy of everything a trace has recorded, for export
/// and analysis. Obtained from [`Trace::snapshot`].
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Clock domain of every timestamp in the snapshot.
    pub domain: ClockDomain,
    /// Track names, indexed by [`TrackId`].
    pub tracks: Vec<String>,
    /// All spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// All instants, in record order.
    pub instants: Vec<InstantRecord>,
    /// All counter samples, in record order.
    pub counters: Vec<CounterRecord>,
}

impl TraceSnapshot {
    /// Name of `track` (`"?"` if out of range — only possible for
    /// hand-built snapshots).
    pub fn track_name(&self, track: TrackId) -> &str {
        self.tracks
            .get(track.0 as usize)
            .map_or("?", String::as_str)
    }

    /// Largest span end timestamp, i.e. the trace's horizon (0 for an
    /// empty trace).
    pub fn end_ns(&self) -> u64 {
        self.spans.iter().map(SpanRecord::end_ns).max().unwrap_or(0)
    }

    /// Iterator over spans of category `cat`.
    pub fn spans_in<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.cat == cat)
    }
}

/// A handle onto a shared trace buffer. Clones share the buffer; the
/// handle is `Send + Sync` and may be used concurrently from worker
/// threads.
#[derive(Debug, Clone)]
pub struct Trace {
    inner: Option<Arc<Inner>>,
}

impl Trace {
    /// Creates an enabled trace whose timestamps live in `domain`.
    pub fn new(domain: ClockDomain) -> Trace {
        Trace {
            inner: Some(Arc::new(Inner {
                domain,
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Creates a disabled trace: every recording call is a no-op and
    /// [`Trace::snapshot`] returns an empty monotonic snapshot.
    pub const fn disabled() -> Trace {
        Trace { inner: None }
    }

    /// `true` if this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The clock domain, or `None` when disabled.
    pub fn domain(&self) -> Option<ClockDomain> {
        self.inner.as_ref().map(|i| i.domain)
    }

    /// Nanoseconds since the trace was created on the host monotonic
    /// clock. Returns 0 when disabled. Meaningless for
    /// [`ClockDomain::Virtual`] traces, whose writers supply their own
    /// timestamps.
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_nanos() as u64)
    }

    /// Interns a track by name, returning its id. Repeated calls with
    /// the same name return the same id. On a disabled trace returns
    /// `TrackId(0)`.
    pub fn track(&self, name: &str) -> TrackId {
        let Some(inner) = &self.inner else {
            return TrackId(0);
        };
        let mut st = inner.state.lock().expect("trace lock");
        if let Some(i) = st.tracks.iter().position(|t| t == name) {
            TrackId(i as u32)
        } else {
            st.tracks.push(name.to_string());
            TrackId((st.tracks.len() - 1) as u32)
        }
    }

    /// Opens a span on the monotonic clock; it is recorded when the
    /// returned guard is dropped (or [`SpanGuard::finish`]ed). On a
    /// disabled trace the guard is inert and no clock is read.
    pub fn span(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        track: TrackId,
    ) -> SpanGuard<'_> {
        if self.inner.is_some() {
            SpanGuard {
                trace: self,
                cat,
                name: name.into(),
                track,
                start_ns: self.now_ns(),
                args: Vec::new(),
                active: true,
            }
        } else {
            SpanGuard {
                trace: self,
                cat,
                name: String::new(),
                track,
                start_ns: 0,
                args: Vec::new(),
                active: false,
            }
        }
    }

    /// Records a span with explicit endpoints — the virtual-clock
    /// entry point (the netsim engine knows both ends of every
    /// service interval).
    pub fn record_span(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        track: TrackId,
        start_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, f64)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let rec = SpanRecord {
            name: name.into(),
            cat,
            track,
            start_ns,
            dur_ns,
            args,
        };
        inner.state.lock().expect("trace lock").spans.push(rec);
    }

    /// Records a point event at an explicit timestamp.
    pub fn instant(&self, cat: &'static str, name: impl Into<String>, track: TrackId, ts_ns: u64) {
        let Some(inner) = &self.inner else { return };
        let rec = InstantRecord {
            name: name.into(),
            cat,
            track,
            ts_ns,
        };
        inner.state.lock().expect("trace lock").instants.push(rec);
    }

    /// Records a point event "now" on the monotonic clock.
    pub fn instant_now(&self, cat: &'static str, name: impl Into<String>, track: TrackId) {
        let ts = self.now_ns();
        self.instant(cat, name, track, ts);
    }

    /// Records a counter sample at an explicit timestamp.
    pub fn counter(&self, name: impl Into<String>, track: TrackId, ts_ns: u64, value: f64) {
        let Some(inner) = &self.inner else { return };
        let rec = CounterRecord {
            name: name.into(),
            track,
            ts_ns,
            value,
        };
        inner.state.lock().expect("trace lock").counters.push(rec);
    }

    /// Copies everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.inner {
            None => TraceSnapshot {
                domain: ClockDomain::Monotonic,
                tracks: Vec::new(),
                spans: Vec::new(),
                instants: Vec::new(),
                counters: Vec::new(),
            },
            Some(inner) => {
                let st = inner.state.lock().expect("trace lock");
                TraceSnapshot {
                    domain: inner.domain,
                    tracks: st.tracks.clone(),
                    spans: st.spans.clone(),
                    instants: st.instants.clone(),
                    counters: st.counters.clone(),
                }
            }
        }
    }
}

/// RAII guard for a monotonic-clock span; records the span when
/// dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    trace: &'a Trace,
    cat: &'static str,
    name: String,
    track: TrackId,
    start_ns: u64,
    args: Vec<(&'static str, f64)>,
    active: bool,
}

impl SpanGuard<'_> {
    /// Attaches a numeric annotation to the span.
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if self.active {
            self.args.push((key, value));
        }
    }

    /// Closes the span now (equivalent to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = self.trace.now_ns();
        self.trace.record_span(
            self.cat,
            std::mem::take(&mut self.name),
            self.track,
            self.start_ns,
            end.saturating_sub(self.start_ns),
            std::mem::take(&mut self.args),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        let track = t.track("x");
        {
            let mut g = t.span("driver", "phase1", track);
            g.arg("n", 1.0);
        }
        t.record_span("cpu", "p", track, 0, 10, vec![]);
        t.instant("sched", "e", track, 5);
        t.counter("c", track, 0, 1.0);
        let s = t.snapshot();
        assert!(s.spans.is_empty() && s.instants.is_empty() && s.counters.is_empty());
    }

    #[test]
    fn tracks_are_interned() {
        let t = Trace::new(ClockDomain::Monotonic);
        let a = t.track("worker 0");
        let b = t.track("worker 1");
        let a2 = t.track("worker 0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.snapshot().track_name(b), "worker 1");
    }

    #[test]
    fn span_guard_records_on_drop() {
        let t = Trace::new(ClockDomain::Monotonic);
        let track = t.track("main");
        {
            let mut g = t.span("pass", "fold_constants", track);
            g.arg("insts", 42.0);
        }
        let s = t.snapshot();
        assert_eq!(s.spans.len(), 1);
        let sp = &s.spans[0];
        assert_eq!(sp.name, "fold_constants");
        assert_eq!(sp.cat, "pass");
        assert_eq!(sp.arg("insts"), Some(42.0));
        assert_eq!(sp.arg("missing"), None);
    }

    #[test]
    fn virtual_spans_keep_explicit_timestamps() {
        let t = Trace::new(ClockDomain::Virtual);
        let cpu = t.track("workstation 1");
        t.record_span("cpu", "fn-master f.1", cpu, 1_000, 2_000, vec![("ws", 1.0)]);
        let s = t.snapshot();
        assert_eq!(s.domain, ClockDomain::Virtual);
        assert_eq!(s.spans[0].start_ns, 1_000);
        assert_eq!(s.spans[0].end_ns(), 3_000);
        assert_eq!(s.end_ns(), 3_000);
    }

    #[test]
    fn handles_share_one_buffer_across_threads() {
        let t = Trace::new(ClockDomain::Monotonic);
        let track = t.track("w");
        std::thread::scope(|scope| {
            for i in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    t.record_span("worker", format!("fn {i}"), track, i, 1, vec![]);
                });
            }
        });
        assert_eq!(t.snapshot().spans.len(), 4);
    }
}
