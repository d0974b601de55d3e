//! Spans recorded by the benchmark around its own calls into each
//! layer (spans inside the program are a later change): name, start,
//! end, the span that caused it, and an id shared by every span of one
//! build or request. Kept in memory; written out as a Chrome trace
//! through `warp_obs` when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use warp_obs::trace::{ClockDomain, SpanRecord, TraceSnapshot, TrackId};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran; layer metrics use their own name (`lang.lex_s`).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Cycle number: shared by all spans of one build or request round.
    pub id: u64,
}

/// The in-memory span buffer. A disabled recorder (the `--trace 0`
/// runs that produce the end-to-end numbers) still times, but keeps
/// nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    /// Sets the id given to spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Runs `f` inside a span called `name` and returns its result and
    /// wall time. Spans opened by `f` through the same recorder become
    /// children.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                id: self.id,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let dt = start.elapsed();
        if let Some(slot) = slot {
            self.spans[slot].end_ns = self.spans[slot].start_ns + dt.as_nanos() as u64;
            self.open.pop();
        }
        (out, dt)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON of everything recorded, via the
    /// repo's own exporter; `parent` (span index, -1 for roots) and
    /// `id` travel as span arguments.
    pub fn to_chrome_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| SpanRecord {
                name: s.name.to_string(),
                cat: "benchmark",
                track: TrackId(0),
                start_ns: s.start_ns,
                dur_ns: s.end_ns - s.start_ns,
                args: vec![
                    ("id", s.id as f64),
                    ("parent", s.parent.map_or(-1.0, |p| p as f64)),
                ],
            })
            .collect();
        warp_obs::to_chrome_json(&TraceSnapshot {
            domain: ClockDomain::Monotonic,
            tracks: vec!["warp-benchmark".to_string()],
            spans,
            instants: Vec::new(),
            counters: Vec::new(),
        })
    }
}

/// A span's self time: its duration minus the part its direct
/// children cover. Children of one parent never overlap here (one
/// recorder, one thread), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total self time and span count per name, largest first.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut by_name: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (ns, n))| (name, ns as f64 / 1e9, n))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 7,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // cycle [0,100) > build [10,70) > {parse [10,20), codegen [25,65)}
        //               > request [70,95)
        let spans = vec![
            span("cycle", 0, 100, None),
            span("build", 10, 70, Some(0)),
            span("parse", 10, 20, Some(1)),
            span("codegen", 25, 65, Some(1)),
            span("request", 70, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 10, 10, 40, 25]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let table = self_time_table(&spans);
        assert_eq!(table[0], ("codegen", 40e-9, 1));
    }

    #[test]
    fn recorder_nests_and_exports_a_valid_trace() {
        let mut rec = Recorder::new(true);
        rec.set_id(3);
        let ((), outer) = rec.time("outer", |rec| {
            rec.time("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            rec.time("inner", |_| ());
        });
        assert!(outer >= Duration::from_millis(2));
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let stats = warp_obs::validate_chrome_json(&rec.to_chrome_json()).expect("valid trace");
        assert_eq!(stats.total(), 4, "three spans and the track name");
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let (v, dt) = rec.time("x", |_| 5);
        assert_eq!(v, 5);
        assert!(dt < Duration::from_secs(1));
        assert!(rec.spans().is_empty());
    }
}
