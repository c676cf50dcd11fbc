//! Spans around the benchmark's calls into the library, kept in memory
//! and written out as Chrome trace-event JSON (which Perfetto opens).
//!
//! Every timed call goes through [`Tracer::begin`]/[`Tracer::end`], so
//! the numbers the benchmark reports and the spans in the trace are the
//! same measurements. A disabled tracer still times (one `Instant::now`
//! at each end) but records nothing, which is how the untraced rounds
//! measure the tracing overhead.

use std::time::Instant;

use serde::json::Value as Json;

/// One recorded span. Ids start at 1; parent 0 is the root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which call the span times.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// This span's id.
    pub id: u64,
    /// The enclosing span's id (0 at top level).
    pub parent: u64,
    /// The request (input index, request id, network index) it served.
    pub request: u64,
}

/// An open span: when it started and, if recording, its slot.
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// The in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name` for `request`, nested in the innermost
    /// open recorded span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        let slot = self.enabled.then(|| {
            let slot = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: 0,
                dur_ns: 0,
                id: slot as u64 + 1,
                parent: self.stack.last().map_or(0, |&p| p as u64 + 1),
                request,
            });
            self.stack.push(slot);
            slot
        });
        let start = Instant::now();
        if let Some(slot) = slot {
            self.spans[slot].start_ns = ns(start.duration_since(self.origin));
        }
        Open { start, slot }
    }

    /// Closes `open`, returning its duration in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if recorded spans are closed out of nesting order (a bug
    /// in the benchmark, not in the measured code).
    pub fn end(&mut self, open: Open) -> f64 {
        let dur = ns(open.start.elapsed());
        if let Some(slot) = open.slot {
            assert_eq!(self.stack.pop(), Some(slot), "spans must nest");
            self.spans[slot].dur_ns = dur;
        }
        dur as f64
    }

    /// Times `f` as a leaf span, returning its result and duration (ns).
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, request);
        let out = f();
        (out, self.end(open))
    }

    /// Every recorded span, in begin order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (its duration minus the time its direct
    /// children cover), in begin order.
    pub fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| i128::from(s.dur_ns)).collect();
        for s in &self.spans {
            if s.parent > 0 {
                own[s.parent as usize - 1] -= i128::from(s.dur_ns);
            }
        }
        own
    }

    /// The trace as a Chrome trace-event document: one complete (`X`)
    /// event per span, times in microseconds, ids and self time in
    /// `args`.
    pub fn chrome_json(&self) -> String {
        let own = self.self_ns();
        let events = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, &own)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::UInt(s.id)),
                            ("parent", Json::UInt(s.parent)),
                            ("request", Json::UInt(s.request)),
                            ("self_us", Json::Num(own as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
        ])
        .render_compact()
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_trace() -> Tracer {
        let mut t = Tracer::new(true);
        let round = t.begin("round", 0);
        for i in 0..3 {
            let (_, _) = t.time("leaf", i, || {
                std::hint::black_box((0..1000u64).sum::<u64>())
            });
        }
        let mid = t.begin("mid", 7);
        let _ = t.time("leaf", 9, || ());
        t.end(mid);
        t.end(round);
        t
    }

    /// Every span's parent exists, began earlier and encloses it, and no
    /// span's children cover more than its own duration.
    #[test]
    fn spans_have_valid_parents_and_non_negative_self_time() {
        let t = nested_trace();
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        for s in spans {
            if s.parent == 0 {
                continue;
            }
            assert!(
                s.parent < s.id,
                "parent {} of span {} begins later",
                s.parent,
                s.id
            );
            let p = &spans[s.parent as usize - 1];
            assert!(p.start_ns <= s.start_ns);
            assert!(s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns);
        }
        assert!(t.self_ns().iter().all(|&own| own >= 0));
        assert_eq!(spans[5].parent, spans[4].id, "leaf nests in mid");
        assert_eq!(spans[4].parent, spans[0].id, "mid nests in round");
        assert_eq!(spans[0].parent, 0, "round is top level");
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, dur) = t.time("leaf", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(dur >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_json_is_a_trace_event_document() {
        let t = nested_trace();
        let doc = Json::parse(&t.chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 6);
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert!(e.get("ts").and_then(Json::as_num).is_some());
            assert!(e.get("dur").and_then(Json::as_num).is_some());
            assert!(e.get("args").and_then(|a| a.get("parent")).is_some());
        }
    }
}
