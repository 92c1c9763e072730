//! Benchmark-side spans around the calls into the program's public API.
//!
//! Spans are kept in memory and written out as one Chrome trace-event
//! file when the traced run ends, next to the program's own (modeled-time)
//! Chrome export of the same workload. Every span carries the round it
//! belongs to, so the spans of one round share an identifier.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span: real wall-clock, microseconds since the run started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Public call (or benchmark phase) the span wraps.
    pub name: &'static str,
    /// Round the span belongs to (0 = set-up and warm-up).
    pub round: u32,
    /// Start, microseconds since [`Tracer::new`].
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Times every call it wraps; records a [`Span`] only when enabled, so
/// the untraced run pays one `Instant` pair per call and nothing else.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; `enabled = false` only measures.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (the traced run alternates rounds to
    /// measure its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans that follow with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// elapsed wall seconds (measured whether or not recording is on).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                round: self.round,
                start_us: 0.0,
                dur_us: 0.0,
                parent: self.open.last().copied(),
            });
            let i = self.spans.len() - 1;
            self.open.push(i);
            i
        });
        let start = Instant::now();
        let r = f(self);
        let dur = start.elapsed();
        if let Some(i) = idx {
            self.open.pop();
            let s = &mut self.spans[i];
            s.start_us = (start - self.t0).as_secs_f64() * 1e6;
            s.dur_us = dur.as_secs_f64() * 1e6;
        }
        (r, dur.as_secs_f64())
    }

    /// Recorded spans named `name`, durations in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Serializes the spans as Chrome trace-event JSON (one thread per
    /// round, so rounds stack as lanes in Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name, s.round, s.start_us, s.dur_us, i, parent
            );
        }
        out.push_str("]}");
        out
    }

    /// Writes [`Self::chrome_json`] to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| t.span("inner", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].dur_us >= spans[1].dur_us);
        let mut off = Tracer::new(false);
        let (_, secs) = off.span("outer", |_| ());
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
        blast_repro::blast_telemetry::chrome::parse_json(&t.chrome_json())
            .expect("span export is valid JSON");
    }
}
