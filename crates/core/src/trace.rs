//! Structured run tracing: phase-tagged span events from every backend on
//! an explicit clock, plus a Chrome trace exporter.
//!
//! The paper's evidence is all *timing* — staleness distributions (Fig. 8),
//! predictor overhead (Tables 2–3), convergence-vs-time curves (Figs. 4/6)
//! — so the repro needs one place where "what happened when" is recorded
//! without conflating the simulator's virtual clock with real wall time.
//!
//! ## Span taxonomy
//!
//! | phase            | emitted by            | clock    | meaning |
//! |------------------|-----------------------|----------|---------|
//! | `pull`           | trainer worker loop   | wall     | blocking weight pull (request + wait) |
//! | `compute`        | trainer / simulator   | both     | forward/backward work on a worker |
//! | `push`           | trainer worker loop   | wall     | state request / gradient send |
//! | `comm`           | simulator / netcluster| both     | a request round trip as the worker saw it |
//! | `codec`          | sim driver / netcluster| wall    | payload encode/decode |
//! | `predictor_loss` | trainer server loop   | wall     | LSTM loss-predictor observe + predict |
//! | `predictor_step` | trainer server loop   | wall     | step predictor observe + predict |
//! | `server_apply`   | trainer server loop   | wall     | gradient application on the server |
//! | `checkpoint`     | trainer server loop   | wall     | periodic checkpoint write |
//! | `fault_inject`   | faults / simulator    | both     | injected outages (spans) and fault log entries (instants) |
//!
//! On wall-clock backends `pull` + `compute` + `push` tile each worker's
//! timeline; on the simulator `compute` + `comm` (+ `fault_inject`
//! outages) do. `codec` and `comm` spans on the TCP backend are *nested
//! refinements* of `pull`/`push` — they overlap their parents and must not
//! be added to them.
//!
//! ## Clock domains
//!
//! Every event carries a [`ClockDomain`]. A single run can contain both:
//! a simulated run's spans are virtual, but its codec and predictor costs
//! are real measurements and stay on the wall clock. The exporter keeps
//! the two apart (separate `pid`s in the Chrome trace).
//!
//! ## Export
//!
//! [`TraceLog::to_chrome_json`] writes Chrome `trace_event` JSON, openable
//! in `chrome://tracing` or <https://ui.perfetto.dev>.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use lcasgd_simcluster::backend::{ClockDomain, TraceHook};

/// Canonical phase names (the `&'static str` keys events are tagged with).
pub mod phase {
    pub const PULL: &str = "pull";
    pub const COMPUTE: &str = "compute";
    pub const PUSH: &str = "push";
    pub const COMM: &str = "comm";
    pub const CODEC: &str = "codec";
    pub const PREDICTOR_LOSS: &str = "predictor_loss";
    pub const PREDICTOR_STEP: &str = "predictor_step";
    pub const SERVER_APPLY: &str = "server_apply";
    pub const CHECKPOINT: &str = "checkpoint";
    pub const FAULT_INJECT: &str = "fault_inject";
    pub const HEALTH: &str = "health";
    /// A reply served from the TCP reactor's coalescing cache instead of
    /// being re-encoded. Wall-clock, attributed to no worker (sweep-level
    /// work); deliberately NOT part of `codec`, whose span total must
    /// keep matching the transport's `serialize_seconds` exactly.
    pub const COALESCE: &str = "coalesce";
}

/// One recorded event: a span (`dur > 0` or `instant == false`) or an
/// instant marker on the run's timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// One of the [`phase`] constants.
    pub phase: &'static str,
    /// Worker rank, or `None` for server/driver work.
    pub worker: Option<usize>,
    /// Which clock `start`/`dur` are measured on.
    pub clock: ClockDomain,
    /// Seconds since the start of the run, in `clock`'s domain.
    pub start: f64,
    /// Span length in seconds (0 for instants).
    pub dur: f64,
    /// Server model version when the event was recorded.
    pub version: u64,
    /// Staleness of the most recent applied update, when known.
    pub staleness: Option<u32>,
    /// Free-form annotation (fault description, error text).
    pub detail: Option<String>,
    /// True for point events (fault log entries).
    pub instant: bool,
}

struct SinkInner {
    /// When false the sink drops span events, so untraced runs pay nothing
    /// beyond a branch per event site.
    enabled: bool,
    events: Mutex<Vec<TraceEvent>>,
    /// Wall-clock zero: everything is reported relative to this.
    epoch: Mutex<Option<Instant>>,
    /// Current server model version, stamped onto events as they arrive.
    version: AtomicU64,
    /// Staleness of the last applied update; -1 = none seen yet.
    staleness: AtomicI64,
}

/// Clonable, thread-safe event collector. The trainer hands clones to the
/// backend (as a [`TraceHook`]) and to its own server/worker closures;
/// [`TraceSink::finish`] snapshots everything into a [`TraceLog`].
#[derive(Clone)]
pub struct TraceSink(Arc<SinkInner>);

impl TraceSink {
    /// A sink that records events when `enabled`.
    pub fn new(enabled: bool) -> TraceSink {
        TraceSink(Arc::new(SinkInner {
            enabled,
            events: Mutex::new(Vec::new()),
            epoch: Mutex::new(None),
            version: AtomicU64::new(0),
            staleness: AtomicI64::new(-1),
        }))
    }

    /// Whether span events are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.enabled
    }

    /// Sets the wall-clock zero. Wall events observed before this are
    /// clamped to t=0.
    pub fn start_clock(&self, t0: Instant) {
        *self.0.epoch.lock() = Some(t0);
    }

    /// Records the server's current model version; stamped onto
    /// subsequent events.
    pub fn note_version(&self, version: u64) {
        self.0.version.store(version, Ordering::Relaxed);
    }

    /// Records the staleness of the most recent applied update; stamped
    /// onto subsequent events.
    pub fn note_staleness(&self, staleness: u32) {
        self.0.staleness.store(i64::from(staleness), Ordering::Relaxed);
    }

    fn stamp(&self) -> (u64, Option<u32>) {
        let version = self.0.version.load(Ordering::Relaxed);
        let s = self.0.staleness.load(Ordering::Relaxed);
        (version, u32::try_from(s).ok())
    }

    /// Wall seconds elapsed since [`TraceSink::start_clock`].
    fn wall_offset(&self, at: Instant) -> f64 {
        match *self.0.epoch.lock() {
            Some(t0) => at.saturating_duration_since(t0).as_secs_f64(),
            None => 0.0,
        }
    }

    fn record(&self, ev: TraceEvent) {
        if self.0.enabled {
            self.0.events.lock().push(ev);
        }
    }

    /// Records a wall-clock span.
    pub fn wall_span_at(
        &self,
        worker: Option<usize>,
        phase: &'static str,
        start: Instant,
        dur: f64,
    ) {
        if !self.0.enabled {
            return;
        }
        let (version, staleness) = self.stamp();
        let start = self.wall_offset(start);
        self.record(TraceEvent {
            phase,
            worker,
            clock: ClockDomain::Wall,
            start,
            dur,
            version,
            staleness,
            detail: None,
            instant: false,
        });
    }

    /// Records a wall-clock instant marker (e.g. a fault log entry).
    pub fn wall_instant(
        &self,
        worker: Option<usize>,
        phase: &'static str,
        at: Instant,
        detail: String,
    ) {
        if !self.0.enabled {
            return;
        }
        let (version, staleness) = self.stamp();
        let start = self.wall_offset(at);
        self.record(TraceEvent {
            phase,
            worker,
            clock: ClockDomain::Wall,
            start,
            dur: 0.0,
            version,
            staleness,
            detail: Some(detail),
            instant: true,
        });
    }

    /// Records a virtual-clock span.
    pub fn virt_span_at(&self, worker: Option<usize>, phase: &'static str, start: f64, dur: f64) {
        if !self.0.enabled {
            return;
        }
        let (version, staleness) = self.stamp();
        self.record(TraceEvent {
            phase,
            worker,
            clock: ClockDomain::Virtual,
            start,
            dur,
            version,
            staleness,
            detail: None,
            instant: false,
        });
    }

    /// Snapshots the recorded events into an immutable [`TraceLog`],
    /// sorted by clock domain then start time.
    pub fn finish(&self) -> TraceLog {
        let mut events = self.0.events.lock().clone();
        events.sort_by(|a, b| {
            (a.clock == ClockDomain::Virtual, a.start)
                .partial_cmp(&(b.clock == ClockDomain::Virtual, b.start))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        TraceLog { events }
    }
}

impl TraceHook for TraceSink {
    fn wall_span(&self, worker: Option<usize>, phase: &'static str, start: Instant, dur: f64) {
        self.wall_span_at(worker, phase, start, dur);
    }

    fn virt_span(&self, worker: Option<usize>, phase: &'static str, start: f64, dur: f64) {
        self.virt_span_at(worker, phase, start, dur);
    }
}

/// An immutable, exportable timeline of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    /// All events, sorted by (clock, start).
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total seconds attributed to `phase` in `clock`'s domain (spans
    /// only; instants contribute nothing).
    pub fn phase_total(&self, phase: &str, clock: ClockDomain) -> f64 {
        self.events
            .iter()
            .filter(|e| e.phase == phase && e.clock == clock && !e.instant)
            .map(|e| e.dur)
            .sum()
    }

    /// All instant events (fault markers and the like).
    pub fn instants(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.instant)
    }

    /// Serializes the log in Chrome `trace_event` JSON ("JSON object
    /// format"), loadable by `chrome://tracing` and Perfetto. Wall-clock
    /// events land under pid 1, virtual-clock events under pid 2; tid 0
    /// is the server, tid `w+1` is worker `w`. Durations use complete
    /// (`"ph":"X"`) events, fault markers instant (`"ph":"i"`) events.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let push = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };

        for (pid, name) in [(1u32, "wall clock"), (2u32, "virtual clock")] {
            push(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
                &mut out,
                &mut first,
            );
        }

        let mut named: Vec<(u32, u64)> = Vec::new();
        for e in &self.events {
            let pid: u32 = match e.clock {
                ClockDomain::Wall => 1,
                ClockDomain::Virtual => 2,
            };
            let tid = e.worker.map_or(0, |w| w as u64 + 1);
            if !named.contains(&(pid, tid)) {
                named.push((pid, tid));
                let tname = match e.worker {
                    Some(w) => format!("worker {w}"),
                    None => "server".to_string(),
                };
                push(
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                         \"args\":{{\"name\":\"{tname}\"}}}}"
                    ),
                    &mut out,
                    &mut first,
                );
            }
            let ts = e.start * 1e6; // µs
            let mut args = format!("\"version\":{}", e.version);
            if let Some(s) = e.staleness {
                args.push_str(&format!(",\"staleness\":{s}"));
            }
            if let Some(d) = &e.detail {
                args.push_str(&format!(",\"detail\":\"{}\"", json_escape(d)));
            }
            let ev = if e.instant {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
                    json_escape(e.phase),
                    e.clock,
                )
            } else {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{:.3},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
                    json_escape(e.phase),
                    e.clock,
                    e.dur * 1e6,
                )
            };
            push(ev, &mut out, &mut first);
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_records_and_totals_phases() {
        let sink = TraceSink::new(true);
        let t0 = Instant::now();
        sink.start_clock(t0);
        sink.note_version(7);
        sink.note_staleness(3);
        sink.wall_span_at(Some(0), phase::COMPUTE, t0, 0.5);
        sink.wall_span_at(Some(1), phase::COMPUTE, t0, 0.25);
        sink.virt_span_at(Some(0), phase::COMM, 1.0, 2.0);
        let log = sink.finish();
        assert_eq!(log.len(), 3);
        assert!((log.phase_total(phase::COMPUTE, ClockDomain::Wall) - 0.75).abs() < 1e-12);
        assert!((log.phase_total(phase::COMM, ClockDomain::Virtual) - 2.0).abs() < 1e-12);
        assert_eq!(log.phase_total(phase::COMM, ClockDomain::Wall), 0.0);
        assert_eq!(log.events[0].version, 7);
        assert_eq!(log.events[0].staleness, Some(3));
    }

    #[test]
    fn disabled_sink_drops_events() {
        let sink = TraceSink::new(false);
        sink.wall_span_at(Some(0), phase::COMPUTE, Instant::now(), 1.0);
        sink.virt_span_at(Some(0), phase::COMM, 5.0, 1.5);
        assert!(sink.finish().is_empty());
    }

    #[test]
    fn chrome_json_shape_and_escaping() {
        let sink = TraceSink::new(true);
        let t0 = Instant::now();
        sink.start_clock(t0);
        sink.wall_span_at(Some(2), phase::PULL, t0, 0.001);
        sink.wall_instant(None, phase::FAULT_INJECT, t0, "crash \"quoted\"\nline".into());
        let json = sink.finish().to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"pull\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("crash \\\"quoted\\\"\\nline"));
        // tid 3 = worker 2; tid 0 = server.
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"tid\":0"));
    }

    #[test]
    fn json_escape_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
