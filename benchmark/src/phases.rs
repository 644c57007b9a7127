//! Where a traced run's wall time went: phase shares and per-worker
//! iteration times read off the `TraceLog` the trainer and transport
//! already record. No span is added inside the program.

use lc_asgd::core::trace::{phase, ClockDomain, TraceEvent, TraceLog};

/// Phase shares of one traced run. Worker phases are fractions of
/// `workers × wall` (the workers' combined timeline); server phases are
/// fractions of `wall` (the server loop is serial).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseShares {
    pub pull: f64,
    pub compute: f64,
    pub push: f64,
    /// Request round trips as the worker saw them (TCP; nested in
    /// pull/push).
    pub comm: f64,
    /// Encode + decode on both ends of the wire (TCP; worker-side spans
    /// nest in pull/push, server-side ones run on the reactor thread).
    pub codec: f64,
    /// Worker time no tiling phase covers: gradient compression, batch
    /// bookkeeping, thread start-up and the server's final evaluation.
    pub untiled: f64,
    /// Time inside pull/push that neither a wire round trip nor codec
    /// work accounts for. On the thread backend that is all of it —
    /// workers waiting for the serial server.
    pub blocked: f64,
    pub predictor_loss: f64,
    pub predictor_step: f64,
    pub server_apply: f64,
    pub checkpoint: f64,
    pub coalesce: f64,
}

impl PhaseShares {
    pub fn of(log: &TraceLog, workers: usize, wall_s: f64) -> PhaseShares {
        let total = |p: &str| log.phase_total(p, ClockDomain::Wall);
        let per_worker = |p: &str| total(p) / (workers as f64 * wall_s);
        let per_server = |p: &str| total(p) / wall_s;
        let (pull, compute, push) =
            (per_worker(phase::PULL), per_worker(phase::COMPUTE), per_worker(phase::PUSH));
        let (comm, codec) = (per_worker(phase::COMM), per_worker(phase::CODEC));
        PhaseShares {
            pull,
            compute,
            push,
            comm,
            codec,
            untiled: (1.0 - pull - compute - push).max(0.0),
            blocked: (pull + push - comm - codec).max(0.0),
            predictor_loss: per_server(phase::PREDICTOR_LOSS),
            predictor_step: per_server(phase::PREDICTOR_STEP),
            server_apply: per_server(phase::SERVER_APPLY),
            checkpoint: per_server(phase::CHECKPOINT),
            coalesce: per_server(phase::COALESCE),
        }
    }

    /// pull + compute + push + untiled: 1 when the tiling phases do not
    /// overlap, above 1 by however much they do.
    pub fn tiling_sum(&self) -> f64 {
        self.pull + self.compute + self.push + self.untiled
    }
}

/// Seconds from the start of each worker iteration's first pull to the
/// end of its last push, over all workers. A new iteration starts at a
/// pull that follows a push (sharded pulls and LC-ASGD's state push +
/// gradient push stay inside one iteration); the final pull that is
/// answered with `Stop` has no push and is dropped.
pub fn iteration_seconds(log: &TraceLog, workers: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for w in 0..workers {
        // `log.events` is sorted by start within a clock domain.
        let spans = log.events.iter().filter(|e| {
            e.worker == Some(w)
                && e.clock == ClockDomain::Wall
                && !e.instant
                && matches!(e.phase, phase::PULL | phase::COMPUTE | phase::PUSH)
        });
        let mut start: Option<f64> = None;
        let mut last_push_end: Option<f64> = None;
        let mut close = |start: &mut Option<f64>, end: &mut Option<f64>| {
            if let (Some(s), Some(e)) = (start.take(), end.take()) {
                out.push(e - s);
            }
        };
        for TraceEvent { phase: p, start: at, dur, .. } in spans {
            if *p == phase::PULL && (start.is_none() || last_push_end.is_some()) {
                close(&mut start, &mut last_push_end);
                start = Some(*at);
            } else if *p == phase::PUSH {
                last_push_end = Some(at + dur);
            }
        }
        close(&mut start, &mut last_push_end);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(worker: Option<usize>, phase: &'static str, start: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            phase,
            worker,
            clock: ClockDomain::Wall,
            start,
            dur,
            version: 0,
            staleness: None,
            detail: None,
            instant: false,
        }
    }

    #[test]
    fn shares_divide_worker_phases_by_workers_times_wall() {
        let log = TraceLog {
            events: vec![
                span(Some(0), phase::PULL, 0.0, 1.0),
                span(Some(0), phase::COMM, 0.1, 0.5),
                span(Some(0), phase::COMPUTE, 1.0, 6.0),
                span(Some(0), phase::PUSH, 7.0, 2.0),
                span(Some(1), phase::COMPUTE, 0.0, 9.0),
                span(None, phase::SERVER_APPLY, 2.0, 1.0),
            ],
        };
        let s = PhaseShares::of(&log, 2, 10.0);
        assert!((s.pull - 0.05).abs() < 1e-12);
        assert!((s.compute - 0.75).abs() < 1e-12);
        assert!((s.push - 0.10).abs() < 1e-12);
        assert!((s.untiled - 0.10).abs() < 1e-12);
        assert!((s.blocked - 0.125).abs() < 1e-12);
        assert!((s.server_apply - 0.1).abs() < 1e-12);
        assert!((s.tiling_sum() - 1.0).abs() < 1e-12);
        assert_eq!(s.checkpoint, 0.0);
    }

    #[test]
    fn overlapping_tiling_phases_show_in_the_sum() {
        let log = TraceLog {
            events: vec![
                span(Some(0), phase::COMPUTE, 0.0, 8.0),
                span(Some(0), phase::PULL, 0.0, 4.0),
            ],
        };
        let s = PhaseShares::of(&log, 1, 10.0);
        assert_eq!(s.untiled, 0.0);
        assert!((s.tiling_sum() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn iterations_run_from_first_pull_to_last_push() {
        let log = TraceLog {
            events: vec![
                // Worker 0, LC-ASGD over two shards: two pulls, forward,
                // state push, backward, gradient push — one iteration.
                span(Some(0), phase::PULL, 0.0, 0.5),
                span(Some(0), phase::PULL, 0.5, 0.5),
                span(Some(0), phase::COMPUTE, 1.0, 1.0),
                span(Some(0), phase::PUSH, 2.0, 0.25),
                span(Some(0), phase::COMPUTE, 2.25, 1.0),
                span(Some(0), phase::PUSH, 3.25, 0.25),
                // Second iteration.
                span(Some(0), phase::PULL, 4.0, 1.0),
                span(Some(0), phase::COMPUTE, 5.0, 1.0),
                span(Some(0), phase::PUSH, 6.0, 1.0),
                // The pull answered with Stop.
                span(Some(0), phase::PULL, 7.0, 0.1),
                // Worker 1 interleaves on the same clock.
                span(Some(1), phase::PULL, 0.25, 0.25),
                span(Some(1), phase::COMPUTE, 0.5, 1.0),
                span(Some(1), phase::PUSH, 1.5, 0.5),
                // Server spans are ignored.
                span(None, phase::SERVER_APPLY, 0.0, 9.0),
            ],
        };
        let mut log = log;
        log.events.sort_by(|a, b| a.start.total_cmp(&b.start));
        assert_eq!(iteration_seconds(&log, 2), vec![3.5, 3.0, 1.75]);
    }
}
