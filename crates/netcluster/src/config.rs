//! Tuning knobs for the TCP backend's liveness machinery.

use crate::breaker::BreakerConfig;
use lcasgd_simcluster::WireCodec;
use std::time::Duration;

/// The bounded-exponential reconnect schedule derived from a
/// [`NetConfig`]: attempt 0 dials immediately, attempt `i > 0` waits
/// `initial · 2^(i-1)` first, clamped to `cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffSchedule {
    attempts: u32,
    initial: Duration,
    cap: Duration,
}

impl BackoffSchedule {
    pub fn new(attempts: u32, initial: Duration, cap: Duration) -> Self {
        BackoffSchedule { attempts: attempts.max(1), initial, cap }
    }

    /// Number of dial attempts the schedule allows (≥ 1).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The delay to sleep *before* each attempt, in order. Exactly
    /// [`BackoffSchedule::attempts`] entries; the first is always zero.
    pub fn delays(&self) -> impl Iterator<Item = Duration> + '_ {
        let (initial, cap) = (self.initial, self.cap);
        (0..self.attempts).map(move |i| {
            if i == 0 {
                Duration::ZERO
            } else {
                let doubled = initial.saturating_mul(1u32 << (i - 1).min(30));
                doubled.min(cap)
            }
        })
    }

    /// Total time the schedule can spend sleeping (excludes dial time).
    pub fn total_delay(&self) -> Duration {
        self.delays().sum()
    }
}

/// Timeouts and retry policy shared by [`crate::ReactorServer`] and
/// [`crate::NetWorker`]. The invariants that make the protocol live:
///
/// * `heartbeat_interval` ≪ `heartbeat_timeout`, so a healthy-but-idle
///   worker is never reaped (several beats fit in one timeout window);
/// * `request_timeout` bounds how long a worker blocks on a reply, so a
///   dead server surfaces as [`lcasgd_simcluster::ClusterError::Timeout`]
///   instead of a hang.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How often a worker's background thread emits a `Heartbeat`.
    pub heartbeat_interval: Duration,
    /// Server-side: a connection with no traffic for this long is
    /// dropped and its worker declared dead.
    pub heartbeat_timeout: Duration,
    /// Server-side: a rank that never says `Hello` within this window
    /// (measured from serve start) is written off, so one crashed-at-
    /// launch worker cannot hang the whole run.
    pub hello_timeout: Duration,
    /// Worker-side deadline for one blocking request round trip.
    pub request_timeout: Duration,
    /// Maximum connection attempts per (re)connect.
    pub connect_attempts: u32,
    /// Delay before the second connection attempt; doubles per attempt.
    pub connect_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub connect_backoff_cap: Duration,
    /// Per-connection circuit breaker thresholds: the worker gates its
    /// redial storms and the server gates codec-failing ranks through
    /// the same error-rate window → open → half-open probe machine.
    pub breaker: BreakerConfig,
    /// How dense `f32` payloads are packed on the wire. Negotiated at
    /// `Hello` time: the server closes any connection advertising a
    /// different codec. [`WireCodec::F32`] is byte-identical to the seed
    /// protocol (including the 4-byte `Hello` payload).
    pub wire_codec: WireCodec,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            heartbeat_interval: Duration::from_millis(250),
            heartbeat_timeout: Duration::from_secs(2),
            hello_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            connect_attempts: 5,
            connect_backoff: Duration::from_millis(25),
            connect_backoff_cap: Duration::from_secs(1),
            breaker: BreakerConfig::default(),
            wire_codec: WireCodec::F32,
        }
    }
}

impl NetConfig {
    /// Aggressive timeouts for tests: failures are detected in tens of
    /// milliseconds instead of seconds.
    pub fn fast() -> Self {
        NetConfig {
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(200),
            hello_timeout: Duration::from_millis(1500),
            request_timeout: Duration::from_secs(5),
            connect_attempts: 5,
            connect_backoff: Duration::from_millis(5),
            connect_backoff_cap: Duration::from_millis(100),
            breaker: BreakerConfig::fast(),
            wire_codec: WireCodec::F32,
        }
    }

    /// The reconnect schedule this config prescribes. `NetWorker` routes
    /// every redial sleep through this — there is no other sleep in the
    /// reconnect path.
    pub fn backoff(&self) -> BackoffSchedule {
        BackoffSchedule::new(self.connect_attempts, self.connect_backoff, self.connect_backoff_cap)
    }

    /// Invariants the *server* relies on, checked at
    /// [`crate::ReactorServer::bind`]. Only the server's own reaping windows
    /// are validated here — a worker may legitimately run a different
    /// heartbeat cadence (the reconnect tests do exactly that), so the
    /// interval/timeout relation is a per-process property, not a
    /// cluster-wide one.
    pub fn validate_server(&self) -> Result<(), String> {
        if self.heartbeat_timeout <= self.heartbeat_interval {
            return Err(format!(
                "heartbeat_timeout ({:?}) must exceed heartbeat_interval ({:?}): a \
                 healthy-but-idle worker beats once per interval, so a timeout at or \
                 below it reaps every connection it is meant to protect",
                self.heartbeat_timeout, self.heartbeat_interval
            ));
        }
        if self.hello_timeout.is_zero() {
            return Err("hello_timeout must be non-zero: a zero window writes every rank off \
                 before its Hello can arrive"
                .to_string());
        }
        Ok(())
    }

    /// Invariants the *worker* relies on, checked at
    /// [`crate::NetWorker::connect`]. Deliberately does not compare
    /// `heartbeat_interval` against `heartbeat_timeout`: the timeout is
    /// enforced by the server against the server's own config.
    pub fn validate_worker(&self) -> Result<(), String> {
        if self.heartbeat_interval.is_zero() {
            return Err("heartbeat_interval must be non-zero: a zero interval spins the \
                 heartbeat thread flat out and floods the connection"
                .to_string());
        }
        if self.request_timeout.is_zero() {
            return Err("request_timeout must be non-zero: a zero deadline times every \
                 request out before the reply can arrive"
                .to_string());
        }
        if self.connect_attempts == 0 {
            return Err(
                "connect_attempts must be non-zero: zero attempts can never dial".to_string()
            );
        }
        if self.connect_backoff.is_zero() {
            return Err("connect_backoff must be non-zero: a zero backoff redials in a \
                 busy loop and never escapes a refusing server"
                .to_string());
        }
        if self.connect_backoff_cap < self.connect_backoff {
            return Err(format!(
                "connect_backoff_cap ({:?}) must be at least connect_backoff ({:?}): \
                 the cap bounds the doubling schedule from above",
                self.connect_backoff_cap, self.connect_backoff
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_fast_pass_both_validators() {
        for cfg in [NetConfig::default(), NetConfig::fast()] {
            cfg.validate_server().unwrap();
            cfg.validate_worker().unwrap();
        }
    }

    #[test]
    fn server_rejects_timeout_at_or_below_interval() {
        let base = NetConfig::default();
        let cfg = NetConfig { heartbeat_timeout: base.heartbeat_interval, ..base.clone() };
        let err = cfg.validate_server().unwrap_err();
        assert!(err.contains("heartbeat_timeout"), "unhelpful error: {err}");
        let cfg = NetConfig { heartbeat_timeout: base.heartbeat_interval / 2, ..base };
        cfg.validate_server().unwrap_err();
        // The same config is a legal *worker* config: the worker never
        // enforces the server's reaping window.
        cfg.validate_worker().unwrap();
    }

    #[test]
    fn server_rejects_a_zero_hello_window() {
        let cfg = NetConfig { hello_timeout: Duration::ZERO, ..NetConfig::default() };
        assert!(cfg.validate_server().unwrap_err().contains("hello_timeout"));
    }

    #[test]
    fn worker_rejects_zero_retry_machinery() {
        let cfg = NetConfig { request_timeout: Duration::ZERO, ..NetConfig::default() };
        assert!(cfg.validate_worker().unwrap_err().contains("request_timeout"));

        let cfg = NetConfig { connect_attempts: 0, ..NetConfig::default() };
        assert!(cfg.validate_worker().unwrap_err().contains("connect_attempts"));

        let cfg = NetConfig { connect_backoff: Duration::ZERO, ..NetConfig::default() };
        assert!(cfg.validate_worker().unwrap_err().contains("connect_backoff"));

        let base = NetConfig::default();
        let cfg = NetConfig { connect_backoff_cap: base.connect_backoff / 2, ..base };
        assert!(cfg.validate_worker().unwrap_err().contains("connect_backoff_cap"));

        let cfg = NetConfig { heartbeat_interval: Duration::ZERO, ..NetConfig::default() };
        assert!(cfg.validate_worker().unwrap_err().contains("heartbeat_interval"));
    }

    #[test]
    fn backoff_schedule_doubles_from_zero_and_clamps_at_the_cap() {
        let cfg = NetConfig {
            connect_attempts: 6,
            connect_backoff: Duration::from_millis(25),
            connect_backoff_cap: Duration::from_millis(100),
            ..NetConfig::default()
        };
        let delays: Vec<_> = cfg.backoff().delays().collect();
        assert_eq!(
            delays,
            vec![
                Duration::ZERO,
                Duration::from_millis(25),
                Duration::from_millis(50),
                Duration::from_millis(100),
                Duration::from_millis(100),
                Duration::from_millis(100),
            ]
        );
        assert_eq!(cfg.backoff().attempts(), 6);
        assert_eq!(cfg.backoff().total_delay(), Duration::from_millis(375));
    }

    #[test]
    fn backoff_schedule_always_dials_at_least_once() {
        // connect_attempts == 0 is rejected by validate_worker, but the
        // schedule itself still guards: a zero-attempt schedule would turn
        // every reconnect into an instant failure.
        let sched = BackoffSchedule::new(0, Duration::from_millis(10), Duration::from_secs(1));
        assert_eq!(sched.attempts(), 1);
        assert_eq!(sched.delays().collect::<Vec<_>>(), vec![Duration::ZERO]);
    }

    #[test]
    fn backoff_schedule_survives_huge_attempt_counts() {
        // The shift in the doubling must not overflow for large schedules.
        let sched = BackoffSchedule::new(64, Duration::from_millis(1), Duration::from_secs(2));
        let delays: Vec<_> = sched.delays().collect();
        assert_eq!(delays.len(), 64);
        assert!(delays.iter().all(|d| *d <= Duration::from_secs(2)));
        assert_eq!(delays[63], Duration::from_secs(2));
    }

    #[test]
    fn default_config_speaks_the_seed_codec() {
        assert_eq!(NetConfig::default().wire_codec, WireCodec::F32);
    }

    #[test]
    fn slow_worker_heartbeat_is_legal_worker_side() {
        // The reconnect tests run a worker whose interval exceeds the
        // server's timeout on purpose; that asymmetry must validate.
        let cfg = NetConfig { heartbeat_interval: Duration::from_secs(30), ..NetConfig::fast() };
        cfg.validate_worker().unwrap();
    }
}
