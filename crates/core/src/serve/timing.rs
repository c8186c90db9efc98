//! The serving stack's wall-clock quarantine.
//!
//! Everything a session reports is a pure function of its spec and
//! seed; decision latency is the single measured — and therefore
//! non-deterministic — quantity. This module is the only place the
//! serving code is allowed to read the clock, and its output is
//! structurally separated from every digest input: a [`DecisionTimer`]
//! yields plain nanosecond samples that [`super::session::DeviceSession`]
//! returns *beside* its deterministic report, never inside it. The
//! `session_report_serializes_no_wall_clock_fields` test in the session
//! module pins that separation down.

use std::time::Instant;

/// Measures the wall-clock latency of one decision.
///
/// The construction-to-read pairing keeps the clock access in one
/// reviewable spot instead of scattering `Instant::now()` calls through
/// the decision loop.
#[derive(Debug)]
pub(crate) struct DecisionTimer {
    start: Instant,
}

impl DecisionTimer {
    /// Starts timing a decision.
    pub(crate) fn start() -> Self {
        // Decision latency is the one deliberately measured quantity in
        // the serving stack; it is kept beside, never inside, the
        // digested SessionReport.
        DecisionTimer {
            #[expect(clippy::disallowed_methods, reason = "the quarantined wall-clock read")]
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`DecisionTimer::start`], saturating at
    /// `u64::MAX` (a decision cannot plausibly take 584 years).
    pub(crate) fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_reports_monotonic_nanoseconds() {
        let timer = DecisionTimer::start();
        let first = timer.elapsed_ns();
        let second = timer.elapsed_ns();
        assert!(second >= first, "elapsed time cannot go backwards");
    }
}
