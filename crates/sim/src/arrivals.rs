//! Deterministic open-loop traffic: request-arrival processes and
//! session churn schedules for the serving stack.
//!
//! The paper evaluates AutoScale under stochastically varying *runtime*
//! conditions, but its serving loop is closed-loop: every session runs a
//! fixed number of back-to-back decisions. A deployed fleet is open-loop
//! — requests arrive whether or not the device is ready, sessions come
//! and go, and overload is a first-class regime. This module supplies
//! the two schedule sources that open-loop serving needs, with the same
//! determinism discipline as [`crate::faults`]:
//!
//! * an [`ArrivalProcess`] describes *when requests arrive*: a Poisson
//!   stream at a base rate, a bursty variant that opens
//!   multiplied-rate windows, and a diurnal variant whose rate swings
//!   sinusoidally over a configurable period;
//! * an [`ArrivalSampler`] turns a process plus a seed into the actual
//!   arrival times. It owns its own RNG stream and draws a **fixed
//!   [`ARRIVAL_DRAWS_PER_EVENT`] values per arrival**, so the schedule
//!   for arrival `i` is a pure function of `(process, seed, i)` —
//!   independent of the scheduler's decisions, the fault profile, the
//!   admission policy, and of how many arrivals are ever generated
//!   (prefix-stable);
//! * a [`ChurnConfig`] describes *when sessions exist*: a join-time
//!   spread and an exponential lifetime, turned into a concrete
//!   [`ChurnWindow`] per session with a fixed
//!   [`CHURN_DRAWS_PER_SESSION`] draws from the session's private churn
//!   stream.
//!
//! What the serving layer does *with* these schedules — bounded queues,
//! deadline-aware admission, drop/degrade on overload — lives in
//! `autoscale::serve::openloop`; this module only answers "when".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Exactly how many RNG values [`ArrivalSampler::next_arrival`]
/// consumes per generated arrival: one inter-arrival gap draw and one
/// burst-trigger draw (consumed by every process kind, so switching
/// kinds never re-times the other draws). The shadow-RNG test
/// `draws_exactly_the_documented_count_per_arrival` steps a copy of the
/// stream by this count per arrival, for every process kind, and the
/// golden trace (`tests/openloop_trace.rs`) pins the schedule's values.
/// Change the count only together with them.
pub const ARRIVAL_DRAWS_PER_EVENT: usize = 2;

/// Exactly how many RNG values [`ChurnWindow::draw`] consumes per
/// session: one join-offset draw and one lifetime draw, consumed even
/// when churn is off so enabling churn never re-times anything else.
pub const CHURN_DRAWS_PER_SESSION: usize = 2;

/// The shape of a request-arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalKind {
    /// Memoryless arrivals at the base rate.
    Poisson,
    /// Poisson arrivals whose rate is multiplied during randomly
    /// triggered burst windows.
    Bursty,
    /// Poisson arrivals whose rate is modulated sinusoidally over a
    /// fixed period — a compressed day/night cycle.
    Diurnal,
}

impl std::fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
            ArrivalKind::Diurnal => "diurnal",
        })
    }
}

/// An open-loop request-arrival process: the traffic one session's
/// users offer, independent of whether the device can keep up.
///
/// The struct is flat (like [`crate::FaultProfile`]) so every kind
/// carries the same fields and serialization never depends on the
/// variant: unused knobs are simply ignored by the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalProcess {
    /// Which modulation the sampler applies.
    pub kind: ArrivalKind,
    /// Base arrival rate, in requests per second. A rate of zero (or
    /// below) offers no traffic at all: the schedule is empty.
    pub rate_hz: f64,
    /// Per-arrival probability that a burst window opens
    /// ([`ArrivalKind::Bursty`] only).
    pub burst_rate: f64,
    /// Length of a burst window, in arrivals.
    pub burst_len: usize,
    /// Rate multiplier while a burst window is open (values below 1
    /// are clamped to 1 — a burst never thins traffic).
    pub burst_mult: f64,
    /// Period of the diurnal modulation, in milliseconds of virtual
    /// time ([`ArrivalKind::Diurnal`] only).
    pub diurnal_period_ms: f64,
    /// Peak-to-mean swing of the diurnal modulation in [0, 1): the
    /// instantaneous rate is `rate_hz * (1 + depth * sin(2πt/period))`.
    pub diurnal_depth: f64,
}

impl ArrivalProcess {
    /// Memoryless traffic at `rate_hz` requests per second.
    pub fn poisson(rate_hz: f64) -> Self {
        ArrivalProcess {
            kind: ArrivalKind::Poisson,
            rate_hz,
            burst_rate: 0.0,
            burst_len: 0,
            burst_mult: 1.0,
            diurnal_period_ms: 0.0,
            diurnal_depth: 0.0,
        }
    }

    /// Bursty traffic: base `rate_hz` with 5%-per-arrival bursts of 16
    /// arrivals at 4x the rate.
    pub fn bursty(rate_hz: f64) -> Self {
        ArrivalProcess {
            kind: ArrivalKind::Bursty,
            burst_rate: 0.05,
            burst_len: 16,
            burst_mult: 4.0,
            ..ArrivalProcess::poisson(rate_hz)
        }
    }

    /// Diurnally modulated traffic: `rate_hz` mean with a ±60% swing
    /// over a 4-second virtual "day" (compressed so short horizons see
    /// full cycles).
    pub fn diurnal(rate_hz: f64) -> Self {
        ArrivalProcess {
            kind: ArrivalKind::Diurnal,
            diurnal_period_ms: 4_000.0,
            diurnal_depth: 0.6,
            ..ArrivalProcess::poisson(rate_hz)
        }
    }

    /// The named processes `--arrivals` accepts, in display order.
    pub const NAMES: [&'static str; 3] = ["poisson", "bursty", "diurnal"];

    /// Resolves a named process at a base rate, case-insensitively.
    pub fn parse(name: &str, rate_hz: f64) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "poisson" => Some(ArrivalProcess::poisson(rate_hz)),
            "bursty" => Some(ArrivalProcess::bursty(rate_hz)),
            "diurnal" => Some(ArrivalProcess::diurnal(rate_hz)),
            _ => None,
        }
    }

    /// Whether this process can never offer a request (zero or negative
    /// base rate): the arrival schedule is empty and an open-loop
    /// session produces an empty-but-valid report.
    pub fn is_silent(&self) -> bool {
        self.rate_hz <= 0.0
    }
}

/// One generated arrival: its index in the session's schedule and its
/// timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// Index of the arrival in the session's stream.
    pub index: u64,
    /// Arrival time, in milliseconds from the start of the session's
    /// window. [`f64::INFINITY`] for a silent process.
    pub at_ms: f64,
    /// Gap to the previous arrival, in milliseconds.
    pub gap_ms: f64,
    /// Whether a burst window was open when this arrival was timed.
    pub in_burst: bool,
}

impl std::fmt::Display for Arrival {
    /// One fixed-width schedule line (`#0007 t=  123.456 ms gap=
    /// 12.345 ms burst=·`), the format the golden open-loop trace
    /// fixture pins.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{:04} t={:>10.3} ms gap={:>9.3} ms burst={}",
            self.index,
            self.at_ms,
            self.gap_ms,
            if self.in_burst { 'B' } else { '-' }
        )
    }
}

/// The seeded per-session arrival source.
///
/// Owns a private RNG stream (never shared with the session's
/// decision, environment or fault streams) and draws a fixed
/// [`ARRIVAL_DRAWS_PER_EVENT`] values per arrival, so the schedule for
/// arrival `i` depends only on `(process, seed, i)`. The burst window
/// counter and the virtual clock are the only state, and both advance
/// once per arrival.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    rng: StdRng,
    /// Virtual time of the previous arrival, in ms from window start.
    clock_ms: f64,
    /// Arrivals remaining in an open burst window.
    burst_left: usize,
    next_index: u64,
}

impl ArrivalSampler {
    /// Builds a sampler for a process from the session's arrival seed.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        ArrivalSampler {
            process,
            rng: StdRng::seed_from_u64(seed),
            clock_ms: 0.0,
            burst_left: 0,
            next_index: 0,
        }
    }

    /// The process this sampler draws from.
    pub fn process(&self) -> &ArrivalProcess {
        &self.process
    }

    /// How many arrivals have been generated so far.
    pub fn generated(&self) -> u64 {
        self.next_index
    }

    /// The instantaneous arrival rate in requests per millisecond, as
    /// modulated by the burst window and the diurnal cycle at virtual
    /// time `clock_ms`. Zero (silent) stays zero under any modulation.
    fn rate_per_ms(&self) -> f64 {
        let p = &self.process;
        if p.rate_hz <= 0.0 {
            return 0.0;
        }
        let mut rate = p.rate_hz / 1_000.0;
        if self.burst_left > 0 {
            rate *= p.burst_mult.max(1.0);
        }
        if p.kind == ArrivalKind::Diurnal && p.diurnal_period_ms > 0.0 {
            let depth = p.diurnal_depth.clamp(0.0, 0.99);
            let phase = std::f64::consts::TAU * self.clock_ms / p.diurnal_period_ms;
            rate *= 1.0 + depth * phase.sin();
        }
        rate.max(0.0)
    }

    /// Generates the next arrival.
    ///
    /// Fixed draw order, one draw per site, every arrival: gap, burst
    /// trigger. Keeping the count constant makes the schedule
    /// independent of scheduler decisions and of which arrivals are
    /// ever admitted. A silent process yields arrivals at
    /// `t = INFINITY`, which no finite horizon ever reaches.
    pub fn next_arrival(&mut self) -> Arrival {
        let rate = self.rate_per_ms();
        let gap_draw: f64 = self.rng.gen();
        let burst_draw: f64 = self.rng.gen();
        // Inverse-CDF exponential gap at the instantaneous rate. The
        // draw lies in [0, 1), so `1 - draw` is strictly positive and
        // the gap is finite and non-negative for any positive rate.
        let gap_ms = if rate > 0.0 {
            -(1.0 - gap_draw).ln() / rate
        } else {
            f64::INFINITY
        };
        let in_burst = self.burst_left > 0;
        self.burst_left = self.burst_left.saturating_sub(1);
        if self.process.kind == ArrivalKind::Bursty
            && self.burst_left == 0
            && burst_draw < self.process.burst_rate
        {
            self.burst_left = self.process.burst_len;
        }
        self.clock_ms += gap_ms;
        let index = self.next_index;
        self.next_index += 1;
        Arrival {
            index,
            at_ms: self.clock_ms,
            gap_ms,
            in_burst,
        }
    }
}

/// How sessions join and leave an open-loop fleet. All times are in
/// milliseconds of virtual serving time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Sessions join uniformly within `[0, join_spread_ms]` of the run
    /// start (zero: everyone is present from the beginning).
    pub join_spread_ms: f64,
    /// Mean of the exponential session lifetime. Zero (or below) means
    /// immortal sessions that stay for the whole horizon.
    pub mean_lifetime_ms: f64,
    /// What happens to requests still queued when a session leaves:
    /// `true` drains them to completion, `false` drops them (counted
    /// separately from overload drops).
    pub drain_on_leave: bool,
}

impl ChurnConfig {
    /// No churn at all — every session is present for the whole
    /// horizon. The zero-cost default: the two churn draws still
    /// happen (so enabling churn later never re-times other streams),
    /// but the window always spans the full run.
    pub fn none() -> Self {
        ChurnConfig {
            join_spread_ms: 0.0,
            mean_lifetime_ms: 0.0,
            drain_on_leave: true,
        }
    }

    /// Gentle churn over a horizon: joins spread across the first
    /// quarter, lifetimes average 1.5 horizons (most sessions stay),
    /// leavers drain their queues.
    pub fn gentle(horizon_ms: f64) -> Self {
        ChurnConfig {
            join_spread_ms: horizon_ms * 0.25,
            mean_lifetime_ms: horizon_ms * 1.5,
            drain_on_leave: true,
        }
    }

    /// Heavy churn over a horizon: joins spread across the first half,
    /// lifetimes average 30% of the horizon (most sessions leave
    /// mid-run), and leavers abandon their queues.
    pub fn heavy(horizon_ms: f64) -> Self {
        ChurnConfig {
            join_spread_ms: horizon_ms * 0.5,
            mean_lifetime_ms: horizon_ms * 0.3,
            drain_on_leave: false,
        }
    }

    /// The named schedules `--churn` accepts, in display order.
    pub const NAMES: [&'static str; 3] = ["none", "gentle", "heavy"];

    /// Resolves a named schedule over a horizon, case-insensitively.
    pub fn parse(name: &str, horizon_ms: f64) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "none" => Some(ChurnConfig::none()),
            "gentle" => Some(ChurnConfig::gentle(horizon_ms)),
            "heavy" => Some(ChurnConfig::heavy(horizon_ms)),
            _ => None,
        }
    }

    /// Whether this schedule can never remove or delay a session.
    pub fn is_none(&self) -> bool {
        self.join_spread_ms <= 0.0 && self.mean_lifetime_ms <= 0.0
    }
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig::none()
    }
}

/// One session's concrete presence window, drawn from its private
/// churn stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnWindow {
    /// When the session joins, in ms of virtual time.
    pub join_ms: f64,
    /// When the session leaves ([`f64::INFINITY`] for an immortal
    /// session — the horizon caps it).
    pub leave_ms: f64,
}

impl ChurnWindow {
    /// Draws a session's window. Always consumes exactly
    /// [`CHURN_DRAWS_PER_SESSION`] values — one join draw, one
    /// lifetime draw — even when churn is off, so the schedule is a
    /// pure function of `(config, seed)` and enabling churn never
    /// re-times any other stream.
    pub fn draw(config: ChurnConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let join_draw: f64 = rng.gen();
        let life_draw: f64 = rng.gen();
        let join_ms = if config.join_spread_ms > 0.0 {
            join_draw * config.join_spread_ms
        } else {
            0.0
        };
        let leave_ms = if config.mean_lifetime_ms > 0.0 {
            join_ms + -(1.0 - life_draw).ln() * config.mean_lifetime_ms
        } else {
            f64::INFINITY
        };
        ChurnWindow { join_ms, leave_ms }
    }

    /// The window clipped to a horizon: `[join, min(leave, horizon))`.
    pub fn end_ms(&self, horizon_ms: f64) -> f64 {
        self.leave_ms.min(horizon_ms)
    }

    /// Whether the session leaves before the horizon does.
    pub fn churns_out(&self, horizon_ms: f64) -> bool {
        self.leave_ms < horizon_ms
    }
}

impl std::fmt::Display for ChurnWindow {
    /// One fixed-width window line (`join=   123.456 ms leave=
    /// 4567.890 ms` with `inf` for immortal sessions), the format the
    /// golden open-loop trace fixture pins.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let leave = if self.leave_ms.is_finite() {
            format!("{:>10.3}", self.leave_ms)
        } else {
            format!("{:>10}", "inf")
        };
        write!(f, "join={:>10.3} ms leave={leave} ms", self.join_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_processes_parse_and_silence_is_detected() {
        for name in ArrivalProcess::NAMES {
            assert!(ArrivalProcess::parse(name, 100.0).is_some(), "{name}");
        }
        assert!(
            ArrivalProcess::parse("POISSON", 10.0).is_some(),
            "case-insensitive"
        );
        assert!(ArrivalProcess::parse("tsunami", 10.0).is_none());
        assert!(ArrivalProcess::poisson(0.0).is_silent());
        assert!(ArrivalProcess::poisson(-4.0).is_silent());
        assert!(!ArrivalProcess::bursty(100.0).is_silent());
    }

    #[test]
    fn same_seed_reproduces_the_schedule() {
        let schedule = |seed: u64| -> Vec<Arrival> {
            let mut sampler = ArrivalSampler::new(ArrivalProcess::bursty(200.0), seed);
            (0..64).map(|_| sampler.next_arrival()).collect()
        };
        assert_eq!(schedule(9), schedule(9));
        assert_ne!(schedule(9), schedule(10));
    }

    #[test]
    fn arrival_times_are_strictly_ordered_and_indexed() {
        for process in [
            ArrivalProcess::poisson(150.0),
            ArrivalProcess::bursty(150.0),
            ArrivalProcess::diurnal(150.0),
        ] {
            let mut sampler = ArrivalSampler::new(process, 7);
            let mut last = 0.0;
            for i in 0..128 {
                let a = sampler.next_arrival();
                assert_eq!(a.index, i);
                assert!(a.gap_ms >= 0.0, "{a}");
                assert!(a.at_ms >= last, "{a} went backwards");
                last = a.at_ms;
            }
        }
    }

    #[test]
    fn silent_processes_never_arrive() {
        let mut sampler = ArrivalSampler::new(ArrivalProcess::poisson(0.0), 3);
        for _ in 0..8 {
            let a = sampler.next_arrival();
            assert!(a.at_ms.is_infinite(), "{a}");
            assert!(!a.in_burst);
        }
    }

    #[test]
    fn bursts_compress_gaps_by_the_multiplier() {
        // Force a permanent burst and compare mean gaps against the
        // plain process at the same seed: the burst stream must run
        // ~burst_mult denser (same draws, scaled rate).
        let plain = ArrivalProcess::poisson(100.0);
        let storm = ArrivalProcess {
            kind: ArrivalKind::Bursty,
            burst_rate: 1.0,
            burst_len: usize::MAX,
            burst_mult: 4.0,
            ..plain
        };
        let mean_gap = |p: ArrivalProcess| -> f64 {
            let mut sampler = ArrivalSampler::new(p, 21);
            // Skip the first arrival: the burst window only opens after
            // the trigger draw of arrival 0.
            sampler.next_arrival();
            (0..256).map(|_| sampler.next_arrival().gap_ms).sum::<f64>() / 256.0
        };
        let ratio = mean_gap(plain) / mean_gap(storm);
        assert!(
            (3.0..5.0).contains(&ratio),
            "burst compressed gaps {ratio:.2}x, wanted ~4x"
        );
    }

    #[test]
    fn diurnal_rate_swings_but_never_goes_negative() {
        let process = ArrivalProcess {
            diurnal_depth: 0.999, // clamps to 0.99
            ..ArrivalProcess::diurnal(100.0)
        };
        let mut sampler = ArrivalSampler::new(process, 5);
        for _ in 0..512 {
            let a = sampler.next_arrival();
            assert!(a.gap_ms.is_finite() && a.gap_ms >= 0.0, "{a}");
        }
    }

    #[test]
    fn draws_exactly_the_documented_count_per_arrival() {
        // Pin ARRIVAL_DRAWS_PER_EVENT against the implementation with a
        // shadow RNG (StdRng implements PartialEq): advancing a fresh
        // stream by exactly that many values per arrival must keep it
        // bit-identical to the sampler's own stream, for every kind.
        assert_eq!(ARRIVAL_DRAWS_PER_EVENT, 2);
        for process in [
            ArrivalProcess::poisson(80.0),
            ArrivalProcess::bursty(80.0),
            ArrivalProcess::diurnal(80.0),
            ArrivalProcess::poisson(0.0),
        ] {
            let mut sampler = ArrivalSampler::new(process, 37);
            let mut shadow = StdRng::seed_from_u64(37);
            for arrival in 0..32 {
                sampler.next_arrival();
                for _ in 0..ARRIVAL_DRAWS_PER_EVENT {
                    let _: f64 = shadow.gen();
                }
                assert_eq!(
                    sampler.rng, shadow,
                    "draw count drifted from ARRIVAL_DRAWS_PER_EVENT at arrival {arrival} ({process:?})"
                );
            }
        }
    }

    #[test]
    fn schedules_are_prefix_stable() {
        let mut short = ArrivalSampler::new(ArrivalProcess::bursty(120.0), 11);
        let mut long = ArrivalSampler::new(ArrivalProcess::bursty(120.0), 11);
        let a: Vec<String> = (0..10).map(|_| short.next_arrival().to_string()).collect();
        let b: Vec<String> = (0..40).map(|_| long.next_arrival().to_string()).collect();
        assert_eq!(&a[..], &b[..10]);
    }

    #[test]
    fn churn_windows_are_deterministic_and_ordered() {
        let config = ChurnConfig::heavy(2_000.0);
        let w = ChurnWindow::draw(config, 13);
        assert_eq!(w, ChurnWindow::draw(config, 13));
        assert_ne!(w, ChurnWindow::draw(config, 14));
        assert!(w.join_ms >= 0.0 && w.join_ms <= 1_000.0);
        assert!(w.leave_ms >= w.join_ms);
    }

    #[test]
    fn no_churn_spans_the_whole_horizon() {
        let w = ChurnWindow::draw(ChurnConfig::none(), 99);
        assert_eq!(w.join_ms, 0.0);
        assert!(w.leave_ms.is_infinite());
        assert!(!w.churns_out(10_000.0));
        assert_eq!(w.end_ms(10_000.0), 10_000.0);
        assert!(ChurnConfig::none().is_none());
        assert!(ChurnConfig::default().is_none());
        assert!(!ChurnConfig::heavy(1_000.0).is_none());
    }

    #[test]
    fn churn_draws_are_fixed_even_when_off() {
        assert_eq!(CHURN_DRAWS_PER_SESSION, 2);
        // Both configs consume the same stream, so flipping churn on
        // cannot re-time anything seeded downstream of the same master
        // seed (windows are drawn from a dedicated sub-stream anyway —
        // this pins the belt to the braces).
        let on = ChurnWindow::draw(ChurnConfig::heavy(1_000.0), 41);
        let off = ChurnWindow::draw(ChurnConfig::none(), 41);
        assert!(on.join_ms > 0.0 || on.leave_ms.is_finite());
        assert_eq!(off.join_ms, 0.0);
    }

    #[test]
    fn named_churn_schedules_parse() {
        for name in ChurnConfig::NAMES {
            assert!(ChurnConfig::parse(name, 1_000.0).is_some(), "{name}");
        }
        assert!(ChurnConfig::parse("GENTLE", 1_000.0).is_some());
        assert!(ChurnConfig::parse("brutal", 1_000.0).is_none());
    }

    #[test]
    fn schedule_lines_render_fixed_width() {
        let mut sampler = ArrivalSampler::new(ArrivalProcess::bursty(100.0), 31);
        let line = sampler.next_arrival().to_string();
        assert!(line.starts_with("#0000 t="), "{line}");
        assert!(line.contains("burst="), "{line}");
        let window = ChurnWindow::draw(ChurnConfig::gentle(1_000.0), 31).to_string();
        assert!(window.starts_with("join="), "{window}");
        let immortal = ChurnWindow::draw(ChurnConfig::none(), 31).to_string();
        assert!(immortal.contains("inf"), "{immortal}");
    }
}
