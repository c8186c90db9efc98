//! Deterministic fault injection for the serving stack.
//!
//! The paper's testbed only *degrades* links (weak RSSI makes offloads
//! slow); real edge deployments also see offloads **fail**: access
//! points drop associations, transfers stall past their deadline, a
//! co-runner ignites a thermal burst that throttles the CPU for the
//! next several inferences, and remote servers straggle. This module
//! injects exactly those faults, deterministically:
//!
//! * a [`FaultProfile`] describes *how often* each fault class occurs
//!   (link dropouts and disconnection windows for the edge and cloud
//!   links independently, transfer timeouts, straggler spikes, thermal
//!   bursts);
//! * a [`FaultInjector`] turns a profile plus a seed into a per-request
//!   stream of [`RequestFaults`] plans. The injector owns its own RNG
//!   stream and draws a **fixed number of values per request**, so the
//!   fault schedule is a pure function of `(profile, seed, request
//!   index)` — independent of what the scheduler decides, which shard
//!   runs the session, or whether any fault is ever consumed;
//! * a [`ResiliencePolicy`] describes what the executor does about a
//!   failed offload: deadline-aware per-attempt timeouts, bounded retry
//!   with exponential backoff, and a penalty budget past which it stops
//!   retrying and falls back to the best feasible local target.
//!
//! The executor charges every failed attempt's latency and energy to
//! the request (see
//! [`Simulator::execute_resilient`](crate::Simulator::execute_resilient)),
//! so the Q-learner's reward sees flaky targets exactly the way it sees
//! weak-signal targets — and learns to avoid them.

use autoscale_net::OutageKind;
use autoscale_platform::{ThermalHysteresis, ThermalTracker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Maximum offload attempts per request the fault plan covers: one
/// initial attempt plus up to three retries. [`ResiliencePolicy`]
/// values above this are clamped.
pub const MAX_ATTEMPTS: usize = 4;

/// Exactly how many RNG values [`FaultInjector::next_faults`] consumes
/// per request, one per possible fault site: two disconnection-window
/// draws, [`MAX_ATTEMPTS`] per-attempt draws for each of the two links,
/// one straggler draw, one thermal draw. Two shadow-RNG tests pin it:
/// `draws_exactly_the_documented_count_per_request` steps a copy of the
/// stream by this count per chaos request, and
/// `draw_count_is_fixed_so_sites_are_independent` checks that the sites
/// that fire never shift the others. The golden trace
/// (`tests/fault_trace.rs`) pins the schedule's values. Change the
/// count only together with them.
pub const FAULT_DRAWS_PER_REQUEST: usize = 2 + 2 * MAX_ATTEMPTS + 2;

/// Ambient die temperature the burst model decays toward, in °C.
const AMBIENT_TEMP_C: f64 = 30.0;
/// Per-request exponential cooling ratio of the excess die temperature.
const THERMAL_DECAY_RATIO: f64 = 0.7;

/// How often each fault class strikes. All `*_rate` fields are
/// per-draw probabilities; values outside [0, 1] are treated as their
/// clamp (a rate of 2.0 behaves like 1.0), so arbitrary profiles are
/// safe to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Per-attempt probability the peer-to-peer (tablet) link drops.
    pub edge_dropout_rate: f64,
    /// Per-attempt probability the WLAN (cloud) link drops.
    pub cloud_dropout_rate: f64,
    /// Per-attempt probability a peer-to-peer transfer stalls to its
    /// deadline.
    pub edge_timeout_rate: f64,
    /// Per-attempt probability a WLAN transfer stalls to its deadline.
    pub cloud_timeout_rate: f64,
    /// Per-request probability a peer-to-peer disconnection window
    /// opens (the tablet walks out of range for a while).
    pub edge_disconnect_rate: f64,
    /// Per-request probability a WLAN disconnection window opens.
    pub cloud_disconnect_rate: f64,
    /// Length of a disconnection window, in requests. While a window is
    /// open every attempt on that link is a dropout.
    pub disconnect_len: usize,
    /// Per-request probability the remote server straggles.
    pub straggler_rate: f64,
    /// Multiplier on remote compute time during a straggler spike
    /// (values below 1 are treated as 1 — a straggler never speeds
    /// anything up).
    pub straggler_scale: f64,
    /// Per-request probability a thermal burst ignites on the host.
    pub thermal_burst_rate: f64,
    /// Peak die temperature of a burst, in °C. Throttling then follows
    /// the [`ThermalHysteresis`] band as the die cools.
    pub thermal_burst_temp_c: f64,
}

impl FaultProfile {
    /// No faults at all — the zero-cost default. Sessions built with
    /// this profile skip the injector entirely and behave bit-for-bit
    /// like the fault-free serving stack.
    pub fn none() -> Self {
        FaultProfile {
            edge_dropout_rate: 0.0,
            cloud_dropout_rate: 0.0,
            edge_timeout_rate: 0.0,
            cloud_timeout_rate: 0.0,
            edge_disconnect_rate: 0.0,
            cloud_disconnect_rate: 0.0,
            disconnect_len: 0,
            straggler_rate: 0.0,
            straggler_scale: 1.0,
            thermal_burst_rate: 0.0,
            thermal_burst_temp_c: AMBIENT_TEMP_C,
        }
    }

    /// A flaky tablet: the peer-to-peer link drops, stalls, and
    /// occasionally disconnects for several requests; the cloud path is
    /// clean.
    pub fn lossy_edge() -> Self {
        FaultProfile {
            edge_dropout_rate: 0.15,
            edge_timeout_rate: 0.05,
            edge_disconnect_rate: 0.02,
            disconnect_len: 5,
            ..FaultProfile::none()
        }
    }

    /// A flaky WLAN: the cloud path drops, stalls, and occasionally
    /// disconnects; the tablet link is clean.
    pub fn lossy_cloud() -> Self {
        FaultProfile {
            cloud_dropout_rate: 0.15,
            cloud_timeout_rate: 0.05,
            cloud_disconnect_rate: 0.02,
            disconnect_len: 5,
            ..FaultProfile::none()
        }
    }

    /// Both links moderately flaky.
    pub fn flaky() -> Self {
        FaultProfile {
            edge_dropout_rate: 0.08,
            cloud_dropout_rate: 0.08,
            edge_timeout_rate: 0.03,
            cloud_timeout_rate: 0.03,
            edge_disconnect_rate: 0.01,
            cloud_disconnect_rate: 0.01,
            disconnect_len: 4,
            ..FaultProfile::none()
        }
    }

    /// Slow-but-alive failures: remote stragglers and local thermal
    /// bursts, no hard link failures.
    pub fn stragglers() -> Self {
        FaultProfile {
            straggler_rate: 0.2,
            straggler_scale: 4.0,
            thermal_burst_rate: 0.1,
            thermal_burst_temp_c: 48.0,
            ..FaultProfile::none()
        }
    }

    /// Everything at once: both links flaky, stragglers, thermal
    /// bursts.
    pub fn chaos() -> Self {
        FaultProfile {
            straggler_rate: 0.15,
            straggler_scale: 4.0,
            thermal_burst_rate: 0.08,
            thermal_burst_temp_c: 48.0,
            ..FaultProfile::flaky()
        }
    }

    /// The named profiles `--faults` accepts, in display order.
    pub const NAMES: [&'static str; 6] = [
        "none",
        "lossy-edge",
        "lossy-cloud",
        "flaky",
        "stragglers",
        "chaos",
    ];

    /// Resolves a named profile (`none`, `lossy-edge`, `lossy-cloud`,
    /// `flaky`, `stragglers`, `chaos`), case-insensitively.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "none" => Some(FaultProfile::none()),
            "lossy-edge" => Some(FaultProfile::lossy_edge()),
            "lossy-cloud" => Some(FaultProfile::lossy_cloud()),
            "flaky" => Some(FaultProfile::flaky()),
            "stragglers" => Some(FaultProfile::stragglers()),
            "chaos" => Some(FaultProfile::chaos()),
            _ => None,
        }
    }

    /// Whether every fault rate is zero — the profile can never inject
    /// anything, so sessions skip the injector entirely.
    pub fn is_none(&self) -> bool {
        self.edge_dropout_rate <= 0.0
            && self.cloud_dropout_rate <= 0.0
            && self.edge_timeout_rate <= 0.0
            && self.cloud_timeout_rate <= 0.0
            && self.edge_disconnect_rate <= 0.0
            && self.cloud_disconnect_rate <= 0.0
            && self.straggler_rate <= 0.0
            && self.thermal_burst_rate <= 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// The fault plan for one link on one request: what happens to each of
/// up to [`MAX_ATTEMPTS`] offload attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkFaults {
    /// Per-attempt outcome: `None` means the attempt goes through.
    pub attempts: [Option<OutageKind>; MAX_ATTEMPTS],
}

impl LinkFaults {
    /// A link with no faults this request.
    pub fn clean() -> Self {
        LinkFaults {
            attempts: [None; MAX_ATTEMPTS],
        }
    }

    /// A fully disconnected link: every attempt drops.
    pub fn disconnected() -> Self {
        LinkFaults {
            attempts: [Some(OutageKind::Dropout); MAX_ATTEMPTS],
        }
    }

    /// Whether any attempt fails.
    pub fn any(&self) -> bool {
        self.attempts.iter().any(|a| a.is_some())
    }
}

/// The complete fault plan for one request, drawn up front so the
/// schedule never depends on what the scheduler decides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestFaults {
    /// Index of the request in the session's stream.
    pub index: u64,
    /// Fault plan for the peer-to-peer (tablet) link.
    pub edge: LinkFaults,
    /// Fault plan for the WLAN (cloud) link.
    pub cloud: LinkFaults,
    /// Multiplier on remote compute time this request (1.0 = none).
    pub straggler_ratio: f64,
    /// Thermal frequency cap in force on the host this request, if the
    /// burst model left the die throttled.
    pub thermal_cap: Option<f64>,
}

impl RequestFaults {
    /// A plan that injects nothing — what the fault-free serving path
    /// behaves like.
    pub fn none(index: u64) -> Self {
        RequestFaults {
            index,
            edge: LinkFaults::clean(),
            cloud: LinkFaults::clean(),
            straggler_ratio: 1.0,
            thermal_cap: None,
        }
    }

    /// Whether this plan injects anything at all.
    pub fn any(&self) -> bool {
        self.edge.any()
            || self.cloud.any()
            || self.straggler_ratio > 1.0
            || self.thermal_cap.is_some()
    }
}

impl std::fmt::Display for RequestFaults {
    /// One fixed-width schedule line (`#0007 edge=[D,T,-,-]
    /// cloud=[-,-,-,-] straggle=x1.0 thermal=-`), the format the golden
    /// fault-trace fixture pins.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let link = |l: &LinkFaults| -> String {
            l.attempts
                .iter()
                .map(|a| match a {
                    None => "-",
                    Some(OutageKind::Dropout) => "D",
                    Some(OutageKind::Timeout) => "T",
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let thermal = match self.thermal_cap {
            Some(cap) => format!("{cap:.2}"),
            None => "-".to_string(),
        };
        write!(
            f,
            "#{:04} edge=[{}] cloud=[{}] straggle=x{:.1} thermal={}",
            self.index,
            link(&self.edge),
            link(&self.cloud),
            self.straggler_ratio,
            thermal
        )
    }
}

/// What the executor does about a failed offload: per-attempt deadline,
/// bounded exponential-backoff retry, and a total penalty budget past
/// which it stops retrying and falls back locally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// Retries after the first failed attempt (clamped so total
    /// attempts never exceed [`MAX_ATTEMPTS`]).
    pub max_retries: usize,
    /// Backoff before the first retry, in milliseconds.
    pub backoff_base_ms: f64,
    /// Multiplier on the backoff for each further retry.
    pub backoff_factor: f64,
    /// Deadline after which one stalled transfer is abandoned, in
    /// milliseconds.
    pub attempt_timeout_ms: f64,
    /// Total fault penalty past which the executor stops retrying and
    /// falls back to the best local target, in milliseconds.
    pub give_up_ms: f64,
}

impl ResiliencePolicy {
    /// The deadline-aware policy for a scenario with QoS target
    /// `qos_ms`: a stalled transfer is abandoned at the QoS deadline
    /// (waiting longer cannot save the request), retries back off
    /// 2 ms → 4 ms, and the executor gives up once the accumulated
    /// penalty exceeds twice the deadline.
    pub fn for_qos(qos_ms: f64) -> Self {
        ResiliencePolicy {
            max_retries: 2,
            backoff_base_ms: 2.0,
            backoff_factor: 2.0,
            attempt_timeout_ms: qos_ms,
            give_up_ms: 2.0 * qos_ms,
        }
    }

    /// Offload attempts this policy allows per request (initial attempt
    /// plus retries, clamped to the plan depth [`MAX_ATTEMPTS`]).
    pub fn max_attempts(&self) -> usize {
        (self.max_retries + 1).min(MAX_ATTEMPTS)
    }

    /// The backoff before retry number `retry` (0-based), in
    /// milliseconds.
    pub fn backoff_ms(&self, retry: usize) -> f64 {
        self.backoff_base_ms * self.backoff_factor.powi(retry as i32)
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::for_qos(50.0)
    }
}

/// The seeded per-session fault source.
///
/// Owns a private RNG stream (never shared with the session's
/// environment/exploration stream) and draws a fixed
/// [`FAULT_DRAWS_PER_REQUEST`] values per request — one per possible
/// fault site — so the schedule for request `i` depends only on
/// `(profile, seed, i)`. Disconnection windows and the thermal
/// burst/decay trajectory are the only state, and both advance once
/// per request.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    rng: StdRng,
    /// Requests remaining in an open peer-to-peer disconnection window.
    edge_window_left: usize,
    /// Requests remaining in an open WLAN disconnection window.
    cloud_window_left: usize,
    /// Modelled die temperature, in °C.
    temp_c: f64,
    tracker: ThermalTracker,
    next_index: u64,
}

impl FaultInjector {
    /// Builds an injector for a profile from the session's fault seed.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultInjector {
            profile,
            rng: StdRng::seed_from_u64(seed),
            edge_window_left: 0,
            cloud_window_left: 0,
            temp_c: AMBIENT_TEMP_C,
            tracker: ThermalTracker::new(ThermalHysteresis::phone_default()),
            next_index: 0,
        }
    }

    /// The profile this injector draws from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// How many requests have been planned so far.
    pub fn planned(&self) -> u64 {
        self.next_index
    }

    /// Draws the fault plan for the next request.
    pub fn next_faults(&mut self) -> RequestFaults {
        let p = self.profile;
        // Fixed draw order, one draw per site, every request:
        // window(edge), window(cloud), 4x attempt(edge),
        // 4x attempt(cloud), straggler, thermal. Keeping the count
        // constant makes the schedule independent of scheduler
        // decisions and of which faults are actually consumed.
        let edge_window_draw: f64 = self.rng.gen();
        let cloud_window_draw: f64 = self.rng.gen();
        if self.edge_window_left == 0 && edge_window_draw < p.edge_disconnect_rate {
            self.edge_window_left = p.disconnect_len;
        }
        if self.cloud_window_left == 0 && cloud_window_draw < p.cloud_disconnect_rate {
            self.cloud_window_left = p.disconnect_len;
        }
        let edge = self.draw_link(
            p.edge_dropout_rate,
            p.edge_timeout_rate,
            self.edge_window_left > 0,
        );
        let cloud = self.draw_link(
            p.cloud_dropout_rate,
            p.cloud_timeout_rate,
            self.cloud_window_left > 0,
        );
        self.edge_window_left = self.edge_window_left.saturating_sub(1);
        self.cloud_window_left = self.cloud_window_left.saturating_sub(1);

        let straggler_draw: f64 = self.rng.gen();
        let straggler_ratio = if straggler_draw < p.straggler_rate {
            p.straggler_scale.max(1.0)
        } else {
            1.0
        };

        let thermal_draw: f64 = self.rng.gen();
        self.temp_c = AMBIENT_TEMP_C + (self.temp_c - AMBIENT_TEMP_C) * THERMAL_DECAY_RATIO;
        if thermal_draw < p.thermal_burst_rate {
            self.temp_c = self.temp_c.max(p.thermal_burst_temp_c);
        }
        let thermal_cap = self.tracker.observe(self.temp_c);

        let index = self.next_index;
        self.next_index += 1;
        RequestFaults {
            index,
            edge,
            cloud,
            straggler_ratio,
            thermal_cap,
        }
    }

    /// Draws one link's per-attempt outcomes. Always consumes exactly
    /// [`MAX_ATTEMPTS`] values; an open disconnection window overrides
    /// them all with dropouts.
    fn draw_link(&mut self, dropout_rate: f64, timeout_rate: f64, window_open: bool) -> LinkFaults {
        let mut attempts = [None; MAX_ATTEMPTS];
        for slot in &mut attempts {
            let draw: f64 = self.rng.gen();
            *slot = if window_open || draw < dropout_rate {
                Some(OutageKind::Dropout)
            } else if draw < dropout_rate + timeout_rate {
                Some(OutageKind::Timeout)
            } else {
                None
            };
        }
        LinkFaults { attempts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_parse_and_none_is_none() {
        for name in FaultProfile::NAMES {
            assert!(FaultProfile::parse(name).is_some(), "{name}");
        }
        assert!(FaultProfile::parse("CHAOS").is_some(), "case-insensitive");
        assert!(FaultProfile::parse("hurricane").is_none());
        assert!(FaultProfile::none().is_none());
        assert!(FaultProfile::default().is_none());
        for name in &FaultProfile::NAMES[1..] {
            let p = FaultProfile::parse(name).unwrap();
            assert!(!p.is_none(), "{name} must inject something");
        }
    }

    #[test]
    fn same_seed_reproduces_the_schedule() {
        let plan = |seed: u64| -> Vec<RequestFaults> {
            let mut inj = FaultInjector::new(FaultProfile::chaos(), seed);
            (0..64).map(|_| inj.next_faults()).collect()
        };
        assert_eq!(plan(9), plan(9));
        assert_ne!(plan(9), plan(10));
    }

    #[test]
    fn zero_rates_plan_nothing() {
        let mut inj = FaultInjector::new(FaultProfile::none(), 3);
        for i in 0..32 {
            let plan = inj.next_faults();
            assert!(!plan.any(), "{plan}");
            assert_eq!(plan.index, i);
        }
    }

    #[test]
    fn saturated_rates_fail_every_attempt() {
        let profile = FaultProfile {
            edge_dropout_rate: 1.0,
            cloud_dropout_rate: 1.0,
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 5);
        for _ in 0..16 {
            let plan = inj.next_faults();
            assert_eq!(plan.edge, LinkFaults::disconnected());
            assert_eq!(plan.cloud, LinkFaults::disconnected());
        }
    }

    #[test]
    fn disconnect_window_blankets_attempts_for_its_length() {
        // Force a window on the first request, then nothing else.
        let profile = FaultProfile {
            edge_disconnect_rate: 1.0,
            disconnect_len: 3,
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 11);
        for i in 0..16 {
            let plan = inj.next_faults();
            // Rate 1.0 reopens the window as soon as it closes, so every
            // request is blanketed; the cloud link stays clean.
            assert_eq!(plan.edge, LinkFaults::disconnected(), "request {i}");
            assert_eq!(plan.cloud, LinkFaults::clean(), "request {i}");
        }
    }

    #[test]
    fn disconnect_window_closes_after_its_length() {
        // One guaranteed window of length 2, then rate 0: requests 0-1
        // are blanketed, request 2 onward is clean.
        let profile = FaultProfile {
            edge_disconnect_rate: 1.0,
            disconnect_len: 2,
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 13);
        let first = inj.next_faults();
        assert_eq!(first.edge, LinkFaults::disconnected());
        // Close the tap: copy the injector state but zero the rate.
        inj.profile.edge_disconnect_rate = 0.0;
        let second = inj.next_faults();
        assert_eq!(second.edge, LinkFaults::disconnected(), "window persists");
        let third = inj.next_faults();
        assert_eq!(third.edge, LinkFaults::clean(), "window expired");
    }

    #[test]
    fn thermal_burst_throttles_and_decays_through_hysteresis() {
        let profile = FaultProfile {
            thermal_burst_rate: 1.0,
            thermal_burst_temp_c: 48.0,
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 17);
        let plan = inj.next_faults();
        assert_eq!(plan.thermal_cap, Some(0.6), "burst engages the cap");
        // Stop igniting bursts; the cap must persist while the die cools
        // through the hysteresis band, then lift.
        inj.profile.thermal_burst_rate = 0.0;
        let mut capped = 0;
        let mut released = false;
        for _ in 0..10 {
            match inj.next_faults().thermal_cap {
                Some(_) if !released => capped += 1,
                Some(_) => panic!("cap re-engaged without a burst"),
                None => released = true,
            }
        }
        assert!(capped >= 1, "hysteresis keeps the cap through cooling");
        assert!(released, "the die eventually recovers");
    }

    #[test]
    fn stragglers_stretch_and_never_shrink() {
        let profile = FaultProfile {
            straggler_rate: 1.0,
            straggler_scale: 0.25, // adversarial: below 1 must clamp up
            ..FaultProfile::none()
        };
        let mut inj = FaultInjector::new(profile, 23);
        for _ in 0..8 {
            assert!(inj.next_faults().straggler_ratio >= 1.0);
        }
    }

    #[test]
    fn draw_count_is_fixed_so_sites_are_independent() {
        // Turning one fault class off must not shift any other class's
        // draws: the edge schedule is identical whether or not the
        // thermal/straggler sites fire.
        let with_thermal = FaultProfile {
            edge_dropout_rate: 0.3,
            thermal_burst_rate: 1.0,
            thermal_burst_temp_c: 48.0,
            straggler_rate: 1.0,
            straggler_scale: 3.0,
            ..FaultProfile::none()
        };
        let without = FaultProfile {
            edge_dropout_rate: 0.3,
            ..FaultProfile::none()
        };
        let edges = |profile: FaultProfile| -> Vec<LinkFaults> {
            let mut inj = FaultInjector::new(profile, 29);
            (0..64).map(|_| inj.next_faults().edge).collect()
        };
        assert_eq!(edges(with_thermal), edges(without));
    }

    #[test]
    fn draws_exactly_the_documented_count_per_request() {
        // Pin FAULT_DRAWS_PER_REQUEST against the implementation with a
        // shadow RNG: advancing a fresh stream by exactly that many
        // values per request must keep it bit-identical to the
        // injector's own stream (StdRng implements PartialEq).
        assert_eq!(FAULT_DRAWS_PER_REQUEST, 2 + 2 * MAX_ATTEMPTS + 2);
        let mut inj = FaultInjector::new(FaultProfile::chaos(), 37);
        let mut shadow = StdRng::seed_from_u64(37);
        for request in 0..16 {
            inj.next_faults();
            for _ in 0..FAULT_DRAWS_PER_REQUEST {
                let _: f64 = shadow.gen();
            }
            assert_eq!(
                inj.rng, shadow,
                "draw count drifted from FAULT_DRAWS_PER_REQUEST at request {request}"
            );
        }
    }

    #[test]
    fn schedule_lines_render_fixed_width() {
        let mut inj = FaultInjector::new(FaultProfile::chaos(), 31);
        let line = inj.next_faults().to_string();
        assert!(line.starts_with("#0000 edge=["), "{line}");
        assert!(line.contains("straggle=x"), "{line}");
    }

    #[test]
    fn policy_backoff_is_exponential_and_attempts_clamped() {
        let policy = ResiliencePolicy::for_qos(50.0);
        assert_eq!(policy.backoff_ms(0), 2.0);
        assert_eq!(policy.backoff_ms(1), 4.0);
        assert_eq!(policy.backoff_ms(2), 8.0);
        assert_eq!(policy.max_attempts(), 3);
        let greedy = ResiliencePolicy {
            max_retries: 100,
            ..policy
        };
        assert_eq!(greedy.max_attempts(), MAX_ATTEMPTS);
        assert_eq!(policy.attempt_timeout_ms, 50.0);
        assert_eq!(policy.give_up_ms, 100.0);
    }
}
