//! The open-loop discrete-event core: sessions served from arrival
//! schedules instead of fixed decision counts.
//!
//! Closed-loop serving (the default) answers "what happens over N
//! back-to-back decisions". A deployed fleet is open-loop: users offer
//! requests on their own clock, sessions join and leave mid-run, and
//! the interesting regime is overload — what gets dropped, what gets
//! late, how deep the queues go. This module turns a [`DeviceSession`]
//! into exactly that simulator while keeping every determinism
//! guarantee the closed-loop path has.
//!
//! # Event ordering
//!
//! Each session is its own single-server FIFO queue, simulated in
//! virtual milliseconds. The rules, in order, for every offered
//! arrival:
//!
//! 1. **Completions first.** Every queued request whose service can
//!    *start* at or before the arrival instant (the device frees up at
//!    `free_at <= t`) is served before the arrival is considered; the
//!    head request starts at `max(free_at, head.at)`.
//! 2. **Observe, then admit.** The queue depth is sampled for the
//!    depth histogram *after* completions, *before* admission.
//! 3. **Admission.** A full queue always drops (bounded memory). The
//!    deadline policy additionally drops a request whose *predicted*
//!    sojourn (current backlog plus `(queue_len + 1) × mean service
//!    time`) exceeds the scenario QoS — unless the arrival finds the
//!    device idle (empty queue, `free_at <= t`). Admitting that one
//!    delays no one, and its service refreshes the mean, so one slow
//!    early request cannot lock the session out for good. The degrade
//!    policy admits a predicted-late request but serves it greedily
//!    with exploration off.
//! 4. **Window end.** Arrivals at or after `min(leave, horizon)` are
//!    never offered. A session that churns out with
//!    [`ChurnConfig::drain_on_leave`] unset abandons its queue
//!    (counted as drops); otherwise the queue drains to completion
//!    past the window end.
//!
//! Ties need no tiebreaker: within one session every event is ordered
//! by the rules above, and sessions never share state.
//!
//! # RNG stream layout
//!
//! The session seed (one per session, `cell_seed(base_seed, i)`, kept by
//! the [`DeviceSession`] since `spawn`) is split into five disjoint
//! streams:
//!
//! | stream | derivation          | consumer                        |
//! |--------|---------------------|---------------------------------|
//! | 0      | `cell_seed(seed,0)` | engine Q-table initialization   |
//! | 1      | `cell_seed(seed,1)` | environment + exploration draws |
//! | 2      | `cell_seed(seed,2)` | fault injector                  |
//! | 3      | `cell_seed(seed,3)` | arrival schedule                |
//! | 4      | `cell_seed(seed,4)` | churn window                    |
//!
//! Streams 3 and 4 draw a fixed number of values per event
//! ([`autoscale_sim::ARRIVAL_DRAWS_PER_EVENT`],
//! [`autoscale_sim::CHURN_DRAWS_PER_SESSION`]), so the traffic a
//! session sees is a pure function of `(process, seed, index)` —
//! independent of scheduler decisions, the admission policy, the fault
//! profile, and the shard count, and prefix-stable under longer
//! horizons. [`SessionReport::arrival_digest`] fingerprints it.

use std::collections::VecDeque;

use autoscale_sim::{ArrivalProcess, ArrivalSampler, ChurnConfig, ChurnWindow};
use serde::{Deserialize, Serialize};

use super::session::{fnv1a_fold, fnv1a_start, DeviceSession, SessionReport, SessionRun};
use super::ServeError;
use crate::parallel::cell_seed;

/// What happens to a request whose predicted sojourn exceeds the
/// scenario QoS at admission time. (A full queue drops regardless —
/// bounded memory is not a policy choice.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Admit everything the queue has room for; only a full queue
    /// drops. The baseline that shows raw overload behaviour.
    DropTail,
    /// Drop requests predicted to miss their deadline — spend no work
    /// on requests that will come back too late to matter.
    Deadline,
    /// Admit predicted-late requests but serve them greedily
    /// (exploration off): an already-late request is the wrong place
    /// to spend an exploration draw.
    Degrade,
}

impl AdmissionPolicy {
    /// The named policies `--admission` accepts, in display order.
    pub const NAMES: [&'static str; 3] = ["drop", "deadline", "degrade"];

    /// Resolves a named policy, case-insensitively.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "drop" => Some(AdmissionPolicy::DropTail),
            "deadline" => Some(AdmissionPolicy::Deadline),
            "degrade" => Some(AdmissionPolicy::Degrade),
            _ => None,
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AdmissionPolicy::DropTail => "drop",
            AdmissionPolicy::Deadline => "deadline",
            AdmissionPolicy::Degrade => "degrade",
        })
    }
}

/// Configuration of an open-loop serving run — [`None`] on
/// [`super::ServeConfig::openloop`] keeps the closed-loop path
/// byte-identical to builds without this module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopConfig {
    /// The per-session request-arrival process (every session draws its
    /// own schedule from its private stream).
    pub arrivals: ArrivalProcess,
    /// How sessions join and leave the run.
    pub churn: ChurnConfig,
    /// Length of the run in virtual milliseconds; no request is
    /// offered at or past this time.
    pub horizon_ms: f64,
    /// Bound on each session's request queue. Zero is clamped to one —
    /// a server with no queue at all could never serve.
    pub queue_capacity: usize,
    /// What to do with predicted-late requests.
    pub admission: AdmissionPolicy,
}

impl OpenLoopConfig {
    /// Plain Poisson traffic at `rate_hz` for `horizon_ms`, no churn,
    /// a 32-deep queue, drop-tail admission.
    pub fn poisson(rate_hz: f64, horizon_ms: f64) -> Self {
        OpenLoopConfig {
            arrivals: ArrivalProcess::poisson(rate_hz),
            churn: ChurnConfig::none(),
            horizon_ms,
            queue_capacity: 32,
            admission: AdmissionPolicy::DropTail,
        }
    }

    /// The queue bound with the zero-capacity degenerate case clamped.
    pub fn capacity(&self) -> usize {
        self.queue_capacity.max(1)
    }
}

/// Per-session open-loop traffic accounting, returned *beside* the
/// deterministic [`SessionReport`] (like latencies and store stats) and
/// aggregated into [`FleetTraffic`] on the fleet report.
///
/// Counter invariant, pinned by the chaos proptests:
/// `offered == served + dropped_full + dropped_deadline + dropped_churn`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTraffic {
    /// The session this accounting belongs to.
    pub session: usize,
    /// Requests the arrival process offered inside the session window.
    pub offered: usize,
    /// Requests served to completion (including the end-of-window
    /// drain).
    pub served: usize,
    /// Requests dropped because the queue was at capacity.
    pub dropped_full: usize,
    /// Requests the deadline policy refused as predicted-late.
    pub dropped_deadline: usize,
    /// Requests abandoned in the queue when the session churned out
    /// without draining.
    pub dropped_churn: usize,
    /// Served requests that ran in degraded (exploration-off) mode.
    pub degraded: usize,
    /// Served requests whose sojourn (wait + service) exceeded the
    /// scenario QoS.
    pub deadline_violations: usize,
    /// The deepest the queue ever got (≤ the configured capacity).
    pub peak_queue_depth: usize,
    /// `queue_histogram[d]` counts arrivals that found `d` requests
    /// already queued (length `capacity + 1`).
    pub queue_histogram: Vec<u64>,
    /// Total virtual milliseconds the device spent serving.
    pub busy_ms: f64,
    /// The session's presence window, `min(leave, horizon) - join`, in
    /// virtual milliseconds.
    pub window_ms: f64,
    /// The session's full serving span: the window extended by however
    /// far the end-of-window drain ran past it. Never less than
    /// `window_ms`, and the device can never be busy longer than this.
    pub span_ms: f64,
}

impl SessionTraffic {
    /// Every request that was offered but never served.
    pub fn dropped(&self) -> usize {
        self.dropped_full + self.dropped_deadline + self.dropped_churn
    }
}

/// Fleet-level open-loop traffic: the per-session accounting summed,
/// carried on [`super::ServeReport::traffic`] when open-loop was on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTraffic {
    /// Requests offered across the fleet.
    pub offered: usize,
    /// Requests served to completion across the fleet.
    pub served: usize,
    /// Requests dropped for any reason (full queue, predicted-late,
    /// churn abandonment).
    pub dropped: usize,
    /// Served requests that ran in degraded mode.
    pub degraded: usize,
    /// Served requests whose sojourn exceeded their scenario QoS.
    pub deadline_violations: usize,
    /// The deepest any session's queue ever got.
    pub peak_queue_depth: usize,
    /// Element-wise sum of the per-session queue-depth histograms.
    pub queue_histogram: Vec<u64>,
    /// Total virtual milliseconds the fleet spent serving.
    pub busy_ms: f64,
    /// Total session-window milliseconds across the fleet.
    pub window_ms: f64,
    /// Total serving-span milliseconds across the fleet (windows plus
    /// end-of-window drain overruns).
    pub span_ms: f64,
    /// The configured horizon, for rate normalization.
    pub horizon_ms: f64,
}

impl FleetTraffic {
    /// Sums per-session traffic into the fleet view.
    pub fn aggregate(sessions: &[SessionTraffic], horizon_ms: f64) -> Self {
        let mut fleet = FleetTraffic {
            offered: 0,
            served: 0,
            dropped: 0,
            degraded: 0,
            deadline_violations: 0,
            peak_queue_depth: 0,
            queue_histogram: Vec::new(),
            busy_ms: 0.0,
            window_ms: 0.0,
            span_ms: 0.0,
            horizon_ms,
        };
        for s in sessions {
            fleet.offered += s.offered;
            fleet.served += s.served;
            fleet.dropped += s.dropped();
            fleet.degraded += s.degraded;
            fleet.deadline_violations += s.deadline_violations;
            fleet.peak_queue_depth = fleet.peak_queue_depth.max(s.peak_queue_depth);
            if fleet.queue_histogram.len() < s.queue_histogram.len() {
                fleet.queue_histogram.resize(s.queue_histogram.len(), 0);
            }
            for (total, count) in fleet.queue_histogram.iter_mut().zip(&s.queue_histogram) {
                *total += count;
            }
            fleet.busy_ms += s.busy_ms;
            fleet.window_ms += s.window_ms;
            fleet.span_ms += s.span_ms;
        }
        fleet
    }

    /// Offered load in requests per *session-second*: what the users
    /// asked for, normalized by the time sessions were actually
    /// present.
    pub fn offered_load_hz(&self) -> f64 {
        if self.window_ms <= 0.0 {
            return 0.0;
        }
        self.offered as f64 * 1_000.0 / self.window_ms
    }

    /// Goodput in requests per session-second: what the fleet actually
    /// completed. Under overload this saturates at the service rate
    /// while [`Self::offered_load_hz`] keeps climbing.
    pub fn goodput_hz(&self) -> f64 {
        if self.window_ms <= 0.0 {
            return 0.0;
        }
        self.served as f64 * 1_000.0 / self.window_ms
    }

    /// Fraction of offered requests that were never served.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.dropped as f64 / self.offered as f64
    }

    /// Fraction of *served* requests whose sojourn missed the QoS.
    pub fn violation_rate(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        self.deadline_violations as f64 / self.served as f64
    }

    /// Fraction of serving-span time spent busy, in [0, 1]: how close
    /// the fleet's devices ran to saturation. Normalized by
    /// [`Self::span_ms`] — the presence windows plus whatever time the
    /// end-of-window drains needed — so slow devices draining deep
    /// queues cannot push this past 1.
    pub fn utilization(&self) -> f64 {
        if self.span_ms <= 0.0 {
            return 0.0;
        }
        self.busy_ms / self.span_ms
    }

    /// The `p`-th percentile of observed queue depths (`p` in
    /// [0, 100]), from the depth histogram; zero when nothing was
    /// offered.
    pub fn queue_depth_percentile(&self, p: f64) -> usize {
        let total: u64 = self.queue_histogram.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0 * (total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (depth, count) in self.queue_histogram.iter().enumerate() {
            seen += count;
            if seen > rank {
                return depth;
            }
        }
        self.queue_histogram.len().saturating_sub(1)
    }
}

/// One admitted request waiting for the device.
#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    /// Absolute arrival time in virtual ms.
    at_ms: f64,
    /// Whether the degrade policy flagged it at admission.
    degraded: bool,
}

/// The discrete-event session loop: [`DeviceSession::run`] with an
/// open-loop configuration. Requests are served through
/// [`serve_queued`], which runs the session's one request step.
///
/// Consumes the session and returns its run with the session's traffic
/// accounting set.
pub(super) fn drive(
    mut session: DeviceSession<'_>,
    record_latency: bool,
    open: &OpenLoopConfig,
) -> Result<SessionRun, ServeError> {
    let capacity = open.capacity();
    let window = ChurnWindow::draw(open.churn, cell_seed(session.seed, 4));
    let mut sampler = ArrivalSampler::new(open.arrivals, cell_seed(session.seed, 3));
    let join_ms = window.join_ms;
    let end_ms = window.end_ms(open.horizon_ms);

    // One bounded queue per session, allocated before the event loop;
    // admission caps its depth at `capacity`.
    let mut queue: VecDeque<QueuedRequest> = VecDeque::with_capacity(capacity);
    let mut traffic = SessionTraffic {
        session: session.spec.session,
        offered: 0,
        served: 0,
        dropped_full: 0,
        dropped_deadline: 0,
        dropped_churn: 0,
        degraded: 0,
        deadline_violations: 0,
        peak_queue_depth: 0,
        queue_histogram: vec![0; capacity + 1],
        busy_ms: 0.0,
        window_ms: (end_ms - join_ms).max(0.0),
        span_ms: 0.0,
    };
    let mut arrival_digest = fnv1a_start();
    // The device frees up no earlier than the session joins.
    let mut free_at_ms = join_ms;

    loop {
        let arrival = sampler.next_arrival();
        let at_ms = join_ms + arrival.at_ms;
        // `!(<)` rather than `>=` so an unordered comparison (NaN from
        // a degenerate process) breaks instead of looping forever; a
        // silent process arrives at ∞ and breaks immediately, producing
        // an empty-but-valid report.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(at_ms < end_ms) {
            break;
        }
        traffic.offered += 1;
        arrival_digest = fnv1a_fold(arrival_digest, arrival.index);
        arrival_digest = fnv1a_fold(arrival_digest, at_ms.to_bits());
        // Rule 1: completions whose service starts by the arrival
        // instant happen first.
        while free_at_ms <= at_ms {
            let Some(item) = queue.pop_front() else { break };
            serve_queued(
                &mut session,
                item,
                record_latency,
                &mut free_at_ms,
                &mut traffic,
            )?;
        }
        // Rule 2: observe the depth this arrival found.
        let depth = queue.len();
        traffic.queue_histogram[depth] += 1;
        // Rule 3: admission.
        if depth >= capacity {
            traffic.dropped_full += 1;
            continue;
        }
        let served = session.tally.served;
        let mean_service_ms = if served == 0 {
            0.0
        } else {
            traffic.busy_ms / served as f64
        };
        let predicted_sojourn_ms =
            (free_at_ms - at_ms).max(0.0) + (depth as f64 + 1.0) * mean_service_ms;
        let late = predicted_sojourn_ms > session.qos_ms;
        // An arrival that finds the device idle delays no one, so the
        // deadline policy always admits it: its service refreshes the
        // mean, which one slow request could otherwise pin above the QoS.
        let idle = depth == 0 && free_at_ms <= at_ms;
        let degraded = match open.admission {
            AdmissionPolicy::DropTail => false,
            AdmissionPolicy::Deadline => {
                if late && !idle {
                    traffic.dropped_deadline += 1;
                    continue;
                }
                false
            }
            AdmissionPolicy::Degrade => late,
        };
        // depth < capacity holds here (admission dropped otherwise), so
        // push_back never grows the preallocated ring.
        queue.push_back(QueuedRequest { at_ms, degraded });
        traffic.peak_queue_depth = traffic.peak_queue_depth.max(queue.len());
    }
    // Rule 4: window end.
    if window.churns_out(open.horizon_ms) && !open.churn.drain_on_leave {
        traffic.dropped_churn += queue.len();
        queue.clear();
    } else {
        while let Some(item) = queue.pop_front() {
            serve_queued(
                &mut session,
                item,
                record_latency,
                &mut free_at_ms,
                &mut traffic,
            )?;
        }
    }

    traffic.served = session.tally.served;
    traffic.span_ms = (free_at_ms.max(end_ms) - join_ms).max(0.0);
    debug_assert_eq!(
        traffic.offered,
        traffic.served + traffic.dropped(),
        "open-loop conservation: offered == served + dropped"
    );
    let closed = session.finish();
    Ok(SessionRun {
        report: SessionReport {
            offered_requests: traffic.offered,
            dropped_requests: traffic.dropped(),
            degraded_requests: traffic.degraded,
            deadline_violations: traffic.deadline_violations,
            peak_queue_depth: traffic.peak_queue_depth,
            arrival_digest,
            ..closed.report
        },
        traffic: Some(traffic),
        ..closed
    })
}

/// Serves one queued request through the session's request step, then
/// does the open loop's own bookkeeping: when the device frees up, busy
/// time, sojourn violations and the degraded count.
fn serve_queued(
    session: &mut DeviceSession<'_>,
    item: QueuedRequest,
    record_latency: bool,
    free_at_ms: &mut f64,
    traffic: &mut SessionTraffic,
) -> Result<(), ServeError> {
    let start_ms = free_at_ms.max(item.at_ms);
    let outcome = session.serve_request(item.degraded, record_latency)?;
    *free_at_ms = start_ms + outcome.latency_ms;
    traffic.busy_ms += outcome.latency_ms;
    // Sojourn = completion - arrival: the latency the *user* saw,
    // queueing included.
    if *free_at_ms - item.at_ms > session.qos_ms {
        traffic.deadline_violations += 1;
    }
    if item.degraded {
        traffic.degraded += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AutoScaleEngine, EngineConfig};
    use crate::serve::{DeviceSession, SessionSpec};
    use autoscale_nn::Workload;
    use autoscale_platform::DeviceId;
    use autoscale_sim::{EnvironmentId, FaultProfile, Simulator};

    fn spec() -> SessionSpec {
        SessionSpec {
            session: 0,
            workload: Workload::MobileNetV1,
            environment: EnvironmentId::S1,
            // Ignored open-loop: the arrival schedule decides the count.
            decisions: 0,
        }
    }

    fn run(open: &OpenLoopConfig, seed: u64, faults: FaultProfile) -> SessionRun {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let template = AutoScaleEngine::new(&sim, EngineConfig::paper());
        DeviceSession::spawn(&sim, spec(), &template, None, seed, faults)
            .expect("no warm start")
            .run(false, Some(open))
            .expect("open-loop session runs")
    }

    /// The traffic of one open-loop session run.
    fn traffic(open: &OpenLoopConfig, seed: u64, faults: FaultProfile) -> SessionTraffic {
        run(open, seed, faults)
            .traffic
            .expect("an open loop reports traffic")
    }

    #[test]
    fn open_loop_sessions_reproduce_bit_for_bit() {
        let open = OpenLoopConfig::poisson(40.0, 2_000.0);
        let a = run(&open, 7, FaultProfile::none());
        let b = run(&open, 7, FaultProfile::none());
        assert_eq!(a, b);
        assert_ne!(
            a.report.arrival_digest,
            run(&open, 8, FaultProfile::none()).report.arrival_digest
        );
    }

    #[test]
    fn conservation_holds_and_queues_stay_bounded() {
        // λ = 2000 req/s against a device that serves a handful per
        // second: deep overload. Memory must stay bounded and every
        // offered request must be accounted for.
        for admission in [
            AdmissionPolicy::DropTail,
            AdmissionPolicy::Deadline,
            AdmissionPolicy::Degrade,
        ] {
            let open = OpenLoopConfig {
                admission,
                queue_capacity: 8,
                ..OpenLoopConfig::poisson(2_000.0, 1_000.0)
            };
            let served = run(&open, 11, FaultProfile::none());
            let (report, traffic) = (&served.report, served.traffic.as_ref().expect("traffic"));
            assert!(traffic.offered > 500, "overload offers a lot");
            assert_eq!(
                traffic.offered,
                traffic.served + traffic.dropped(),
                "{admission}: conservation"
            );
            assert!(
                traffic.dropped() > 0,
                "{admission}: overload must shed load"
            );
            assert!(traffic.peak_queue_depth <= 8, "{admission}: bounded queue");
            assert_eq!(traffic.queue_histogram.len(), 9);
            assert_eq!(report.offered_requests, traffic.offered);
            assert_eq!(report.dropped_requests, traffic.dropped());
            assert_eq!(report.decisions, traffic.served);
        }
    }

    #[test]
    fn zero_rate_sessions_produce_empty_but_valid_reports() {
        let open = OpenLoopConfig::poisson(0.0, 5_000.0);
        let served = run(&open, 3, FaultProfile::none());
        let (report, traffic) = (&served.report, served.traffic.as_ref().expect("traffic"));
        assert_eq!(traffic.offered, 0);
        assert_eq!(traffic.served, 0);
        assert_eq!(traffic.dropped(), 0);
        assert_eq!(report.decisions, 0);
        assert_eq!(report.mean_reward, 0.0);
        assert_eq!(report.trace_digest, fnv1a_start());
        assert_eq!(report.arrival_digest, fnv1a_start());
        assert!(served.latencies_ns.is_empty());
        assert_eq!(report.converged_at, None);
    }

    #[test]
    fn degrade_admits_what_deadline_drops() {
        let base = OpenLoopConfig {
            queue_capacity: 16,
            ..OpenLoopConfig::poisson(500.0, 1_000.0)
        };
        let deadline = traffic(
            &OpenLoopConfig {
                admission: AdmissionPolicy::Deadline,
                ..base
            },
            5,
            FaultProfile::none(),
        );
        let degrade = traffic(
            &OpenLoopConfig {
                admission: AdmissionPolicy::Degrade,
                ..base
            },
            5,
            FaultProfile::none(),
        );
        assert!(deadline.dropped_deadline > 0, "overload predicts lateness");
        assert_eq!(degrade.dropped_deadline, 0, "degrade never deadline-drops");
        assert!(
            degrade.degraded > 0,
            "degrade serves the late ones greedily"
        );
        assert_eq!(deadline.degraded, 0);
        // Both see the identical offered schedule: arrivals are
        // policy-independent.
        assert_eq!(deadline.offered, degrade.offered);
    }

    #[test]
    fn arrival_schedule_is_independent_of_policy_and_faults() {
        let open = OpenLoopConfig {
            queue_capacity: 4,
            ..OpenLoopConfig::poisson(800.0, 1_500.0)
        };
        let reference = run(&open, 21, FaultProfile::none()).report.arrival_digest;
        for admission in [AdmissionPolicy::Deadline, AdmissionPolicy::Degrade] {
            let variant = run(
                &OpenLoopConfig { admission, ..open },
                21,
                FaultProfile::none(),
            );
            assert_eq!(variant.report.arrival_digest, reference, "{admission}");
        }
        let chaotic = run(&open, 21, FaultProfile::chaos());
        assert_eq!(chaotic.report.arrival_digest, reference, "faults");
    }

    #[test]
    fn churned_out_sessions_drop_or_drain_deterministically() {
        // A short leave under heavy load: queued requests remain at the
        // leave instant, and their fate is the drain flag's call.
        let churn = ChurnConfig {
            join_spread_ms: 0.0,
            mean_lifetime_ms: 400.0,
            drain_on_leave: false,
        };
        let abandon = OpenLoopConfig {
            churn,
            queue_capacity: 16,
            ..OpenLoopConfig::poisson(1_000.0, 10_000.0)
        };
        let a = traffic(&abandon, 13, FaultProfile::none());
        assert_eq!(
            a,
            traffic(&abandon, 13, FaultProfile::none()),
            "deterministic"
        );
        assert!(a.dropped_churn > 0, "abandoned mid-queue requests");
        let drain = OpenLoopConfig {
            churn: ChurnConfig {
                drain_on_leave: true,
                ..churn
            },
            ..abandon
        };
        let d = traffic(&drain, 13, FaultProfile::none());
        assert_eq!(d.dropped_churn, 0, "drained instead");
        assert_eq!(d.offered, a.offered, "same schedule either way");
        assert_eq!(
            d.served,
            a.served + a.dropped_churn,
            "drain serves the rest"
        );
    }

    #[test]
    fn latency_recording_does_not_perturb_open_loop_reports() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let open = OpenLoopConfig::poisson(60.0, 1_000.0);
        let template = AutoScaleEngine::new(&sim, EngineConfig::paper());
        let go = |record: bool| {
            DeviceSession::spawn(&sim, spec(), &template, None, 9, FaultProfile::none())
                .expect("no warm start")
                .run(record, Some(&open))
                .expect("runs")
        };
        let timed = go(true);
        let quiet = go(false);
        assert_eq!(timed.report, quiet.report);
        assert_eq!(timed.traffic, quiet.traffic);
        assert_eq!(timed.latencies_ns.len(), timed.report.decisions);
        assert!(quiet.latencies_ns.is_empty());
    }

    #[test]
    fn fleet_traffic_aggregates_and_normalizes() {
        let open = OpenLoopConfig {
            queue_capacity: 8,
            ..OpenLoopConfig::poisson(2_000.0, 1_000.0)
        };
        let a = traffic(&open, 1, FaultProfile::none());
        let b = traffic(&open, 2, FaultProfile::none());
        let fleet = FleetTraffic::aggregate(&[a.clone(), b.clone()], open.horizon_ms);
        assert_eq!(fleet.offered, a.offered + b.offered);
        assert_eq!(fleet.served, a.served + b.served);
        assert_eq!(fleet.dropped, a.dropped() + b.dropped());
        assert!(fleet.offered_load_hz() > fleet.goodput_hz(), "overload");
        assert!(fleet.drop_rate() > 0.0 && fleet.drop_rate() < 1.0);
        assert!((0.0..=1.0).contains(&fleet.violation_rate()));
        assert!(fleet.utilization() > 0.5, "overloaded device stays busy");
        assert!(fleet.utilization() <= 1.0, "span-normalized utilization");
        assert!(fleet.span_ms >= fleet.window_ms);
        let p50 = fleet.queue_depth_percentile(50.0);
        let p99 = fleet.queue_depth_percentile(99.0);
        assert!(p50 <= p99, "{p50} <= {p99}");
        assert!(p99 <= 8);
        assert_eq!(FleetTraffic::aggregate(&[], 1_000.0).offered, 0);
        assert_eq!(
            FleetTraffic::aggregate(&[], 1_000.0).queue_depth_percentile(99.0),
            0
        );
    }

    #[test]
    fn admission_policies_parse_and_render() {
        for name in AdmissionPolicy::NAMES {
            let policy = AdmissionPolicy::parse(name).expect(name);
            assert_eq!(policy.to_string(), name);
        }
        assert_eq!(
            AdmissionPolicy::parse("DEADLINE"),
            Some(AdmissionPolicy::Deadline)
        );
        assert_eq!(AdmissionPolicy::parse("fifo"), None);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let open = OpenLoopConfig {
            queue_capacity: 0,
            ..OpenLoopConfig::poisson(200.0, 500.0)
        };
        assert_eq!(open.capacity(), 1);
        let traffic = traffic(&open, 17, FaultProfile::none());
        assert!(traffic.peak_queue_depth <= 1);
        assert_eq!(traffic.queue_histogram.len(), 2);
        assert_eq!(traffic.offered, traffic.served + traffic.dropped());
    }
}
