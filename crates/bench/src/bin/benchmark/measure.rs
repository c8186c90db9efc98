//! The two kinds of run: untraced for the end-to-end metrics, traced for
//! the per-layer ones. Both set the fleet up the same way and check the
//! same outputs.

use std::hint::black_box;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use autoscale::parallel::cell_seed;
use autoscale::prelude::{
    DeviceId, OpenLoopConfig, ScenarioMix, ServeConfig, ServeReport, Simulator,
};
use autoscale::serve::{serve, session_seed};
use autoscale_sim::{ArrivalSampler, ChurnWindow};

use crate::replica::{replay, Replayed};
use crate::trace::{Layer, Tracer};
use crate::workloads::{empty_schedule, Workload, DEFAULT_SEED, SMOKE_DIVISOR};
use crate::{median, medians, Checks, Metric};

/// The latency pass runs the workload at this fraction of its size.
const LATENCY_DIVISOR: usize = 10;

/// Set-ups timed in each repetition; the fastest is the repetition's
/// `setup_s` sample.
const SETUPS_PER_SAMPLE: usize = 8;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// The fleet's base seed.
    pub seed: u64,
    /// The workload runs at `1/divisor` of its measured size.
    pub divisor: usize,
    /// Wall time the repeated `serve()` calls may take; at least one
    /// runs.
    pub seconds: f64,
    /// Where the traced run writes its Chrome trace, if anywhere.
    pub trace_dir: Option<PathBuf>,
}

/// The testbed, the scenario mix and the fleet configuration.
struct Fleet {
    sim: Simulator,
    mix: ScenarioMix,
    config: ServeConfig,
}

impl Fleet {
    /// Builds the fleet: the benchmark's set-up, timed in seconds.
    fn build(workload: Workload, options: &Options) -> (Fleet, f64) {
        let start = Instant::now();
        let fleet = black_box(Fleet {
            sim: Simulator::new(DeviceId::Mi8Pro),
            mix: workload.mix(),
            config: workload.config(options.seed, options.divisor),
        });
        (fleet, start.elapsed().as_secs_f64())
    }

    /// `serve()` on `config`, timed in seconds; a failure counts against
    /// the run.
    fn serve(&self, config: &ServeConfig, checks: &mut Checks) -> Option<(ServeReport, f64)> {
        let start = Instant::now();
        let result = serve(&self.sim, &self.mix, config, None);
        let wall_s = start.elapsed().as_secs_f64();
        checks.check(result.is_ok(), || format!("serve() failed: {result:?}"));
        result.ok().map(|report| (report, wall_s))
    }

    /// Repeats the workload's `serve()` until the run's time budget is
    /// spent (at least once), and calls `each` with every report and its
    /// wall time in seconds for that repetition's sample. The first
    /// report is checked in full; every later one must equal it. Returns
    /// the first report and the samples.
    fn repeat<T>(
        &self,
        workload: Workload,
        options: &Options,
        checks: &mut Checks,
        mut each: impl FnMut(&ServeReport, f64, &mut Checks) -> Option<T>,
    ) -> Option<(ServeReport, Vec<T>)> {
        let mut first: Option<ServeReport> = None;
        let mut samples = Vec::new();
        let start = Instant::now();
        loop {
            let (report, wall_s) = self.serve(&self.config, checks)?;
            match &first {
                None => self.check_outputs(workload, options, &report, checks),
                Some(first) => checks.check(report == *first, || {
                    format!("repetition {} differs from the first", samples.len() + 1)
                }),
            }
            samples.extend(each(&report, wall_s, checks));
            first.get_or_insert(report);
            if start.elapsed().as_secs_f64() >= options.seconds {
                break;
            }
        }
        first.map(|report| (report, samples))
    }

    /// The output checks of one full-size report.
    fn check_outputs(
        &self,
        workload: Workload,
        options: &Options,
        report: &ServeReport,
        checks: &mut Checks,
    ) {
        let config = &self.config;
        match &config.openloop {
            None => {
                let expected = config.sessions * config.decisions_per_session;
                checks.check(report.total_decisions() == expected, || {
                    format!(
                        "{} decisions served, {expected} scheduled",
                        report.total_decisions()
                    )
                });
            }
            Some(open) => {
                let scheduled = schedule_count(config, open);
                checks.check(
                    report.traffic.as_ref().is_some_and(|t| {
                        t.offered == t.served + t.dropped
                            && t.offered == scheduled
                            && t.served == report.total_decisions()
                    }),
                    || format!("traffic {:?} breaks conservation or offers other than the {scheduled} scheduled requests", report.traffic),
                );
            }
        }
        if config.base_seed == DEFAULT_SEED {
            check_pinned(workload, options.divisor, report, checks);
        }
        // Whatever the run's seed, the smoke-size fleet at the default
        // seed must still serve its pinned digest.
        let smoke = workload.config(DEFAULT_SEED, SMOKE_DIVISOR);
        if let Some((smoke_report, _)) = self.serve(&smoke, checks) {
            check_pinned(workload, SMOKE_DIVISOR, &smoke_report, checks);
        }
        let energy = energy_per_inference_mj(report);
        checks.check(energy.is_finite() && energy > 0.0, || {
            format!("energy per inference {energy} mJ")
        });
        // The replica of the first session must reproduce it; the traced
        // run checks every session.
        if config.openloop.is_none() {
            check_replica(self, config, report, 0..1, &mut Tracer::new(None), checks);
        }
    }
}

/// Checks a default-seed report against the digest pinned for its size.
fn check_pinned(workload: Workload, divisor: usize, report: &ServeReport, checks: &mut Checks) {
    if let Some(pinned) = workload.pinned_digest(divisor) {
        checks.check(report.digest() == pinned, || {
            format!(
                "fleet digest {:#x} at 1/{divisor} size, pinned {pinned:#x}",
                report.digest()
            )
        });
    }
}

/// The number of requests the fleet's arrival schedules offer, drawn
/// standalone from each session's arrival (3) and churn (4) streams.
fn schedule_count(config: &ServeConfig, open: &OpenLoopConfig) -> usize {
    (0..config.sessions)
        .map(|i| {
            let seed = session_seed(config.base_seed, i);
            let window = ChurnWindow::draw(open.churn, cell_seed(seed, 4));
            let end_ms = window.end_ms(open.horizon_ms);
            let mut sampler = ArrivalSampler::new(open.arrivals, cell_seed(seed, 3));
            let mut offered = 0;
            while window.join_ms + sampler.next_arrival().at_ms < end_ms {
                offered += 1;
            }
            offered
        })
        .sum()
}

/// The closed-loop twin of an open-loop fleet: the same sessions, seeds
/// and scenarios with the open loop off, each serving the mean number of
/// decisions the open-loop sessions served (`report`). The open loop has
/// no replica, so its fleet's layers are timed on the twin.
fn closed_twin(config: &ServeConfig, report: &ServeReport) -> ServeConfig {
    ServeConfig {
        openloop: None,
        decisions_per_session: report.total_decisions() / config.sessions,
        ..*config
    }
}

/// Replays sessions `range` of the closed-loop fleet `config` and checks
/// each against `serve()`'s `report` of it.
fn check_replica(
    fleet: &Fleet,
    config: &ServeConfig,
    report: &ServeReport,
    range: Range<usize>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let replayed = replay(&fleet.sim, &fleet.mix, config, range, tracer);
    let mismatch = replayed.as_ref().map(|sessions| {
        sessions
            .iter()
            .find(|r| **r != Replayed::of_report(&report.sessions[r.session]))
    });
    checks.check(matches!(mismatch, Ok(None)), || match mismatch {
        Ok(Some(r)) => format!(
            "the replica is timing another program: replayed {r:?}, serve() reported {:?}",
            Replayed::of_report(&report.sessions[r.session])
        ),
        Ok(None) => unreachable!("a passing check has no message"),
        Err(e) => format!("replica failed: {e}"),
    });
}

fn energy_per_inference_mj(report: &ServeReport) -> f64 {
    let total: f64 = report.sessions.iter().map(|s| s.total_energy_mj).sum();
    total / report.total_decisions() as f64
}

/// The `p`-th percentile of the fleet's decision latencies, in ns. The
/// program's own [`ServeReport::latency_percentile_ns`] picks the whole
/// nanosecond; the value is then placed inside that 1 ns bin by the
/// share of samples below it (the grouped-data percentile), so that
/// repeated runs vary continuously rather than by whole nanoseconds.
fn latency_percentile_ns(report: &ServeReport, p: f64) -> Option<f64> {
    let bin = report.latency_percentile_ns(p)?;
    let below = report.latencies_ns.iter().filter(|&&ns| ns < bin).count() as f64;
    let within = report.latencies_ns.iter().filter(|&&ns| ns == bin).count() as f64;
    let rank = p / 100.0 * report.latencies_ns.len() as f64;
    Some(bin as f64 - 0.5 + ((rank - below) / within).clamp(0.0, 1.0))
}

/// The workload's latency pass: `record_latency` on, at
/// `1/LATENCY_DIVISOR` of the run's size.
fn latency_pass(
    fleet: &Fleet,
    workload: Workload,
    options: &Options,
    checks: &mut Checks,
) -> Option<ServeReport> {
    let config = ServeConfig {
        record_latency: true,
        ..workload.config(options.seed, options.divisor * LATENCY_DIVISOR)
    };
    let (report, _) = fleet.serve(&config, checks)?;
    checks.check(
        report.latencies_ns.len() == report.total_decisions(),
        || {
            format!(
                "{} latency samples for {} decisions",
                report.latencies_ns.len(),
                report.total_decisions()
            )
        },
    );
    Some(report)
}

/// One repetition of the untraced run.
struct Sample {
    /// Wall time of the workload's `serve()`.
    wall_s: f64,
    /// Median decision latency of the latency pass.
    decide_p50_ns: f64,
    /// Wall time per session of the empty-schedule fleet.
    session_setup_us: f64,
    /// Wall time of the fastest of [`SETUPS_PER_SAMPLE`] set-ups.
    setup_s: f64,
}

/// The untraced run: every end-to-end metric. Each repetition also
/// makes one latency pass, one empty-schedule fleet and several set-ups,
/// so every timed metric samples the whole run.
///
/// The timed metrics keep the fastest repetition and `setup_s` the
/// median of the repetitions' samples (why: the module documentation of
/// `main.rs`).
pub fn end_to_end(workload: Workload, options: &Options, checks: &mut Checks) -> Vec<Metric> {
    let (fleet, _) = Fleet::build(workload, options);
    let empty = empty_schedule(&fleet.config);
    let Some((report, samples)) = fleet.repeat(workload, options, checks, |_, wall_s, checks| {
        let timed = latency_pass(&fleet, workload, options, checks)?;
        let (_, empty_s) = fleet.serve(&empty, checks)?;
        let setup_s = (0..SETUPS_PER_SAMPLE)
            .map(|_| Fleet::build(workload, options).1)
            .fold(f64::INFINITY, f64::min);
        Some(Sample {
            wall_s,
            decide_p50_ns: latency_percentile_ns(&timed, 50.0)?,
            session_setup_us: empty_s * 1e6 / empty.sessions as f64,
            setup_s,
        })
    }) else {
        return Vec::new();
    };
    let fastest = |time: fn(&Sample) -> f64| samples.iter().map(time).fold(f64::INFINITY, f64::min);
    let setups: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
    vec![
        Metric::new(
            "decisions_per_s",
            report.total_decisions() as f64 / fastest(|s| s.wall_s),
            "decisions/s",
        ),
        Metric::new("decide_ns_p50", fastest(|s| s.decide_p50_ns), "ns"),
        Metric::new("session_setup_us", fastest(|s| s.session_setup_us), "us"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new(
            "qstore_bytes_per_session",
            report.store.bytes_per_session(report.sessions.len()),
            "bytes",
        ),
        Metric::new(
            "energy_mj_per_inference",
            energy_per_inference_mj(&report),
            "mJ",
        ),
    ]
}

/// The traced run. Each repetition pairs an untraced `serve()` with a
/// traced replay of the whole fleet right after it, so the two see the
/// same machine; the layer metrics are medians over the repetitions.
/// An open-loop fleet is replayed through its closed-loop twin, served
/// untraced in the same repetition for the comparison. The first replay
/// keeps session 0's spans for the Chrome trace.
pub fn per_layer(workload: Workload, options: &Options, checks: &mut Checks) -> Vec<Metric> {
    let (fleet, _) = Fleet::build(workload, options);
    let mut sampled = Some(0);
    let Some((report, samples)) =
        fleet.repeat(workload, options, checks, |report, wall_s, checks| {
            let timed = latency_pass(&fleet, workload, options, checks)?;
            let twin_report;
            let (closed, closed_report, closed_s) = match fleet.config.openloop {
                None => (fleet.config, report, wall_s),
                Some(_) => {
                    let twin = closed_twin(&fleet.config, report);
                    let (served, twin_s) = fleet.serve(&twin, checks)?;
                    twin_report = served;
                    (twin, &twin_report, twin_s)
                }
            };
            let first = sampled.is_some();
            let mut tracer = Tracer::new(sampled.take());
            let start = Instant::now();
            check_replica(
                &fleet,
                &closed,
                closed_report,
                0..closed.sessions,
                &mut tracer,
                checks,
            );
            let traced_s = start.elapsed().as_secs_f64();
            // Arrival sampling, timed standalone over the fleet's
            // schedules; what the open loop spends beyond it and its
            // twin's closed loop is queueing and admission.
            let (arrival_share, other_share) = fleet.config.openloop.map_or((0.0, 0.0), |open| {
                let start = Instant::now();
                black_box(schedule_count(&fleet.config, &open));
                let arrivals_s = start.elapsed().as_secs_f64();
                (
                    arrivals_s / wall_s,
                    (wall_s - arrivals_s - closed_s) / wall_s,
                )
            });
            if first {
                print_histograms(workload, &tracer);
                if let Some(dir) = &options.trace_dir {
                    let path = dir.join(format!("{}.trace.json", workload.name()));
                    let written = tracer.write_chrome_trace(&path);
                    checks.check(written.is_ok(), || {
                        format!("writing {}: {written:?}", path.display())
                    });
                }
            }
            let spans = Spans {
                tracer: &tracer,
                decisions: closed_report.total_decisions() as f64,
                untraced_ns: closed_s * 1e9,
            };
            Some(vec![
                spans.per_session_us("serve.session_setup_us", Layer::SessionSetup),
                spans.per_session_us("sim.prepare_us", Layer::Prepare),
                spans.per_decision_ns("sim.env_sample_ns", Layer::EnvSample),
                spans.per_decision_ns("engine.decide_ns", Layer::Decide),
                Metric::new(
                    "engine.decide_ns_p99",
                    latency_percentile_ns(&timed, 99.0)?,
                    "ns",
                ),
                spans.per_decision_ns("sim.execute_ns", Layer::Execute),
                spans.per_decision_ns("engine.learn_ns", Layer::Learn),
                spans.per_decision_ns("engine.converge_check_ns", Layer::ConvergeCheck),
                Metric::new(
                    "serve.unattributed_ns",
                    (spans.untraced_ns - spans.layers_ns()) / spans.decisions,
                    "ns",
                ),
                spans.share("sim.fault_draw_share", spans.sum_ns(Layer::FaultDraw)),
                Metric::new("serve.openloop.arrival_share", arrival_share, "ratio"),
                Metric::new("serve.openloop.other_share", other_share, "ratio"),
                Metric::new("trace.clock_ns", tracer.clock_ns(), "ns"),
                Metric::new("trace.overhead_ratio", traced_s / closed_s, "ratio"),
                spans.share("trace.coverage", spans.layers_ns()),
            ])
        })
    else {
        return Vec::new();
    };
    let mut metrics = medians(&samples);
    let decisions = report.total_decisions() as f64;
    let ratio = |part: usize, whole: usize| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let frozen: usize = report
        .sessions
        .iter()
        .map(|s| s.converged_at.map_or(0, |at| s.decisions - at - 1))
        .sum();
    let traffic = report.traffic.as_ref();
    metrics.extend([
        Metric::new(
            "serve.qos_violation_ratio",
            report.qos_violation_ratio(),
            "ratio",
        ),
        Metric::new("engine.frozen_share", frozen as f64 / decisions, "ratio"),
        Metric::new(
            "sim.faulted_share",
            report.total_faulted() as f64 / decisions,
            "ratio",
        ),
        Metric::new(
            "sim.retries_per_decision",
            report.total_retries() as f64 / decisions,
            "retries/decision",
        ),
        Metric::new(
            "sim.fallback_share",
            ratio(report.total_fallbacks(), report.total_faulted()),
            "ratio",
        ),
        Metric::new(
            "serve.openloop.degraded_share",
            traffic.map_or(0.0, |t| ratio(t.degraded, t.served)),
            "ratio",
        ),
        Metric::new(
            "serve.openloop.queue_depth_p99",
            traffic.map_or(0.0, |t| t.queue_depth_percentile(99.0) as f64),
            "requests",
        ),
        Metric::new(
            "serve.openloop.goodput_hz",
            traffic.map_or(0.0, |t| t.goodput_hz()),
            "req/s/session",
        ),
        Metric::new(
            "serve.openloop.drop_rate",
            traffic.map_or(0.0, |t| t.drop_rate()),
            "ratio",
        ),
    ]);
    metrics
}

/// One traced replay's layer sums, against the untraced `serve()` wall
/// time of the same repetition.
struct Spans<'a> {
    tracer: &'a Tracer,
    decisions: f64,
    untraced_ns: f64,
}

impl Spans<'_> {
    fn sum_ns(&self, layer: Layer) -> f64 {
        self.tracer.tally(layer).sum_ns
    }

    /// Every layer of the program, which leaves out the replica's own
    /// bookkeeping.
    fn layers_ns(&self) -> f64 {
        Layer::ALL
            .into_iter()
            .filter(|&layer| layer != Layer::Bookkeeping)
            .map(|layer| self.sum_ns(layer))
            .sum()
    }

    fn per_decision_ns(&self, name: &'static str, layer: Layer) -> Metric {
        Metric::new(name, self.sum_ns(layer) / self.decisions, "ns")
    }

    fn per_session_us(&self, name: &'static str, layer: Layer) -> Metric {
        let sessions = self.tracer.tally(layer).count as f64;
        Metric::new(name, self.sum_ns(layer) / sessions / 1e3, "us")
    }

    /// `ns` as a share of the untraced wall time.
    fn share(&self, name: &'static str, ns: f64) -> Metric {
        Metric::new(name, ns / self.untraced_ns, "ratio")
    }
}

/// Prints each layer's span count, mean and log2-histogram percentiles.
fn print_histograms(workload: Workload, tracer: &Tracer) {
    for layer in Layer::ALL {
        let tally = tracer.tally(layer);
        if tally.count > 0 {
            println!(
                "{} span {} count={} mean_ns={:.1} p50_ns<={} p99_ns<={}",
                workload.name(),
                layer.name(),
                tally.count,
                tally.sum_ns / tally.count as f64,
                tally.percentile_bound_ns(50.0),
                tally.percentile_bound_ns(99.0),
            );
        }
    }
}
