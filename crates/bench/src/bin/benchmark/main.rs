//! The serving-fleet benchmark: four workloads, six end-to-end metrics,
//! and a traced run whose layers add back up to the untraced wall time.
//!
//! # Running it
//!
//! ```text
//! cargo run --release -p autoscale-bench --bin benchmark -- \
//!     --workload steady --seed 7 --seconds 20 --trace 0
//! cargo run --release -p autoscale-bench --bin benchmark -- --smoke
//! cargo test --release -p autoscale-bench --bin benchmark
//! ```
//!
//! The benchmark is the `benchmark` binary of `autoscale-bench`, which
//! Cargo finds by its place under `src/bin/`. It builds with the
//! workspace's lockfile and release profile, so a change to either is
//! measured too.
//!
//! | flag | meaning |
//! |---|---|
//! | `--workload NAME` | one workload; all four in turn when absent |
//! | `--seed N` | the fleet's `ServeConfig::base_seed`, decimal or `0x` hex; default `0xf1ee7` |
//! | `--seconds S` | time budget of one run; `serve()` repeats until it is spent; default 5 |
//! | `--trace [0\|1]` | `1` (or bare): the traced run and its per-layer metrics |
//! | `--smoke` | every workload at 1/100 size, one repetition |
//! | `--repeat N` | N in-process runs; prints each metric's median, quartiles and spread |
//!
//! Each workload prints one `workload metric value unit` line per metric
//! and ends with one JSON line, `{"correct", "attempted", "failed",
//! "metrics": {name: {"value", "unit"}}}`. `attempted` counts `serve()`
//! calls and output checks, `failed` the ones that failed; any failure
//! also exits 1. The traced run prints each layer's span histogram and
//! writes session 0's first 1,000 decisions as Chrome `trace_event` JSON
//! to `target/benchmark/<workload>.trace.json`.
//!
//! # Workloads
//!
//! Each workload is one fleet served by one untraced
//! `autoscale::serve::serve()` call on one shard (`shards: Some(1)`): the
//! reference machine (a 2-vCPU Intel Xeon VM at 2.1 GHz whose cores are
//! shared with other tenants) delivers about one core of throughput, so
//! shard scaling would measure the neighbours. The host side is a closed
//! loop. A workload sets only `sessions`, `decisions_per_session`,
//! `shards`, `base_seed`, `record_latency`, `faults` and `openloop`; the
//! engine, the kernel and the Q-store stay at `ServeConfig::fleet()`
//! defaults (paper engine, scalar kernel, dense cold-start Q-tables), so
//! a change to a serving default is measured rather than bypassed.
//!
//! | workload | fleet | one `serve()` | why |
//! |---|---|---|---|
//! | `steady` | 10 sessions × 50,000 decisions, one per model over the five static environments | 0.14 s | The per-decision step (sample → decide → execute → learn) that every serving change touches: session setup is about 5% of the wall time and 99.8% of decisions come after the convergence freeze. |
//! | `short_sessions` | 100 sessions × 200 decisions, the default 50-scenario mix | 0.07 s | The join-heavy regime: session construction is ~90% of the wall time and 55% of decisions come before the convergence freeze. It shows setup and learning-phase changes that `steady` hides. |
//! | `chaos` | 180 sessions × 2,500 decisions, `ScenarioMix::all_envs()` (ten models × nine environments) twice, `FaultProfile::chaos()` | 0.3 s | Every request runs the other execute path: `FaultInjector::next_faults`, then `execute_resilient`, which runs the simulator's unprepared path. 1.4% of requests fault, with 1.9 retries per 100 decisions. A change to the prepared fast path should move `steady` and leave `chaos` alone, and the reverse. |
//! | `overload` | 10 sessions, bursty arrivals at a 400 req/s base rate per session for 300 simulated seconds, queue 16, degrade admission | 0.10 s | The open loop: a session is offered ~11× what it serves (~53 req/s), 91% of requests are dropped at admission and 99.99% of the rest are served by the exploration-off degrade decide. Host time goes to arrival sampling and admission, which no closed-loop workload runs. |
//!
//! The fleets are small so that one `serve()` takes 0.07–0.3 s and a
//! 20 s run repeats it 40–250 times: on the shared machine whole seconds
//! of a run slow by 30–60%, and many short repetitions let the
//! statistics step over them. `steady` and `overload` keep one session
//! per model, so every model is in the fleet. `chaos` has many shorter
//! sessions instead: under faults, which action a session's Q-learner
//! freezes on is up to the seed, and with ten 25,000-decision sessions
//! energy per inference moved 8.7% between seeds, against at most 1.1%
//! with these 180. `overload` runs without churn: under heavy churn,
//! which of the ten models stayed longest was up to the seed, and that
//! moved decisions/s by 23% and energy per inference by 37% between
//! seeds.
//!
//! # End-to-end metrics
//!
//! Bounds are in `BENCHMARK.json`: the share by which a metric's median
//! over runs may worsen before a change counts as a regression. "Spread"
//! is the interquartile range over the median of ten 20 s runs on ten
//! seeds, on the reference machine; the range covers the four workloads
//! in two such passes (seeds 1–10 and 11–20), and "shift" is the largest
//! move of a workload's median from the first pass to the second.
//!
//! | name | unit | better | bound | how | spread | shift |
//! |---|---|---|---|---|---|---|
//! | `decisions_per_s` | decisions/s | higher | 0.2 | decisions served ÷ wall time of the fastest repetition's `serve()`, session setup included | 2.2–11.4% | 4.2% |
//! | `decide_ns_p50` | ns | lower | 0.2 | the program's own `DecisionTimer`: `latency_percentile_ns(50)` of a `record_latency` pass at 1/10 size, placed inside its 1 ns bin; fastest repetition | 2.1–11.5% | 6.3% |
//! | `session_setup_us` | µs | lower | 0.2 | `serve()` of the same fleet with an empty schedule (0 decisions, or a 0 ms horizon) over 10 sessions, per session; fastest repetition | 2.1–11.2% | 4.3% |
//! | `setup_s` | s | lower | 0.25 | `Simulator::new(Mi8Pro)` plus the mix and config: each repetition times eight set-ups and keeps the fastest; the median over repetitions | 2.7–7.6% | 6.4% |
//! | `qstore_bytes_per_session` | bytes | lower | 0.0001 | `ServeReport.store.bytes_per_session` | 0 | 0 |
//! | `energy_mj_per_inference` | mJ | lower | 0.05 | Σ `total_energy_mj` ÷ Σ decisions (simulated) | 0.1–1.1% | 0.2% |
//!
//! Timed metrics keep the fastest repetition, as `bench_serve`'s kernel
//! race does: within a run the neighbours slow some repetitions and not
//! others, and the fastest steps over them. What the fastest cannot step
//! over is a change of the whole machine's speed across minutes: in the
//! first pass, `steady` ran 4.2–4.3M decisions/s on its first two seeds
//! and 3.6–3.8M on the last five, which made its 11.4% spread. Seven of
//! the 24 spreads of the three timed metrics exceed 6.7%, a third of 0.2,
//! and none exceeds 11.5%. A bound of 0.1 would have failed all three on
//! `steady` in the first pass, so the timed bounds are 0.2: they hold the
//! widest spread seen with a factor of 1.7 to spare, and catch a
//! regression of a fifth. `setup_s` is a median, as a set-up metric is
//! defined, of the fastest of eight set-ups per repetition (one set-up
//! per repetition spread up to 37%); it has the largest bound.
//!
//! The simulated metrics are exact for a seed: two runs of one seed agree
//! to the last digit. A comparison measures each workload on ten
//! different seeds, though, and a bound must hold the spread between
//! seeds.
//! `qstore_bytes_per_session` does not depend on the seed; its bound,
//! 182 bytes of 1,818,624, is less than one Q-table row, so any change to
//! the store's size counts. `energy_mj_per_inference` moves with the
//! seed by at most 1.1% (`short_sessions` and `chaos`); 0.05 is three
//! times that with room to spare, so a policy or simulator change that
//! costs 5% more energy per inference counts as a regression.
//!
//! `qos_violation_ratio`, `goodput_hz` and `drop_rate` are per-layer
//! counts, not gated: the QoS ratio spread 3–93% between seeds, and the
//! two traffic metrics exist only on `overload`, while a gated metric is
//! read on every workload and is never zero. Failed checks are the
//! `failed` count of the result line, not a metric.
//!
//! # Per-layer metrics
//!
//! The traced run repeats, for the same time budget, an untraced
//! `serve()` followed by a traced replay of the whole fleet (see
//! `replica.rs`), and reports the median over repetitions. Times are ns
//! per decision unless named `_us` (µs per session); shares are of the
//! same repetition's untraced wall time.
//!
//! `serve::openloop::drive` is private, so the open loop has no replica.
//! On `overload` the layers are timed on the fleet's closed-loop twin:
//! the same ten sessions, seeds and scenarios with the open loop off,
//! each serving the mean number of decisions the open-loop sessions
//! served. The twin's own untraced `serve()` is the reference for its
//! coverage, and its digests are the replica's check. Arrival sampling is
//! timed standalone, and the rest of the open loop is what its wall time
//! holds beyond arrival sampling and the twin's wall time.
//!
//! | metric | layer (public calls timed) | should move | on |
//! |---|---|---|---|
//! | `serve.session_setup_us` | `AutoScaleEngine::new` + `Environment::for_id` + `seeded_rng` (+ `FaultInjector::new`) | `session_setup_us`; `decisions_per_s` | all; `short_sessions` and `chaos` (5% of `steady`) |
//! | `sim.prepare_us` | `Simulator::prepare` | `session_setup_us` | `short_sessions` |
//! | `sim.env_sample_ns` | `Environment::sample` | `decisions_per_s` | `steady`; `chaos`, where the dynamic environments make sampling cost 3× `steady`'s |
//! | `engine.decide_ns` | `decide_kernel(&ScalarKernel, …)` (state encode + kernel select) | `decide_ns_p50`; `decisions_per_s` by its ~9% share | all; `steady` |
//! | `engine.decide_ns_p99` | the latency pass | — (not gated: the tail of one pass is mostly host noise) | — |
//! | `sim.execute_ns` | `PreparedExecutor::execute_measured`, or `execute_resilient` under faults | `decisions_per_s` | `steady`, `short_sessions`, `overload`; on `chaos` it is the other path |
//! | `sim.fault_draw_share` | `FaultInjector::next_faults` | `decisions_per_s` | `chaos` only |
//! | `engine.learn_ns` | `AutoScaleEngine::learn`: energy estimate, reward, Q update, convergence observe | `decisions_per_s` | `steady`; `short_sessions`, where learning before convergence costs 35% more |
//! | `engine.converge_check_ns` | `is_converged` + `freeze` | — (~2 ns, at the trace's resolution) | — |
//! | `serve.unattributed_ns` | untraced ns/decision − Σ layers: digest fold, counters, loop | `decisions_per_s` by its share | all |
//! | `serve.openloop.arrival_share` | `ArrivalSampler::next_arrival`, timed standalone over each session's schedule | `decisions_per_s` | `overload` only |
//! | `serve.openloop.other_share` | open-loop wall − arrival sampling − the twin's wall: queueing, admission, and what an open-loop decision costs beyond a closed-loop one | `decisions_per_s` | `overload` only |
//! | `trace.clock_ns`, `trace.overhead_ratio`, `trace.coverage` | one boundary's cost; traced ÷ untraced wall; Σ layers ÷ untraced wall | — | — |
//!
//! The twin spreads the served decisions evenly over the ten models,
//! where the open loop serves the fast models more often, so
//! `serve.openloop.other_share` is an estimate.
//!
//! Counts, read from the reports: `serve.qos_violation_ratio`,
//! `engine.frozen_share` (decisions after the convergence freeze),
//! `sim.faulted_share`, `sim.retries_per_decision`, `sim.fallback_share`
//! (fallbacks ÷ faulted requests: offloads that were wasted),
//! `serve.openloop.degraded_share`, `serve.openloop.queue_depth_p99`,
//! `serve.openloop.goodput_hz` and `serve.openloop.drop_rate`. A count
//! for a mechanism a workload does not run (faults off, closed loop)
//! reads 0; no time metric does.
//!
//! # Tracing
//!
//! Spans are recorded from this binary's own files, around the calls
//! into each layer's public functions; spans inside the program belong
//! to its `serve::timing` module and are not used here. One
//! `Instant::now()` closes each span and opens the next (chained spans),
//! so every span holds exactly one boundary, whose cost — calibrated
//! before each replay as the median of nine batch means of 1,000 empty
//! boundaries — is subtracted once per span. Spans of a layer are
//! summed in memory (count, sum, log2 histogram). Each replayed
//! session's FNV-1a digest of its (state, action) pairs, its decision
//! count and its convergence point must equal the ones `serve()`
//! returned, or the run fails: otherwise the trace would be timing a
//! different program. `trace.coverage` measured 0.96 (`steady`), 0.99
//! (`short_sessions`), 1.00 (`chaos`) and 0.97 (`overload`'s twin).
//!
//! # Output checks
//!
//! Every run checks, counting each in `attempted` and `failed`: every
//! `serve()` call succeeds; every repetition's report equals the first;
//! the smoke-size fleet at the default seed serves the digest pinned in
//! `workloads.rs` (and at the default seed, so does the full fleet); the
//! closed-loop decision count is `sessions × decisions_per_session`;
//! `overload` conserves requests (`offered == served + dropped`) and
//! offers exactly the standalone schedule count; energy per inference is
//! positive; the latency pass has one sample per decision; the replica
//! reproduces session 0 of a closed-loop fleet (the traced run: every
//! session, and on `overload` every session of the twin); every metric is
//! finite.
//!
//! # First measurement
//!
//! Reference machine; end-to-end metrics are medians of the twenty 20 s
//! runs of both passes, per-layer metrics medians of five traced runs
//! (seeds 1–5).
//!
//! | | `steady` | `short_sessions` | `chaos` | `overload` |
//! |---|---|---|---|---|
//! | `decisions_per_s` | 3.69M | 291k | 1.53M | 1.79M |
//! | `decide_ns_p50` | 43.6 | 43.1 | 44.3 | 43.9 |
//! | `session_setup_us` | 629 | 618 | 630 | 643 |
//! | `setup_s` | 0.18 ms | 0.17 ms | 0.18 ms | 0.18 ms |
//! | `qstore_bytes_per_session` | 1,818,624 | 1,818,624 | 1,818,624 | 1,818,624 |
//! | `energy_mj_per_inference` | 40.78 | 150.9 | 65.06 | 33.01 |
//! | `serve.session_setup_us` | 791 | 687 | 805 | 702 |
//! | `sim.prepare_us` | 2.3 | 0.6 | 1.1 | 1.5 |
//! | `sim.env_sample_ns` | 10.2 | 9.8 | 32.7 | 9.6 |
//! | `engine.decide_ns` | 25.0 | 25.6 | 31.1 | 24.8 |
//! | `sim.execute_ns` | 139.0 | 150.2 | 268.7 | 136.1 |
//! | `engine.learn_ns` | 93.1 | 125.0 | 125.2 | 92.8 |
//! | `engine.converge_check_ns` | 2.3 | 2.0 | 2.6 | 2.6 |
//! | `serve.unattributed_ns` | 12.3 | 43.4 | −3.5 | 11.1 |
//! | `sim.fault_draw_share` | 0 | 0 | 4.7% | 0 |
//! | `serve.openloop.arrival_share` / `other_share` | 0 / 0 | 0 / 0 | 0 / 0 | 23.5% / 23.5% |
//! | `trace.clock_ns` | 57.0 | 57.1 | 62.2 | 56.0 |
//! | `trace.overhead_ratio` | 2.16 | 1.08 | 1.55 | 2.04 |
//! | `trace.coverage` | 0.96 | 0.99 | 1.00 | 0.97 |
//!
//! On `steady` the layers take 285 ns per decision (session setup 16,
//! sample 10, decide 25, execute 139, learn 93, convergence check 2),
//! 96% of the untraced `serve()` of the same repetitions. The
//! per-decision step is the ~282 ns after setup: execute 49%, learn 33%,
//! decide 8.9%, sample 3.6%. On `chaos` the untraced wall was slower than
//! usual in the traced runs, so the layers slightly overshoot it and the
//! unattributed remainder reads below zero.
//!
//! ROADMAP.md asks two questions of this profile:
//!
//! * (a) Where do the ~1.2 ms per session of `bench_serve`'s runs figure
//!   go? To session construction: a 200-decision session on
//!   `short_sessions` costs ~690 µs (200 ÷ 291k decisions/s), of which
//!   618 µs is `session_setup_us` (687 µs in the traced replica), 0.6 µs
//!   `Simulator::prepare` and ~75 µs the 200 decisions. Inside it, a
//!   probe of the public constructors (fastest of five rounds of 200
//!   calls, same machine) put `QLearningAgent::new`, which fills the
//!   dense 3072 × 66 table from the seed, at 552 µs of
//!   `AutoScaleEngine::new`'s 590 µs; a copy-on-write agent plus engine
//!   costs 25 µs.
//! * (b) What share of a step is kernel select? At most
//!   `engine.decide_ns` ÷ the per-decision step, since the decide span
//!   also holds the state encode: 25.0 of ~282 ns on `steady`, 8.9%,
//!   under the 10% line below which a tick-at-a-time kernel sweep does
//!   not pay.
//!
//! # Out of scope
//!
//! * Shard scaling: the reference machine delivers about one core, so a
//!   multi-shard workload would measure the neighbours.
//! * The figure sweeps (`fig2`–`fig14`, `ablation`): they reproduce the
//!   paper's results and run through `parallel::run_cells`, not the
//!   serving path.
//! * Warm-start and copy-on-write fleets: they are options, not
//!   defaults; a workload for them belongs with the change that makes one
//!   the default.
//! * CI wiring: `.github/` lies outside the benchmark's files.
//! * Spans inside the program, and with them a traced open loop: they
//!   belong to `serve::timing`, beside the session reports; this binary
//!   times calls from outside.

mod measure;
mod replica;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Options;
use workloads::{Workload, DEFAULT_SEED, SMOKE_DIVISOR};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat N]";

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Output checks made and failed in one workload's run. A failed
/// `serve()` call counts as a failed check.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// The median of `values` (the mean of the middle two for an even
/// count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Each metric's median over `runs`, which list the same metrics in the
/// same order.
pub fn medians(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, metric)| {
            let values: Vec<f64> = runs.iter().map(|run| run[i].value).collect();
            Metric {
                value: median(&values),
                ..metric.clone()
            }
        })
        .collect()
}

/// The first and third quartiles of `values` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive one).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        let only = x.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 5.0,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut args = args.into_iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
                parsed.workloads = vec![workload];
            }
            "--seed" => {
                let text = value("a seed")?;
                parsed.seed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                }
                .map_err(|e| format!("--seed {text}: {e}"))?;
            }
            "--seconds" => {
                let text = value("a duration")?;
                parsed.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds {text}: not a duration"))?;
            }
            "--repeat" => {
                let text = value("a count")?;
                parsed.repeat = text
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--repeat {text}: not a positive count"))?;
            }
            // `--trace 0|1`, or bare.
            "--trace" => {
                parsed.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => parsed.smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload `repeat` times and prints its metrics, then the
/// JSON result line. With more than one repetition each metric is the
/// median, printed first with its quartiles and their spread (the
/// interquartile range over the median). Returns whether every check
/// passed.
fn run_workload(workload: Workload, args: &Args, options: &Options) -> bool {
    let mut checks = Checks::default();
    let runs: Vec<Vec<Metric>> = (0..args.repeat)
        .map(|_| {
            if args.trace {
                measure::per_layer(workload, options, &mut checks)
            } else {
                measure::end_to_end(workload, options, &mut checks)
            }
        })
        .filter(|metrics| !metrics.is_empty())
        .collect();
    let metrics = medians(&runs);
    if args.repeat > 1 {
        for (i, metric) in metrics.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|run| run[i].value).collect();
            let (q1, q3) = quartiles(&values);
            println!(
                "{} {} median={} q1={q1} q3={q3} spread={:.4} {}",
                workload.name(),
                metric.name,
                metric.value,
                (q3 - q1) / metric.value,
                metric.unit
            );
        }
    }
    for metric in &metrics {
        checks.check(metric.value.is_finite(), || {
            format!("{} is {}", metric.name, metric.value)
        });
        println!(
            "{} {} {} {}",
            workload.name(),
            metric.name,
            metric.value,
            metric.unit
        );
    }
    println!("{}", result_line(&metrics, &checks));
    checks.failed == 0 && !metrics.is_empty()
}

/// The JSON object that ends a workload's output.
fn result_line(metrics: &[Metric], checks: &Checks) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && !metrics.is_empty(),
        checks.attempted.max(1),
        checks.failed,
        entries.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let options = Options {
        seed: args.seed,
        divisor: if args.smoke { SMOKE_DIVISOR } else { 1 },
        seconds: if args.smoke { 0.0 } else { args.seconds },
        trace_dir: Some(PathBuf::from("target/benchmark")),
    };
    let mut correct = true;
    for &workload in &args.workloads {
        correct &= run_workload(workload, &args, &options);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
