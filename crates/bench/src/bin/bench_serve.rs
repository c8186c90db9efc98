//! Throughput benchmark for the multi-session decision server.
//!
//! Runs the same serving fleet (Mi8Pro, static-environment scenario mix)
//! at 1 shard, 4 shards and all-cores, verifies the per-session reports
//! are bit-identical across shard counts, and records decisions/second
//! plus p50/p99 wall-clock decision latency for each run. Shard counts
//! that clamp to an already-measured effective count are skipped (on a
//! 1-core box only one pass runs; "8 threads" there would measure the
//! same serial execution twice and report a meaningless speedup).
//!
//! It then times one longer fleet with latency recording off — the
//! serving-throughput configuration, where most decisions happen after
//! convergence freezes the policy — and records its decisions/second.
//! The full run writes `BENCH_serve.json` at the repository root;
//! `--smoke` runs a small fleet and skips the file (the CI-sized check).
//!
//! `--gate PATH` is the CI perf-regression mode: it times only the
//! throughput fleet, compares it against the committed
//! `throughput.decisions_per_sec` in PATH, and exits non-zero on a >20%
//! regression. Regenerate the committed number with
//! `cargo run --release -p autoscale-bench --bin bench_serve`.
//!
//! `--faults PROFILE` runs the fleet under a named fault profile
//! (`lossy-edge`, `chaos`, ...): the shard-invariance assertion still
//! holds — fault schedules are seeded per session — and the summary adds
//! the fleet's fault/retry/fallback counts.
//!
//! `--openloop` benchmarks the discrete-event serving core instead: an
//! overloaded open-loop fleet (bursty arrivals far above the service
//! rate, bounded queues, degrade admission) run at 1/4/all-cores shards
//! with the per-session reports *and* traffic accounting asserted
//! bit-identical, reporting sustained goodput vs offered load,
//! drop/late rates and queue-depth percentiles, plus a per-phase
//! `--timings`-style breakdown (schedule / serve / aggregate). The full
//! run writes `BENCH_openloop.json`; `--smoke` prints only.

use std::time::Instant;

use autoscale::parallel::{cell_seed, default_threads, resolve_threads};
use autoscale::prelude::*;
use autoscale::serve::session_seed;
use autoscale_sim::{ArrivalSampler, FaultProfile};

struct Run {
    shards_requested: usize,
    shards_effective: usize,
    wall_s: f64,
    decisions_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// The best pass of the throughput fleet.
struct Throughput {
    wall_s: f64,
    decisions_per_sec: f64,
}

/// Times the throughput fleet (latency recording off, all cores) and
/// keeps the fastest of `passes` runs: the number of interest is what
/// the serving path can sustain, not what a scheduler hiccup did to one
/// run. Every pass must reproduce the first pass's fleet digest.
fn time_fleet(
    sim: &Simulator,
    mix: &ScenarioMix,
    sessions: usize,
    decisions: usize,
    faults: FaultProfile,
    passes: usize,
) -> Throughput {
    let config = ServeConfig {
        sessions,
        decisions_per_session: decisions,
        shards: None,
        record_latency: false,
        faults,
        ..ServeConfig::fleet()
    };
    let mut digest: Option<u64> = None;
    let mut best: Option<Throughput> = None;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        let report = autoscale::serve::serve(sim, mix, &config, None).expect("no warm start");
        let wall_s = start.elapsed().as_secs_f64();
        match digest {
            None => digest = Some(report.digest()),
            Some(reference) => assert_eq!(
                report.digest(),
                reference,
                "a repeated pass changed the decision traces"
            ),
        }
        let decisions_per_sec = report.total_decisions() as f64 / wall_s;
        if best
            .as_ref()
            .is_none_or(|b| decisions_per_sec > b.decisions_per_sec)
        {
            best = Some(Throughput {
                wall_s,
                decisions_per_sec,
            });
        }
    }
    best.expect("at least one pass")
}

/// Extracts a committed numeric field from a previously written
/// `BENCH_serve.json` without a JSON parser dependency.
fn committed_number(text: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let at = text.find(&marker)?;
    let rest = text[at + marker.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The committed `throughput.decisions_per_sec` (the `runs` entries
/// carry their own `decisions_per_sec`, so the lookup starts at the
/// `throughput` record).
fn committed_throughput(text: &str, path: &str) -> f64 {
    text.find("\"throughput\":")
        .and_then(|at| committed_number(&text[at..], "decisions_per_sec"))
        .unwrap_or_else(|| {
            eprintln!("--gate: {path} has no throughput.decisions_per_sec (regenerate it with `cargo run --release -p autoscale-bench --bin bench_serve`)");
            std::process::exit(2);
        })
}

/// The open-loop serving benchmark: overload a fleet, verify the
/// discrete-event core is shard-invariant, and record what it sustains.
///
/// Three phases, each timed for the `--timings`-style breakdown:
/// *schedule* generates every session's arrival schedule standalone
/// (the pure traffic-generation cost), *serve* runs the fleet at each
/// shard count, *aggregate* folds the traffic metrics.
fn openloop_bench(sim: &Simulator, mix: &ScenarioMix, smoke: bool, faults: FaultProfile) {
    let sessions = if smoke { 4 } else { 16 };
    let horizon_ms = if smoke { 500.0 } else { 4_000.0 };
    // λ far above any edge device's service rate — the overload regime
    // this core exists to measure. Degrade admission keeps serving (no
    // deadline drops), so goodput reflects the device, not the policy.
    let open = OpenLoopConfig {
        arrivals: ArrivalProcess::bursty(2_000.0),
        churn: ChurnConfig::none(),
        horizon_ms,
        queue_capacity: 16,
        admission: AdmissionPolicy::Degrade,
    };
    let cores = default_threads();
    println!(
        "open-loop benchmark: {sessions} sessions, bursty {:.0} req/s over {horizon_ms:.0} ms, \
         queue {}, {} admission ({cores} cores{}{})",
        open.arrivals.rate_hz,
        open.queue_capacity,
        open.admission,
        if smoke { ", smoke" } else { "" },
        if faults.is_none() { "" } else { ", faults on" },
    );

    // Phase 1: schedule — arrival generation alone, no serving.
    let schedule_start = Instant::now();
    let mut scheduled = 0u64;
    for i in 0..sessions {
        let mut sampler =
            ArrivalSampler::new(open.arrivals, cell_seed(session_seed(0xf1ee7, i), 3));
        loop {
            let arrival = sampler.next_arrival();
            // The driver's exact `!(<)` window check (NaN/∞-safe).
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(arrival.at_ms < horizon_ms) {
                break;
            }
            scheduled += 1;
        }
    }
    let schedule_s = schedule_start.elapsed().as_secs_f64();

    // Phase 2: serve — the fleet at 1, 4 and all-cores shards, with the
    // deterministic outputs asserted identical across shard counts.
    let serve_start = Instant::now();
    let mut shard_counts: Vec<usize> = Vec::new();
    let mut seen_effective: Vec<usize> = Vec::new();
    for requested in [1, 4, cores] {
        let effective = resolve_threads(Some(requested));
        if !seen_effective.contains(&effective) {
            shard_counts.push(requested);
            seen_effective.push(effective);
        }
    }
    let mut reference: Option<ServeReport> = None;
    let mut best_decisions_per_sec = 0.0f64;
    for &shards in &shard_counts {
        let config = ServeConfig {
            sessions,
            shards: Some(shards),
            faults,
            openloop: Some(open),
            ..ServeConfig::fleet()
        };
        let start = Instant::now();
        let report = autoscale::serve::serve(sim, mix, &config, None).expect("no warm start");
        let wall_s = start.elapsed().as_secs_f64();
        let decisions_per_sec = report.total_decisions() as f64 / wall_s;
        best_decisions_per_sec = best_decisions_per_sec.max(decisions_per_sec);
        println!(
            "  shards {:>2} (effective {:>2}): {:>8.0} decisions/s ({:.2} s)",
            shards,
            resolve_threads(Some(shards)),
            decisions_per_sec,
            wall_s
        );
        match &reference {
            None => reference = Some(report),
            Some(reference) => {
                assert_eq!(
                    report.sessions, reference.sessions,
                    "shard count {shards} changed the open-loop session reports"
                );
                assert_eq!(
                    report.traffic, reference.traffic,
                    "shard count {shards} changed the open-loop traffic accounting"
                );
            }
        }
    }
    let serve_s = serve_start.elapsed().as_secs_f64();
    println!("open-loop reports and traffic bit-identical across shard counts");

    // Phase 3: aggregate — fold the headline traffic metrics.
    let aggregate_start = Instant::now();
    let report = reference.expect("at least one shard count ran");
    let traffic = report.traffic.as_ref().expect("open-loop sets traffic");
    assert_eq!(
        traffic.offered as u64, scheduled,
        "the serve phase must see exactly the schedule phase's arrivals"
    );
    assert_eq!(
        traffic.offered,
        traffic.served + traffic.dropped,
        "offered == served + dropped"
    );
    assert!(
        traffic.dropped > 0,
        "an overloaded fleet must shed load (offered {}, served {})",
        traffic.offered,
        traffic.served
    );
    let offered_hz = traffic.offered_load_hz();
    let goodput_hz = traffic.goodput_hz();
    let p50_depth = traffic.queue_depth_percentile(50.0);
    let p99_depth = traffic.queue_depth_percentile(99.0);
    let aggregate_s = aggregate_start.elapsed().as_secs_f64();

    println!(
        "  offered {offered_hz:.0} req/s/session, sustained goodput {goodput_hz:.1} req/s/session \
         ({:.1}% dropped, {:.1}% late, utilization {:.0}%)",
        traffic.drop_rate() * 100.0,
        traffic.violation_rate() * 100.0,
        traffic.utilization() * 100.0
    );
    println!(
        "  queue depth p50 {p50_depth} / p99 {p99_depth} (peak {}, bound {})",
        traffic.peak_queue_depth, open.queue_capacity
    );
    println!(
        "timings: schedule {:.1} ms ({:.0} arrivals/s), serve {:.1} ms, aggregate {:.1} ms",
        schedule_s * 1e3,
        scheduled as f64 / schedule_s.max(1e-9),
        serve_s * 1e3,
        aggregate_s * 1e3
    );

    if smoke {
        println!("smoke run: not writing BENCH_openloop.json");
        return;
    }
    let json = format!(
        "{{\n  \"sessions\": {sessions},\n  \"horizon_ms\": {horizon_ms:.1},\n  \"rate_hz\": {:.1},\n  \"queue_capacity\": {},\n  \"cores\": {cores},\n  \"offered\": {},\n  \"served\": {},\n  \"dropped\": {},\n  \"offered_load_hz\": {offered_hz:.1},\n  \"goodput_hz\": {goodput_hz:.1},\n  \"drop_rate\": {:.4},\n  \"violation_rate\": {:.4},\n  \"utilization\": {:.4},\n  \"queue_depth_p50\": {p50_depth},\n  \"queue_depth_p99\": {p99_depth},\n  \"peak_queue_depth\": {},\n  \"best_decisions_per_sec\": {best_decisions_per_sec:.1},\n  \"timings_ms\": {{\"schedule\": {:.3}, \"serve\": {:.3}, \"aggregate\": {:.3}}}\n}}\n",
        open.arrivals.rate_hz,
        open.queue_capacity,
        traffic.offered,
        traffic.served,
        traffic.dropped,
        traffic.drop_rate(),
        traffic.violation_rate(),
        traffic.utilization(),
        traffic.peak_queue_depth,
        schedule_s * 1e3,
        serve_s * 1e3,
        aggregate_s * 1e3,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_openloop.json");
    std::fs::write(out, &json).expect("write BENCH_openloop.json");
    println!("wrote {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = args.iter().position(|a| a == "--gate").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--gate needs the path of the committed BENCH_serve.json");
            std::process::exit(2);
        })
    });
    let faults = match args.iter().position(|a| a == "--faults") {
        None => FaultProfile::none(),
        Some(i) => {
            let name = args.get(i + 1).unwrap_or_else(|| {
                eprintln!(
                    "--faults needs a profile name ({})",
                    FaultProfile::NAMES.join("|")
                );
                std::process::exit(2);
            });
            FaultProfile::parse(name).unwrap_or_else(|| {
                eprintln!(
                    "unknown fault profile `{name}` ({})",
                    FaultProfile::NAMES.join("|")
                );
                std::process::exit(2);
            })
        }
    };
    let (sessions, decisions) = if smoke { (4, 50) } else { (32, 400) };
    // The throughput fleet runs longer sessions: most decisions happen
    // after convergence freezes the policy, which is the regime a
    // deployed fleet spends its life in.
    let (fleet_sessions, fleet_decisions) = if smoke { (4, 200) } else { (16, 25_000) };
    let passes = if smoke { 1 } else { 2 };

    let sim = Simulator::new(DeviceId::Mi8Pro);
    let mix = ScenarioMix::static_envs();
    let cores = default_threads();

    if args.iter().any(|a| a == "--openloop") {
        openloop_bench(&sim, &mix, smoke, faults);
        return;
    }

    if let Some(path) = gate {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("--gate: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let committed = committed_throughput(&text, &path);
        if let Some(committed_cores) = committed_number(&text, "cores") {
            println!("cores: {cores} here vs {committed_cores:.0} when the baseline was committed");
        }
        let fleet = time_fleet(&sim, &mix, fleet_sessions, fleet_decisions, faults, passes);
        let floor = committed * 0.8;
        if fleet.decisions_per_sec < floor {
            eprintln!(
                "perf gate FAILED: the throughput fleet served {:.0} decisions/s, \
                 below 80% of the committed {:.0} (floor {:.0}).\n\
                 If this regression is intended, regenerate the baseline with\n\
                 `cargo run --release -p autoscale-bench --bin bench_serve` and commit {path}.",
                fleet.decisions_per_sec, committed, floor
            );
            std::process::exit(1);
        }
        println!(
            "perf gate passed: {:.0} decisions/s ({:.2} s) vs committed {:.0} (floor {:.0})",
            fleet.decisions_per_sec, fleet.wall_s, committed, floor
        );
        return;
    }

    println!(
        "serve benchmark: {sessions} sessions x {decisions} decisions on {} ({cores} cores{}{})",
        sim.host().id(),
        if smoke { ", smoke" } else { "" },
        if faults.is_none() {
            String::new()
        } else {
            ", faults on".to_string()
        }
    );

    // 1, 4 and all-cores shards, skipping requests that clamp to an
    // effective count already measured (on a 1-core box everything
    // collapses to one serial pass; re-running it would only measure
    // noise and suggest a fake speedup).
    let mut shard_counts: Vec<usize> = Vec::new();
    let mut seen_effective: Vec<usize> = Vec::new();
    for requested in [1, 4, cores] {
        let effective = resolve_threads(Some(requested));
        if !seen_effective.contains(&effective) {
            shard_counts.push(requested);
            seen_effective.push(effective);
        }
    }

    let mut runs: Vec<Run> = Vec::new();
    let mut digest: Option<u64> = None;
    for &shards in &shard_counts {
        let config = ServeConfig {
            sessions,
            decisions_per_session: decisions,
            shards: Some(shards),
            record_latency: true,
            faults,
            ..ServeConfig::fleet()
        };
        let start = Instant::now();
        let report = autoscale::serve::serve(&sim, &mix, &config, None).expect("no warm start");
        let wall_s = start.elapsed().as_secs_f64();
        match digest {
            None => digest = Some(report.digest()),
            Some(reference) => assert_eq!(
                report.digest(),
                reference,
                "shard count {shards} changed the decision traces"
            ),
        }
        let total = report.total_decisions();
        let run = Run {
            shards_requested: shards,
            shards_effective: resolve_threads(Some(shards)),
            wall_s,
            decisions_per_sec: total as f64 / wall_s,
            p50_ns: report
                .latency_percentile_ns(50.0)
                .expect("latencies recorded"),
            p99_ns: report
                .latency_percentile_ns(99.0)
                .expect("latencies recorded"),
        };
        println!(
            "  shards {:>2} (effective {:>2}): {:>8.0} decisions/s, decide p50 {:.1} us, p99 {:.1} us ({:.2} s)",
            run.shards_requested,
            run.shards_effective,
            run.decisions_per_sec,
            run.p50_ns as f64 / 1e3,
            run.p99_ns as f64 / 1e3,
            run.wall_s
        );
        if !faults.is_none() {
            println!(
                "    faults: {} faulted requests, {} retries, {} local fallbacks",
                report.total_faulted(),
                report.total_retries(),
                report.total_fallbacks()
            );
        }
        runs.push(run);
    }
    println!("per-session reports bit-identical across shard counts");

    // On a single-core box every requested shard count clamps to the
    // same serial pass, so there is exactly one run and "speedup" has no
    // measurement behind it — report null rather than a fake 1.00x.
    let single_core = runs.len() == 1;
    let speedup = if single_core {
        None
    } else {
        let base = runs[0].decisions_per_sec;
        let best_shards = runs
            .iter()
            .map(|r| r.decisions_per_sec)
            .fold(f64::MIN, f64::max);
        Some(best_shards / base)
    };
    match speedup {
        Some(x) => println!("speedup (best vs 1 shard): {x:.2}x"),
        None => println!("speedup (best vs 1 shard): n/a (single effective shard)"),
    }

    println!(
        "throughput fleet: {fleet_sessions} sessions x {fleet_decisions} decisions, latency off"
    );
    let fleet = time_fleet(&sim, &mix, fleet_sessions, fleet_decisions, faults, passes);
    println!(
        "  {:>9.0} decisions/s ({:.2} s, best of {passes})",
        fleet.decisions_per_sec, fleet.wall_s
    );

    if smoke {
        println!("smoke run: not writing BENCH_serve.json");
        return;
    }

    let mut entries = String::new();
    for (i, r) in runs.iter().enumerate() {
        entries.push_str(&format!(
            "    {{\"shards_requested\": {}, \"shards_effective\": {}, \"wall_s\": {:.3}, \"decisions_per_sec\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
            r.shards_requested,
            r.shards_effective,
            r.wall_s,
            r.decisions_per_sec,
            r.p50_ns,
            r.p99_ns,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    let speedup_json = match speedup {
        Some(x) => format!("{x:.3}"),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"sessions\": {sessions},\n  \"decisions_per_session\": {decisions},\n  \"cores\": {cores},\n  \"fleet_digest\": {},\n  \"speedup_best_vs_1\": {speedup_json},\n  \"single_core\": {single_core},\n  \"runs\": [\n{entries}  ],\n  \"throughput\": {{\"sessions\": {fleet_sessions}, \"decisions_per_session\": {fleet_decisions}, \"cores\": {cores}, \"decisions_per_sec\": {:.1}}}\n}}\n",
        digest.expect("at least one run"),
        fleet.decisions_per_sec
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(out, &json).expect("write BENCH_serve.json");
    println!("wrote {out}");
}
