//! Fleet-scale memory benchmark: dense private Q-tables vs shared-base
//! copy-on-write overlays.
//!
//! A deployed AutoScale host serves many sessions whose Q-tables are
//! mostly identical — every session starts from the same trained policy
//! and each one only rewrites the handful of states its own trace
//! visits. This benchmark quantifies what the copy-on-write backend
//! ([`autoscale_rl::CowQTable`]) buys at fleet scale: it trains one
//! donor policy, then serves the same warm-started fleet twice per size
//! — once `dense`, every session on a private clone of the donor table,
//! and once `cow`, one shared base plus per-session sparse overlays —
//! asserting the two fleets are bit-identical before comparing them.
//! `serve()` runs every warm fleet on `cow`, so the dense arm is built
//! here from the same session specs, seeds and shards.
//!
//! For each fleet size (1k, 10k, 100k sessions; 1M behind `--huge`) it
//! records sustained decisions/second, bytes/session from the store
//! accounting ([`autoscale::serve::FleetStoreStats`]), overlay occupancy
//! (written rows per session over the 3072-state table), and the
//! headline ratios: `reduction_x` (dense bytes/session over cow) and
//! `cow_throughput_ratio` (cow decisions/s over dense). The full run
//! asserts the PR's targets — ≥20x memory reduction, ≤15% throughput
//! loss — and writes `BENCH_fleet.json` at the repository root.
//!
//! `--smoke` runs the 1k fleet only, asserts digest equality and a cow
//! bytes/session ceiling, and skips the file (the CI-sized check).
//!
//! `--gate PATH` is the CI perf-regression mode: it reruns the gate
//! fleet and exits non-zero if cow throughput fell below 80% of the
//! committed number or the memory reduction dropped under 20x.
//!
//! With `--features alloc-count` the global allocator is wrapped in a
//! byte counter and each run also reports peak live heap — an
//! allocator-level cross-check of the store accounting (it tracks the
//! *live* fleet, so with sequential shards it bounds one resident
//! session, not the sum).
//!
//! `--openloop` switches the fleet to the open-loop discrete-event core
//! under sustained overload (Poisson arrivals far above the service
//! rate, bounded queues): both backends serve the identical arrival
//! schedules, the reports and traffic accounting are asserted
//! bit-identical, and the summary records the sustained goodput and
//! drop rate the fleet held beside the usual memory numbers.

use std::time::Instant;

use autoscale::experiment;
use autoscale::parallel::{default_threads, resolve_threads, run_cells};
use autoscale::prelude::*;
use autoscale::serve::{serve, session_specs, FleetStoreStats};
use autoscale_rl::{QLearningAgent, QStoreKind};

/// A feature-gated counting wrapper over the system allocator. Lives in
/// the binary (the library crates forbid `unsafe`); counting every
/// allocation costs a few percent, which is why it is opt-in.
#[cfg(feature = "alloc-count")]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static CURRENT: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    struct CountingAllocator;

    fn grow(bytes: usize) {
        let now = CURRENT.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                grow(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                grow(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
                grow(new_size);
            }
            p
        }
    }

    #[global_allocator]
    static COUNTER: CountingAllocator = CountingAllocator;

    /// Restarts peak tracking from the currently live bytes.
    pub fn reset_peak() {
        PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn peak_bytes() -> u64 {
        PEAK.load(Ordering::Relaxed)
    }
}

/// Decisions per session: fleet serving is many short sessions, and the
/// memory story is independent of session length.
const DECISIONS: usize = 25;
/// The gate fleet: large enough that the shared base is amortized and
/// the sustained rate is stable, small enough for CI.
const GATE_SESSIONS: usize = 10_000;

struct BackendRun {
    qstore: QStoreKind,
    wall_s: f64,
    decisions_per_sec: f64,
    bytes_per_session: f64,
    overlay_rows_per_session: f64,
    digest: u64,
    peak_alloc_bytes: Option<u64>,
    /// Open-loop traffic accounting; `None` for closed-loop runs.
    traffic: Option<FleetTraffic>,
}

/// The open-loop fleet configuration `--openloop` serves: deliberate
/// overload, so the recorded goodput is what the devices sustain, not
/// what the arrival rate happens to be.
fn openloop_overload() -> OpenLoopConfig {
    OpenLoopConfig {
        queue_capacity: 8,
        admission: AdmissionPolicy::Degrade,
        ..OpenLoopConfig::poisson(1_000.0, 250.0)
    }
}

/// The warm fleet `serve()` would run, with every session on a private
/// dense clone of `warm` instead of an overlay over a shared base: the
/// baseline the copy-on-write backend is measured against. Like
/// `serve()`, it spawns every session from one template engine, so the
/// two arms differ only in their Q-stores.
fn serve_dense(
    sim: &Simulator,
    mix: &ScenarioMix,
    config: &ServeConfig,
    warm: &QLearningAgent,
) -> ServeReport {
    let template = AutoScaleEngine::new(sim, config.engine);
    let specs = session_specs(mix, config);
    let results = run_cells(
        resolve_threads(config.shards),
        config.base_seed,
        &specs,
        |cell| {
            DeviceSession::spawn(
                sim,
                *cell.spec,
                &template,
                Some(warm.clone()),
                cell.seed,
                config.faults,
            )
            .expect("the donor was trained on this device")
            .run(false, config.openloop.as_ref())
            .expect("warm fleets never error")
        },
    );
    let mut store = FleetStoreStats {
        qstore: QStoreKind::Dense,
        private_bytes: 0,
        shared_bytes: 0,
        overlay_rows: 0,
        max_session_private_bytes: 0,
    };
    let mut sessions = Vec::with_capacity(results.len());
    let mut traffics = Vec::new();
    for run in results {
        store.private_bytes += run.store.private_bytes;
        store.max_session_private_bytes =
            store.max_session_private_bytes.max(run.store.private_bytes);
        sessions.push(run.report);
        traffics.extend(run.traffic);
    }
    ServeReport {
        sessions,
        latencies_ns: Vec::new(),
        store,
        traffic: config
            .openloop
            .map(|open| FleetTraffic::aggregate(&traffics, open.horizon_ms)),
    }
}

fn run_fleet(
    sim: &Simulator,
    mix: &ScenarioMix,
    warm: &QLearningAgent,
    sessions: usize,
    qstore: QStoreKind,
    openloop: Option<OpenLoopConfig>,
) -> BackendRun {
    let config = ServeConfig {
        sessions,
        decisions_per_session: DECISIONS,
        shards: None,
        base_seed: 0xf1ee7,
        openloop,
        ..ServeConfig::fleet()
    };
    #[cfg(feature = "alloc-count")]
    alloc_count::reset_peak();
    let start = Instant::now();
    let report = match qstore {
        QStoreKind::Dense => serve_dense(sim, mix, &config, warm),
        QStoreKind::Cow => serve(sim, mix, &config, Some(warm)).expect("warm fleets never error"),
    };
    let wall_s = start.elapsed().as_secs_f64();
    #[cfg(feature = "alloc-count")]
    let peak_alloc_bytes = Some(alloc_count::peak_bytes());
    #[cfg(not(feature = "alloc-count"))]
    let peak_alloc_bytes = None;
    BackendRun {
        qstore,
        wall_s,
        decisions_per_sec: report.total_decisions() as f64 / wall_s,
        bytes_per_session: report.store.bytes_per_session(sessions),
        overlay_rows_per_session: report.store.overlay_rows as f64 / sessions as f64,
        digest: report.digest(),
        peak_alloc_bytes,
        traffic: report.traffic,
    }
}

fn print_run(r: &BackendRun, states: usize) {
    let occupancy = r.overlay_rows_per_session / states as f64 * 100.0;
    println!(
        "    {:<5} {:>9.0} decisions/s, {:>9.1} KiB/session, {:>5.1} overlay rows/session ({:.2}% of {} states), {:.2} s{}",
        r.qstore.to_string(),
        r.decisions_per_sec,
        r.bytes_per_session / 1024.0,
        r.overlay_rows_per_session,
        occupancy,
        states,
        r.wall_s,
        match r.peak_alloc_bytes {
            Some(b) => format!(", peak heap {:.1} MiB", b as f64 / (1024.0 * 1024.0)),
            None => String::new(),
        }
    );
}

/// Extracts a committed numeric field from `BENCH_fleet.json` without a
/// JSON parser dependency.
fn committed_number(text: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let at = text.find(&marker)?;
    let rest = text[at + marker.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let huge = args.iter().any(|a| a == "--huge");
    let openloop = args
        .iter()
        .any(|a| a == "--openloop")
        .then(openloop_overload);
    let gate = args.iter().position(|a| a == "--gate").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--gate needs the path of the committed BENCH_fleet.json");
            std::process::exit(2);
        })
    });

    let sim = Simulator::new(DeviceId::Mi8Pro);
    let mix = ScenarioMix::static_envs();
    let cores = default_threads();
    let states = StateSpace::paper().len();

    // One donor policy, trained once: every fleet below — dense or cow —
    // warm-starts from it, so the backends are comparable byte for byte.
    println!("training the donor policy (Mi8Pro, static environments)...");
    let donor = experiment::train_engine(
        &sim,
        &[Workload::MobileNetV1, Workload::InceptionV1],
        &EnvironmentId::STATIC,
        40,
        EngineConfig::paper(),
        17,
    );
    let warm = donor.agent();

    if let Some(path) = gate {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("--gate: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let committed_dps = committed_number(&text, "gate_cow_decisions_per_sec");
        let committed_reduction = committed_number(&text, "gate_reduction_x");
        let (Some(committed_dps), Some(committed_reduction)) = (committed_dps, committed_reduction)
        else {
            eprintln!("--gate: {path} has no gate_cow_decisions_per_sec / gate_reduction_x (regenerate it with `cargo run --release -p autoscale-bench --bin bench_fleet`)");
            std::process::exit(2);
        };
        // The gate measures the committed closed-loop numbers; --openloop
        // does not apply to it.
        let dense = run_fleet(&sim, &mix, warm, GATE_SESSIONS, QStoreKind::Dense, None);
        let cow = run_fleet(&sim, &mix, warm, GATE_SESSIONS, QStoreKind::Cow, None);
        assert_eq!(
            cow.digest, dense.digest,
            "cow fleet diverged from the dense fleet"
        );
        print_run(&dense, states);
        print_run(&cow, states);
        let reduction = dense.bytes_per_session / cow.bytes_per_session;
        let floor = committed_dps * 0.8;
        let mut failed = false;
        if cow.decisions_per_sec < floor {
            eprintln!(
                "perf gate FAILED: cow fleet served {:.0} decisions/s, below 80% of the \
                 committed {committed_dps:.0} (floor {floor:.0}).",
                cow.decisions_per_sec
            );
            failed = true;
        }
        if reduction < 20.0 {
            eprintln!(
                "perf gate FAILED: cow bytes/session reduction is {reduction:.1}x, \
                 below the 20x target (committed {committed_reduction:.1}x).",
            );
            failed = true;
        }
        if failed {
            eprintln!(
                "If this regression is intended, regenerate the baseline with\n\
                 `cargo run --release -p autoscale-bench --bin bench_fleet` and commit {path}."
            );
            std::process::exit(1);
        }
        println!(
            "perf gate passed: cow at {:.0} decisions/s (committed {committed_dps:.0}, floor \
             {floor:.0}), {reduction:.1}x bytes/session reduction",
            cow.decisions_per_sec
        );
        return;
    }

    let sizes: Vec<usize> = if smoke {
        vec![1_000]
    } else if huge {
        vec![1_000, 10_000, 100_000, 1_000_000]
    } else {
        vec![1_000, 10_000, 100_000]
    };
    println!(
        "fleet benchmark: {DECISIONS} decisions/session on {} ({cores} cores{})",
        sim.host().id(),
        if smoke { ", smoke" } else { "" }
    );

    struct SizeResult {
        sessions: usize,
        dense: BackendRun,
        cow: BackendRun,
        reduction_x: f64,
        cow_throughput_ratio: f64,
    }
    let mut results: Vec<SizeResult> = Vec::new();
    for &sessions in &sizes {
        println!("  {sessions} sessions:");
        let dense = run_fleet(&sim, &mix, warm, sessions, QStoreKind::Dense, openloop);
        let cow = run_fleet(&sim, &mix, warm, sessions, QStoreKind::Cow, openloop);
        assert_eq!(
            cow.digest, dense.digest,
            "cow fleet diverged from the dense fleet at {sessions} sessions"
        );
        assert_eq!(
            cow.traffic, dense.traffic,
            "cow fleet's open-loop traffic diverged at {sessions} sessions"
        );
        print_run(&dense, states);
        print_run(&cow, states);
        if let Some(traffic) = &dense.traffic {
            println!(
                "    open-loop: offered {:.0} req/s/session, sustained goodput {:.1} req/s/session, \
                 {:.1}% dropped, queue depth p99 {}",
                traffic.offered_load_hz(),
                traffic.goodput_hz(),
                traffic.drop_rate() * 100.0,
                traffic.queue_depth_percentile(99.0)
            );
        }
        let reduction_x = dense.bytes_per_session / cow.bytes_per_session;
        let cow_throughput_ratio = cow.decisions_per_sec / dense.decisions_per_sec;
        println!(
            "    cow vs dense: {reduction_x:.1}x less memory/session, {:.0}% throughput",
            cow_throughput_ratio * 100.0
        );
        results.push(SizeResult {
            sessions,
            dense,
            cow,
            reduction_x,
            cow_throughput_ratio,
        });
    }
    println!("fleet digests bit-identical across backends at every size");

    if smoke {
        // The CI-sized contract: the overlays stay sparse. 128 KiB is
        // ~14x headroom over the observed few-KiB overlays while still
        // an order of magnitude under the ~1.8 MiB dense table.
        let cow = &results[0].cow;
        assert!(
            cow.bytes_per_session < 128.0 * 1024.0,
            "cow bytes/session {:.0} exceeds the 128 KiB smoke ceiling",
            cow.bytes_per_session
        );
        println!("smoke run: not writing BENCH_fleet.json");
        return;
    }

    if openloop.is_some() {
        // Open-loop runs serve a different (overload-shaped) workload than
        // the committed closed-loop numbers, so the headline targets and
        // the committed JSON don't apply to them.
        println!("open-loop run: not writing BENCH_fleet.json");
        return;
    }

    // The PR's headline targets, asserted where the base is amortized
    // (the smallest fleet pays the shared table across only 1k sessions).
    for r in &results {
        if r.sessions >= 10_000 {
            assert!(
                r.reduction_x >= 20.0,
                "{} sessions: only {:.1}x bytes/session reduction (target ≥20x)",
                r.sessions,
                r.reduction_x
            );
            assert!(
                r.cow_throughput_ratio >= 0.85,
                "{} sessions: cow throughput fell to {:.0}% of dense (target ≥85%)",
                r.sessions,
                r.cow_throughput_ratio * 100.0
            );
        }
    }

    let gate_entry = results
        .iter()
        .find(|r| r.sessions == GATE_SESSIONS)
        .expect("the sweep includes the gate size");
    let mut entries = String::new();
    for (i, r) in results.iter().enumerate() {
        let backend = |b: &BackendRun| {
            format!(
                "{{\"wall_s\": {:.3}, \"decisions_per_sec\": {:.1}, \"bytes_per_session\": {:.1}, \"overlay_rows_per_session\": {:.2}, \"peak_alloc_bytes\": {}}}",
                b.wall_s,
                b.decisions_per_sec,
                b.bytes_per_session,
                b.overlay_rows_per_session,
                match b.peak_alloc_bytes {
                    Some(bytes) => bytes.to_string(),
                    None => "null".to_string(),
                }
            )
        };
        entries.push_str(&format!(
            "    {{\"sessions\": {}, \"fleet_digest\": {}, \"dense\": {}, \"cow\": {}, \"reduction_x\": {:.1}, \"cow_throughput_ratio\": {:.3}}}{}\n",
            r.sessions,
            r.dense.digest,
            backend(&r.dense),
            backend(&r.cow),
            r.reduction_x,
            r.cow_throughput_ratio,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    let json = format!(
        "{{\n  \"decisions_per_session\": {DECISIONS},\n  \"cores\": {cores},\n  \"states\": {states},\n  \"sizes\": [\n{entries}  ],\n  \"gate_sessions\": {GATE_SESSIONS},\n  \"gate_cow_decisions_per_sec\": {:.1},\n  \"gate_reduction_x\": {:.1}\n}}\n",
        gate_entry.cow.decisions_per_sec, gate_entry.reduction_x
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(out, &json).expect("write BENCH_fleet.json");
    println!("wrote {out}");
}
