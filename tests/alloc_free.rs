//! Serving allocates nothing per decision, and a constant number per
//! session.
//!
//! A thread-local counting allocator wraps the system allocator. Each
//! case serves a one-shard fleet at two horizons and compares the heap
//! allocations the fleet made. `shards: Some(1)` runs every session on
//! the calling thread, so the counter sees the whole fleet. Whatever a
//! fleet allocates (sessions, Q-table blocks, queues, reports) must be
//! paid at setup: ten times the decisions must cost the same number of
//! allocations. One `Vec` built per decision shows up as exactly one
//! extra allocation per decision. The setup case counts the other axis:
//! twice the sessions may cost only a small, fixed number of
//! allocations per extra session, because the per-device decision
//! context is built once per fleet.

mod dense_fleet;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autoscale::prelude::*;
use autoscale_rl::{Hyperparameters, QLearningAgent, QTable};
use dense_fleet::dense_warm_fleet;

/// The system allocator, counting the calls that hand out memory on
/// the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    // `try_with`, so an allocation during thread teardown still succeeds.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with its caller's arguments
// unchanged, so `System`'s guarantees are this allocator's. The
// counters are const-initialized thread-locals without destructors:
// touching them never allocates, so `record` cannot recurse.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Decisions per session at the short and the long horizon.
const SHORT: usize = 2_000;
const LONG: usize = 20_000;

/// Sessions in the small and the large fleet of the setup case.
const FEW: usize = 20;
const MANY: usize = 40;
/// Allocations one session's setup may cost, its first Q-table block or
/// overlay row included.
const SETUP_ALLOCATIONS: u64 = 12;

/// One fleet run: what it allocated on this thread, and its report.
struct Measured {
    allocs: u64,
    bytes: u64,
    report: ServeReport,
}

fn measure(fleet: impl FnOnce(&Simulator) -> ServeReport) -> Measured {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let (allocs0, bytes0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let report = fleet(&sim);
    let (allocs1, bytes1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    Measured {
        allocs: allocs1 - allocs0,
        bytes: bytes1 - bytes0,
        report,
    }
}

/// What may legitimately differ between the two horizons.
#[derive(Clone, Copy)]
enum Slack {
    /// Nothing: equal allocation counts and equal bytes.
    None,
    /// Buffers sized once to the horizon: equal counts, larger bytes.
    SizedBuffers,
    /// Copy-on-write overlays: at most one allocation per extra
    /// overlay row. With no extra row the bytes must match as well.
    OverlayRows,
}

/// Serves `config(SHORT)` and `config(LONG)` and asserts the long run
/// allocated no more than `slack` allows.
fn assert_allocation_free(
    name: &str,
    mix: &ScenarioMix,
    warm: Option<&QLearningAgent>,
    slack: Slack,
    config: impl Fn(usize) -> ServeConfig,
) {
    assert_fleet_allocation_free(name, slack, |sim, decisions| {
        serve(sim, mix, &config(decisions), warm).expect("the fleet serves")
    });
}

/// Runs `fleet` at the short and the long horizon and asserts the long
/// run allocated no more than `slack` allows.
fn assert_fleet_allocation_free(
    name: &str,
    slack: Slack,
    fleet: impl Fn(&Simulator, usize) -> ServeReport,
) {
    let short = measure(|sim| fleet(sim, SHORT));
    let long = measure(|sim| fleet(sim, LONG));
    let (served_short, served_long) = (
        short.report.total_decisions(),
        long.report.total_decisions(),
    );
    assert!(
        served_long >= 5 * served_short && served_short > 0,
        "{name}: the long horizon must serve far more ({served_short} vs {served_long} decisions)"
    );
    let extra_rows = long.report.store.overlay_rows - short.report.store.overlay_rows;
    let allowed = match slack {
        Slack::None | Slack::SizedBuffers => 0,
        Slack::OverlayRows => extra_rows,
    };
    assert!(
        short.allocs <= long.allocs && long.allocs <= short.allocs + allowed,
        "{name}: {} allocations at {served_short} decisions vs {} at {served_long} \
         ({allowed} allowed for {extra_rows} extra overlay rows)",
        short.allocs,
        long.allocs,
    );
    let bytes_must_match = match slack {
        Slack::None => true,
        Slack::SizedBuffers => false,
        Slack::OverlayRows => extra_rows == 0,
    };
    if bytes_must_match {
        assert_eq!(
            short.bytes, long.bytes,
            "{name}: bytes requested at {served_short} vs {served_long} decisions"
        );
    }
}

/// A closed-loop fleet of `sessions` on one shard, `decisions` each.
fn closed(sessions: usize, decisions: usize) -> ServeConfig {
    ServeConfig {
        sessions,
        decisions_per_session: decisions,
        shards: Some(1),
        ..ServeConfig::fleet()
    }
}

/// An open-loop fleet of ten sessions on one shard.
fn open(traffic: OpenLoopConfig) -> ServeConfig {
    ServeConfig {
        openloop: Some(traffic),
        ..closed(10, 0)
    }
}

/// A horizon in which an overloaded session serves about `decisions`
/// requests: a device serves ~50 requests per second.
fn horizon_ms(decisions: usize) -> f64 {
    decisions as f64 * 20.0
}

/// Every model once, beside the static environments in turn: ten long
/// sessions as varied as the paper's grids.
fn one_per_model() -> ScenarioMix {
    ScenarioMix::new(
        Workload::ALL
            .iter()
            .zip(EnvironmentId::STATIC.iter().cycle())
            .map(|(&model, &env)| (model, env))
            .collect(),
    )
}

fn warm_agent() -> QLearningAgent {
    let sim = Simulator::new(DeviceId::Mi8Pro);
    QLearningAgent::with_table(
        QTable::new_random(
            StateSpace::paper().len(),
            ActionSpace::for_simulator(&sim).len(),
            0xba5e,
        ),
        Hyperparameters::paper(),
    )
}

#[test]
fn steady_closed_loop_allocates_nothing_per_decision() {
    assert_allocation_free("steady", &one_per_model(), None, Slack::None, |d| {
        closed(10, d)
    });
}

#[test]
fn default_mix_allocates_nothing_per_decision() {
    let mix = ScenarioMix::static_envs();
    assert_allocation_free("default mix", &mix, None, Slack::None, |d| {
        closed(mix.len(), d)
    });
}

#[test]
fn chaos_fleet_allocates_nothing_per_decision() {
    let mix = ScenarioMix::all_envs();
    assert_allocation_free("chaos", &mix, None, Slack::None, |d| ServeConfig {
        faults: FaultProfile::chaos(),
        ..closed(mix.len(), d)
    });
}

#[test]
fn overloaded_open_loop_allocates_nothing_per_decision() {
    assert_allocation_free("overload", &one_per_model(), None, Slack::None, |d| {
        open(OpenLoopConfig {
            arrivals: ArrivalProcess::bursty(400.0),
            churn: ChurnConfig::none(),
            horizon_ms: horizon_ms(d),
            queue_capacity: 16,
            admission: AdmissionPolicy::Degrade,
        })
    });
}

#[test]
fn churning_drop_tail_open_loop_allocates_nothing_per_decision() {
    assert_allocation_free(
        "drop-tail churn",
        &one_per_model(),
        None,
        Slack::None,
        |d| {
            let horizon = horizon_ms(d);
            open(OpenLoopConfig {
                churn: ChurnConfig::heavy(horizon),
                ..OpenLoopConfig::poisson(400.0, horizon)
            })
        },
    );
}

#[test]
fn recording_latency_sizes_its_buffers_once() {
    // The open loop is left out: its request count depends on the
    // arrival schedule, so its latency buffer grows amortized.
    assert_allocation_free(
        "record_latency",
        &one_per_model(),
        None,
        Slack::SizedBuffers,
        |d| ServeConfig {
            record_latency: true,
            ..closed(10, d)
        },
    );
}

#[test]
fn warm_dense_fleet_allocates_nothing_per_decision() {
    // The baseline the copy-on-write store is measured against: every
    // session on a private dense clone of the warm table.
    let warm = warm_agent();
    let mix = one_per_model();
    assert_fleet_allocation_free("warm dense", Slack::None, |sim, decisions| {
        dense_warm_fleet(sim, &mix, &closed(10, decisions), &warm)
    });
}

#[test]
fn cow_fleets_allocate_only_for_new_overlay_rows() {
    // A warm fleet shares the agent's table as one copy-on-write base:
    // a session allocates only when it writes a row for the first time.
    let warm = warm_agent();
    assert_allocation_free(
        "warm",
        &one_per_model(),
        Some(&warm),
        Slack::OverlayRows,
        |d| closed(10, d),
    );
}

#[test]
fn a_session_setup_costs_a_constant_number_of_allocations() {
    // The action space, the feasibility masks, the state bases and the
    // rewards depend only on the device and the engine config, so
    // `serve()` builds them once per fleet. An extra session pays for
    // its own learner, environment, fault injector and report only.
    let warm = warm_agent();
    let cases = [
        ("cold", one_per_model(), None, FaultProfile::none()),
        ("warm", one_per_model(), Some(&warm), FaultProfile::none()),
        (
            "chaos",
            ScenarioMix::all_envs(),
            None,
            FaultProfile::chaos(),
        ),
    ];
    for (name, mix, warm, faults) in cases {
        let allocs = |sessions| {
            let config = ServeConfig {
                faults,
                ..closed(sessions, 1)
            };
            measure(|sim| serve(sim, &mix, &config, warm).expect("the fleet serves")).allocs
        };
        let (few, many) = (allocs(FEW), allocs(MANY));
        let extra = (MANY - FEW) as u64;
        assert!(
            few <= many && many - few <= extra * SETUP_ALLOCATIONS,
            "{name}: {few} allocations for {FEW} sessions vs {many} for {MANY} \
             ({SETUP_ALLOCATIONS} allowed per extra session)"
        );
    }
}
