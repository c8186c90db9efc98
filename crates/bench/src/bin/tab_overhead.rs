//! Section VI-C overhead analysis: decision latency, training-step
//! latency, and Q-table memory.
//!
//! The paper reports 25.4 µs per training step, 7.3 µs per trained
//! (serving) decision, and a 0.4 MB Q-table. The Criterion benches in
//! `benches/overhead.rs` measure the same quantities rigorously; this
//! binary prints a quick wall-clock summary in the paper's format.

use std::time::Instant;

use autoscale::prelude::*;
use autoscale_rl::QTable;

fn main() {
    let config = EngineConfig::paper();
    let sim = Simulator::new(DeviceId::Mi8Pro);
    let mut engine = AutoScaleEngine::new(&sim, config);
    let mut rng = autoscale::seeded_rng(1);
    let snapshot = Snapshot::calm();
    let w = Workload::MobileNetV3;

    // Warm the engine so decisions exercise a populated table.
    for _ in 0..200 {
        let step = engine
            .decide(&sim, w, &snapshot, &mut rng)
            .expect("feasible");
        let outcome = sim
            .execute_measured(w, &step.request, &snapshot, &mut rng)
            .expect("feasible");
        engine.learn(&sim, w, step, &outcome, &snapshot);
    }

    const N: u32 = 100_000;

    // Serving decision: what a converged serving session calls — the
    // frozen engine's `decide` (state encode, the ε gate's one uniform
    // draw, the cached argmax), on its own stream so the training loop
    // below draws exactly as before.
    let mut serving = engine.clone();
    serving.freeze();
    let mut serve_rng = autoscale::seeded_rng(2);
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(
            serving
                .decide(&sim, w, &snapshot, &mut serve_rng)
                .expect("feasible"),
        );
    }
    let serve_us = t.elapsed().as_secs_f64() * 1e6 / N as f64;

    // Training step: decision + reward + Q update (inference excluded,
    // as in the paper).
    let outcome = sim
        .execute_expected(
            w,
            &engine
                .decide_greedy(&sim, w, &snapshot)
                .expect("feasible")
                .request,
            &snapshot,
        )
        .expect("feasible");
    let t = Instant::now();
    for _ in 0..N {
        let step = engine
            .decide(&sim, w, &snapshot, &mut rng)
            .expect("feasible");
        std::hint::black_box(engine.learn(&sim, w, step, &outcome, &snapshot));
    }
    let train_us = t.elapsed().as_secs_f64() * 1e6 / N as f64;

    // The paper's statistic is the whole table; the table builds only
    // the 64-state blocks a run touches, so report both.
    let store = engine.agent().store();
    let table_mib = QTable::full_bytes(store.states(), store.actions()) as f64 / (1024.0 * 1024.0);
    let resident_kib = store.memory_bytes() as f64 / 1024.0;
    let dram_gb = sim.host().dram_gb();

    println!("Section VI-C overhead analysis (Mi8Pro, MobileNet v3):");
    println!("  serving decision:  {serve_us:>7.2} us   (paper:  7.3 us)");
    println!("  training step:     {train_us:>7.2} us   (paper: 25.4 us)");
    println!(
        "  Q-table memory:    {table_mib:>7.2} MiB  ({:.3}% of the {dram_gb:.0} GB device DRAM; paper: 0.4 MB)",
        table_mib / (dram_gb * 1024.0) * 100.0
    );
    println!(
        "    resident:        {resident_kib:>7.1} KiB  (the blocks of states this run touched)"
    );
    let min_latency_ms = 5.0; // the fastest on-device inference in the testbed
    println!(
        "  training overhead vs fastest inference: {:.2}% (paper: 1.2%)",
        train_us / (min_latency_ms * 1e3) * 100.0
    );
}
