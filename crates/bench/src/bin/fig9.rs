//! Figure 9: AutoScale vs baselines and prior work, static environments.
//!
//! For each of the three phones: leave-one-out-trained AutoScale, the
//! four fixed baselines, Opt, MOSAIC and NeuroSurgeon, averaged across
//! the ten workloads and the five static environments. Prints PPW
//! normalized to `Edge (CPU FP32)` and the QoS-violation ratio.
//!
//! The sweep runs on the deterministic parallel harness: one cell per
//! (device, workload), each with its own derived RNG seed, so the output
//! is bit-identical for any `--threads` value.

use autoscale::experiment::{self, Comparison};
use autoscale::parallel::{run_cells, Cell};
use autoscale::prelude::*;
use autoscale_bench::{autoscale_for, section, threads_from_args, SuiteAccumulator, RUNS, WARMUP};

/// The sweep grid: one cell per (phone, workload), device-major.
fn fig9_specs() -> Vec<(DeviceId, Workload)> {
    DeviceId::PHONES
        .iter()
        .flat_map(|&d| Workload::ALL.iter().map(move |&w| (d, w)))
        .collect()
}

/// Runs one cell: leave-one-out-trained AutoScale against the four fixed
/// baselines, Opt, MOSAIC and NeuroSurgeon across the five static
/// environments.
fn fig9_cell(cell: &Cell<'_, (DeviceId, Workload)>) -> Vec<Comparison> {
    let (device, w) = *cell.spec;
    let config = EngineConfig::paper();
    let envs = EnvironmentId::STATIC;
    let ev = Evaluator::new(Simulator::new(device), config);

    // Leave-one-out: AutoScale's Q-table is trained on the other nine
    // workloads (Section V-C), then keeps learning online.
    let autoscale = autoscale_for(ev.sim(), w, &envs, config, 42);
    let mut prior_rng = autoscale::seeded_rng(43);
    let comparators = experiment::baselines_and_prior_work(ev.sim(), config, w, &mut prior_rng);
    experiment::compare(
        &ev,
        w,
        &envs,
        autoscale,
        comparators,
        WARMUP,
        RUNS,
        &mut autoscale::seeded_rng(cell.seed),
    )
}

fn main() {
    let threads = threads_from_args(std::env::args().skip(1));
    let specs = fig9_specs();
    let results = run_cells(threads, 900, &specs, fig9_cell);

    let mut grand = SuiteAccumulator::new();
    for (device_idx, &device) in DeviceId::PHONES.iter().enumerate() {
        section(&device.to_string());
        let mut acc = SuiteAccumulator::new();
        let per_device = Workload::ALL.len();
        for c in results[device_idx * per_device..(device_idx + 1) * per_device]
            .iter()
            .flatten()
        {
            acc.record_comparison(c);
        }
        acc.print(&format!(
            "Fig. 9 ({device}): static environments, all workloads"
        ));
        merge(&mut grand, &acc);
    }
    grand.print("Fig. 9: average across the three devices");
}

/// Records each scheduler's per-device means in the cross-device
/// accumulator.
fn merge(grand: &mut SuiteAccumulator, device: &SuiteAccumulator) {
    for name in [
        "AutoScale",
        "Edge (CPU FP32)",
        "Edge (Best)",
        "Cloud",
        "Connected Edge",
        "Opt",
        "MOSAIC",
        "NeuroSurgeon",
    ] {
        if let (Some(ppw), Some(qos)) = (device.mean_ppw(name), device.mean_qos(name)) {
            grand.record_means(name, ppw, qos, device.mean_opt_match(name));
        }
    }
}
