//! Power and energy models — the paper's equations (1), (2) and (3).
//!
//! The paper estimates `R_energy` for on-device execution from
//! utilization-based models:
//!
//! * eq. (1), CPU: `E = Σ_f (P_busy^f · t_busy^f) + P_idle · t_idle`
//! * eq. (2), GPU: same shape;
//! * eq. (3), DSP: `E = P_DSP · R_latency` (constant measured power — the
//!   paper found `P_DSP` "remains consistent over 100 runs of 10 NNs").
//!
//! During one scheduled inference a processor runs at a single DVFS step
//! for the whole busy interval, so the sums collapse to a single term.
//! Energy is accounted device-wide: the busy processor's power plus the
//! device's base (rest-of-SoC, DRAM, rails) power for the duration.

use serde::{Deserialize, Serialize};

use crate::latency::ExecutionConditions;
use crate::processor::{Processor, ProcessorKind};

/// Energy split of one on-device inference, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Energy drawn by the busy processor (eqs. (1)–(3)).
    pub processor_mj: f64,
    /// Energy drawn by the rest of the device while the inference runs.
    pub base_mj: f64,
}

impl EnergyBreakdown {
    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.processor_mj + self.base_mj
    }
}

/// Busy power of a processor under the given conditions, in watts.
///
/// For CPUs and GPUs this is the per-step measured `P_busy^f` (eqs. (1)
/// and (2)); thermal throttling clamps the step and adds a small leakage
/// uplift because a throttling chip is hot. For DSPs the paper's constant
/// `P_DSP` is the single ladder step's power (eq. (3)).
pub fn busy_power_w(processor: &Processor, cond: &ExecutionConditions) -> f64 {
    let idx = cond.effective_freq_index(processor);
    let step_power = processor.dvfs().step(idx).busy_power_w;
    match processor.kind() {
        // Fixed-frequency accelerators draw their measured constant power.
        ProcessorKind::Dsp | ProcessorKind::Npu => step_power,
        ProcessorKind::Cpu | ProcessorKind::Gpu => {
            // A thermally-capped run happens on hot silicon: leakage grows.
            if cond.thermal_cap.is_some() {
                step_power * 1.10
            } else {
                step_power
            }
        }
    }
}

/// Energy of one on-device inference, in millijoules.
///
/// `latency_ms` is the inference's end-to-end latency on this processor;
/// `base_power_w` the device's base power (rest of SoC, DRAM, display
/// rails) that is drawn for the same interval.
pub fn on_device_energy_mj(
    processor: &Processor,
    cond: &ExecutionConditions,
    latency_ms: f64,
    base_power_w: f64,
) -> EnergyBreakdown {
    // P [W] × t [ms] = energy [mJ]: watts times milliseconds is millijoules.
    let processor_mj = busy_power_w(processor, cond) * latency_ms;
    let base_mj = base_power_w * latency_ms;
    EnergyBreakdown {
        processor_mj,
        base_mj,
    }
}

/// Energy efficiency in inferences per joule given a per-inference energy
/// in millijoules. This is the "performance per watt" (PPW) metric of the
/// paper's figures: for a fixed amount of work, performance/watt reduces
/// to 1/energy.
///
/// Saturating guard instead of a panic: a non-positive energy is
/// physically impossible for a completed inference, so it maps to an
/// efficiency of `0.0` — the worst possible score — rather than
/// aborting a sweep. `NaN` input also yields `0.0`, keeping downstream
/// argmax/averaging code NaN-free.
pub fn efficiency_ipj(energy_mj: f64) -> f64 {
    if energy_mj > 0.0 {
        1_000.0 / energy_mj
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::DvfsLadder;
    use crate::processor::{KindEfficiency, ProcessorConfig};
    use autoscale_nn::Precision;

    fn cpu() -> Processor {
        Processor::new(ProcessorConfig {
            name: "CPU".into(),
            kind: ProcessorKind::Cpu,
            peak_gmacs: 18.0,
            mem_bw_gbps: 12.0,
            dispatch_overhead_ms: 0.01,
            sync_overhead_ms: 0.0,
            dvfs: DvfsLadder::linear(23, 0.8, 2.8, 4.0),
            idle_power_w: 0.1,
            precisions: vec![Precision::Fp32, Precision::Int8],
            efficiency: KindEfficiency::uniform(),
            runs_recurrent: true,
        })
    }

    fn dsp() -> Processor {
        Processor::new(ProcessorConfig {
            name: "DSP".into(),
            kind: ProcessorKind::Dsp,
            peak_gmacs: 300.0,
            mem_bw_gbps: 16.0,
            dispatch_overhead_ms: 0.12,
            sync_overhead_ms: 0.5,
            dvfs: DvfsLadder::fixed(0.7, 1.3),
            idle_power_w: 0.05,
            precisions: vec![Precision::Int8],
            efficiency: KindEfficiency {
                conv: 1.0,
                fc: 0.25,
                rc: 0.1,
                other: 0.7,
            },
            runs_recurrent: false,
        })
    }

    #[test]
    fn busy_power_tracks_dvfs_step() {
        let cpu = cpu();
        let mut cond = ExecutionConditions::max_frequency(&cpu, Precision::Fp32);
        let at_max = busy_power_w(&cpu, &cond);
        cond.freq_index = 0;
        let at_min = busy_power_w(&cpu, &cond);
        assert!(at_min < at_max / 3.0);
        assert!((at_max - 4.0).abs() < 1e-9);
    }

    #[test]
    fn throttled_cpu_draws_leakage_uplift() {
        let cpu = cpu();
        let cond_hot = ExecutionConditions {
            thermal_cap: Some(0.6),
            ..ExecutionConditions::max_frequency(&cpu, Precision::Fp32)
        };
        let capped_idx = cond_hot.effective_freq_index(&cpu);
        let expected = cpu.dvfs().step(capped_idx).busy_power_w * 1.10;
        assert!((busy_power_w(&cpu, &cond_hot) - expected).abs() < 1e-9);
    }

    #[test]
    fn dsp_power_is_constant() {
        let dsp = dsp();
        let cond = ExecutionConditions::max_frequency(&dsp, Precision::Int8);
        assert!((busy_power_w(&dsp, &cond) - 1.3).abs() < 1e-9);
    }

    #[test]
    fn energy_breakdown_sums() {
        let cpu = cpu();
        let cond = ExecutionConditions::max_frequency(&cpu, Precision::Fp32);
        let e = on_device_energy_mj(&cpu, &cond, 10.0, 0.8);
        assert!((e.processor_mj - 40.0).abs() < 1e-9);
        assert!((e.base_mj - 8.0).abs() < 1e-9);
        assert!((e.total_mj() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_is_reciprocal_energy() {
        assert!((efficiency_ipj(100.0) - 10.0).abs() < 1e-12);
        assert!(efficiency_ipj(50.0) > efficiency_ipj(100.0));
    }

    #[test]
    fn non_positive_energy_saturates_to_zero_efficiency() {
        assert_eq!(efficiency_ipj(0.0), 0.0);
        assert_eq!(efficiency_ipj(-3.5), 0.0);
        assert_eq!(efficiency_ipj(f64::NAN), 0.0);
        // The guard never perturbs the physical branch.
        assert!(efficiency_ipj(1e-300) > 0.0);
    }
}
