//! Memoized network latency: condition-independent roofline terms
//! precomputed once per (processor, network).
//!
//! [`latency::network_latency_ms`](crate::latency::network_latency_ms)
//! walks every layer on every call and re-derives the same
//! condition-independent quantities — per-layer compute cost at unit
//! frequency, per-layer memory cost at unit availability, fixed
//! overheads — before applying the *execution conditions* (DVFS step,
//! interference availabilities, thermal cap). Experiment sweeps evaluate
//! the same network under thousands of condition combinations (an oracle
//! sweep alone enumerates ~66 actions per decision), so that per-layer
//! walk dominates the sweep's wall clock.
//!
//! The roofline factors cleanly. With
//!
//! ```text
//! s  = freq_ratio · cpu_avail · mem_stall_factor      (compute scale)
//! ma = mem_availability                               (memory scale)
//! ```
//!
//! every layer's latency is `max(base_c / s, base_m / ma) + base_o / msf`
//! where `base_c`, `base_m` and `base_o` do not depend on the conditions.
//! A layer is compute-bound exactly when `base_c / base_m ≥ s / ma`, so
//! sorting layers once by that ratio turns the per-call layer walk into a
//! binary search over prefix sums:
//!
//! ```text
//! latency(s, ma) = Σ_{r ≥ t} base_c / s  +  Σ_{r < t} base_m / ma  +  Σ base_o / msf
//!                  └── suffix sum ──┘       └── prefix sum ──┘
//! ```
//!
//! with threshold `t = s / ma`. Build is O(L log L) once per
//! (processor, network, precision); every evaluation after that is
//! O(log L) regardless of the conditions.
//!
//! Because the cached evaluation sums layer costs in ratio order rather
//! than network order (and splits the `max` into two pre-accumulated
//! sums), results can differ from the naive walk by floating-point
//! association, on the order of 1e-12 relative. The cached path is
//! deterministic: the same table and conditions always produce the same
//! bits.

use autoscale_nn::{LayerKind, Network, Precision};
use serde::{Deserialize, Serialize};

use crate::latency::ExecutionConditions;
use crate::processor::{Processor, ProcessorKind};

/// Condition-independent per-layer roofline terms for one
/// (processor, network, precision) triple, arranged for O(log L)
/// evaluation under arbitrary [`ExecutionConditions`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkCostTable {
    /// The precision the table was built for.
    precision: Precision,
    /// Per-layer `base_c / base_m` ratios, ascending. A layer with zero
    /// memory traffic gets `+inf` (always compute-bound).
    ratios: Vec<f64>,
    /// `prefix_m[k]` = Σ of `base_m` over the `k` smallest-ratio layers
    /// (the memory-bound side at threshold index `k`). Length L+1.
    prefix_m: Vec<f64>,
    /// `suffix_c[k]` = Σ of `base_c` over layers `k..L` in ratio order
    /// (the compute-bound side at threshold index `k`). Length L+1.
    suffix_c: Vec<f64>,
    /// Σ of fixed per-layer overheads (dispatch + FC/RC sync) in ms,
    /// before the memory-stall inflation.
    total_overhead_ms: f64,
}

impl NetworkCostTable {
    /// Precomputes the table for one (processor, network, precision).
    ///
    /// `base_c` is the layer's compute time at unit frequency ratio and
    /// full availability; `base_m` its memory time at full bandwidth
    /// availability; both already include the precision speedup /
    /// traffic and the processor's per-kind efficiency, which the
    /// conditions never change.
    pub fn build(processor: &Processor, network: &Network, precision: Precision) -> Self {
        let mut total_overhead_ms = 0.0;
        let mut terms: Vec<(f64, f64, f64)> = network
            .layers()
            .iter()
            .map(|layer| {
                let eff = processor.efficiency().for_kind(layer.kind);
                let gmacs = processor.peak_gmacs() * processor.precision_speedup(precision) * eff;
                let base_c = layer.macs as f64 / (gmacs * 1e9) * 1e3;
                let bw = processor.mem_bw_gbps() * eff;
                let base_m = layer.traffic_bytes(precision) as f64 / (bw * 1e9) * 1e3;
                let sync = if processor.kind().is_coprocessor()
                    && matches!(layer.kind, LayerKind::Fc | LayerKind::Rc)
                {
                    processor.sync_overhead_ms()
                } else {
                    0.0
                };
                total_overhead_ms += processor.dispatch_overhead_ms() + sync;
                let ratio = if base_m > 0.0 {
                    base_c / base_m
                } else {
                    f64::INFINITY
                };
                (ratio, base_c, base_m)
            })
            .collect();
        terms.sort_by(|a, b| a.0.total_cmp(&b.0));

        let n = terms.len();
        let mut prefix_m = vec![0.0; n + 1];
        for (k, t) in terms.iter().enumerate() {
            prefix_m[k + 1] = prefix_m[k] + t.2;
        }
        let mut suffix_c = vec![0.0; n + 1];
        for (k, t) in terms.iter().enumerate().rev() {
            suffix_c[k] = suffix_c[k + 1] + t.1;
        }
        NetworkCostTable {
            precision,
            ratios: terms.into_iter().map(|t| t.0).collect(),
            prefix_m,
            suffix_c,
            total_overhead_ms,
        }
    }

    /// The precision this table was built for.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// End-to-end network latency in milliseconds under `cond` —
    /// the memoized equivalent of
    /// [`latency::network_latency_ms`](crate::latency::network_latency_ms).
    ///
    /// `processor` must be the processor the table was built from; it is
    /// only consulted for the DVFS ladder (thermal-cap resolution) and
    /// the CPU/co-processor distinction.
    ///
    /// # Panics
    ///
    /// Panics if `cond.precision` differs from the table's precision, the
    /// frequency index is out of range, or an availability factor is
    /// outside (0, 1].
    pub fn latency_ms(&self, processor: &Processor, cond: &ExecutionConditions) -> f64 {
        assert_eq!(
            cond.precision, self.precision,
            "cost table built for {:?} evaluated at {:?}",
            self.precision, cond.precision
        );
        assert!(
            cond.compute_availability > 0.0 && cond.compute_availability <= 1.0,
            "compute availability must be in (0, 1]"
        );
        assert!(
            cond.mem_availability > 0.0 && cond.mem_availability <= 1.0,
            "memory availability must be in (0, 1]"
        );
        let idx = cond.effective_freq_index(processor);
        let freq_ratio = processor.dvfs().freq_ratio(idx);
        let cpu_avail = if processor.kind() == ProcessorKind::Cpu {
            cond.compute_availability
        } else {
            1.0
        };
        let mem_stall_factor = 0.4 + 0.6 * cond.mem_availability;

        let s = freq_ratio * cpu_avail * mem_stall_factor;
        let ma = cond.mem_availability;
        // Layers with ratio >= t are compute-bound at these conditions.
        let t = s / ma;
        let k = self.ratios.partition_point(|&r| r < t);
        self.suffix_c[k] / s + self.prefix_m[k] / ma + self.total_overhead_ms / mem_stall_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::DvfsLadder;
    use crate::latency::network_latency_ms;
    use crate::processor::{KindEfficiency, ProcessorConfig};
    use autoscale_nn::Workload;

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
            efficiency: KindEfficiency {
                conv: 1.0,
                fc: 1.0,
                rc: 0.6,
                other: 1.0,
            },
            runs_recurrent: true,
        })
    }

    fn gpu() -> Processor {
        Processor::new(ProcessorConfig {
            name: "GPU".into(),
            kind: ProcessorKind::Gpu,
            peak_gmacs: 120.0,
            mem_bw_gbps: 18.0,
            dispatch_overhead_ms: 0.18,
            sync_overhead_ms: 0.8,
            dvfs: DvfsLadder::linear(7, 0.25, 0.7, 2.3),
            idle_power_w: 0.08,
            precisions: vec![Precision::Fp32, Precision::Fp16],
            efficiency: KindEfficiency {
                conv: 1.0,
                fc: 0.3,
                rc: 0.25,
                other: 0.8,
            },
            runs_recurrent: false,
        })
    }

    /// Sweep of condition combinations covering both rooflines, thermal
    /// caps and contention.
    fn condition_grid(processor: &Processor, precision: Precision) -> Vec<ExecutionConditions> {
        let mut grid = Vec::new();
        for freq_index in [
            0,
            processor.dvfs().max_index() / 2,
            processor.dvfs().max_index(),
        ] {
            for compute_availability in [0.15, 0.6, 1.0] {
                for mem_availability in [0.2, 0.7, 1.0] {
                    for thermal_cap in [None, Some(0.5), Some(0.9)] {
                        grid.push(ExecutionConditions {
                            freq_index,
                            precision,
                            compute_availability,
                            mem_availability,
                            thermal_cap,
                        });
                    }
                }
            }
        }
        grid
    }

    #[test]
    fn table_matches_naive_walk_over_condition_grid() {
        for processor in [cpu(), gpu()] {
            for workload in [
                Workload::ResNet50,
                Workload::MobileNetV3,
                Workload::MobileBert,
            ] {
                let net = Network::workload(workload);
                for &precision in processor.precisions() {
                    let table = NetworkCostTable::build(&processor, &net, precision);
                    for cond in condition_grid(&processor, precision) {
                        let naive = network_latency_ms(&processor, &net, &cond);
                        let cached = table.latency_ms(&processor, &cond);
                        assert!(
                            (cached - naive).abs() <= 1e-9 * naive.max(1.0),
                            "{} {workload} {precision:?} {cond:?}: cached={cached} naive={naive}",
                            processor.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cached_evaluation_is_bitwise_deterministic() {
        let gpu = gpu();
        let net = Network::workload(Workload::ResNet50);
        let table = NetworkCostTable::build(&gpu, &net, Precision::Fp16);
        let rebuilt = NetworkCostTable::build(&gpu, &net, Precision::Fp16);
        for cond in condition_grid(&gpu, Precision::Fp16) {
            let a = table.latency_ms(&gpu, &cond);
            let b = rebuilt.latency_ms(&gpu, &cond);
            assert_eq!(a.to_bits(), b.to_bits(), "{cond:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cost table built for")]
    fn precision_mismatch_panics() {
        let cpu = cpu();
        let net = Network::workload(Workload::MobileNetV1);
        let table = NetworkCostTable::build(&cpu, &net, Precision::Fp32);
        let cond = ExecutionConditions::max_frequency(&cpu, Precision::Int8);
        let _ = table.latency_ms(&cpu, &cond);
    }
}
