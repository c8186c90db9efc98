//! Device and processor models for the AutoScale reproduction.
//!
//! The paper evaluates AutoScale on real hardware: three smartphones
//! (Xiaomi Mi8Pro, Samsung Galaxy S10e, Motorola Moto X Force — Table II),
//! a Samsung Galaxy Tab S6 reachable over Wi-Fi Direct, and a cloud server
//! (Intel Xeon E5-2640 + NVIDIA P100). This crate replaces that hardware
//! with calibrated analytical models:
//!
//! * [`Processor`] — a CPU, GPU or DSP with an effective-throughput /
//!   memory-bandwidth roofline, a per-layer dispatch overhead, a DVFS ladder
//!   ([`dvfs`]), busy/idle power, and per-layer-kind efficiency factors
//!   (what makes FC/RC layers slow on co-processors, paper Fig. 3);
//! * [`power`] — the utilization-based CPU/GPU power models (paper eqs. (1)
//!   and (2)) and the constant-power DSP model (eq. (3));
//! * [`latency`] — per-layer and whole-network latency under execution
//!   conditions (frequency, precision, interference, thermal cap);
//! * [`cost`] — memoized network latency: condition-independent roofline
//!   terms precomputed once per (processor, network) so sweeps evaluate
//!   each condition in O(log L) instead of O(L);
//! * [`thermal`] — the thermal-throttling behaviour triggered by sustained
//!   CPU contention (paper Section III-B / \[59\]);
//! * [`device`] — the five-device catalog reproducing Table II.
//!
//! Latencies are in **milliseconds**, energies in **millijoules**, powers in
//! **watts**, and frequencies in **GHz** throughout.
//!
//! # Example
//!
//! ```
//! use autoscale_nn::{Network, Precision, Workload};
//! use autoscale_platform::{latency, Device, ExecutionConditions, ProcessorKind};
//!
//! let phone = Device::mi8pro();
//! let cpu = phone.processor(ProcessorKind::Cpu).unwrap();
//! let net = Network::workload(Workload::MobileNetV3);
//! let cond = ExecutionConditions::max_frequency(cpu, Precision::Fp32);
//! let ms = latency::network_latency_ms(cpu, &net, &cond);
//! assert!(ms > 1.0 && ms < 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro
    )
)]

pub mod cost;
pub mod device;
pub mod dvfs;
pub mod latency;
pub mod power;
pub mod processor;
pub mod thermal;

pub use cost::NetworkCostTable;
pub use device::{Device, DeviceClass, DeviceId};
pub use dvfs::{DvfsLadder, FreqStep};
pub use latency::{layer_breakdown, network_latency_ms, ExecutionConditions, KindLatency};
pub use processor::{KindEfficiency, Processor, ProcessorConfig, ProcessorKind};
pub use thermal::{ThermalHysteresis, ThermalPolicy, ThermalTracker};
