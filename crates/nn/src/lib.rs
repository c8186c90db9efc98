//! Neural-network workload models for the AutoScale reproduction.
//!
//! AutoScale ("AutoScale: Energy Efficiency Optimization for Stochastic Edge
//! Inference Using Reinforcement Learning", MICRO 2020) schedules *whole-model*
//! DNN inference onto one of several execution targets. The scheduler never
//! inspects weights or activations — it only needs each network's *shape*:
//!
//! * the layer composition (how many CONV / FC / RC layers, Table III of the
//!   paper), which drives the `S_CONV`, `S_FC` and `S_RC` state features;
//! * the total number of multiply-accumulate operations (the `S_MAC` feature);
//! * per-layer compute and memory costs, which the platform crate turns into
//!   latency and energy on a concrete processor;
//! * the input/output payload sizes, which the network crate turns into
//!   transmission latency and energy when the model is offloaded;
//! * the pre-measured inference accuracy at each numeric precision
//!   (`R_accuracy` in the paper's reward).
//!
//! This crate provides exactly that: a compact layer-graph representation
//! ([`Network`], [`Layer`], [`LayerKind`]), the quantization axis
//! ([`Precision`]), the ten benchmark networks of the paper's Table III
//! ([`Workload`] and [`Network::workload`]), and the per-precision accuracy
//! table ([`accuracy::accuracy_for`]).
//!
//! # Example
//!
//! ```
//! use autoscale_nn::{Network, Workload, LayerKind, Precision};
//!
//! let net = Network::workload(Workload::MobileNetV3);
//! // Table III of the paper: MobileNet v3 has 23 CONV and 20 FC layers.
//! assert_eq!(net.count(LayerKind::Conv), 23);
//! assert_eq!(net.count(LayerKind::Fc), 20);
//! // Quantizing shrinks the memory footprint.
//! assert!(net.weight_bytes(Precision::Int8) < net.weight_bytes(Precision::Fp32));
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

pub mod accuracy;
pub mod layer;
pub mod network;
pub mod precision;
pub mod workloads;

pub use accuracy::{accuracy_for, AccuracyTable};
pub use layer::{Layer, LayerKind};
pub use network::{Network, Task};
pub use precision::Precision;
pub use workloads::Workload;
