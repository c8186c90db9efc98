//! Wireless network models for the AutoScale reproduction.
//!
//! Offloading an inference to the cloud (over a wireless LAN) or to a
//! locally connected edge device (over a Wi-Fi Direct peer-to-peer link)
//! costs transmission latency and energy that depend strongly on signal
//! strength: "the data transmission latency and energy increase
//! exponentially at weak signal strength" (paper Section I, citing \[19\]
//! and \[61\]), and 43% of real-world data is transmitted under weak signal.
//!
//! This crate models:
//!
//! * [`Rssi`] — received signal strength with the paper's Table I
//!   regular/weak bucketing at −80 dBm;
//! * [`LinkModel`] — an RSSI→data-rate curve (exponential fall-off), the
//!   RSSI-dependent transmit/receive powers of the paper's eq. (4), and a
//!   fixed round-trip time;
//! * [`Transfer`] — the latency/energy cost of moving a payload;
//! * [`FailedTransfer`] — the cost of an offload attempt that *fails*
//!   (link dropout or stalled transfer), which resilience policies
//!   charge back to the request;
//! * [`SignalProcess`] — fixed or Gaussian-varying signal strength (the
//!   paper emulates random signal with a Gaussian distribution, Section
//!   V-B).
//!
//! Latencies are in **milliseconds**, energies in **millijoules**, powers
//! in **watts**.

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

pub mod link;
pub mod outage;
pub mod process;
pub mod rssi;
pub mod transfer;

pub use link::{LinkKind, LinkModel};
pub use outage::{FailedTransfer, OutageKind};
pub use process::SignalProcess;
pub use rssi::{Rssi, SignalBucket};
pub use transfer::Transfer;
