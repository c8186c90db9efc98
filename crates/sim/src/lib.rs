//! The edge-cloud execution simulator for the AutoScale reproduction.
//!
//! This crate stands in for the paper's physical testbed (three phones, a
//! Wi-Fi-Direct-connected tablet, a Xeon+P100 server, and a Monsoon power
//! meter). It composes the platform, network and workload models into an
//! end-to-end answer to the only question the scheduler ever asks:
//!
//! > *If this inference runs **there**, at **that** frequency and
//! > precision, under the **current** runtime variance — what latency,
//! > energy and accuracy come back?*
//!
//! * [`Placement`] / [`Request`] — a fully specified execution decision
//!   (where, at which DVFS step, at which precision);
//! * [`Snapshot`] — the runtime variance visible at inference start
//!   (co-runner CPU/memory pressure, WLAN and P2P signal strength);
//! * [`InterferenceProcess`] — co-running app generators, from static
//!   synthetic loads to the paper's music-player / web-browser traces;
//! * [`Environment`] — the nine Table IV execution environments S1–S5 and
//!   D1–D4;
//! * [`Scenario`] — the QoS targets (50 ms non-streaming, 33.3 ms
//!   streaming, 100 ms translation);
//! * [`Simulator`] — executes a [`Request`] and returns an [`Outcome`],
//!   either as the model's expectation or with measurement noise;
//! * [`FaultProfile`] / [`FaultInjector`] — seeded, deterministic fault
//!   injection (link dropouts, disconnection windows, transfer timeouts,
//!   stragglers, thermal bursts) with a [`ResiliencePolicy`] describing
//!   retry/backoff/fallback behaviour on failed offloads;
//! * [`ArrivalProcess`] / [`ChurnConfig`] — seeded open-loop traffic:
//!   Poisson/bursty/diurnal request-arrival schedules and session
//!   join/leave windows, each a pure function of `(process, seed, index)`
//!   for the discrete-event serving core;
//! * [`Trace`] — a serializable, replayable log of executed inferences.
//!
//! # Example
//!
//! ```
//! use autoscale_nn::{Precision, Workload};
//! use autoscale_platform::{DeviceId, ProcessorKind};
//! use autoscale_sim::{Placement, Request, Simulator, Snapshot};
//!
//! let sim = Simulator::new(DeviceId::Mi8Pro);
//! let request = Request::at_max_frequency(
//!     &sim,
//!     Placement::OnDevice(ProcessorKind::Cpu),
//!     Precision::Fp32,
//! );
//! let outcome = sim
//!     .execute_expected(Workload::MobileNetV3, &request, &Snapshot::calm())
//!     .expect("CPU FP32 always runs");
//! assert!(outcome.latency_ms > 0.0);
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

pub mod arrivals;
pub mod environment;
pub mod executor;
pub mod faults;
pub mod interference;
pub mod request;
pub mod scenario;
pub mod snapshot;
pub mod trace;

pub use arrivals::{
    Arrival, ArrivalKind, ArrivalProcess, ArrivalSampler, ChurnConfig, ChurnWindow,
    ARRIVAL_DRAWS_PER_EVENT, CHURN_DRAWS_PER_SESSION,
};
pub use environment::{Environment, EnvironmentId};
pub use executor::{ExecutionError, Outcome, PreparedExecutor, ResilientOutcome, Simulator};
pub use faults::{FaultInjector, FaultProfile, LinkFaults, RequestFaults, ResiliencePolicy};
pub use interference::InterferenceProcess;
pub use request::{Placement, Request};
pub use scenario::Scenario;
pub use snapshot::Snapshot;
pub use trace::{Trace, TraceEntry, TraceSummary};
