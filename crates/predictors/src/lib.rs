//! Baseline predictive schedulers for the AutoScale reproduction.
//!
//! Section III-C of the paper compares AutoScale against the predictive
//! approaches "widely adopted by existing works in this domain":
//!
//! * **regression** — linear regression ([`LinearRegression`]) and support
//!   vector regression ([`SupportVectorRegression`]) that predict the
//!   energy and latency of each candidate execution target;
//! * **classification** — a support vector machine ([`SvmClassifier`]) and
//!   k-nearest-neighbour ([`KnnClassifier`]) that predict the optimal
//!   target directly;
//! * **Bayesian optimization** ([`BayesianOptimizer`]) — a Gaussian-process
//!   surrogate ([`GaussianProcess`]) with the expected-improvement
//!   acquisition function, "the objective set to find the execution target
//!   that maximizes energy efficiency while satisfying the QoS constraint".
//!
//! Section VI additionally compares against two prior-work schedulers that
//! offload at *layer* granularity: **NeuroSurgeon** \[53\] and **MOSAIC**
//! \[42\]; [`partition`] provides the layer-split cost model they share and
//! [`neurosurgeon`]/[`mosaic`] the respective split-selection policies.
//!
//! Everything here is self-contained, dependency-free numerical code: a
//! small dense linear-algebra kernel ([`linalg`]), feature standardization
//! ([`features`]), and the learners themselves.

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

pub mod bayesopt;
pub mod features;
pub mod gp;
pub mod knn;
pub mod linalg;
pub mod linreg;
pub mod mosaic;
pub mod neurosurgeon;
pub mod partition;
pub mod svm;
pub mod svr;

pub use bayesopt::BayesianOptimizer;
pub use features::StandardScaler;
pub use gp::GaussianProcess;
pub use knn::KnnClassifier;
pub use linreg::LinearRegression;
pub use mosaic::Mosaic;
pub use neurosurgeon::NeuroSurgeon;
pub use svm::SvmClassifier;
pub use svr::SupportVectorRegression;
