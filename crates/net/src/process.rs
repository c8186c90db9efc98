//! Stochastic signal-strength processes.
//!
//! Section V-B of the paper: "since the signal strength variance is
//! typically modeled by a Gaussian distribution \[19\], we emulate the random
//! signal strength with a Gaussian distribution". A process is stepped once
//! per inference; the fixed variant reproduces the static environments
//! (S1/S4/S5 of Table IV) and the Gaussian variant the dynamic D3.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::rssi::Rssi;

/// A source of per-inference signal-strength samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SignalProcess {
    /// Constant signal strength (static environments).
    Fixed {
        /// The constant level in dBm.
        dbm: f64,
    },
    /// Gaussian-distributed signal strength, sampled independently per
    /// inference (dynamic environment D3).
    Gaussian {
        /// Mean level in dBm.
        mean_dbm: f64,
        /// Standard deviation in dB.
        std_db: f64,
    },
}

impl SignalProcess {
    /// A constant strong signal.
    pub fn strong() -> Self {
        SignalProcess::Fixed {
            dbm: Rssi::STRONG.dbm(),
        }
    }

    /// A constant weak signal (past the −80 dBm threshold).
    pub fn weak() -> Self {
        SignalProcess::Fixed {
            dbm: Rssi::WEAK.dbm(),
        }
    }

    /// The paper's D3 environment: random Wi-Fi signal, Gaussian around a
    /// mid-range mean so both regular and weak buckets occur.
    pub fn random_walkabout() -> Self {
        SignalProcess::Gaussian {
            mean_dbm: -72.0,
            std_db: 9.0,
        }
    }

    /// Draws the signal strength for the next inference.
    pub fn sample(&self, rng: &mut StdRng) -> Rssi {
        match *self {
            SignalProcess::Fixed { dbm } => Rssi::new(dbm),
            SignalProcess::Gaussian { mean_dbm, std_db } => {
                #[expect(
                    clippy::expect_used,
                    reason = "the environment tables only use finite, non-negative std_db"
                )]
                let normal = Normal::new(mean_dbm, std_db)
                    .expect("standard deviation is finite and non-negative");
                Rssi::new(normal.sample(rng))
            }
        }
    }

    /// Convenience: a seeded RNG suitable for driving processes
    /// deterministically in tests and experiments.
    pub fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The long-run mean level of the process in dBm.
    pub fn mean_dbm(&self) -> f64 {
        match *self {
            SignalProcess::Fixed { dbm } => Rssi::new(dbm).dbm(),
            SignalProcess::Gaussian { mean_dbm, .. } => mean_dbm,
        }
    }

    /// Whether the process ever varies between samples.
    pub fn is_stochastic(&self) -> bool {
        match self {
            SignalProcess::Fixed { .. } => false,
            SignalProcess::Gaussian { std_db, .. } => *std_db > 0.0,
        }
    }
}

/// Samples a uniformly random RSSI in a range — used by characterization
/// sweeps that need coverage rather than realism.
pub fn uniform_rssi(rng: &mut StdRng, low_dbm: f64, high_dbm: f64) -> Rssi {
    Rssi::new(rng.gen_range(low_dbm..=high_dbm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_process_is_constant() {
        let p = SignalProcess::strong();
        let mut rng = SignalProcess::rng(1);
        let a = p.sample(&mut rng);
        let b = p.sample(&mut rng);
        assert_eq!(a, b);
        assert!(!p.is_stochastic());
    }

    #[test]
    fn gaussian_process_varies_and_respects_mean() {
        let p = SignalProcess::random_walkabout();
        let mut rng = SignalProcess::rng(42);
        let samples: Vec<f64> = (0..2_000).map(|_| p.sample(&mut rng).dbm()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - p.mean_dbm()).abs() < 1.0, "mean={mean}");
        assert!(p.is_stochastic());
        // Both buckets must occur for the D3 environment to be interesting.
        assert!(samples.iter().any(|&s| s > -80.0));
        assert!(samples.iter().any(|&s| s <= -80.0));
    }

    #[test]
    fn gaussian_samples_are_clamped() {
        let p = SignalProcess::Gaussian {
            mean_dbm: -92.0,
            std_db: 20.0,
        };
        let mut rng = SignalProcess::rng(7);
        for _ in 0..500 {
            let s = p.sample(&mut rng).dbm();
            assert!((-95.0..=-30.0).contains(&s));
        }
    }

    #[test]
    fn same_seed_reproduces_sequence() {
        let p = SignalProcess::random_walkabout();
        let seq = |seed| {
            let mut rng = SignalProcess::rng(seed);
            (0..10)
                .map(|_| p.sample(&mut rng).dbm())
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(5), seq(5));
        assert_ne!(seq(5), seq(6));
    }

    #[test]
    fn uniform_rssi_stays_in_range() {
        let mut rng = SignalProcess::rng(3);
        for _ in 0..200 {
            let r = uniform_rssi(&mut rng, -90.0, -50.0);
            assert!((-90.0..=-50.0).contains(&r.dbm()));
        }
    }
}
