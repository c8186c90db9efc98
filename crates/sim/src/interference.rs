//! Co-running application generators.
//!
//! The paper's interference sources (Sections III-B and V-B): synthetic
//! CPU- and memory-intensive loads for the static environments, and two
//! real applications — a music player and a web browser driven by an
//! automatic input generator — for the dynamic ones. Here each source is a
//! stochastic process sampled once per inference: it yields the
//! co-runner's CPU utilization and memory usage, the two quantities the
//! kernel exposes through procfs on the real system.

use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// A generator of co-runner (CPU utilization, memory usage) pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum InterferenceProcess {
    /// No co-running application.
    #[default]
    None,
    /// A synthetic co-runner with fixed CPU and memory pressure (the
    /// paper's S2/S3 environments use "co-running apps with constant CPU
    /// and memory usages").
    Constant {
        /// CPU utilization in [0, 1].
        cpu: f64,
        /// Memory usage in [0, 1].
        mem: f64,
    },
    /// A background music player: light, steady CPU with small jitter
    /// (environment D1).
    MusicPlayer,
    /// A web browser replaying generated user input: bursty CPU with
    /// moderate memory pressure (environment D2).
    WebBrowser,
    /// Alternates between the music player and the web browser every
    /// `period` inferences (environment D4, "varying co-running apps from
    /// the music player to the web browser").
    Alternating {
        /// Number of inferences before switching apps.
        period: u64,
    },
}

impl InterferenceProcess {
    /// The paper's synthetic CPU-intensive co-runner (S2).
    pub fn cpu_intensive() -> Self {
        InterferenceProcess::Constant {
            cpu: 0.85,
            mem: 0.10,
        }
    }

    /// The paper's synthetic memory-intensive co-runner (S3).
    pub fn mem_intensive() -> Self {
        InterferenceProcess::Constant {
            cpu: 0.20,
            mem: 0.80,
        }
    }

    /// Samples the co-runner state for inference number `step`.
    ///
    /// Returns `(cpu_utilization, memory_usage)`, both clamped to [0, 1].
    pub fn sample(&self, step: u64, rng: &mut StdRng) -> (f64, f64) {
        let (cpu, mem) = match self {
            InterferenceProcess::None => (0.0, 0.0),
            InterferenceProcess::Constant { cpu, mem } => (*cpu, *mem),
            InterferenceProcess::MusicPlayer => {
                #[expect(
                    clippy::expect_used,
                    reason = "literal (mean, std) pairs are valid Normal parameters"
                )]
                let cpu = Normal::new(0.15, 0.05).expect("valid normal").sample(rng);
                #[expect(
                    clippy::expect_used,
                    reason = "literal (mean, std) pairs are valid Normal parameters"
                )]
                let mem = Normal::new(0.10, 0.03).expect("valid normal").sample(rng);
                (cpu, mem)
            }
            InterferenceProcess::WebBrowser => {
                // Page loads are bursts; idle reading is light.
                let bursting = rng.gen::<f64>() < 0.35;
                let cpu = if bursting {
                    rng.gen_range(0.60..0.95)
                } else {
                    rng.gen_range(0.10..0.40)
                };
                let mem = rng.gen_range(0.25..0.55);
                (cpu, mem)
            }
            InterferenceProcess::Alternating { period } => {
                let period = (*period).max(1);
                let phase = (step / period) % 2;
                let inner = if phase == 0 {
                    InterferenceProcess::MusicPlayer
                } else {
                    InterferenceProcess::WebBrowser
                };
                return inner.sample(step, rng);
            }
        };
        (cpu.clamp(0.0, 1.0), mem.clamp(0.0, 1.0))
    }

    /// Whether successive samples can differ.
    pub fn is_stochastic(&self) -> bool {
        !matches!(
            self,
            InterferenceProcess::None | InterferenceProcess::Constant { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn none_is_silent() {
        let mut r = rng();
        assert_eq!(InterferenceProcess::None.sample(0, &mut r), (0.0, 0.0));
        assert!(!InterferenceProcess::None.is_stochastic());
    }

    #[test]
    fn constant_is_constant() {
        let p = InterferenceProcess::cpu_intensive();
        let mut r = rng();
        assert_eq!(p.sample(0, &mut r), p.sample(99, &mut r));
    }

    #[test]
    fn cpu_intensive_presses_cpu_not_memory() {
        let (cpu, mem) = InterferenceProcess::cpu_intensive().sample(0, &mut rng());
        assert!(cpu > 0.75);
        assert!(mem < 0.25);
    }

    #[test]
    fn mem_intensive_presses_memory() {
        let (cpu, mem) = InterferenceProcess::mem_intensive().sample(0, &mut rng());
        assert!(mem > 0.7);
        assert!(cpu < 0.3);
    }

    #[test]
    fn music_player_is_light() {
        let p = InterferenceProcess::MusicPlayer;
        let mut r = rng();
        let mean_cpu: f64 = (0..500).map(|i| p.sample(i, &mut r).0).sum::<f64>() / 500.0;
        assert!((mean_cpu - 0.15).abs() < 0.03, "mean_cpu={mean_cpu}");
    }

    #[test]
    fn web_browser_bursts() {
        let p = InterferenceProcess::WebBrowser;
        let mut r = rng();
        let samples: Vec<f64> = (0..500).map(|i| p.sample(i, &mut r).0).collect();
        let heavy = samples.iter().filter(|&&c| c > 0.6).count() as f64 / 500.0;
        assert!(heavy > 0.2 && heavy < 0.5, "burst fraction {heavy}");
    }

    #[test]
    fn alternating_switches_phase_by_step() {
        let p = InterferenceProcess::Alternating { period: 25 };
        let mut r = rng();
        // Average CPU in the first phase (music) is far below the second
        // phase (browser).
        let phase0: f64 = (0..25).map(|i| p.sample(i, &mut r).0).sum::<f64>() / 25.0;
        let phase1: f64 = (25..50).map(|i| p.sample(i, &mut r).0).sum::<f64>() / 25.0;
        assert!(phase1 > phase0 + 0.1, "phase0={phase0} phase1={phase1}");
    }

    #[test]
    fn samples_stay_in_unit_interval() {
        let mut r = rng();
        for p in [
            InterferenceProcess::MusicPlayer,
            InterferenceProcess::WebBrowser,
            InterferenceProcess::Alternating { period: 10 },
        ] {
            for i in 0..300 {
                let (c, m) = p.sample(i, &mut r);
                assert!((0.0..=1.0).contains(&c));
                assert!((0.0..=1.0).contains(&m));
            }
        }
    }

    #[test]
    fn zero_period_alternation_does_not_panic() {
        let p = InterferenceProcess::Alternating { period: 0 };
        let _ = p.sample(5, &mut rng());
    }
}
