//! The nine execution environments of the paper's Table IV.
//!
//! | Id | Description                            |
//! |----|----------------------------------------|
//! | S1 | No runtime variance                    |
//! | S2 | CPU-intensive co-running app           |
//! | S3 | Memory-intensive co-running app        |
//! | S4 | Weak Wi-Fi signal                      |
//! | S5 | Weak Wi-Fi Direct signal               |
//! | D1 | Co-running app: music player           |
//! | D2 | Co-running app: web browser            |
//! | D3 | Random Wi-Fi signal (Gaussian)         |
//! | D4 | Varying co-running apps                |

use autoscale_net::SignalProcess;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::interference::InterferenceProcess;
use crate::snapshot::Snapshot;

/// Identifier of a Table IV environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)] // the variants are the Table IV ids themselves
pub enum EnvironmentId {
    S1,
    S2,
    S3,
    S4,
    S5,
    D1,
    D2,
    D3,
    D4,
}

impl EnvironmentId {
    /// The five static environments.
    pub const STATIC: [EnvironmentId; 5] = [
        EnvironmentId::S1,
        EnvironmentId::S2,
        EnvironmentId::S3,
        EnvironmentId::S4,
        EnvironmentId::S5,
    ];

    /// The four dynamic environments.
    pub const DYNAMIC: [EnvironmentId; 4] = [
        EnvironmentId::D1,
        EnvironmentId::D2,
        EnvironmentId::D3,
        EnvironmentId::D4,
    ];

    /// All nine environments in Table IV order.
    pub const ALL: [EnvironmentId; 9] = [
        EnvironmentId::S1,
        EnvironmentId::S2,
        EnvironmentId::S3,
        EnvironmentId::S4,
        EnvironmentId::S5,
        EnvironmentId::D1,
        EnvironmentId::D2,
        EnvironmentId::D3,
        EnvironmentId::D4,
    ];

    /// Whether this is one of the dynamic (time-varying) environments.
    pub fn is_dynamic(self) -> bool {
        matches!(
            self,
            EnvironmentId::D1 | EnvironmentId::D2 | EnvironmentId::D3 | EnvironmentId::D4
        )
    }

    /// The Table IV description.
    pub fn description(self) -> &'static str {
        match self {
            EnvironmentId::S1 => "No runtime variance",
            EnvironmentId::S2 => "CPU-intensive co-running app",
            EnvironmentId::S3 => "Memory-intensive co-running app",
            EnvironmentId::S4 => "Weak Wi-Fi signal",
            EnvironmentId::S5 => "Weak Wi-Fi Direct signal",
            EnvironmentId::D1 => "Co-running app: music player",
            EnvironmentId::D2 => "Co-running app: web browser",
            EnvironmentId::D3 => "Random Wi-Fi signal",
            EnvironmentId::D4 => "Varying co-running apps",
        }
    }
}

impl std::fmt::Display for EnvironmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// An execution environment: interference plus both signal processes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Environment {
    id: EnvironmentId,
    interference: InterferenceProcess,
    wlan: SignalProcess,
    p2p: SignalProcess,
    step: u64,
}

impl Environment {
    /// Builds the Table IV environment for an id.
    pub fn for_id(id: EnvironmentId) -> Self {
        let calm = Snapshot::calm();
        let (interference, wlan, p2p) = match id {
            EnvironmentId::S1 => (
                InterferenceProcess::None,
                SignalProcess::Fixed {
                    dbm: calm.wlan.dbm(),
                },
                SignalProcess::Fixed {
                    dbm: calm.p2p.dbm(),
                },
            ),
            EnvironmentId::S2 => (
                InterferenceProcess::cpu_intensive(),
                SignalProcess::Fixed {
                    dbm: calm.wlan.dbm(),
                },
                SignalProcess::Fixed {
                    dbm: calm.p2p.dbm(),
                },
            ),
            EnvironmentId::S3 => (
                InterferenceProcess::mem_intensive(),
                SignalProcess::Fixed {
                    dbm: calm.wlan.dbm(),
                },
                SignalProcess::Fixed {
                    dbm: calm.p2p.dbm(),
                },
            ),
            EnvironmentId::S4 => (
                InterferenceProcess::None,
                SignalProcess::weak(),
                SignalProcess::Fixed {
                    dbm: calm.p2p.dbm(),
                },
            ),
            EnvironmentId::S5 => (
                InterferenceProcess::None,
                SignalProcess::Fixed {
                    dbm: calm.wlan.dbm(),
                },
                SignalProcess::weak(),
            ),
            EnvironmentId::D1 => (
                InterferenceProcess::MusicPlayer,
                SignalProcess::Fixed {
                    dbm: calm.wlan.dbm(),
                },
                SignalProcess::Fixed {
                    dbm: calm.p2p.dbm(),
                },
            ),
            EnvironmentId::D2 => (
                InterferenceProcess::WebBrowser,
                SignalProcess::Fixed {
                    dbm: calm.wlan.dbm(),
                },
                SignalProcess::Fixed {
                    dbm: calm.p2p.dbm(),
                },
            ),
            EnvironmentId::D3 => (
                InterferenceProcess::None,
                SignalProcess::random_walkabout(),
                SignalProcess::Fixed {
                    dbm: calm.p2p.dbm(),
                },
            ),
            EnvironmentId::D4 => (
                InterferenceProcess::Alternating { period: 25 },
                SignalProcess::Fixed {
                    dbm: calm.wlan.dbm(),
                },
                SignalProcess::Fixed {
                    dbm: calm.p2p.dbm(),
                },
            ),
        };
        Environment {
            id,
            interference,
            wlan,
            p2p,
            step: 0,
        }
    }

    /// The environment's Table IV id.
    pub fn id(&self) -> EnvironmentId {
        self.id
    }

    /// Draws the runtime-variance snapshot for the next inference and
    /// advances the environment's internal step counter.
    ///
    /// The number of values drawn from `rng` is fixed per environment
    /// and step, one per uniform and two per Box–Muller normal: S1–S5
    /// draw none, D1 (music player) 4, D2 (web browser) 3, D3 (Gaussian
    /// Wi-Fi signal) 2, and D4 4 then 3 as it alternates between the
    /// two apps every 25 samples. The reference model
    /// (`tests/reference_model.rs`) checks these counts on every request
    /// it interprets.
    pub fn sample(&mut self, rng: &mut StdRng) -> Snapshot {
        let (co_cpu, co_mem) = self.interference.sample(self.step, rng);
        let wlan = self.wlan.sample(rng);
        let p2p = self.p2p.sample(rng);
        self.step += 1;
        Snapshot::new(co_cpu, co_mem, wlan, p2p)
    }

    /// Number of snapshots drawn so far.
    pub fn step(&self) -> u64 {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn s1_is_fully_calm() {
        let mut env = Environment::for_id(EnvironmentId::S1);
        let s = env.sample(&mut rng());
        assert_eq!(s.co_cpu, 0.0);
        assert_eq!(s.co_mem, 0.0);
        assert!(!s.wlan.is_weak());
        assert!(!s.p2p.is_weak());
    }

    #[test]
    fn s2_loads_the_cpu() {
        let mut env = Environment::for_id(EnvironmentId::S2);
        let s = env.sample(&mut rng());
        assert!(s.co_cpu > 0.75);
    }

    #[test]
    fn s4_weakens_only_the_wlan() {
        let mut env = Environment::for_id(EnvironmentId::S4);
        let s = env.sample(&mut rng());
        assert!(s.wlan.is_weak());
        assert!(!s.p2p.is_weak());
    }

    #[test]
    fn s5_weakens_only_the_p2p_link() {
        let mut env = Environment::for_id(EnvironmentId::S5);
        let s = env.sample(&mut rng());
        assert!(!s.wlan.is_weak());
        assert!(s.p2p.is_weak());
    }

    #[test]
    fn d3_signal_varies_between_samples() {
        let mut env = Environment::for_id(EnvironmentId::D3);
        let mut r = rng();
        let samples: Vec<f64> = (0..50).map(|_| env.sample(&mut r).wlan.dbm()).collect();
        let distinct = samples
            .iter()
            .filter(|&&v| (v - samples[0]).abs() > 0.1)
            .count();
        assert!(distinct > 10);
    }

    #[test]
    fn static_and_dynamic_partitions_cover_all() {
        assert_eq!(
            EnvironmentId::STATIC.len() + EnvironmentId::DYNAMIC.len(),
            EnvironmentId::ALL.len()
        );
        for id in EnvironmentId::STATIC {
            assert!(!id.is_dynamic());
        }
        for id in EnvironmentId::DYNAMIC {
            assert!(id.is_dynamic());
        }
    }

    #[test]
    fn step_counter_advances() {
        let mut env = Environment::for_id(EnvironmentId::D4);
        let mut r = rng();
        for _ in 0..5 {
            env.sample(&mut r);
        }
        assert_eq!(env.step(), 5);
    }

    #[test]
    fn descriptions_are_table_iv() {
        assert_eq!(
            EnvironmentId::S2.description(),
            "CPU-intensive co-running app"
        );
        assert_eq!(EnvironmentId::D3.description(), "Random Wi-Fi signal");
    }
}
