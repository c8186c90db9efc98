//! The RL state: the paper's Table I features and their discretization.
//!
//! | Feature    | Description                          | Buckets |
//! |------------|--------------------------------------|---------|
//! | `S_CONV`   | # of CONV layers                     | small (<30), medium (<50), large (<90), larger (≥90) |
//! | `S_FC`     | # of FC layers                       | small (<10), large (≥10) |
//! | `S_RC`     | # of RC layers                       | small (<10), large (≥10) |
//! | `S_MAC`    | # of MAC operations                  | small (<1,000M), medium (<2,000M), large (≥2,000M) |
//! | `S_Co_CPU` | CPU utilization of co-running apps   | none (0%), small (<25%), medium (<75%), large (≤100%) |
//! | `S_Co_MEM` | memory usage of co-running apps      | none (0%), small (<25%), medium (<75%), large (≤100%) |
//! | `S_RSSI_W` | RSSI of the wireless LAN             | regular (>−80 dBm), weak (≤−80 dBm) |
//! | `S_RSSI_P` | RSSI of the peer-to-peer network     | regular (>−80 dBm), weak (≤−80 dBm) |
//!
//! The product of bucket counts is 4·2·2·3·4·4·2·2 = **3,072 states**,
//! matching the design-space size the paper reports in Section V
//! (footnote 8). The bucket boundaries were derived with DBSCAN over
//! characterization samples (Section IV-A); [`StateSpace::from_dbscan`]
//! reruns that derivation, while [`StateSpace::paper`] ships the published
//! boundaries.

use autoscale_nn::{LayerKind, Network};
use autoscale_rl::{Dbscan, Discretizer};
use autoscale_sim::Snapshot;
use serde::{Deserialize, Serialize};

/// A fully discretized state: one bucket index per Table I feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct State {
    /// `S_CONV` bucket (0–3).
    pub conv: usize,
    /// `S_FC` bucket (0–1).
    pub fc: usize,
    /// `S_RC` bucket (0–1).
    pub rc: usize,
    /// `S_MAC` bucket (0–2).
    pub mac: usize,
    /// `S_Co_CPU` bucket (0–3).
    pub co_cpu: usize,
    /// `S_Co_MEM` bucket (0–3).
    pub co_mem: usize,
    /// `S_RSSI_W` bucket (0–1).
    pub rssi_wlan: usize,
    /// `S_RSSI_P` bucket (0–1).
    pub rssi_p2p: usize,
}

/// The discretization of every Table I feature, and the dense encoding of
/// the resulting product space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateSpace {
    conv: Discretizer,
    fc: Discretizer,
    rc: Discretizer,
    mac: Discretizer,
    utilization: Discretizer,
}

impl StateSpace {
    /// The paper's published Table I buckets.
    pub fn paper() -> Self {
        StateSpace {
            conv: Discretizer::new(vec![30.0, 50.0, 90.0]),
            fc: Discretizer::new(vec![10.0]),
            rc: Discretizer::new(vec![10.0]),
            // MAC counts in units of millions.
            mac: Discretizer::new(vec![1_000.0, 2_000.0]),
            // Utilization in percent: none (exactly 0 handled separately),
            // small (<25), medium (<75), large. The first boundary sits
            // just above zero so the "none" bucket is 0% only.
            utilization: Discretizer::new(vec![1e-6, 25.0, 75.0]),
        }
    }

    /// Re-derives the NN-feature buckets by DBSCAN over characterization
    /// samples, as the paper did (Section IV-A). `conv_counts`,
    /// `fc_counts`, `rc_counts` and `mac_millions` are the observed values
    /// of each feature across the profiled workloads; the runtime-variance
    /// buckets keep the paper's utilization thresholds.
    pub fn from_dbscan(
        conv_counts: &[f64],
        fc_counts: &[f64],
        rc_counts: &[f64],
        mac_millions: &[f64],
    ) -> Self {
        StateSpace {
            conv: Dbscan::new(10.0, 1).discretizer(conv_counts),
            fc: Dbscan::new(5.0, 1).discretizer(fc_counts),
            rc: Dbscan::new(5.0, 1).discretizer(rc_counts),
            mac: Dbscan::new(1_000.0, 1).discretizer(mac_millions),
            utilization: Discretizer::new(vec![1e-6, 25.0, 75.0]),
        }
    }

    /// Number of distinct encoded states (3,072 for the paper's buckets).
    pub fn len(&self) -> usize {
        self.conv.buckets()
            * self.fc.buckets()
            * self.rc.buckets()
            * self.mac.buckets()
            * self.utilization.buckets()
            * self.utilization.buckets()
            * 2
            * 2
    }

    /// Whether the space is empty (never true).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observes the state of one inference: the network's Table I features
    /// plus the runtime-variance snapshot.
    pub fn observe(&self, network: &Network, snapshot: &Snapshot) -> State {
        State {
            conv: self.conv.bucket(network.count(LayerKind::Conv) as f64),
            fc: self.fc.bucket(network.count(LayerKind::Fc) as f64),
            rc: self.rc.bucket(network.count(LayerKind::Rc) as f64),
            mac: self.mac.bucket(network.total_macs() as f64 / 1e6),
            co_cpu: self.utilization.bucket(snapshot.co_cpu * 100.0),
            co_mem: self.utilization.bucket(snapshot.co_mem * 100.0),
            rssi_wlan: snapshot.wlan.bucket().index(),
            rssi_p2p: snapshot.p2p.bucket().index(),
        }
    }

    /// Encodes a state as a dense index in `0..self.len()`.
    pub fn encode(&self, state: &State) -> usize {
        let mut index = 0usize;
        let dims = [
            (state.conv, self.conv.buckets()),
            (state.fc, self.fc.buckets()),
            (state.rc, self.rc.buckets()),
            (state.mac, self.mac.buckets()),
            (state.co_cpu, self.utilization.buckets()),
            (state.co_mem, self.utilization.buckets()),
            (state.rssi_wlan, 2),
            (state.rssi_p2p, 2),
        ];
        for (bucket, buckets) in dims {
            debug_assert!(bucket < buckets, "bucket out of range");
            index = index * buckets + bucket;
        }
        index
    }

    /// Observes and encodes in one step.
    pub fn encode_observation(&self, network: &Network, snapshot: &Snapshot) -> usize {
        self.encode(&self.observe(network, snapshot))
    }

    /// Number of runtime-variance states per network: the product of the
    /// snapshot-derived bucket counts (co-CPU × co-mem × RSSI × RSSI).
    fn runtime_states(&self) -> usize {
        self.utilization.buckets() * self.utilization.buckets() * 2 * 2
    }

    /// The encoded index of a network's first state — the constant part
    /// of [`StateSpace::encode_observation`] for a fixed workload.
    ///
    /// [`StateSpace::encode`] folds the network features (conv, fc, rc,
    /// mac) before any snapshot feature, so every state of one network
    /// occupies the contiguous block `network_base(n) + runtime_index(s)`.
    /// The serving hot path computes the base once per session and spends
    /// only [`StateSpace::runtime_index`] per decision, instead of
    /// re-counting the network's layers on every encode.
    pub fn network_base(&self, network: &Network) -> usize {
        let conv = self.conv.bucket(network.count(LayerKind::Conv) as f64);
        let fc = self.fc.bucket(network.count(LayerKind::Fc) as f64);
        let rc = self.rc.bucket(network.count(LayerKind::Rc) as f64);
        let mac = self.mac.bucket(network.total_macs() as f64 / 1e6);
        let mut index = conv;
        index = index * self.fc.buckets() + fc;
        index = index * self.rc.buckets() + rc;
        index = index * self.mac.buckets() + mac;
        index * self.runtime_states()
    }

    /// The snapshot-dependent offset within one network's state block.
    /// `network_base(n) + runtime_index(s) == encode_observation(n, s)`,
    /// an identity pinned by a unit test.
    pub fn runtime_index(&self, snapshot: &Snapshot) -> usize {
        let co_cpu = self.utilization.bucket(snapshot.co_cpu * 100.0);
        let co_mem = self.utilization.bucket(snapshot.co_mem * 100.0);
        let mut index = co_cpu;
        index = index * self.utilization.buckets() + co_mem;
        index = index * 2 + snapshot.wlan.bucket().index();
        index * 2 + snapshot.p2p.bucket().index()
    }
}

impl Default for StateSpace {
    fn default() -> Self {
        StateSpace::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoscale_net::Rssi;
    use autoscale_nn::Workload;

    #[test]
    fn paper_space_has_3072_states() {
        assert_eq!(StateSpace::paper().len(), 3_072);
    }

    #[test]
    fn table_i_workload_bucketing() {
        let space = StateSpace::paper();
        let calm = Snapshot::calm();
        // Inception v3: 94 CONV → "larger" (bucket 3); 5.7G MACs → large.
        let s = space.observe(&Network::workload(Workload::InceptionV3), &calm);
        assert_eq!(s.conv, 3);
        assert_eq!(s.mac, 2);
        // MobileNet v3: 23 CONV → small (0); 20 FC → large (1); 219M → small.
        let s = space.observe(&Network::workload(Workload::MobileNetV3), &calm);
        assert_eq!(s.conv, 0);
        assert_eq!(s.fc, 1);
        assert_eq!(s.mac, 0);
        // Inception v1: 49 CONV → medium (1); 1.43G → medium (1).
        let s = space.observe(&Network::workload(Workload::InceptionV1), &calm);
        assert_eq!(s.conv, 1);
        assert_eq!(s.mac, 1);
        // MobileBERT: 24 RC → large (1).
        let s = space.observe(&Network::workload(Workload::MobileBert), &calm);
        assert_eq!(s.rc, 1);
    }

    #[test]
    fn utilization_buckets_match_table_i() {
        let space = StateSpace::paper();
        let net = Network::workload(Workload::MobileNetV1);
        let strong = Snapshot::calm();
        let bucket = |cpu: f64| {
            space
                .observe(&net, &Snapshot::new(cpu, 0.0, strong.wlan, strong.p2p))
                .co_cpu
        };
        assert_eq!(bucket(0.0), 0); // none
        assert_eq!(bucket(0.10), 1); // small
        assert_eq!(bucket(0.50), 2); // medium
        assert_eq!(bucket(0.90), 3); // large
    }

    #[test]
    fn rssi_buckets_follow_the_threshold() {
        let space = StateSpace::paper();
        let net = Network::workload(Workload::MobileNetV1);
        let weak_wlan = Snapshot::new(0.0, 0.0, Rssi::WEAK, Rssi::STRONG);
        let s = space.observe(&net, &weak_wlan);
        assert_eq!(s.rssi_wlan, 1);
        assert_eq!(s.rssi_p2p, 0);
    }

    #[test]
    fn encoding_is_a_bijection_over_reachable_states() {
        let space = StateSpace::paper();
        let mut seen = std::collections::HashSet::new();
        for conv in 0..4 {
            for fc in 0..2 {
                for rc in 0..2 {
                    for mac in 0..3 {
                        for co_cpu in 0..4 {
                            for co_mem in 0..4 {
                                for w in 0..2 {
                                    for p in 0..2 {
                                        let state = State {
                                            conv,
                                            fc,
                                            rc,
                                            mac,
                                            co_cpu,
                                            co_mem,
                                            rssi_wlan: w,
                                            rssi_p2p: p,
                                        };
                                        let idx = space.encode(&state);
                                        assert!(idx < space.len());
                                        assert!(seen.insert(idx), "collision at {state:?}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), 3_072);
    }

    #[test]
    fn dbscan_derivation_recovers_table_i_scale() {
        let conv: Vec<f64> = Workload::ALL
            .iter()
            .map(|&w| Network::workload(w).count(LayerKind::Conv) as f64)
            .collect();
        let fc: Vec<f64> = Workload::ALL
            .iter()
            .map(|&w| Network::workload(w).count(LayerKind::Fc) as f64)
            .collect();
        let rc: Vec<f64> = Workload::ALL
            .iter()
            .map(|&w| Network::workload(w).count(LayerKind::Rc) as f64)
            .collect();
        let mac: Vec<f64> = Workload::ALL
            .iter()
            .map(|&w| Network::workload(w).total_macs() as f64 / 1e6)
            .collect();
        let space = StateSpace::from_dbscan(&conv, &fc, &rc, &mac);
        // DBSCAN finds the same bucket *counts* the paper publishes for
        // the NN features.
        assert_eq!(space.conv.buckets(), 4);
        assert_eq!(space.fc.buckets(), 2);
        assert_eq!(space.rc.buckets(), 2);
        assert_eq!(space.mac.buckets(), 3);
        assert_eq!(space.len(), 3_072);
    }

    #[test]
    fn factored_encoding_matches_encode_observation() {
        // The hot path's base + offset split must be the identity the
        // doc promises, for every workload and a spread of snapshots.
        let space = StateSpace::paper();
        let snapshots = [
            Snapshot::calm(),
            Snapshot::new(0.1, 0.5, Rssi::WEAK, Rssi::STRONG),
            Snapshot::new(0.9, 0.0, Rssi::STRONG, Rssi::WEAK),
            Snapshot::new(1.0, 1.0, Rssi::WEAK, Rssi::WEAK),
        ];
        for &w in &Workload::ALL {
            let net = Network::workload(w);
            let base = space.network_base(&net);
            for snapshot in &snapshots {
                assert_eq!(
                    base + space.runtime_index(snapshot),
                    space.encode_observation(&net, snapshot),
                    "factorization broke for {w} / {snapshot:?}"
                );
            }
        }
    }

    #[test]
    fn every_workload_lies_in_one_q_table_block() {
        // A Q-table builds its rows in 64-row blocks on first touch. Every
        // state a workload can observe is `network_base + runtime_index`
        // with a 64-aligned base and 64 runtime states, so a serving
        // session builds exactly one block.
        use autoscale_rl::qtable::BLOCK_ROWS;
        let space = StateSpace::paper();
        assert_eq!(space.runtime_states(), BLOCK_ROWS);
        for w in Workload::ALL {
            let base = space.network_base(&Network::workload(w));
            assert_eq!(base % BLOCK_ROWS, 0, "{w} starts mid-block");
        }
    }

    #[test]
    fn different_snapshots_give_different_states() {
        let space = StateSpace::paper();
        let net = Network::workload(Workload::ResNet50);
        let calm = space.encode_observation(&net, &Snapshot::calm());
        let busy = space.encode_observation(&net, &Snapshot::new(0.9, 0.8, Rssi::WEAK, Rssi::WEAK));
        assert_ne!(calm, busy);
    }
}
