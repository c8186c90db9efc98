//! Link models: data rate, transmit/receive power, and round-trip time as
//! functions of signal strength.

use serde::{Deserialize, Serialize};

use crate::rssi::Rssi;

/// The two wireless link types of the paper's testbed (Table I rows
/// `S_RSSI_W` and `S_RSSI_P`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LinkKind {
    /// Wireless LAN to an access point and onward to the cloud
    /// (Wi-Fi / LTE / 5G in the paper).
    Wlan,
    /// Peer-to-peer link to the locally connected edge device
    /// (Wi-Fi Direct / Bluetooth in the paper).
    PeerToPeer,
}

impl LinkKind {
    /// Both link kinds.
    pub const ALL: [LinkKind; 2] = [LinkKind::Wlan, LinkKind::PeerToPeer];

    /// Name as used in the paper's prose.
    pub fn paper_name(self) -> &'static str {
        match self {
            LinkKind::Wlan => "Wi-Fi",
            LinkKind::PeerToPeer => "Wi-Fi Direct",
        }
    }
}

impl std::fmt::Display for LinkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// An analytical wireless link model.
///
/// The data rate falls exponentially as the signal weakens (halving every
/// `rate_halving_dbm` below the reference RSSI), which produces the
/// paper's "transmission time exponentially increases with decreased data
/// rate" behaviour. Transmit and receive powers rise linearly below the
/// reference, reproducing "the network interface consumes more power to
/// transmit data with stronger signals \[at weak RSSI\]" (Section III-B,
/// model of \[61\]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    kind: LinkKind,
    max_rate_mbps: f64,
    min_rate_mbps: f64,
    reference_dbm: f64,
    knee_dbm: f64,
    rate_halving_dbm: f64,
    weak_halving_dbm: f64,
    tx_power_base_w: f64,
    tx_power_slope_w_per_db: f64,
    rx_power_base_w: f64,
    rx_power_slope_w_per_db: f64,
    rtt_ms: f64,
    wait_power_w: f64,
    wake_ms: f64,
    wake_energy_mj: f64,
}

impl LinkModel {
    /// The calibrated model for a link kind.
    ///
    /// The WLAN path includes WAN latency to the cloud in its RTT; the
    /// peer-to-peer path is a single local hop with a faster peak rate and
    /// a shorter usable range (its rate falls off more steeply).
    pub fn for_kind(kind: LinkKind) -> Self {
        match kind {
            LinkKind::Wlan => LinkModel {
                kind,
                max_rate_mbps: 80.0,
                min_rate_mbps: 0.5,
                reference_dbm: -50.0,
                knee_dbm: -70.0,
                rate_halving_dbm: 10.0,
                weak_halving_dbm: 3.5,
                tx_power_base_w: 0.8,
                tx_power_slope_w_per_db: 0.04,
                rx_power_base_w: 0.6,
                rx_power_slope_w_per_db: 0.02,
                rtt_ms: 20.0,
                wait_power_w: 0.4,
                wake_ms: 3.0,
                wake_energy_mj: 25.0,
            },
            LinkKind::PeerToPeer => LinkModel {
                kind,
                max_rate_mbps: 150.0,
                min_rate_mbps: 0.5,
                reference_dbm: -45.0,
                knee_dbm: -70.0,
                rate_halving_dbm: 9.0,
                weak_halving_dbm: 3.5,
                tx_power_base_w: 0.9,
                tx_power_slope_w_per_db: 0.035,
                rx_power_base_w: 0.7,
                rx_power_slope_w_per_db: 0.018,
                rtt_ms: 4.0,
                wait_power_w: 0.35,
                wake_ms: 2.0,
                wake_energy_mj: 18.0,
            },
        }
    }

    /// Which link this models.
    pub fn kind(&self) -> LinkKind {
        self.kind
    }

    /// Achievable data rate at the given signal strength, in Mbit/s.
    ///
    /// The curve is piecewise exponential with a knee: above `knee_dbm`
    /// the rate halves gently (every `rate_halving_dbm` dB); below the
    /// knee it halves steeply (every `weak_halving_dbm` dB), producing the
    /// paper's collapse of cloud viability under weak signal.
    pub fn data_rate_mbps(&self, rssi: Rssi) -> f64 {
        let dbm = rssi.dbm();
        let gentle_db = (self.reference_dbm - dbm.max(self.knee_dbm)).max(0.0);
        let steep_db = (self.knee_dbm - dbm).max(0.0);
        let rate = self.max_rate_mbps
            * (2.0_f64).powf(-gentle_db / self.rate_halving_dbm)
            * (2.0_f64).powf(-steep_db / self.weak_halving_dbm);
        rate.max(self.min_rate_mbps)
    }

    /// Power drawn by the radio while transmitting at the given signal
    /// strength (`P_TX^S` in the paper's eq. (4)), in watts.
    pub fn tx_power_w(&self, rssi: Rssi) -> f64 {
        let deficit_db = (self.reference_dbm - rssi.dbm()).max(0.0);
        self.tx_power_base_w + self.tx_power_slope_w_per_db * deficit_db
    }

    /// Power drawn by the radio while receiving (`P_RX^S`), in watts.
    pub fn rx_power_w(&self, rssi: Rssi) -> f64 {
        let deficit_db = (self.reference_dbm - rssi.dbm()).max(0.0);
        self.rx_power_base_w + self.rx_power_slope_w_per_db * deficit_db
    }

    /// Fixed round-trip time of the link (protocol handshakes and, for the
    /// WLAN path, the WAN segment to the cloud), in milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        self.rtt_ms
    }

    /// Extra power the radio draws while waiting for a remote result
    /// (active-idle/tail state), in watts. Added on top of the device's
    /// base power during the remote-compute interval.
    pub fn wait_power_w(&self) -> f64 {
        self.wait_power_w
    }

    /// Time to wake the radio out of power-save and obtain a transmit
    /// opportunity, paid once per offloaded inference, in milliseconds.
    pub fn wake_ms(&self) -> f64 {
        self.wake_ms
    }

    /// Energy of the radio wake/association ramp, paid once per offloaded
    /// inference, in millijoules. This fixed cost is what keeps tiny
    /// inferences (light NNs) cheaper on-device even when remote compute
    /// itself is nearly free.
    pub fn wake_energy_mj(&self) -> f64 {
        self.wake_energy_mj
    }

    /// Time to move `bytes` over the link at the given signal strength,
    /// in milliseconds.
    pub fn transfer_ms(&self, bytes: u64, rssi: Rssi) -> f64 {
        transfer_ms_at(bytes, self.data_rate_mbps(rssi))
    }
}

/// Time to move `bytes` at `rate_mbps`, in milliseconds: the one body of
/// [`LinkModel::transfer_ms`], for callers that move two payloads at one
/// signal strength and read the rate once.
pub(crate) fn transfer_ms_at(bytes: u64, rate_mbps: f64) -> f64 {
    let bits = bytes as f64 * 8.0;
    bits / (rate_mbps * 1e6) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_falls_exponentially_with_signal() {
        let link = LinkModel::for_kind(LinkKind::Wlan);
        let strong = link.data_rate_mbps(Rssi::new(-50.0));
        let mid = link.data_rate_mbps(Rssi::new(-60.0));
        let weak = link.data_rate_mbps(Rssi::new(-70.0));
        assert!((strong / mid - 2.0).abs() < 0.01);
        assert!((mid / weak - 2.0).abs() < 0.01);
    }

    #[test]
    fn rate_is_clamped_at_minimum() {
        let link = LinkModel::for_kind(LinkKind::Wlan);
        assert_eq!(link.data_rate_mbps(Rssi::new(-95.0)), 0.5);
    }

    #[test]
    fn rate_collapses_below_the_knee() {
        // Halving is much steeper past the knee: -70 dBm to -80 dBm loses
        // far more than a single 10 dB halving.
        let link = LinkModel::for_kind(LinkKind::Wlan);
        let at_knee = link.data_rate_mbps(Rssi::new(-70.0));
        let weak = link.data_rate_mbps(Rssi::new(-80.0));
        assert!(at_knee / weak > 6.0, "ratio={}", at_knee / weak);
    }

    #[test]
    fn rate_saturates_above_reference() {
        let link = LinkModel::for_kind(LinkKind::Wlan);
        assert_eq!(link.data_rate_mbps(Rssi::new(-40.0)), 80.0);
    }

    #[test]
    fn weak_signal_raises_tx_and_rx_power() {
        for kind in LinkKind::ALL {
            let link = LinkModel::for_kind(kind);
            assert!(
                link.tx_power_w(Rssi::WEAK) > 1.5 * link.tx_power_w(Rssi::STRONG),
                "{kind}"
            );
            assert!(
                link.rx_power_w(Rssi::WEAK) > link.rx_power_w(Rssi::STRONG),
                "{kind}"
            );
        }
    }

    #[test]
    fn p2p_is_faster_and_closer_than_wlan() {
        let p2p = LinkModel::for_kind(LinkKind::PeerToPeer);
        let wlan = LinkModel::for_kind(LinkKind::Wlan);
        assert!(p2p.data_rate_mbps(Rssi::STRONG) > wlan.data_rate_mbps(Rssi::STRONG));
        assert!(p2p.rtt_ms() < wlan.rtt_ms());
    }

    #[test]
    fn wake_costs_are_fixed_per_offload() {
        let wlan = LinkModel::for_kind(LinkKind::Wlan);
        let p2p = LinkModel::for_kind(LinkKind::PeerToPeer);
        assert!(wlan.wake_energy_mj() > 0.0);
        assert!(p2p.wake_energy_mj() < wlan.wake_energy_mj());
        assert!(wlan.wake_ms() > 0.0);
    }

    #[test]
    fn transfer_time_scales_with_payload() {
        let link = LinkModel::for_kind(LinkKind::Wlan);
        let one = link.transfer_ms(64 * 1024, Rssi::STRONG);
        let two = link.transfer_ms(128 * 1024, Rssi::STRONG);
        assert!((two / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weak_signal_transfer_explodes() {
        // 64 KiB at strong vs weak WLAN signal: the paper's exponential
        // blow-up that makes cloud offloading unattractive at weak RSSI.
        let link = LinkModel::for_kind(LinkKind::Wlan);
        let strong = link.transfer_ms(64 * 1024, Rssi::STRONG);
        let weak = link.transfer_ms(64 * 1024, Rssi::WEAK);
        assert!(weak > 8.0 * strong, "strong={strong} weak={weak}");
    }
}
