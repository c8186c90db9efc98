//! Payload transfer costs: the latency and energy of one offloaded
//! round-trip, per the paper's eq. (4).

use serde::{Deserialize, Serialize};

use crate::link::{transfer_ms_at, LinkModel};
use crate::rssi::Rssi;

/// The cost of moving one inference's input out and its output back over a
/// wireless link, exclusive of remote compute time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// Transmit (uplink) time in milliseconds (`t_TX`).
    pub tx_ms: f64,
    /// Receive (downlink) time in milliseconds (`t_RX`).
    pub rx_ms: f64,
    /// Link round-trip/protocol time in milliseconds.
    pub rtt_ms: f64,
    /// Radio energy while transmitting, in millijoules (`P_TX^S · t_TX`).
    pub tx_energy_mj: f64,
    /// Radio energy while receiving, in millijoules (`P_RX^S · t_RX`).
    pub rx_energy_mj: f64,
    /// Fixed radio wake/association energy, in millijoules.
    pub wake_energy_mj: f64,
    /// Fixed radio wake time, in milliseconds.
    pub wake_ms: f64,
    /// Extra radio power while waiting for the remote result, in watts.
    pub wait_power_w: f64,
}

impl Transfer {
    /// Computes the transfer cost of a round-trip carrying `input_bytes`
    /// up and `output_bytes` down at signal strength `rssi`.
    ///
    /// # Example
    ///
    /// ```
    /// use autoscale_net::{LinkKind, LinkModel, Rssi, Transfer};
    /// let link = LinkModel::for_kind(LinkKind::Wlan);
    /// let t = Transfer::compute(&link, 64 * 1024, 4 * 1024, Rssi::STRONG);
    /// assert!(t.tx_ms > t.rx_ms); // uplink carries the big payload
    /// ```
    pub fn compute(link: &LinkModel, input_bytes: u64, output_bytes: u64, rssi: Rssi) -> Self {
        // Both directions move at one rate: read it (two `powf`s) once.
        let rate_mbps = link.data_rate_mbps(rssi);
        let tx_ms = transfer_ms_at(input_bytes, rate_mbps);
        let rx_ms = transfer_ms_at(output_bytes, rate_mbps);
        Transfer {
            tx_ms,
            rx_ms,
            rtt_ms: link.rtt_ms(),
            tx_energy_mj: link.tx_power_w(rssi) * tx_ms,
            rx_energy_mj: link.rx_power_w(rssi) * rx_ms,
            wake_energy_mj: link.wake_energy_mj(),
            wake_ms: link.wake_ms(),
            wait_power_w: link.wait_power_w(),
        }
    }

    /// Total wire time (radio wake, both directions, protocol RTT), in
    /// milliseconds.
    pub fn wire_ms(&self) -> f64 {
        self.wake_ms + self.tx_ms + self.rx_ms + self.rtt_ms
    }

    /// Radio energy: the wake ramp plus both transfer directions, in
    /// millijoules. The idle-wait term of eq. (4) is added by the
    /// simulator, which knows the remote compute time.
    pub fn radio_energy_mj(&self) -> f64 {
        self.wake_energy_mj + self.tx_energy_mj + self.rx_energy_mj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkKind;

    #[test]
    fn weak_signal_costs_more_time_and_energy() {
        let link = LinkModel::for_kind(LinkKind::Wlan);
        let strong = Transfer::compute(&link, 64 * 1024, 4 * 1024, Rssi::STRONG);
        let weak = Transfer::compute(&link, 64 * 1024, 4 * 1024, Rssi::WEAK);
        assert!(weak.wire_ms() > 4.0 * strong.wire_ms());
        assert!(weak.radio_energy_mj() > 4.0 * strong.radio_energy_mj());
    }

    #[test]
    fn wire_time_includes_rtt_and_wake() {
        let link = LinkModel::for_kind(LinkKind::Wlan);
        let t = Transfer::compute(&link, 0, 0, Rssi::STRONG);
        // Zero payload still pays the wake ramp and protocol round trip.
        assert!((t.wire_ms() - link.rtt_ms() - link.wake_ms()).abs() < 1e-9);
        assert!((t.radio_energy_mj() - link.wake_energy_mj()).abs() < 1e-9);
    }

    #[test]
    fn tiny_payloads_make_offload_cheap() {
        // MobileBERT's sentence payload vs a camera frame: the wire cost
        // difference behind "heavy NNs favour the cloud".
        let link = LinkModel::for_kind(LinkKind::Wlan);
        let text = Transfer::compute(&link, 2 * 1024, 2 * 1024, Rssi::STRONG);
        let image = Transfer::compute(&link, 64 * 1024, 4 * 1024, Rssi::STRONG);
        assert!(
            text.radio_energy_mj() - text.wake_energy_mj
                < (image.radio_energy_mj() - image.wake_energy_mj) / 5.0
        );
    }

    #[test]
    fn wire_times_equal_the_links_transfer_times_bit_for_bit() {
        // One rate read per transfer must not move a bit of either
        // direction's time, at any signal strength, on either link.
        let (input, output) = (150_528, 4_004);
        for kind in LinkKind::ALL {
            let link = LinkModel::for_kind(kind);
            for tenth_db in -950..=-300 {
                let rssi = Rssi::new(f64::from(tenth_db) / 10.0);
                let t = Transfer::compute(&link, input, output, rssi);
                let at = format!("{kind} at {} dBm", rssi.dbm());
                let tx_ms = link.transfer_ms(input, rssi);
                let rx_ms = link.transfer_ms(output, rssi);
                assert_eq!(t.tx_ms.to_bits(), tx_ms.to_bits(), "{at}");
                assert_eq!(t.rx_ms.to_bits(), rx_ms.to_bits(), "{at}");
            }
        }
    }

    #[test]
    fn p2p_round_trip_is_quicker_at_strength() {
        let p2p = LinkModel::for_kind(LinkKind::PeerToPeer);
        let wlan = LinkModel::for_kind(LinkKind::Wlan);
        let a = Transfer::compute(&p2p, 64 * 1024, 4 * 1024, Rssi::STRONG);
        let b = Transfer::compute(&wlan, 64 * 1024, 4 * 1024, Rssi::STRONG);
        assert!(a.wire_ms() < b.wire_ms());
    }
}
