//! Inference traces: a serializable record of what a scheduler did.
//!
//! The paper's evaluation is built from logs of (state, decision, result)
//! triples collected on the phones. This module is the equivalent
//! artifact for the simulated testbed: every executed inference can be
//! appended to a [`Trace`], serialized with serde, summarized, and
//! replayed through the simulator to validate that a recorded run is
//! reproducible.

use autoscale_nn::Workload;
use serde::{Deserialize, Serialize};

use crate::executor::{Outcome, Simulator};
use crate::request::Request;
use crate::snapshot::Snapshot;

/// One recorded inference: the observed variance, the decision taken, and
/// the measured outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Monotonic inference index within the trace.
    pub step: u64,
    /// The workload executed.
    pub workload: Workload,
    /// The runtime variance observed at decision time.
    pub snapshot: Snapshot,
    /// The request the scheduler issued.
    pub request: Request,
    /// The measured outcome.
    pub outcome: Outcome,
}

/// An append-only log of executed inferences.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

/// Aggregate statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Number of recorded inferences.
    pub entries: usize,
    /// Mean latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Mean energy in millijoules.
    pub mean_energy_mj: f64,
    /// Total energy in millijoules.
    pub total_energy_mj: f64,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one executed inference.
    pub fn record(
        &mut self,
        workload: Workload,
        snapshot: Snapshot,
        request: Request,
        outcome: Outcome,
    ) {
        let step = self.entries.len() as u64;
        self.entries.push(TraceEntry {
            step,
            workload,
            snapshot,
            request,
            outcome,
        });
    }

    /// The recorded entries in execution order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded inferences.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Aggregate statistics.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn summary(&self) -> TraceSummary {
        assert!(!self.entries.is_empty(), "cannot summarize an empty trace");
        let n = self.entries.len() as f64;
        let total_energy_mj: f64 = self.entries.iter().map(|e| e.outcome.energy_mj).sum();
        TraceSummary {
            entries: self.entries.len(),
            mean_latency_ms: self
                .entries
                .iter()
                .map(|e| e.outcome.latency_ms)
                .sum::<f64>()
                / n,
            mean_energy_mj: total_energy_mj / n,
            total_energy_mj,
        }
    }

    /// Re-executes every recorded decision under its recorded snapshot
    /// and reports the worst relative deviation between the recorded and
    /// replayed *expected* outcome. A trace recorded from this simulator
    /// replays within measurement noise; a large deviation means the
    /// trace came from a differently-configured testbed.
    ///
    /// # Errors
    ///
    /// Returns the index of the first entry whose request is infeasible
    /// on `sim` (e.g. a trace from an NPU testbed replayed on a stock
    /// phone).
    pub fn replay_deviation(&self, sim: &Simulator) -> Result<f64, usize> {
        let mut worst: f64 = 0.0;
        for (i, e) in self.entries.iter().enumerate() {
            let replayed = sim
                .execute_expected(e.workload, &e.request, &e.snapshot)
                .map_err(|_| i)?;
            let dev = ((replayed.energy_mj - e.outcome.energy_mj) / e.outcome.energy_mj).abs();
            worst = worst.max(dev);
        }
        Ok(worst)
    }
}

impl Extend<TraceEntry> for Trace {
    fn extend<T: IntoIterator<Item = TraceEntry>>(&mut self, iter: T) {
        for mut e in iter {
            e.step = self.entries.len() as u64;
            self.entries.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Placement;
    use autoscale_nn::Precision;
    use autoscale_platform::{DeviceId, ProcessorKind};
    use rand::SeedableRng;

    fn recorded_trace(sim: &Simulator, runs: usize) -> Trace {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut trace = Trace::new();
        let request = Request::at_max_frequency(
            sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        for _ in 0..runs {
            let snapshot = Snapshot::calm();
            let outcome = sim
                .execute_measured(Workload::MobileNetV1, &request, &snapshot, &mut rng)
                .expect("feasible");
            trace.record(Workload::MobileNetV1, snapshot, request, outcome);
        }
        trace
    }

    #[test]
    fn records_in_order_with_steps() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let trace = recorded_trace(&sim, 5);
        assert_eq!(trace.len(), 5);
        for (i, e) in trace.entries().iter().enumerate() {
            assert_eq!(e.step, i as u64);
        }
    }

    #[test]
    fn summary_aggregates() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let trace = recorded_trace(&sim, 10);
        let s = trace.summary();
        assert_eq!(s.entries, 10);
        assert!(s.mean_latency_ms > 0.0);
        assert!((s.total_energy_mj - s.mean_energy_mj * 10.0).abs() < 1e-9);
    }

    #[test]
    fn replays_within_measurement_noise() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let trace = recorded_trace(&sim, 20);
        let dev = trace.replay_deviation(&sim).expect("trace is feasible");
        // Measurement noise is ~5.5% relative sigma; 4 sigma bounds it.
        assert!(dev < 0.25, "deviation {dev}");
    }

    #[test]
    fn replay_rejects_foreign_testbeds() {
        // A trace using the Mi8Pro DSP cannot replay on the DSP-less S10e.
        let mi8 = Simulator::new(DeviceId::Mi8Pro);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut trace = Trace::new();
        let dsp = Request::at_max_frequency(
            &mi8,
            Placement::OnDevice(ProcessorKind::Dsp),
            Precision::Int8,
        );
        let outcome = mi8
            .execute_measured(Workload::InceptionV1, &dsp, &Snapshot::calm(), &mut rng)
            .expect("feasible");
        trace.record(Workload::InceptionV1, Snapshot::calm(), dsp, outcome);
        let s10e = Simulator::new(DeviceId::GalaxyS10e);
        assert_eq!(trace.replay_deviation(&s10e), Err(0));
    }

    #[test]
    fn serde_round_trip() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let trace = recorded_trace(&sim, 3);
        let json = serde_json::to_string(&trace).expect("serializes");
        let back: Trace = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(trace, back);
    }

    #[test]
    fn extend_renumbers_steps() {
        let sim = Simulator::new(DeviceId::Mi8Pro);
        let a = recorded_trace(&sim, 2);
        let b = recorded_trace(&sim, 2);
        let mut merged = a.clone();
        merged.extend(b.entries().iter().copied());
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.entries()[3].step, 3);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_summary_panics() {
        let _ = Trace::new().summary();
    }
}
