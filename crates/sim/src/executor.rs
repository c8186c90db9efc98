//! The simulator: executes a fully specified request and reports the
//! latency, energy and accuracy the paper's testbed would have measured.

use autoscale_net::{FailedTransfer, LinkKind, LinkModel, Transfer};
use autoscale_nn::{accuracy_for, Network, Precision, Workload};
use autoscale_platform::{
    power, Device, DeviceId, ExecutionConditions, NetworkCostTable, Processor, ProcessorKind,
};
use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::faults::{RequestFaults, ResiliencePolicy};
use crate::request::{Placement, Request};
use crate::snapshot::Snapshot;

/// What one executed inference cost and produced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// End-to-end latency in milliseconds (`R_latency`).
    pub latency_ms: f64,
    /// Phone-side energy in millijoules (`R_energy`).
    pub energy_mj: f64,
    /// Inference accuracy in percent (`R_accuracy`).
    pub accuracy: f64,
}

impl Outcome {
    /// Energy efficiency in inferences per joule — the PPW metric of the
    /// paper's figures (see [`power::efficiency_ipj`]).
    pub fn efficiency_ipj(&self) -> f64 {
        power::efficiency_ipj(self.energy_mj)
    }
}

/// Why a request cannot execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionError {
    /// The target device has no processor of the requested kind (e.g. DSP
    /// on the Galaxy S10e).
    NoSuchProcessor(Placement),
    /// The processor cannot execute at the requested precision (e.g. FP32
    /// on a DSP).
    UnsupportedPrecision(Placement),
    /// The middleware cannot run recurrent models on this processor (e.g.
    /// MobileBERT on any mobile co-processor).
    RecurrentUnsupported(Placement),
    /// An offload failed and no local processor can run the workload as a
    /// fallback. Unreachable on the paper's testbeds (the host CPU runs
    /// every workload at FP32), but custom device configurations could
    /// hit it.
    NoLocalFallback(Placement),
}

impl std::fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionError::NoSuchProcessor(p) => {
                write!(f, "no such processor at {p}")
            }
            ExecutionError::UnsupportedPrecision(p) => {
                write!(f, "precision unsupported at {p}")
            }
            ExecutionError::RecurrentUnsupported(p) => {
                write!(f, "recurrent model unsupported at {p}")
            }
            ExecutionError::NoLocalFallback(p) => {
                write!(f, "no feasible local fallback after offload to {p} failed")
            }
        }
    }
}

/// What one fault-aware execution produced: the (possibly penalized)
/// outcome plus an account of what the resilience policy had to do.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilientOutcome {
    /// The measured outcome, with every failed attempt's detection
    /// latency, backoff, and radio energy already charged in.
    pub outcome: Outcome,
    /// The request that actually ran — the original one, or the local
    /// fallback the policy substituted after giving up on the offload.
    pub executed: Request,
    /// Offload attempts that failed (dropouts plus timeouts).
    pub offload_faults: usize,
    /// Backoff-then-retry cycles the policy took.
    pub retries: usize,
    /// Whether the request fell back to local execution.
    pub fell_back: bool,
    /// Fault latency charged on top of the executed request, in
    /// milliseconds.
    pub penalty_ms: f64,
    /// Fault energy charged on top of the executed request, in
    /// millijoules.
    pub penalty_mj: f64,
}

impl ResilientOutcome {
    /// A clean execution: no faults, no penalties, the request ran as
    /// decided.
    fn clean(outcome: Outcome, executed: Request) -> Self {
        ResilientOutcome {
            outcome,
            executed,
            offload_faults: 0,
            retries: 0,
            fell_back: false,
            penalty_ms: 0.0,
            penalty_mj: 0.0,
        }
    }
}

impl std::error::Error for ExecutionError {}

/// Relative standard deviation of latency measurement noise.
const LATENCY_NOISE_STD: f64 = 0.03;
/// Relative standard deviation of energy measurement noise (the paper's
/// utilization-based estimators carry a 7.3% MAPE; a 5% relative sigma
/// lands the simulated MAPE in the same range).
const ENERGY_NOISE_STD: f64 = 0.055;

/// Cost-table slots per workload: three sites × every processor kind ×
/// every precision.
const SLOTS: usize = 3 * ProcessorKind::ALL.len() * Precision::ALL.len();

/// Index of a (placement, precision) pair among one workload's cost-table
/// slots. Sites count host, tablet, cloud; kinds and precisions count in
/// their `ALL` order, which is how [`Simulator::with_devices`] lays the
/// tables out.
fn slot(placement: Placement, precision: Precision) -> usize {
    let (site, kind) = match placement {
        Placement::OnDevice(k) => (0, k),
        Placement::ConnectedEdge(k) => (1, k),
        Placement::Cloud(k) => (2, k),
    };
    (site * ProcessorKind::ALL.len() + kind as usize) * Precision::ALL.len() + precision as usize
}

/// The tighter (lower) of two optional frequency-ratio caps.
fn tighter_cap(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (cap, None) => cap,
        (None, cap) => cap,
    }
}

/// The edge-cloud testbed for one host phone: the phone itself, the
/// Wi-Fi-Direct-connected tablet, and the cloud server behind the WLAN.
#[derive(Debug, Clone)]
pub struct Simulator {
    host: Device,
    tablet: Device,
    cloud: Device,
    wlan: LinkModel,
    p2p: LinkModel,
    /// Each workload's canonical network, indexed by [`Workload::index`].
    networks: Vec<Network>,
    /// Memoized roofline terms, indexed by `workload.index() * SLOTS +
    /// slot(placement, precision)`: a table wherever the site has a
    /// processor of that kind that runs that precision, `None`
    /// elsewhere. Built once at construction; networks are immutable, so
    /// the tables never invalidate.
    cost_tables: Vec<Option<NetworkCostTable>>,
    /// Whether each workload's network has a recurrent layer, indexed by
    /// [`Workload::index`]: recorded once here so a feasibility check
    /// reads a flag instead of walking every layer.
    recurrent: [bool; Workload::ALL.len()],
    /// Multiplicative latency measurement noise.
    lat_noise: Normal,
    /// Multiplicative energy measurement noise.
    en_noise: Normal,
}

impl Simulator {
    /// Builds the testbed around a host phone.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not one of the three phones — the tablet and
    /// the cloud server are offloading targets, not AutoScale hosts.
    pub fn new(host: DeviceId) -> Self {
        Self::with_devices(
            Device::for_id(host),
            Device::galaxy_tab_s6(),
            Device::cloud_server(),
        )
    }

    /// Builds a testbed from explicit devices — the hook for the paper's
    /// Section V-C extension configurations (e.g. an NPU-unlocked phone
    /// via [`Device::mi8pro_npu`] or a TPU-equipped cloud via
    /// [`Device::cloud_server_tpu`]).
    ///
    /// # Panics
    ///
    /// Panics if `host` is not a phone.
    pub fn with_devices(host: Device, tablet: Device, cloud: Device) -> Self {
        assert!(host.is_phone(), "the simulator host must be a phone");
        let networks: Vec<Network> = Workload::ALL
            .iter()
            .map(|&w| Network::workload(w))
            .collect();
        // One table per (workload, site, kind, precision), in `slot`
        // order: the lookup never searches.
        let mut cost_tables = Vec::with_capacity(networks.len() * SLOTS);
        for network in &networks {
            for device in [&host, &tablet, &cloud] {
                for kind in ProcessorKind::ALL {
                    let processor = device.processor(kind);
                    for precision in Precision::ALL {
                        cost_tables.push(
                            processor
                                .filter(|p| p.supports_precision(precision))
                                .map(|p| NetworkCostTable::build(p, network, precision)),
                        );
                    }
                }
            }
        }
        let recurrent = Workload::ALL.map(|w| networks[w.index()].has_recurrent_layers());
        #[expect(
            clippy::expect_used,
            reason = "the noise std constants are valid Normal parameters"
        )]
        let lat_noise = Normal::new(1.0, LATENCY_NOISE_STD).expect("valid normal");
        #[expect(
            clippy::expect_used,
            reason = "the noise std constants are valid Normal parameters"
        )]
        let en_noise = Normal::new(1.0, ENERGY_NOISE_STD).expect("valid normal");
        Simulator {
            host,
            tablet,
            cloud,
            wlan: LinkModel::for_kind(LinkKind::Wlan),
            p2p: LinkModel::for_kind(LinkKind::PeerToPeer),
            networks,
            cost_tables,
            recurrent,
            lat_noise,
            en_noise,
        }
    }

    /// The host phone.
    pub fn host(&self) -> &Device {
        &self.host
    }

    /// The connected edge device (Galaxy Tab S6).
    pub fn tablet(&self) -> &Device {
        &self.tablet
    }

    /// The cloud server.
    pub fn cloud(&self) -> &Device {
        &self.cloud
    }

    /// The WLAN link model (phone ↔ access point ↔ cloud).
    pub fn wlan(&self) -> &LinkModel {
        &self.wlan
    }

    /// The peer-to-peer link model (phone ↔ tablet).
    pub fn p2p(&self) -> &LinkModel {
        &self.p2p
    }

    /// The cached network for a workload.
    pub fn network(&self, workload: Workload) -> &Network {
        &self.networks[workload.index()]
    }

    /// The device a placement lands on.
    pub fn device_for(&self, placement: Placement) -> &Device {
        match placement {
            Placement::OnDevice(_) => &self.host,
            Placement::ConnectedEdge(_) => &self.tablet,
            Placement::Cloud(_) => &self.cloud,
        }
    }

    /// The processor a placement lands on, if the device has one.
    pub fn processor_for(&self, placement: Placement) -> Option<&Processor> {
        self.device_for(placement)
            .processor(placement.processor_kind())
    }

    /// The processor and cost table a request runs on, or why it cannot
    /// run: feasibility and the lookup in one step.
    fn resolve(
        &self,
        workload: Workload,
        request: &Request,
    ) -> Result<(&Processor, &NetworkCostTable), ExecutionError> {
        let placement = request.placement;
        let processor = self
            .processor_for(placement)
            .ok_or(ExecutionError::NoSuchProcessor(placement))?;
        let table = self.cost_tables[workload.index() * SLOTS + slot(placement, request.precision)]
            .as_ref()
            .ok_or(ExecutionError::UnsupportedPrecision(placement))?;
        if self.recurrent[workload.index()] && !processor.runs_recurrent() {
            return Err(ExecutionError::RecurrentUnsupported(placement));
        }
        Ok((processor, table))
    }

    /// Validates that a request can execute for a workload.
    ///
    /// # Errors
    ///
    /// Returns the reason the request is infeasible.
    pub fn check(
        &self,
        workload: Workload,
        request: &Request,
    ) -> Result<&Processor, ExecutionError> {
        self.resolve(workload, request)
            .map(|(processor, _)| processor)
    }

    /// Whether a request can execute for a workload.
    pub fn is_feasible(&self, workload: Workload, request: &Request) -> bool {
        self.check(workload, request).is_ok()
    }

    /// Executes a request and returns the *model expectation* — no
    /// measurement noise. This is what the oracle (`Opt`) evaluates when
    /// it enumerates the design space.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecutionError`] if the request is infeasible.
    pub fn execute_expected(
        &self,
        workload: Workload,
        request: &Request,
        snapshot: &Snapshot,
    ) -> Result<Outcome, ExecutionError> {
        self.expected_with_faults(workload, request, snapshot, None, 1.0)
    }

    /// [`Self::execute_expected`] with fault-model overrides: an extra
    /// thermal frequency cap on local execution (from a burst, combined
    /// with the co-runner cap by taking the tighter of the two) and a
    /// straggler stretch on remote compute time.
    fn expected_with_faults(
        &self,
        workload: Workload,
        request: &Request,
        snapshot: &Snapshot,
        burst_cap: Option<f64>,
        compute_stretch: f64,
    ) -> Result<Outcome, ExecutionError> {
        let (processor, table) = self.resolve(workload, request)?;
        let network = self.network(workload);
        let accuracy = accuracy_for(workload).at(request.precision);

        let outcome = match request.placement {
            Placement::OnDevice(_) => on_device_outcome(
                &self.host, processor, table, request, snapshot, burst_cap, accuracy,
            ),
            Placement::ConnectedEdge(_) => remote_outcome(
                self.host.base_power_w(),
                network,
                processor,
                table,
                &self.tablet,
                &self.p2p,
                snapshot.p2p,
                request,
                accuracy,
                compute_stretch,
            ),
            Placement::Cloud(_) => remote_outcome(
                self.host.base_power_w(),
                network,
                processor,
                table,
                &self.cloud,
                &self.wlan,
                snapshot.wlan,
                request,
                accuracy,
                compute_stretch,
            ),
        };
        Ok(outcome)
    }

    /// Executes a request with measurement noise applied to latency and
    /// energy — what the paper's Monsoon meter and timestamps report:
    /// [`Self::execute_expected`], then [`Self::measure`].
    ///
    /// # Errors
    ///
    /// Returns an [`ExecutionError`] if the request is infeasible.
    pub fn execute_measured(
        &self,
        workload: Workload,
        request: &Request,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Result<Outcome, ExecutionError> {
        let expected = self.execute_expected(workload, request, snapshot)?;
        Ok(self.measure(expected, rng))
    }

    /// Applies measurement noise to an expected outcome: the one noise
    /// path of every execute call. Always draws exactly two normal
    /// values (four uniforms) from `rng`, so callers consume the stream
    /// at a fixed rate per execution. A caller that already holds a
    /// request's [`Self::execute_expected`] outcome gets
    /// [`Self::execute_measured`]'s result, draw for draw, by measuring
    /// it.
    pub fn measure(&self, expected: Outcome, rng: &mut StdRng) -> Outcome {
        Outcome {
            latency_ms: expected.latency_ms * self.lat_noise.sample(rng).max(0.7),
            energy_mj: expected.energy_mj * self.en_noise.sample(rng).max(0.7),
            accuracy: expected.accuracy,
        }
    }

    /// Executes a request under a fault plan, applying a resilience
    /// policy when the offload path fails.
    ///
    /// * Local requests run directly; if the plan carries a thermal burst
    ///   cap, it is combined with the co-runner cap (tighter wins).
    /// * Offloads walk the plan's per-attempt outcomes for their link:
    ///   each failed attempt charges its detection latency and radio
    ///   energy (see [`FailedTransfer`]), then the policy backs off
    ///   exponentially and retries — unless the accumulated penalty would
    ///   blow the give-up deadline, in which case it stops early.
    /// * If every allowed attempt fails, the request **falls back** to
    ///   the best feasible local target (minimum expected latency at
    ///   maximum frequency), still carrying the accumulated penalty.
    /// * A successful attempt runs the offload with the plan's straggler
    ///   stretch applied to remote compute time.
    ///
    /// All penalties land in the returned outcome's latency and energy,
    /// so rewards computed from it teach the scheduler to avoid flaky
    /// targets. Exactly two noise values are drawn from `rng` per call,
    /// whatever the fault path, keeping the session RNG stream aligned
    /// with the fault-free path.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecutionError`] if the request is infeasible, or
    /// [`ExecutionError::NoLocalFallback`] if an exhausted offload has no
    /// feasible local substitute.
    pub fn execute_resilient(
        &self,
        workload: Workload,
        request: &Request,
        snapshot: &Snapshot,
        faults: &RequestFaults,
        policy: &ResiliencePolicy,
        rng: &mut StdRng,
    ) -> Result<ResilientOutcome, ExecutionError> {
        self.check(workload, request)?;
        let (link, rssi, plan) = match request.placement {
            Placement::OnDevice(_) => {
                let expected = self.expected_with_faults(
                    workload,
                    request,
                    snapshot,
                    faults.thermal_cap,
                    1.0,
                )?;
                return Ok(ResilientOutcome::clean(
                    self.measure(expected, rng),
                    *request,
                ));
            }
            Placement::ConnectedEdge(_) => (&self.p2p, snapshot.p2p, &faults.edge),
            Placement::Cloud(_) => (&self.wlan, snapshot.wlan, &faults.cloud),
        };

        let input_bytes = self.network(workload).input_bytes();
        let base_power_w = self.host.base_power_w();
        let mut penalty_ms = 0.0;
        let mut penalty_mj = 0.0;
        let mut offload_faults = 0usize;
        let mut retries = 0usize;
        let mut connected = false;
        for attempt in 0..policy.max_attempts() {
            match plan.attempts[attempt] {
                None => {
                    connected = true;
                    break;
                }
                Some(kind) => {
                    offload_faults += 1;
                    let failed = FailedTransfer::compute(
                        link,
                        rssi,
                        kind,
                        input_bytes,
                        policy.attempt_timeout_ms,
                    );
                    // The phone burns its base power for the whole
                    // detection window on top of the radio's share.
                    penalty_ms += failed.detect_ms;
                    penalty_mj += failed.radio_energy_mj + base_power_w * failed.detect_ms;
                    if attempt + 1 < policy.max_attempts() {
                        let backoff_ms = policy.backoff_ms(retries);
                        if penalty_ms + backoff_ms > policy.give_up_ms {
                            // Deadline-aware: another cycle cannot make
                            // the QoS target, stop retrying.
                            break;
                        }
                        penalty_ms += backoff_ms;
                        penalty_mj += base_power_w * backoff_ms;
                        retries += 1;
                    }
                }
            }
        }

        let (expected, executed, fell_back) = if connected {
            let expected = self.expected_with_faults(
                workload,
                request,
                snapshot,
                None,
                faults.straggler_ratio,
            )?;
            (expected, *request, false)
        } else {
            let fallback = self
                .best_local_fallback(workload, snapshot, faults.thermal_cap)
                .ok_or(ExecutionError::NoLocalFallback(request.placement))?;
            let expected =
                self.expected_with_faults(workload, &fallback, snapshot, faults.thermal_cap, 1.0)?;
            (expected, fallback, true)
        };
        let measured = self.measure(expected, rng);
        Ok(ResilientOutcome {
            outcome: Outcome {
                latency_ms: measured.latency_ms + penalty_ms,
                energy_mj: measured.energy_mj + penalty_mj,
                accuracy: measured.accuracy,
            },
            executed,
            offload_faults,
            retries,
            fell_back,
            penalty_ms,
            penalty_mj,
        })
    }

    /// The best local substitute for a failed offload: among the host's
    /// feasible (processor, precision) pairs at maximum frequency, the
    /// request with the lowest expected latency under the current
    /// snapshot (and any thermal burst cap). Deterministic — iterates
    /// fixed arrays in a fixed order.
    pub fn best_local_fallback(
        &self,
        workload: Workload,
        snapshot: &Snapshot,
        burst_cap: Option<f64>,
    ) -> Option<Request> {
        let mut best: Option<(f64, Request)> = None;
        for kind in ProcessorKind::ALL {
            let placement = Placement::OnDevice(kind);
            if self.processor_for(placement).is_none() {
                continue;
            }
            for precision in Precision::ALL {
                let req = Request::at_max_frequency(self, placement, precision);
                let Ok(outcome) =
                    self.expected_with_faults(workload, &req, snapshot, burst_cap, 1.0)
                else {
                    continue;
                };
                if best.is_none_or(|(best_ms, _)| outcome.latency_ms < best_ms) {
                    best = Some((outcome.latency_ms, req));
                }
            }
        }
        best.map(|(_, req)| req)
    }

    /// A per-workload view that forwards to this simulator's execute
    /// calls and does no work of its own. Only the serving-fleet
    /// benchmark's replica calls it.
    #[doc(hidden)]
    pub fn prepare(&self, workload: Workload) -> PreparedExecutor<'_> {
        PreparedExecutor {
            sim: self,
            workload,
        }
    }
}

/// Computes the outcome of an on-device inference: roofline latency under
/// the current execution conditions plus the phone's compute energy.
fn on_device_outcome(
    host: &Device,
    processor: &Processor,
    table: &NetworkCostTable,
    request: &Request,
    snapshot: &Snapshot,
    burst_cap: Option<f64>,
    accuracy: f64,
) -> Outcome {
    let cond = ExecutionConditions {
        freq_index: request.freq_index.min(processor.dvfs().max_index()),
        precision: request.precision,
        compute_availability: snapshot.cpu_availability(),
        mem_availability: snapshot.mem_availability(),
        thermal_cap: tighter_cap(host.thermal().cap_for(snapshot.co_cpu), burst_cap),
    };
    let latency_ms = table.latency_ms(processor, &cond);
    let energy = power::on_device_energy_mj(processor, &cond, latency_ms, host.base_power_w());
    Outcome {
        latency_ms,
        energy_mj: energy.total_mj(),
        accuracy,
    }
}

/// Computes the outcome of an offloaded inference, per the paper's
/// eq. (4): radio energy for the transfers plus idle-wait energy while
/// the remote system computes.
#[allow(clippy::too_many_arguments)] // private helper mirroring eq. (4)'s terms
fn remote_outcome(
    host_base_power_w: f64,
    network: &Network,
    processor: &Processor,
    table: &NetworkCostTable,
    remote: &Device,
    link: &LinkModel,
    rssi: autoscale_net::Rssi,
    request: &Request,
    accuracy: f64,
    compute_stretch: f64,
) -> Outcome {
    let transfer = Transfer::compute(link, network.input_bytes(), network.output_bytes(), rssi);
    // Remote systems are uncontended and run at maximum frequency: the
    // phone can neither observe nor control their governors. A
    // straggler spike stretches the remote compute time (the wire
    // time is untouched — the link is fine, the server is slow).
    let cond = ExecutionConditions::max_frequency(processor, request.precision);
    let remote_ms =
        (table.latency_ms(processor, &cond) + remote.serving_overhead_ms()) * compute_stretch;
    let latency_ms = transfer.wire_ms() + remote_ms;
    // Phone-side energy (eq. 4): TX + RX bursts, then base + radio-wait
    // power for the remainder of the round trip.
    let wait_ms = latency_ms - transfer.tx_ms - transfer.rx_ms;
    let energy_mj =
        transfer.radio_energy_mj() + (host_base_power_w + transfer.wait_power_w) * wait_ms;
    Outcome {
        latency_ms,
        energy_mj,
        accuracy,
    }
}

/// A per-workload view of a [`Simulator`] that forwards each call to it
/// with the workload filled in. Built by [`Simulator::prepare`]; kept
/// only until the serving-fleet benchmark's replica calls the simulator
/// directly.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct PreparedExecutor<'a> {
    sim: &'a Simulator,
    workload: Workload,
}

impl<'a> PreparedExecutor<'a> {
    /// The underlying simulator.
    pub fn simulator(&self) -> &'a Simulator {
        self.sim
    }

    /// [`Simulator::execute_measured`] for this view's workload.
    ///
    /// # Errors
    ///
    /// As [`Simulator::execute_measured`].
    pub fn execute_measured(
        &self,
        request: &Request,
        snapshot: &Snapshot,
        rng: &mut StdRng,
    ) -> Result<Outcome, ExecutionError> {
        self.sim
            .execute_measured(self.workload, request, snapshot, rng)
    }

    /// [`Simulator::execute_resilient`] for this view's workload.
    ///
    /// # Errors
    ///
    /// As [`Simulator::execute_resilient`].
    pub fn execute_resilient(
        &self,
        request: &Request,
        snapshot: &Snapshot,
        faults: &RequestFaults,
        policy: &ResiliencePolicy,
        rng: &mut StdRng,
    ) -> Result<ResilientOutcome, ExecutionError> {
        self.sim
            .execute_resilient(self.workload, request, snapshot, faults, policy, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoscale_platform::latency;
    use rand::SeedableRng;

    fn sim() -> Simulator {
        Simulator::new(DeviceId::Mi8Pro)
    }

    fn max_req(sim: &Simulator, placement: Placement, precision: Precision) -> Request {
        Request::at_max_frequency(sim, placement, precision)
    }

    #[test]
    fn cpu_fp32_executes_everywhere() {
        let sim = sim();
        for w in Workload::ALL {
            for placement in [
                Placement::OnDevice(ProcessorKind::Cpu),
                Placement::ConnectedEdge(ProcessorKind::Cpu),
                Placement::Cloud(ProcessorKind::Cpu),
            ] {
                let req = max_req(&sim, placement, Precision::Fp32);
                let out = sim.execute_expected(w, &req, &Snapshot::calm()).unwrap();
                assert!(
                    out.latency_ms > 0.0 && out.energy_mj > 0.0,
                    "{w} {placement}"
                );
            }
        }
    }

    #[test]
    fn s10e_has_no_dsp() {
        let sim = Simulator::new(DeviceId::GalaxyS10e);
        let req = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Dsp),
            Precision::Int8,
        );
        assert_eq!(
            sim.execute_expected(Workload::InceptionV1, &req, &Snapshot::calm()),
            Err(ExecutionError::NoSuchProcessor(Placement::OnDevice(
                ProcessorKind::Dsp
            )))
        );
    }

    #[test]
    fn dsp_rejects_fp32_and_recurrent() {
        let sim = sim();
        let fp32 = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Dsp),
            Precision::Fp32,
        );
        assert!(matches!(
            sim.execute_expected(Workload::InceptionV1, &fp32, &Snapshot::calm()),
            Err(ExecutionError::UnsupportedPrecision(_))
        ));
        let int8 = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Dsp),
            Precision::Int8,
        );
        assert!(matches!(
            sim.execute_expected(Workload::MobileBert, &int8, &Snapshot::calm()),
            Err(ExecutionError::RecurrentUnsupported(_))
        ));
    }

    #[test]
    fn mobile_gpu_rejects_recurrent_but_cloud_gpu_runs_it() {
        let sim = sim();
        let mobile = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Gpu),
            Precision::Fp32,
        );
        assert!(!sim.is_feasible(Workload::MobileBert, &mobile));
        let cloud = max_req(&sim, Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32);
        assert!(sim.is_feasible(Workload::MobileBert, &cloud));
    }

    #[test]
    fn cpu_interference_slows_and_costs_on_device_cpu() {
        let sim = sim();
        let req = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let calm = sim
            .execute_expected(Workload::MobileNetV3, &req, &Snapshot::calm())
            .unwrap();
        let loaded = Snapshot::new(0.85, 0.1, Snapshot::calm().wlan, Snapshot::calm().p2p);
        let contended = sim
            .execute_expected(Workload::MobileNetV3, &req, &loaded)
            .unwrap();
        assert!(contended.latency_ms > 1.5 * calm.latency_ms);
        assert!(contended.efficiency_ipj() < calm.efficiency_ipj());
    }

    #[test]
    fn weak_wlan_hurts_cloud_but_not_connected_edge() {
        let sim = sim();
        let cloud = max_req(&sim, Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32);
        let edge = max_req(
            &sim,
            Placement::ConnectedEdge(ProcessorKind::Gpu),
            Precision::Fp32,
        );
        let calm = Snapshot::calm();
        let weak_wlan = Snapshot::new(0.0, 0.0, autoscale_net::Rssi::WEAK, calm.p2p);
        let w = Workload::ResNet50;
        let cloud_calm = sim.execute_expected(w, &cloud, &calm).unwrap();
        let cloud_weak = sim.execute_expected(w, &cloud, &weak_wlan).unwrap();
        let edge_calm = sim.execute_expected(w, &edge, &calm).unwrap();
        let edge_weak = sim.execute_expected(w, &edge, &weak_wlan).unwrap();
        assert!(cloud_weak.latency_ms > 3.0 * cloud_calm.latency_ms);
        assert!((edge_weak.latency_ms - edge_calm.latency_ms).abs() < 1e-9);
    }

    #[test]
    fn interference_does_not_touch_remote_compute() {
        let sim = sim();
        let req = max_req(&sim, Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32);
        let calm = sim
            .execute_expected(Workload::ResNet50, &req, &Snapshot::calm())
            .unwrap();
        let loaded = Snapshot::new(0.9, 0.9, Snapshot::calm().wlan, Snapshot::calm().p2p);
        let contended = sim
            .execute_expected(Workload::ResNet50, &req, &loaded)
            .unwrap();
        assert!((contended.latency_ms - calm.latency_ms).abs() < 1e-9);
    }

    #[test]
    fn measured_outcome_is_noisy_but_unbiased() {
        let sim = sim();
        let req = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let expected = sim
            .execute_expected(Workload::MobileNetV1, &req, &Snapshot::calm())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let n = 400;
        let mut lat_sum = 0.0;
        let mut any_diff = false;
        for _ in 0..n {
            let m = sim
                .execute_measured(Workload::MobileNetV1, &req, &Snapshot::calm(), &mut rng)
                .unwrap();
            lat_sum += m.latency_ms;
            if (m.latency_ms - expected.latency_ms).abs() > 1e-9 {
                any_diff = true;
            }
        }
        let mean = lat_sum / n as f64;
        assert!(any_diff);
        assert!(
            (mean / expected.latency_ms - 1.0).abs() < 0.01,
            "mean ratio {}",
            mean / expected.latency_ms
        );
    }

    #[test]
    fn measuring_the_expected_outcome_is_execute_measured_draw_for_draw() {
        // A caller holding a request's noise-free outcome measures it
        // instead of executing again: same outcome bits, and exactly the
        // four draws (two Box–Muller normals) a shadow stream steps.
        use rand::Rng;
        let sim = sim();
        let busy = Snapshot::new(
            0.6,
            0.3,
            autoscale_net::Rssi::WEAK,
            autoscale_net::Rssi::new(-65.0),
        );
        let mut rng = StdRng::seed_from_u64(23);
        let mut measured = 0;
        for w in Workload::ALL {
            for site in [
                Placement::OnDevice as fn(ProcessorKind) -> Placement,
                Placement::ConnectedEdge,
                Placement::Cloud,
            ] {
                for kind in ProcessorKind::ALL {
                    for precision in Precision::ALL {
                        let req = max_req(&sim, site(kind), precision);
                        for snapshot in [&Snapshot::calm(), &busy] {
                            let Ok(expected) = sim.execute_expected(w, &req, snapshot) else {
                                continue;
                            };
                            let mut twin = rng.clone();
                            let mut shadow = rng.clone();
                            let got = sim.measure(expected, &mut rng);
                            let want = sim
                                .execute_measured(w, &req, snapshot, &mut twin)
                                .expect("feasible");
                            for _ in 0..4 {
                                let _: u64 = shadow.gen();
                            }
                            let at = format!("{w} {} {precision:?}", req.placement);
                            assert_eq!(got.latency_ms.to_bits(), want.latency_ms.to_bits(), "{at}");
                            assert_eq!(got.energy_mj.to_bits(), want.energy_mj.to_bits(), "{at}");
                            assert_eq!(got.accuracy.to_bits(), want.accuracy.to_bits(), "{at}");
                            assert!(rng == twin && rng == shadow, "{at}: four draws");
                            measured += 1;
                        }
                    }
                }
            }
        }
        assert!(measured > 100, "{measured} requests measured");
    }

    #[test]
    fn accuracy_follows_precision_not_placement() {
        let sim = sim();
        let cpu_int8 = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Int8,
        );
        let dsp_int8 = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Dsp),
            Precision::Int8,
        );
        let calm = Snapshot::calm();
        let a = sim
            .execute_expected(Workload::InceptionV1, &cpu_int8, &calm)
            .unwrap();
        let b = sim
            .execute_expected(Workload::InceptionV1, &dsp_int8, &calm)
            .unwrap();
        assert_eq!(a.accuracy, b.accuracy);
        let fp32 = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let c = sim
            .execute_expected(Workload::InceptionV1, &fp32, &calm)
            .unwrap();
        assert!(c.accuracy > a.accuracy);
    }

    #[test]
    fn freq_index_is_clamped_to_ladder() {
        let sim = sim();
        let req = Request {
            placement: Placement::OnDevice(ProcessorKind::Cpu),
            precision: Precision::Fp32,
            freq_index: 10_000,
        };
        let clamped = sim
            .execute_expected(Workload::MobileNetV1, &req, &Snapshot::calm())
            .unwrap();
        let max = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let at_max = sim
            .execute_expected(Workload::MobileNetV1, &max, &Snapshot::calm())
            .unwrap();
        assert!((clamped.latency_ms - at_max.latency_ms).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "host must be a phone")]
    fn tablet_cannot_host() {
        let _ = Simulator::new(DeviceId::GalaxyTabS6);
    }

    #[test]
    fn resilient_clean_plan_matches_measured_execution() {
        // With an empty fault plan, execute_resilient must be
        // draw-for-draw identical to execute_measured — the invariant the
        // zero-cost default rests on.
        let sim = sim();
        let clean = crate::faults::RequestFaults::none(0);
        let policy = crate::faults::ResiliencePolicy::for_qos(50.0);
        for placement in [
            Placement::OnDevice(ProcessorKind::Cpu),
            Placement::ConnectedEdge(ProcessorKind::Gpu),
            Placement::Cloud(ProcessorKind::Gpu),
        ] {
            let req = max_req(&sim, placement, Precision::Fp32);
            let mut rng_a = StdRng::seed_from_u64(99);
            let mut rng_b = StdRng::seed_from_u64(99);
            let measured = sim
                .execute_measured(Workload::ResNet50, &req, &Snapshot::calm(), &mut rng_a)
                .unwrap();
            let resilient = sim
                .execute_resilient(
                    Workload::ResNet50,
                    &req,
                    &Snapshot::calm(),
                    &clean,
                    &policy,
                    &mut rng_b,
                )
                .unwrap();
            assert_eq!(resilient.outcome, measured, "{placement}");
            assert_eq!(resilient.executed, req);
            assert_eq!(resilient.offload_faults, 0);
            assert_eq!(resilient.retries, 0);
            assert!(!resilient.fell_back);
        }
    }

    #[test]
    fn one_dropout_retries_and_charges_the_penalty() {
        let sim = sim();
        let req = max_req(&sim, Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32);
        let policy = crate::faults::ResiliencePolicy::for_qos(200.0);
        let mut faults = crate::faults::RequestFaults::none(0);
        faults.cloud.attempts[0] = Some(autoscale_net::OutageKind::Dropout);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let clean = sim
            .execute_measured(Workload::ResNet50, &req, &Snapshot::calm(), &mut rng_a)
            .unwrap();
        let r = sim
            .execute_resilient(
                Workload::ResNet50,
                &req,
                &Snapshot::calm(),
                &faults,
                &policy,
                &mut rng_b,
            )
            .unwrap();
        assert_eq!(r.offload_faults, 1);
        assert_eq!(r.retries, 1);
        assert!(!r.fell_back);
        assert!(r.penalty_ms > 0.0 && r.penalty_mj > 0.0);
        assert!((r.outcome.latency_ms - clean.latency_ms - r.penalty_ms).abs() < 1e-9);
        assert!((r.outcome.energy_mj - clean.energy_mj - r.penalty_mj).abs() < 1e-9);
    }

    #[test]
    fn exhausted_offload_falls_back_to_best_local_target() {
        let sim = sim();
        let req = max_req(&sim, Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32);
        let policy = crate::faults::ResiliencePolicy::for_qos(1_000.0);
        let mut faults = crate::faults::RequestFaults::none(0);
        faults.cloud = crate::faults::LinkFaults::disconnected();
        let mut rng = StdRng::seed_from_u64(7);
        let r = sim
            .execute_resilient(
                Workload::InceptionV1,
                &req,
                &Snapshot::calm(),
                &faults,
                &policy,
                &mut rng,
            )
            .unwrap();
        assert!(r.fell_back);
        assert_eq!(r.offload_faults, policy.max_attempts());
        assert!(matches!(r.executed.placement, Placement::OnDevice(_)));
        // The fallback is the fastest feasible local target.
        let best = sim
            .best_local_fallback(Workload::InceptionV1, &Snapshot::calm(), None)
            .unwrap();
        assert_eq!(r.executed, best);
        assert!(r.penalty_ms > 0.0);
    }

    #[test]
    fn give_up_deadline_stops_retrying_early() {
        let sim = sim();
        let req = max_req(&sim, Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32);
        // A timeout burns ~attempt_timeout_ms per attempt; a give-up
        // budget of one deadline leaves no room for a second attempt.
        let policy = crate::faults::ResiliencePolicy {
            max_retries: 3,
            backoff_base_ms: 2.0,
            backoff_factor: 2.0,
            attempt_timeout_ms: 100.0,
            give_up_ms: 100.0,
        };
        let mut faults = crate::faults::RequestFaults::none(0);
        faults.cloud.attempts =
            [Some(autoscale_net::OutageKind::Timeout); crate::faults::MAX_ATTEMPTS];
        let mut rng = StdRng::seed_from_u64(7);
        let r = sim
            .execute_resilient(
                Workload::InceptionV1,
                &req,
                &Snapshot::calm(),
                &faults,
                &policy,
                &mut rng,
            )
            .unwrap();
        assert!(r.fell_back);
        assert_eq!(r.offload_faults, 1, "deadline blocked further retries");
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn straggler_stretch_slows_remote_but_not_wire_or_local() {
        let sim = sim();
        let cloud = max_req(&sim, Placement::Cloud(ProcessorKind::Gpu), Precision::Fp32);
        let local = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let calm = Snapshot::calm();
        let plain = sim
            .expected_with_faults(Workload::ResNet50, &cloud, &calm, None, 1.0)
            .unwrap();
        let stretched = sim
            .expected_with_faults(Workload::ResNet50, &cloud, &calm, None, 4.0)
            .unwrap();
        assert!(stretched.latency_ms > plain.latency_ms);
        assert!(
            stretched.latency_ms < 4.0 * plain.latency_ms,
            "wire time is not stretched"
        );
        let local_plain = sim
            .expected_with_faults(Workload::ResNet50, &local, &calm, None, 1.0)
            .unwrap();
        let local_stretched = sim
            .expected_with_faults(Workload::ResNet50, &local, &calm, None, 4.0)
            .unwrap();
        assert_eq!(local_plain, local_stretched, "stretch is remote-only");
    }

    #[test]
    fn burst_cap_slows_local_execution_and_combines_tighter() {
        let sim = sim();
        let req = max_req(
            &sim,
            Placement::OnDevice(ProcessorKind::Cpu),
            Precision::Fp32,
        );
        let calm = Snapshot::calm();
        let free = sim
            .expected_with_faults(Workload::ResNet50, &req, &calm, None, 1.0)
            .unwrap();
        let capped = sim
            .expected_with_faults(Workload::ResNet50, &req, &calm, Some(0.6), 1.0)
            .unwrap();
        assert!(capped.latency_ms > free.latency_ms);
        assert_eq!(tighter_cap(Some(0.6), Some(0.8)), Some(0.6));
        assert_eq!(tighter_cap(None, Some(0.8)), Some(0.8));
        assert_eq!(tighter_cap(Some(0.5), None), Some(0.5));
        assert_eq!(tighter_cap(None, None), None);
    }

    #[test]
    fn fallback_skips_processors_that_cannot_run_the_workload() {
        // MobileBERT is recurrent: no mobile co-processor runs it, so the
        // fallback must land on the host CPU.
        let sim = sim();
        let best = sim
            .best_local_fallback(Workload::MobileBert, &Snapshot::calm(), None)
            .unwrap();
        assert_eq!(best.placement, Placement::OnDevice(ProcessorKind::Cpu));
    }

    /// The latency a request should take, from public pieces only: the
    /// uncached layer walk on the site's processor, plus, for an offload,
    /// the link's wire time and the remote's serving overhead.
    fn walked_latency_ms(sim: &Simulator, w: Workload, req: &Request, snapshot: &Snapshot) -> f64 {
        let network = sim.network(w);
        let device = sim.device_for(req.placement);
        let processor = device
            .processor(req.placement.processor_kind())
            .expect("a feasible request has a processor");
        let (link, rssi) = match req.placement {
            Placement::OnDevice(_) => {
                let cond = ExecutionConditions {
                    freq_index: req.freq_index,
                    precision: req.precision,
                    compute_availability: snapshot.cpu_availability(),
                    mem_availability: snapshot.mem_availability(),
                    thermal_cap: device.thermal().cap_for(snapshot.co_cpu),
                };
                return latency::network_latency_ms(processor, network, &cond);
            }
            Placement::ConnectedEdge(_) => (sim.p2p(), snapshot.p2p),
            Placement::Cloud(_) => (sim.wlan(), snapshot.wlan),
        };
        let cond = ExecutionConditions::max_frequency(processor, req.precision);
        let transfer = Transfer::compute(link, network.input_bytes(), network.output_bytes(), rssi);
        transfer.wire_ms()
            + latency::network_latency_ms(processor, network, &cond)
            + device.serving_overhead_ms()
    }

    #[test]
    fn feasibility_matches_the_layer_walk_on_every_testbed() {
        // `check` reads a recurrent flag recorded at construction and a
        // cost table found by one index; both must agree with the walk
        // over the workload's layers. Every (placement, precision) pair
        // covers every action of every action space, whose requests
        // differ further only in DVFS step. Where the walk says feasible,
        // the executed latency must equal the walked one, within the
        // cost table's 1e-9 association error.
        let testbeds = [
            Simulator::new(DeviceId::Mi8Pro),
            Simulator::new(DeviceId::GalaxyS10e),
            Simulator::new(DeviceId::MotoXForce),
            Simulator::with_devices(
                autoscale_platform::Device::mi8pro_npu(),
                autoscale_platform::Device::galaxy_tab_s6(),
                autoscale_platform::Device::cloud_server_tpu(),
            ),
        ];
        let calm = Snapshot::calm();
        let busy = Snapshot::new(
            0.6,
            0.3,
            autoscale_net::Rssi::WEAK,
            autoscale_net::Rssi::WEAK,
        );
        for sim in &testbeds {
            let mut recurrent_rejections = 0;
            let mut executed = 0;
            for w in Workload::ALL {
                for site in [
                    Placement::OnDevice as fn(ProcessorKind) -> Placement,
                    Placement::ConnectedEdge,
                    Placement::Cloud,
                ] {
                    for kind in ProcessorKind::ALL {
                        for precision in Precision::ALL {
                            let req = max_req(sim, site(kind), precision);
                            let walked = sim.processor_for(req.placement).is_some_and(|p| {
                                p.supports_precision(precision)
                                    && (p.runs_recurrent()
                                        || !sim.network(w).has_recurrent_layers())
                            });
                            let at =
                                format!("{} {w} {} {precision:?}", sim.host().id(), req.placement);
                            assert_eq!(sim.is_feasible(w, &req), walked, "{at}");
                            if matches!(
                                sim.check(w, &req),
                                Err(ExecutionError::RecurrentUnsupported(_))
                            ) {
                                recurrent_rejections += 1;
                            }
                            for snapshot in [&calm, &busy] {
                                let outcome = sim.execute_expected(w, &req, snapshot);
                                assert_eq!(outcome.is_ok(), walked, "{at}");
                                let Ok(outcome) = outcome else { continue };
                                let want = walked_latency_ms(sim, w, &req, snapshot);
                                assert!(
                                    (outcome.latency_ms - want).abs() <= 1e-9 * want,
                                    "{at}: executed {} ms, walked {want} ms",
                                    outcome.latency_ms
                                );
                                executed += 1;
                            }
                        }
                    }
                }
            }
            assert!(recurrent_rejections > 0, "{}", sim.host().id());
            assert!(executed > 0, "{}", sim.host().id());
        }
    }

    #[test]
    fn custom_testbed_uses_the_given_devices() {
        let sim = Simulator::with_devices(
            autoscale_platform::Device::mi8pro_npu(),
            autoscale_platform::Device::galaxy_tab_s6(),
            autoscale_platform::Device::cloud_server_tpu(),
        );
        assert!(sim.host().processor(ProcessorKind::Npu).is_some());
        assert!(sim.cloud().processor(ProcessorKind::Npu).is_some());
        // The NPU runs vision models at INT8 but not recurrent ones.
        let npu = Request::at_max_frequency(
            &sim,
            Placement::OnDevice(ProcessorKind::Npu),
            Precision::Int8,
        );
        assert!(sim.is_feasible(Workload::InceptionV1, &npu));
        assert!(!sim.is_feasible(Workload::MobileBert, &npu));
        // The cloud TPU runs everything, at FP16.
        let tpu =
            Request::at_max_frequency(&sim, Placement::Cloud(ProcessorKind::Npu), Precision::Fp16);
        assert!(sim.is_feasible(Workload::MobileBert, &tpu));
    }
}
