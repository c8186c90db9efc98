//! Span recording for the traced run.
//!
//! The traced replica reads the clock once per layer boundary: each
//! [`Tracer::lap`] closes the span that began at the previous boundary,
//! so the spans of one decision are chained end to end. Every span
//! contains exactly one boundary (the clock read that closes it and the
//! recording around it), so the calibrated cost of one boundary is
//! subtracted once per span.
//!
//! Spans are aggregated in memory per layer (count, sum and a log2
//! histogram). For one sampled session the first [`RAW_STEPS`]
//! decisions are also kept raw and written out as Chrome `trace_event`
//! JSON, which any trace viewer opens offline.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Decisions of the sampled session whose spans are kept raw.
pub const RAW_STEPS: usize = 1_000;

/// The layers a traced request is split into, each the call (or calls)
/// into one public function of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `AutoScaleEngine::new` + `Environment::for_id` + `seeded_rng`
    /// (+ `FaultInjector::new`).
    SessionSetup,
    /// `Simulator::prepare`.
    Prepare,
    /// `Environment::sample`.
    EnvSample,
    /// `AutoScaleEngine::decide_kernel`.
    Decide,
    /// `FaultInjector::next_faults`.
    FaultDraw,
    /// `PreparedExecutor::execute_measured` or `execute_resilient`.
    Execute,
    /// The digest fold and counters between execute and learn. Not a
    /// layer of the program; it is left out of the layer sum.
    Bookkeeping,
    /// `AutoScaleEngine::learn`: energy estimate, reward, Q update and
    /// convergence observe.
    Learn,
    /// `is_converged` and `freeze`.
    ConvergeCheck,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 9] = [
        Layer::SessionSetup,
        Layer::Prepare,
        Layer::EnvSample,
        Layer::Decide,
        Layer::FaultDraw,
        Layer::Execute,
        Layer::Bookkeeping,
        Layer::Learn,
        Layer::ConvergeCheck,
    ];

    /// The span name in the Chrome trace and the histogram lines.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SessionSetup => "serve.session_setup",
            Layer::Prepare => "sim.prepare",
            Layer::EnvSample => "sim.env_sample",
            Layer::Decide => "engine.decide",
            Layer::FaultDraw => "sim.fault_draw",
            Layer::Execute => "sim.execute",
            Layer::Bookkeeping => "serve.bookkeeping",
            Layer::Learn => "engine.learn",
            Layer::ConvergeCheck => "engine.converge_check",
        }
    }
}

/// Count, sum and log2 histogram of one layer's span durations.
#[derive(Debug, Clone, Copy)]
pub struct Tally {
    /// Spans recorded.
    pub count: u64,
    /// Sum of the clock-corrected durations, in ns. Single spans of a
    /// few ns can come out negative after the correction; the sum is
    /// the unbiased estimate.
    pub sum_ns: f64,
    /// `log2[k]` counts spans of `[2^(k-1), 2^k)` ns (`log2[0]`: under
    /// 1 ns).
    pub log2: [u64; 40],
}

impl Tally {
    const EMPTY: Tally = Tally {
        count: 0,
        sum_ns: 0.0,
        log2: [0; 40],
    };

    fn record(&mut self, ns: f64) {
        self.count += 1;
        self.sum_ns += ns;
        let whole = ns.max(0.0) as u64;
        let bucket = (u64::BITS - whole.leading_zeros()) as usize;
        self.log2[bucket.min(self.log2.len() - 1)] += 1;
    }

    /// The upper bound, in ns, of the histogram bucket holding the
    /// `p`-th percentile span.
    pub fn percentile_bound_ns(&self, p: f64) -> u64 {
        let rank = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, n) in self.log2.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1 << k;
            }
        }
        1 << (self.log2.len() - 1)
    }
}

/// One raw span of the sampled session.
struct RawSpan {
    name: &'static str,
    start_ns: f64,
    dur_ns: f64,
    /// The decision this span belongs to; `None` for session setup.
    decision: Option<usize>,
}

/// The in-memory span recorder of one traced run.
pub struct Tracer {
    /// Calibrated cost of one boundary, in ns.
    clock_ns: f64,
    origin: Instant,
    last: Instant,
    tallies: [Tally; Layer::ALL.len()],
    /// The session whose spans are kept raw.
    sampled: Option<usize>,
    /// Whether spans are currently kept raw.
    raw_on: bool,
    raw: Vec<RawSpan>,
    step: Option<(usize, Instant)>,
}

impl Tracer {
    /// A tracer with a freshly calibrated clock that keeps the spans of
    /// session `sampled` raw.
    pub fn new(sampled: Option<usize>) -> Self {
        let now = Instant::now();
        let mut tracer = Tracer {
            clock_ns: 0.0,
            origin: now,
            last: now,
            tallies: [Tally::EMPTY; Layer::ALL.len()],
            sampled,
            raw_on: false,
            raw: Vec::new(),
            step: None,
        };
        tracer.clock_ns = tracer.calibrate();
        tracer.tallies = [Tally::EMPTY; Layer::ALL.len()];
        tracer
    }

    /// The cost of one boundary (the clock read plus the recording
    /// around it): the median over nine batches of the mean length of
    /// 1,000 empty laps. Batch means are continuous, so the correction
    /// is not quantized to whole nanoseconds.
    fn calibrate(&mut self) -> f64 {
        const LAPS: u32 = 1_000;
        let mut batches: Vec<f64> = (0..9)
            .map(|_| {
                let tally = &mut self.tallies[Layer::SessionSetup as usize];
                *tally = Tally::EMPTY;
                self.last = Instant::now();
                for _ in 0..LAPS {
                    self.lap(Layer::SessionSetup);
                }
                let tally = &self.tallies[Layer::SessionSetup as usize];
                tally.sum_ns / tally.count as f64
            })
            .collect();
        batches.sort_by(f64::total_cmp);
        batches[batches.len() / 2]
    }

    /// The calibrated cost of one boundary, in ns.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// The aggregate of one layer.
    pub fn tally(&self, layer: Layer) -> &Tally {
        &self.tallies[layer as usize]
    }

    /// Starts a session's span chain: the next lap measures from here.
    pub fn begin_session(&mut self, session: usize) {
        self.raw_on = self.sampled == Some(session);
        self.last = Instant::now();
    }

    /// Marks the start of decision `decision`; its parent span runs from
    /// the last boundary to the lap that [`Tracer::end_step`] follows.
    pub fn begin_step(&mut self, decision: usize) {
        self.step = Some((decision, self.last));
        if decision >= RAW_STEPS {
            self.raw_on = false;
        }
    }

    /// Closes the current decision's parent span.
    pub fn end_step(&mut self) {
        if let Some((decision, start)) = self.step.take() {
            if self.raw_on {
                self.raw.push(RawSpan {
                    name: "serve.step",
                    start_ns: ns_between(self.origin, start),
                    dur_ns: ns_between(start, self.last),
                    decision: Some(decision),
                });
            }
        }
    }

    /// Closes the span of `layer` that began at the previous boundary.
    #[inline]
    pub fn lap(&mut self, layer: Layer) {
        let now = Instant::now();
        let ns = ns_between(self.last, now) - self.clock_ns;
        self.tallies[layer as usize].record(ns);
        if self.raw_on {
            self.raw.push(RawSpan {
                name: layer.name(),
                start_ns: ns_between(self.origin, self.last),
                dur_ns: ns,
                decision: self.step.map(|(d, _)| d),
            });
        }
        self.last = now;
    }

    /// Writes the sampled session's raw spans as Chrome `trace_event`
    /// JSON: one complete (`"ph": "X"`) event per span, timestamps in
    /// µs, the layer spans of a decision carrying the decision's id and
    /// naming `serve.step` as their parent.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let session = self.sampled.unwrap_or(0);
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, span) in self.raw.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let args = match (span.decision, span.name) {
                (Some(d), "serve.step") => format!("{{\"id\":\"{session}:{d}\"}}"),
                (Some(d), _) => format!("{{\"id\":\"{session}:{d}\",\"parent\":\"serve.step\"}}"),
                (None, _) => "{}".to_string(),
            };
            // Writing into a String cannot fail.
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{session},\"ts\":{},\"dur\":{},\"args\":{args}}}",
                span.name,
                span.start_ns / 1e3,
                span.dur_ns.max(0.0) / 1e3,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn ns_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_nanos() as f64
}
