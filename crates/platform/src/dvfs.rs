//! Dynamic voltage and frequency scaling (DVFS) ladders.
//!
//! Table II of the paper lists the number of voltage/frequency (V/F) steps
//! each mobile processor exposes (e.g. 23 for the Mi8Pro CPU, 7 for its
//! GPU). AutoScale augments its action space with these steps: "as long as
//! the QoS constraint is satisfied, it is possible to reduce the frequency
//! of processors, saving energy" (Section IV-A).
//!
//! Busy power at each step follows the classic CMOS scaling shape
//! `P(r) = P_max · (d·r³ + (1−d)·r)` where `r = f/f_max`: the cubic term
//! models voltage scaling of dynamic power and the linear term the
//! frequency-proportional remainder. This makes low frequencies more
//! energy-efficient per unit of work while a device-level base power (paid
//! elsewhere, per-inference) pushes back with a race-to-idle incentive —
//! the tension AutoScale's DVFS actions navigate.

use serde::{Deserialize, Serialize};

/// Fraction of busy power that scales cubically with frequency ratio
/// (voltage-scaled dynamic power); the remainder scales linearly.
const CUBIC_FRACTION: f64 = 0.6;

/// One voltage/frequency step of a processor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FreqStep {
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Power drawn while busy at this step, in watts (the paper's
    /// `P_busy^f`, measured per frequency on the real devices).
    pub busy_power_w: f64,
}

/// An ordered set of V/F steps, lowest frequency first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsLadder {
    steps: Vec<FreqStep>,
}

impl DvfsLadder {
    /// Builds a ladder of `n` evenly spaced steps between `min_ghz` and
    /// `max_ghz` (inclusive), with busy power `max_busy_power_w` at the top
    /// step and CMOS-shaped power below it.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if `min_ghz <= 0`, or if `min_ghz > max_ghz`.
    ///
    /// # Example
    ///
    /// ```
    /// use autoscale_platform::DvfsLadder;
    /// let ladder = DvfsLadder::linear(23, 0.8, 2.8, 4.0);
    /// assert_eq!(ladder.len(), 23);
    /// assert_eq!(ladder.max_step().freq_ghz, 2.8);
    /// ```
    pub fn linear(n: usize, min_ghz: f64, max_ghz: f64, max_busy_power_w: f64) -> Self {
        assert!(n > 0, "a DVFS ladder needs at least one step");
        assert!(
            min_ghz > 0.0 && min_ghz <= max_ghz,
            "invalid frequency range"
        );
        let steps = (0..n)
            .map(|i| {
                let freq_ghz = if n == 1 {
                    max_ghz
                } else {
                    min_ghz + (max_ghz - min_ghz) * i as f64 / (n - 1) as f64
                };
                let r = freq_ghz / max_ghz;
                let busy_power_w =
                    max_busy_power_w * (CUBIC_FRACTION * r.powi(3) + (1.0 - CUBIC_FRACTION) * r);
                FreqStep {
                    freq_ghz,
                    busy_power_w,
                }
            })
            .collect();
        DvfsLadder { steps }
    }

    /// A single-step ladder (processors without DVFS, e.g. the DSP — the
    /// paper notes "DSP does not support DVFS yet").
    pub fn fixed(freq_ghz: f64, busy_power_w: f64) -> Self {
        DvfsLadder {
            steps: vec![FreqStep {
                freq_ghz,
                busy_power_w,
            }],
        }
    }

    /// Number of V/F steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the ladder has no steps (never true for constructed ladders).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The steps, lowest frequency first.
    pub fn steps(&self) -> &[FreqStep] {
        &self.steps
    }

    /// The step at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn step(&self, index: usize) -> FreqStep {
        self.steps[index]
    }

    /// The highest-frequency step.
    pub fn max_step(&self) -> FreqStep {
        #[expect(
            clippy::expect_used,
            reason = "ladder constructors reject empty step lists"
        )]
        *self.steps.last().expect("ladders are never empty")
    }

    /// Index of the highest-frequency step.
    pub fn max_index(&self) -> usize {
        self.steps.len() - 1
    }

    /// Frequency at `index` as a ratio of the maximum frequency, in (0, 1].
    pub fn freq_ratio(&self, index: usize) -> f64 {
        self.steps[index].freq_ghz / self.max_step().freq_ghz
    }

    /// The largest step index whose frequency ratio does not exceed `cap`,
    /// used by the thermal model to clamp a requested step.
    pub fn highest_index_at_or_below_ratio(&self, cap: f64) -> usize {
        let mut best = 0;
        for (i, _) in self.steps.iter().enumerate() {
            if self.freq_ratio(i) <= cap {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_ladder_spans_range() {
        let l = DvfsLadder::linear(5, 1.0, 2.0, 3.0);
        assert_eq!(l.len(), 5);
        assert!((l.step(0).freq_ghz - 1.0).abs() < 1e-12);
        assert!((l.max_step().freq_ghz - 2.0).abs() < 1e-12);
    }

    #[test]
    fn busy_power_is_monotonic_in_frequency() {
        let l = DvfsLadder::linear(23, 0.8, 2.8, 4.0);
        for w in l.steps().windows(2) {
            assert!(w[0].busy_power_w < w[1].busy_power_w);
        }
    }

    #[test]
    fn top_step_draws_max_power() {
        let l = DvfsLadder::linear(10, 0.5, 2.5, 5.5);
        assert!((l.max_step().busy_power_w - 5.5).abs() < 1e-9);
    }

    #[test]
    fn energy_per_work_improves_at_lower_frequency() {
        // P(r)/r decreases as r drops: the core motivation for DVFS actions.
        let l = DvfsLadder::linear(10, 0.5, 2.5, 5.5);
        let per_work = |i: usize| l.step(i).busy_power_w / l.freq_ratio(i);
        assert!(per_work(0) < per_work(l.max_index()));
    }

    #[test]
    fn fixed_ladder_has_one_step() {
        let l = DvfsLadder::fixed(0.7, 1.3);
        assert_eq!(l.len(), 1);
        assert_eq!(l.max_index(), 0);
        assert!((l.freq_ratio(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_step_linear_ladder_sits_at_max() {
        let l = DvfsLadder::linear(1, 1.0, 2.4, 120.0);
        assert!((l.step(0).freq_ghz - 2.4).abs() < 1e-12);
        assert!((l.step(0).busy_power_w - 120.0).abs() < 1e-9);
    }

    #[test]
    fn cap_lookup_clamps_to_lowest() {
        let l = DvfsLadder::linear(4, 1.0, 2.0, 2.0);
        // Ratios: 0.5, ~0.667, ~0.833, 1.0.
        assert_eq!(l.highest_index_at_or_below_ratio(0.1), 0);
        assert_eq!(l.highest_index_at_or_below_ratio(0.7), 1);
        assert_eq!(l.highest_index_at_or_below_ratio(1.0), 3);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_panics() {
        let _ = DvfsLadder::linear(0, 1.0, 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid frequency range")]
    fn inverted_range_panics() {
        let _ = DvfsLadder::linear(3, 2.0, 1.0, 1.0);
    }
}
