//! Reward-convergence detection.
//!
//! The paper's Fig. 14 shows the reward converging "in 40–50 runs" when
//! training from scratch, faster with learning transfer. Convergence is
//! declared when the windowed *median* of the reward stabilizes: the
//! relative change between consecutive window medians stays below a
//! tolerance for a number of consecutive windows. Medians, not means —
//! an epsilon-greedy agent keeps exploring forever, and a single
//! exploratory pick of a terrible target (hundreds of mJ against a
//! tens-of-mJ optimum) would swing a window mean by double-digit
//! percentages long after the policy has settled.
//!
//! Memory is bounded by the window, not by the session: the detector
//! keeps one ring of `window` rewards and an observation count, however
//! long it runs.

/// Detects when a reward stream has converged.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceDetector {
    window: usize,
    tolerance: f64,
    patience: usize,
    min_observations: usize,
    /// The latest rewards, written round-robin: observation `n`
    /// (0-based) lands in slot `n % window`, so at every window
    /// boundary the ring holds exactly the last `window` rewards.
    ring: Vec<f64>,
    observations: usize,
    stable_windows: usize,
    last_level: Option<f64>,
    converged_at: Option<usize>,
}

impl ConvergenceDetector {
    /// Creates a detector that compares consecutive windows of `window`
    /// rewards and declares convergence once the relative change stays
    /// below `tolerance` for `patience` consecutive windows.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `patience == 0`, or `tolerance <= 0`.
    pub fn new(window: usize, tolerance: f64, patience: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(patience > 0, "patience must be positive");
        assert!(
            tolerance > 0.0 && tolerance.is_finite(),
            "tolerance must be positive"
        );
        ConvergenceDetector {
            window,
            tolerance,
            patience,
            min_observations: 0,
            ring: vec![0.0; window],
            observations: 0,
            stable_windows: 0,
            last_level: None,
            converged_at: None,
        }
    }

    /// Requires at least `n` observations before convergence can be
    /// declared. An epsilon-greedy agent with a pessimistically rewarded,
    /// optimistically initialized table sweeps its whole action space
    /// once before its policy means anything; coincidentally similar
    /// reward windows *during* that sweep must not count as convergence.
    /// Agents set this to their action-space size.
    pub fn with_min_observations(mut self, n: usize) -> Self {
        self.min_observations = n;
        self
    }

    /// A detector tuned for the paper's training regime: windows of 10
    /// inference runs, three consecutive stable windows, and a 10%
    /// tolerance — wide enough that epsilon-exploration and measurement
    /// noise on a settled policy do not mask the plateau, demanding
    /// enough that the optimistic sweep's wildly varying rewards do not
    /// trigger a false convergence (adjacent sweep windows are sometimes
    /// coincidentally close, but not three times in a row).
    pub fn paper() -> Self {
        ConvergenceDetector::new(10, 0.10, 3)
    }

    /// Feeds one reward observation; returns `true` once converged.
    pub fn observe(&mut self, reward: f64) -> bool {
        let slot = self.observations % self.window;
        self.observations += 1;
        if self.converged_at.is_some() {
            return true;
        }
        self.ring[slot] = reward;
        if self.observations < self.min_observations {
            return false;
        }
        if self.observations.is_multiple_of(self.window) {
            // Sorting the ring in place is exact: the next `window`
            // observations overwrite every slot before the next boundary.
            let level = median(&mut self.ring);
            if let Some(prev) = self.last_level {
                let scale = prev.abs().max(1e-9);
                let change = (level - prev).abs() / scale;
                if change < self.tolerance {
                    self.stable_windows += 1;
                    if self.stable_windows >= self.patience {
                        self.converged_at = Some(self.observations);
                    }
                } else {
                    self.stable_windows = 0;
                }
            }
            self.last_level = Some(level);
        }
        self.converged_at.is_some()
    }

    /// Whether convergence has been declared.
    pub fn is_converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// The observation count at which convergence was declared, if any.
    pub fn converged_at(&self) -> Option<usize> {
        self.converged_at
    }

    /// Number of rewards observed so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Median of the most recent full window, if one has completed.
    pub fn recent_level(&self) -> Option<f64> {
        self.last_level
    }
}

/// Median of a non-empty slice, sorting it in place.
fn median(values: &mut [f64]) -> f64 {
    #[expect(clippy::expect_used, reason = "eq. (5) rewards are finite")]
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite rewards"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_stream_converges_quickly() {
        let mut d = ConvergenceDetector::new(5, 0.05, 2);
        let mut converged_at = None;
        for i in 0..100 {
            if d.observe(10.0) && converged_at.is_none() {
                converged_at = Some(i + 1);
            }
        }
        // Windows at 5, 10, 15: two stable comparisons complete at 15.
        assert_eq!(converged_at, Some(15));
        assert_eq!(d.converged_at(), Some(15));
    }

    #[test]
    fn improving_stream_converges_once_it_plateaus() {
        let mut d = ConvergenceDetector::new(5, 0.05, 2);
        // Steep improvement for 30 steps, then a plateau.
        for i in 0..30 {
            assert!(!d.observe(i as f64 * 10.0));
        }
        let mut converged = false;
        for _ in 0..30 {
            converged = d.observe(300.0);
        }
        assert!(converged);
        assert!(d.converged_at().unwrap() > 30);
    }

    #[test]
    fn noisy_but_stationary_stream_converges() {
        let mut d = ConvergenceDetector::new(10, 0.05, 2);
        // ±1% deterministic jitter around 100.
        let mut converged = false;
        for i in 0..100 {
            let jitter = if i % 2 == 0 { 1.0 } else { -1.0 };
            converged = d.observe(100.0 + jitter);
        }
        assert!(converged);
    }

    #[test]
    fn occasional_exploration_spikes_do_not_block_convergence() {
        // A settled epsilon-greedy policy: mostly -20, with an exploratory
        // -400 disaster every 9th step. Means would swing; medians don't.
        let mut d = ConvergenceDetector::new(10, 0.05, 2);
        let mut converged = false;
        for i in 0..120 {
            let r = if i % 9 == 0 { -400.0 } else { -20.0 };
            converged = d.observe(r);
        }
        assert!(converged);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn partial_windows_report_no_level() {
        let mut d = ConvergenceDetector::paper();
        for i in 0..7 {
            d.observe(i as f64);
        }
        assert_eq!(d.observations(), 7);
        assert_eq!(d.recent_level(), None); // no full window of 10 yet
    }

    #[test]
    fn memory_is_bounded_by_the_window() {
        // Window medians alternate between 1 and 100, so the stream never
        // converges and the detector keeps writing for all 10^5 rewards.
        let mut d = ConvergenceDetector::paper().with_min_observations(66);
        for i in 0..100_000 {
            d.observe(if (i / 10) % 2 == 0 { 1.0 } else { 100.0 });
        }
        assert_eq!(d.converged_at(), None);
        assert_eq!(d.observations(), 100_000);
        assert_eq!(d.ring.len(), 10);
        assert_eq!(d.ring.capacity(), 10);
    }

    /// The detector as it was when it kept every reward: the median of
    /// the last full window at each boundary, read from the whole
    /// history.
    fn full_history_converged_at(
        (window, tolerance, patience, min_observations): (usize, f64, usize, usize),
        rewards: &[f64],
    ) -> Option<usize> {
        let mut stable = 0;
        let mut last: Option<f64> = None;
        for n in (1..=rewards.len()).filter(|n| n % window == 0 && *n >= min_observations) {
            let level = median(&mut rewards[n - window..n].to_vec());
            if let Some(prev) = last {
                if (level - prev).abs() / prev.abs().max(1e-9) < tolerance {
                    stable += 1;
                    if stable >= patience {
                        return Some(n);
                    }
                } else {
                    stable = 0;
                }
            }
            last = Some(level);
        }
        None
    }

    #[test]
    fn ring_matches_the_full_history_reference() {
        let flat = vec![-20.0; 300];
        let plateau: Vec<f64> = (0..300)
            .map(|i| -500.0 + (i.min(120) as f64) * 4.0)
            .collect();
        let spiky: Vec<f64> = (0..300)
            .map(|i| {
                if i % 9 == 0 {
                    -400.0
                } else {
                    -20.0 - (i % 4) as f64
                }
            })
            .collect();
        // The paper's setting (min 66 is no multiple of 10), plus gates
        // that skip some boundaries or none.
        let settings = [
            (10, 0.10, 3, 66),
            (10, 0.05, 2, 0),
            (5, 0.05, 2, 7),
            (7, 0.02, 4, 23),
        ];
        let mut converged = 0;
        for stream in [&flat, &plateau, &spiky] {
            for setting @ (window, tolerance, patience, min_observations) in settings {
                let mut d = ConvergenceDetector::new(window, tolerance, patience)
                    .with_min_observations(min_observations);
                for &r in stream.iter() {
                    d.observe(r);
                }
                let expected = full_history_converged_at(setting, stream);
                assert_eq!(d.converged_at(), expected, "{setting:?}");
                converged += usize::from(expected.is_some());
            }
        }
        assert!(converged >= 6, "the streams exercise convergence");
    }

    #[test]
    fn stays_converged_after_detection() {
        let mut d = ConvergenceDetector::new(2, 0.5, 1);
        for _ in 0..4 {
            d.observe(1.0);
        }
        assert!(d.is_converged());
        // A wild observation afterwards does not un-converge it.
        assert!(d.observe(1000.0));
    }

    #[test]
    fn min_observations_gates_convergence() {
        let mut d = ConvergenceDetector::new(5, 0.5, 1).with_min_observations(40);
        // A perfectly flat stream: without the gate this converges at 10.
        let mut converged_at = None;
        for i in 0..60 {
            if d.observe(1.0) && converged_at.is_none() {
                converged_at = Some(i + 1);
            }
        }
        let at = converged_at.expect("eventually converges");
        assert!(at >= 40, "converged at {at}, before the gate");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = ConvergenceDetector::new(0, 0.1, 1);
    }
}
