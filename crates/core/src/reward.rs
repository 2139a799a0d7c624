//! The MABFuzz reward function (§III-B of the paper).

use serde::{Deserialize, Serialize};

/// Parameters of the coverage reward
/// `R_t(a) = α·|cov_L(a)| + (1 − α)·|cov_G(a)|`.
///
/// `cov_L` is the set of points the pulled arm covered for the first time
/// *for itself*; `cov_G ⊆ cov_L` is the subset nobody had covered before.
/// With the paper's `α = 0.25`, a globally new point contributes
/// `α + (1 − α) = 1.0` while a locally-new-but-globally-known point
/// contributes only `α = 0.25` — i.e. globally novel coverage is worth 3×
/// more in addition to the base credit (the paper phrases the same ratio as
/// "3× importance").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardParams {
    /// Weight of arm-local novelty.
    pub alpha: f64,
}

impl RewardParams {
    /// Creates reward parameters.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` lies outside `[0, 1]`.
    pub fn new(alpha: f64) -> RewardParams {
        assert!((0.0..=1.0).contains(&alpha), "alpha must lie in [0, 1]");
        RewardParams { alpha }
    }

    /// Computes the raw (unnormalised) reward from the number of arm-locally
    /// new points and globally new points covered by the pulled test.
    ///
    /// # Panics
    ///
    /// Panics if `global_new > local_new` — by construction `cov_G` is a
    /// subset of `cov_L`, so a larger value indicates a bookkeeping bug in the
    /// caller.
    pub fn reward(&self, local_new: usize, global_new: usize) -> f64 {
        assert!(
            global_new <= local_new,
            "globally new points ({global_new}) cannot exceed locally new points ({local_new})"
        );
        self.alpha * local_new as f64 + (1.0 - self.alpha) * global_new as f64
    }

    /// Computes the reward normalised by the total number of coverage points
    /// `|C|`, as required by the modified EXP3 (Algorithm 2, line 6).
    pub fn normalized_reward(&self, local_new: usize, global_new: usize, total_points: usize) -> f64 {
        if total_points == 0 {
            return 0.0;
        }
        (self.reward(local_new, global_new) / total_points as f64).clamp(0.0, 1.0)
    }

    /// Computes the reward in the shape `kind` expects: EXP3 receives the
    /// `[0, 1]`-normalised reward (divided by `total_points`), every other
    /// policy the raw weighted count.
    ///
    /// This is the single reward formula of the campaign fold — serial and
    /// batched rounds call it per test in `test_index` order.
    pub fn policy_reward(
        &self,
        kind: mab::BanditKind,
        local_new: usize,
        global_new: usize,
        total_points: usize,
    ) -> f64 {
        match kind {
            mab::BanditKind::Exp3 => self.normalized_reward(local_new, global_new, total_points),
            _ => self.reward(local_new, global_new),
        }
    }
}

impl Default for RewardParams {
    /// The paper's default, `α = 0.25`.
    fn default() -> Self {
        RewardParams::new(0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_weighting() {
        let params = RewardParams::default();
        // A globally new point is worth 3× more than a locally new one *on
        // top of* the base local credit: 10 local-only points vs 10 global
        // points.
        let local_only = params.reward(10, 0);
        let global = params.reward(10, 10);
        assert!((local_only - 2.5).abs() < 1e-12);
        assert!((global - 10.0).abs() < 1e-12);
        assert!((global / local_only - 4.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_extremes() {
        assert_eq!(RewardParams::new(1.0).reward(7, 3), 7.0);
        assert_eq!(RewardParams::new(0.0).reward(7, 3), 3.0);
    }

    #[test]
    fn zero_coverage_gives_zero_reward() {
        assert_eq!(RewardParams::default().reward(0, 0), 0.0);
        assert_eq!(RewardParams::default().normalized_reward(0, 0, 100), 0.0);
    }

    #[test]
    fn normalisation_divides_by_the_space_size() {
        let params = RewardParams::new(0.25);
        let normalized = params.normalized_reward(8, 4, 100);
        assert!((normalized - (0.25 * 8.0 + 0.75 * 4.0) / 100.0).abs() < 1e-12);
        assert_eq!(params.normalized_reward(5, 5, 0), 0.0, "empty spaces yield zero");
        assert!(params.normalized_reward(1_000_000, 1_000_000, 10) <= 1.0, "clamped into [0, 1]");
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn inconsistent_counts_panic() {
        let _ = RewardParams::default().reward(2, 5);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = RewardParams::new(-0.1);
    }

    proptest! {
        /// The reward is monotone in both of its arguments and bounded by the
        /// locally-new count.
        #[test]
        fn reward_is_monotone_and_bounded(
            alpha in 0.0f64..=1.0,
            local in 0usize..1000,
            global_fraction in 0.0f64..=1.0,
        ) {
            let params = RewardParams::new(alpha);
            let global = (local as f64 * global_fraction) as usize;
            let reward = params.reward(local, global);
            prop_assert!(reward >= 0.0);
            prop_assert!(reward <= local as f64 + 1e-9);
            if local > 0 {
                prop_assert!(params.reward(local, local) >= reward - 1e-9);
                prop_assert!(reward >= params.reward(local, 0) - 1e-9);
            }
            let normalized = params.normalized_reward(local, global, 2000);
            prop_assert!((0.0..=1.0).contains(&normalized));
        }
    }
}
