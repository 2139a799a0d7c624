//! Multi-armed bandit algorithms with the MABFuzz *reset-arm* modification.
//!
//! The MABFuzz paper maps seed selection in a hardware fuzzer onto a
//! multi-armed bandit problem: each arm is a seed (and its mutation-derived
//! test pool), pulling an arm simulates one of its tests, and the reward is
//! the weighted number of new coverage points the test reached. Because the
//! coverage return of any one seed *diminishes over time*, the paper modifies
//! the classic algorithms so that a saturated arm can be **reset** — replaced
//! by a fresh seed — with its learner statistics re-initialised
//! (Algorithms 1 and 2 of the paper):
//!
//! * ε-greedy and UCB1 reset the pull count `N(a)` and the value estimate
//!   `Q(a)` to zero;
//! * EXP3 sets the arm's weight to the average weight of the other arms and
//!   normalises rewards by the total number of coverage points.
//!
//! The crate is independent of fuzzing — rewards are plain `f64` — so the
//! algorithms can be tested against synthetic bandit instances and reused in
//! other schedulers. The fuzzing-specific pieces (reward shaping, saturation
//! monitoring) live in the `mabfuzz` crate.
//!
//! # Example
//!
//! ```
//! use mab::{Bandit, BanditKind, EpsilonGreedy};
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut bandit = EpsilonGreedy::new(4, 0.1);
//! for _ in 0..100 {
//!     let arm = bandit.select(&mut rng);
//!     // Arm 2 pays off; the others do not.
//!     let reward = if arm == 2 { 1.0 } else { 0.0 };
//!     bandit.update(arm, reward);
//! }
//! assert_eq!(bandit.kind(), BanditKind::EpsilonGreedy);
//! assert!(bandit.value(2) > bandit.value(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epsilon_greedy;
pub mod exp3;
pub mod registry;
pub mod thompson;
pub mod ucb;

pub use epsilon_greedy::EpsilonGreedy;
pub use exp3::Exp3;
pub use registry::{
    lookup_policy, register_policy, registered_policies, PolicyFactory, PolicyParams,
    RegistryError, BASELINE_SCHEDULER_NAMES,
};
pub use thompson::Thompson;
pub use ucb::Ucb1;

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Identifies which bandit algorithm a policy implements.
///
/// Beyond the three algorithms evaluated in the paper,
/// [`Custom`](BanditKind::Custom) identifies a policy registered at runtime through
/// [`register_policy`] — parsing, building and display all route through the
/// registry, so a custom policy behaves exactly like a built-in everywhere a
/// `BanditKind` is accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BanditKind {
    /// ε-greedy: exploit the best-known arm with probability `1 − ε`.
    EpsilonGreedy,
    /// UCB1: optimism in the face of uncertainty.
    Ucb1,
    /// EXP3: exponential weights for adversarial (non-stationary) rewards.
    Exp3,
    /// Thompson sampling: Gaussian-posterior Bayesian sampling (a built-in
    /// beyond the paper's three; not part of [`ALL`](BanditKind::ALL), so
    /// the paper-replication sweeps are unchanged).
    Thompson,
    /// A policy registered at runtime under this name (see
    /// [`register_policy`]). The name is interned by the registry for the
    /// lifetime of the process.
    Custom(&'static str),
}

/// The error [`BanditKind::parse`] returns for an unknown policy name.
///
/// Its `Display` form lists every valid policy — built-ins first, then the
/// registered custom policies — so a typo'd `--algorithm` flag tells the
/// user what would have been accepted instead of silently defaulting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// The name that failed to parse.
    pub name: String,
    /// Every acceptable policy name at the time of the call.
    pub valid: Vec<&'static str>,
}

impl fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown bandit policy `{}` (valid policies: {})", self.name, self.valid.join(", "))
    }
}

impl std::error::Error for UnknownPolicy {}

impl BanditKind {
    /// All algorithm kinds evaluated in the paper. [`Thompson`] is a
    /// built-in but deliberately *not* listed here: the replication sweeps
    /// (Table 1, Figures 3/4, the golden smoke report) iterate `ALL` and
    /// must keep producing byte-identical artefacts.
    pub const ALL: [BanditKind; 3] = [BanditKind::EpsilonGreedy, BanditKind::Ucb1, BanditKind::Exp3];

    /// Every built-in kind: the paper's three plus [`Thompson`]. This is
    /// what name parsing, the registry's reserved-name check and the
    /// "valid policies" error listing cover.
    pub const BUILTINS: [BanditKind; 4] = [
        BanditKind::EpsilonGreedy,
        BanditKind::Ucb1,
        BanditKind::Exp3,
        BanditKind::Thompson,
    ];

    /// Returns the display name used in the paper's tables and figures (for
    /// custom policies, the name they were registered under).
    pub fn name(self) -> &'static str {
        match self {
            BanditKind::EpsilonGreedy => "epsilon-greedy",
            BanditKind::Ucb1 => "UCB",
            BanditKind::Exp3 => "EXP3",
            BanditKind::Thompson => "thompson",
            BanditKind::Custom(name) => name,
        }
    }

    /// Parses a built-in algorithm name. `text` must already be lower-case;
    /// shared by [`parse`](BanditKind::parse) and the registry's
    /// reserved-name check.
    pub(crate) fn parse_builtin(text: &str) -> Option<BanditKind> {
        match text {
            "epsilon-greedy" | "epsilon_greedy" | "eps-greedy" | "egreedy" | "e-greedy" => {
                Some(BanditKind::EpsilonGreedy)
            }
            "ucb" | "ucb1" => Some(BanditKind::Ucb1),
            "exp3" => Some(BanditKind::Exp3),
            "thompson" | "thompson-sampling" | "ts" => Some(BanditKind::Thompson),
            _ => None,
        }
    }

    /// Parses an algorithm name, case-insensitively: the built-in spellings
    /// (several common aliases accepted) plus every policy registered through
    /// [`register_policy`].
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPolicy`] — whose `Display` lists all valid names —
    /// when the name matches neither a built-in nor a registered policy.
    pub fn parse(text: &str) -> Result<BanditKind, UnknownPolicy> {
        let key = text.trim().to_ascii_lowercase();
        if let Some(kind) = BanditKind::parse_builtin(&key) {
            return Ok(kind);
        }
        if let Some(kind) = lookup_policy(&key) {
            return Ok(kind);
        }
        let mut valid: Vec<&'static str> = BanditKind::BUILTINS.iter().map(|k| k.name()).collect();
        valid.extend(registered_policies());
        Err(UnknownPolicy { name: text.trim().to_owned(), valid })
    }

    /// Builds the corresponding policy with the paper's default parameters
    /// (ε = 0.1, EXP3 learning rate η = 0.1).
    ///
    /// # Panics
    ///
    /// Panics for a hand-constructed [`Custom`](BanditKind::Custom) kind
    /// whose name was never registered. Custom kinds obtained from
    /// [`register_policy`] or [`parse`](BanditKind::parse) always build;
    /// the campaign-spec layer additionally validates registration and
    /// returns an error instead of panicking.
    pub fn build(self, arms: usize) -> Box<dyn Bandit> {
        self.build_with(&PolicyParams::defaults(self, arms))
    }

    /// Builds the corresponding policy with explicit parameters. Custom
    /// kinds route through the factory registered under their name.
    ///
    /// # Panics
    ///
    /// See [`build`](BanditKind::build).
    pub fn build_with(self, params: &PolicyParams) -> Box<dyn Bandit> {
        match self {
            BanditKind::EpsilonGreedy => Box::new(EpsilonGreedy::new(params.arms, params.epsilon)),
            BanditKind::Ucb1 => Box::new(Ucb1::new(params.arms)),
            BanditKind::Exp3 => Box::new(Exp3::new(params.arms, params.eta)),
            BanditKind::Thompson => Box::new(Thompson::new(params.arms)),
            BanditKind::Custom(name) => {
                let params = PolicyParams { kind: self, ..*params };
                registry::build_registered(name, &params)
                    .unwrap_or_else(|| panic!("custom policy `{name}` is not registered"))
            }
        }
    }
}

impl std::fmt::Display for BanditKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A multi-armed bandit policy with the reset-arm extension.
///
/// Rewards are expected to be non-negative; EXP3 additionally expects them to
/// be normalised into `[0, 1]` by the caller (the `mabfuzz` crate divides by
/// the total number of coverage points, as the paper prescribes).
pub trait Bandit: Send {
    /// Returns which algorithm this policy implements.
    fn kind(&self) -> BanditKind;

    /// Returns the number of arms.
    fn arms(&self) -> usize;

    /// Selects the arm to pull next.
    fn select(&mut self, rng: &mut dyn rand::RngCore) -> usize;

    /// Reports the reward observed for pulling `arm`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `arm` is out of range.
    fn update(&mut self, arm: usize, reward: f64);

    /// Reports the rewards of a whole batch of pulls of `arm`, folding them
    /// **in slice order** — the bandit-side half of the batched campaign's
    /// ordered reduction (see the determinism contract in `fuzzer::shard`).
    ///
    /// The default implementation is exactly a sequence of
    /// [`update`](Bandit::update) calls, so a policy observes the same
    /// statistics whether its rewards arrive one by one (serial campaign)
    /// or per round (batched campaign). Implementations overriding this for
    /// speed must preserve that equivalence.
    ///
    /// # Panics
    ///
    /// Implementations panic if `arm` is out of range.
    fn update_batch(&mut self, arm: usize, rewards: &[f64]) {
        for &reward in rewards {
            self.update(arm, reward);
        }
    }

    /// Re-initialises the learner statistics of `arm` after the arm has been
    /// replaced with a fresh seed (the paper's reset-arms feature).
    fn reset_arm(&mut self, arm: usize);

    /// Returns the policy's current value estimate (or normalised weight) for
    /// `arm`; used for introspection, reporting and tests.
    fn value(&self, arm: usize) -> f64;

    /// Returns the number of times `arm` has been pulled since it was last
    /// reset.
    fn pulls(&self, arm: usize) -> u64;
}

/// Draws an arm index from a discrete probability distribution.
///
/// Shared by the policy implementations and public so schedulers built on
/// custom [`Bandit`]s can reuse it. The probabilities should sum to
/// (approximately) one, but the sampler is hardened against adversarial
/// vectors: the returned index is always `< probabilities.len()`, zero
/// entries are skipped by the scan (only the final index can absorb the
/// residual ticket mass of a vector summing below one), and denormal or
/// otherwise tiny entries simply behave as (near-)zeros.
///
/// # Panics
///
/// Panics if `probabilities` is empty.
pub fn sample_discrete<R: Rng + ?Sized>(probabilities: &[f64], rng: &mut R) -> usize {
    assert!(!probabilities.is_empty(), "cannot sample from an empty distribution");
    let mut ticket: f64 = rng.gen();
    for (index, p) in probabilities.iter().enumerate() {
        if ticket < *p {
            return index;
        }
        ticket -= p;
    }
    probabilities.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kind_parse_round_trip() {
        for kind in BanditKind::BUILTINS {
            assert_eq!(BanditKind::parse(kind.name()), Ok(kind));
        }
        assert_eq!(BanditKind::parse("ucb1"), Ok(BanditKind::Ucb1));
        assert_eq!(BanditKind::parse("UCB1"), Ok(BanditKind::Ucb1), "parsing is case-insensitive");
        assert_eq!(BanditKind::parse("Thompson-Sampling"), Ok(BanditKind::Thompson));
        assert_eq!(BanditKind::parse("ts"), Ok(BanditKind::Thompson));
    }

    #[test]
    fn the_paper_sweep_list_excludes_the_extra_builtin() {
        // Table 1 / Figures 3–4 and the golden smoke report iterate `ALL`;
        // adding Thompson there would silently change every pinned artefact.
        assert!(!BanditKind::ALL.contains(&BanditKind::Thompson));
        assert!(BanditKind::BUILTINS.contains(&BanditKind::Thompson));
        assert!(BanditKind::ALL.iter().all(|kind| BanditKind::BUILTINS.contains(kind)));
    }

    #[test]
    fn unknown_policies_fail_loudly_with_the_valid_names() {
        let error = BanditKind::parse("not-a-policy").expect_err("unknown name");
        assert_eq!(error.name, "not-a-policy");
        let message = error.to_string();
        assert!(message.contains("not-a-policy"));
        for kind in BanditKind::ALL {
            assert!(message.contains(kind.name()), "{message} should list {}", kind.name());
        }
    }

    #[test]
    fn registered_policies_parse_like_built_ins() {
        let kind = register_policy("lib-test-uniform", |params: &PolicyParams| {
            Box::new(EpsilonGreedy::new(params.arms, 1.0))
        })
        .expect("fresh name");
        assert_eq!(BanditKind::parse("LIB-test-Uniform"), Ok(kind));
        assert_eq!(kind.to_string(), "lib-test-uniform");
        let error = BanditKind::parse("lib-test-missing").expect_err("unknown");
        assert!(error.to_string().contains("lib-test-uniform"), "registered names are listed");
    }

    #[test]
    fn build_constructs_every_kind() {
        let mut rng = StdRng::seed_from_u64(0);
        for kind in BanditKind::BUILTINS {
            let mut bandit = kind.build(5);
            assert_eq!(bandit.kind(), kind);
            assert_eq!(bandit.arms(), 5);
            let arm = bandit.select(&mut rng);
            assert!(arm < 5);
            bandit.update(arm, 0.5);
            bandit.reset_arm(arm);
            assert_eq!(bandit.pulls(arm), 0);
        }
    }

    #[test]
    fn sample_discrete_respects_the_distribution() {
        let mut rng = StdRng::seed_from_u64(7);
        let probabilities = [0.0, 0.9, 0.1];
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[sample_discrete(&probabilities, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 800);
        assert!(counts[2] > 30);
    }
}
