//! Property suites for the bandit policies.
//!
//! These are the algorithm-level guarantees the batched campaign leans on:
//! EXP3's selection distribution stays a finite, normalised distribution
//! under arbitrary reward sequences; UCB1 and Thompson never starve an arm
//! (the log bonus and the never-vanishing posterior width keep dragging
//! neglected arms back); `sample_discrete` stays
//! in-bounds for adversarial probability vectors (zeros, denormals, mass
//! deficits); and `update_batch` — the batched campaign's ordered-reduction
//! entry point — is observationally identical to a sequence of `update`
//! calls for every policy.

use mab::{sample_discrete, Bandit, BanditKind, EpsilonGreedy, Exp3, Thompson, Ucb1};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// EXP3's weights stay positive and finite, and its selection
    /// probabilities stay a normalised distribution above the exploration
    /// floor, for any reward sequence (including out-of-range rewards,
    /// which the policy clamps) interleaved with arm resets.
    #[test]
    fn exp3_stays_normalised_and_finite(
        raw_rewards in proptest::collection::vec(0u8..5, 1..96),
        resets in proptest::collection::vec(0usize..16, 0..8),
        arms in 2usize..8,
        eta_percent in 1usize..100,
    ) {
        let eta = eta_percent as f64 / 100.0;
        let mut bandit = Exp3::new(arms, eta);
        let mut rng = StdRng::seed_from_u64(0xE8_93);
        let mut resets = resets.into_iter();
        for raw in raw_rewards {
            let arm = bandit.select(&mut rng);
            prop_assert!(arm < arms);
            // Adversarial reward alphabet: zero, denormal, tiny, unit, huge.
            let reward = match raw {
                0 => 0.0,
                1 => f64::MIN_POSITIVE / 2.0,
                2 => 1e-12,
                3 => 1.0,
                _ => 1e18,
            };
            bandit.update(arm, reward);
            if let Some(reset) = resets.next() {
                bandit.reset_arm(reset % arms);
            }
            let probabilities = bandit.probabilities();
            let sum: f64 = probabilities.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum} drifted from 1");
            for (index, p) in probabilities.iter().enumerate() {
                prop_assert!(p.is_finite(), "P({index}) became non-finite");
                prop_assert!(*p >= eta / arms as f64 - 1e-9, "P({index}) fell under the floor");
                prop_assert!(bandit.value(index).is_finite());
            }
        }
    }

    /// UCB1 never starves an arm: for any adversarial reward sequence the
    /// logarithmic confidence bonus keeps pulling every arm back, so after
    /// `T` selects every arm has been pulled several times — not just the
    /// one free optimism-driven visit.
    #[test]
    fn ucb1_never_starves_an_arm(
        raw_rewards in proptest::collection::vec(0u8..4, 0..32),
        arms in 2usize..7,
    ) {
        let mut bandit = Ucb1::new(arms);
        let mut rng = StdRng::seed_from_u64(0x0CB1);
        let steps = 600;
        for step in 0..steps {
            let arm = bandit.select(&mut rng);
            prop_assert!(arm < arms);
            // Adversarial pattern: the reward alphabet repeats over the
            // steps, so some arms look consistently great and others
            // consistently worthless.
            let raw = raw_rewards.get(step % raw_rewards.len().max(1)).copied().unwrap_or(0);
            let reward = match raw {
                0 => 0.0,
                1 => 0.5,
                2 => if arm == 0 { 1.0 } else { 0.0 },
                _ => 1.0,
            };
            bandit.update(arm, reward);
        }
        for arm in 0..arms {
            prop_assert!(
                bandit.pulls(arm) >= 3,
                "arm {arm} starved: only {} pulls in {steps} steps",
                bandit.pulls(arm)
            );
        }
    }

    /// Thompson sampling never starves an arm: the posterior width
    /// `1/sqrt(N+1)` never reaches zero and the Gaussian samples are
    /// unbounded, so even an arm whose rewards look consistently worthless
    /// keeps winning the argmax occasionally.
    #[test]
    fn thompson_never_starves_an_arm(
        raw_rewards in proptest::collection::vec(0u8..4, 0..32),
        arms in 2usize..7,
    ) {
        let mut bandit = Thompson::new(arms);
        let mut rng = StdRng::seed_from_u64(0x7503);
        let steps = 600;
        for step in 0..steps {
            let arm = bandit.select(&mut rng);
            prop_assert!(arm < arms);
            let raw = raw_rewards.get(step % raw_rewards.len().max(1)).copied().unwrap_or(0);
            let reward = match raw {
                0 => 0.0,
                1 => 0.5,
                2 => if arm == 0 { 1.0 } else { 0.0 },
                _ => 1.0,
            };
            bandit.update(arm, reward);
        }
        for arm in 0..arms {
            prop_assert!(
                bandit.pulls(arm) >= 3,
                "arm {arm} starved: only {} pulls in {steps} steps",
                bandit.pulls(arm)
            );
        }
    }

    /// `sample_discrete` returns an in-bounds index for adversarial
    /// probability vectors: zeros, denormals, huge entries, and vectors
    /// whose mass sums to less (or more) than one.
    #[test]
    fn sample_discrete_is_in_bounds_for_adversarial_vectors(
        raw in proptest::collection::vec(0u8..6, 1..16),
        rng_seed in 0u64..1024,
    ) {
        let probabilities: Vec<f64> = raw
            .iter()
            .map(|&code| match code {
                0 => 0.0,
                1 => f64::MIN_POSITIVE / 4.0, // denormal
                2 => 1e-300,
                3 => 0.3,
                4 => 1.0,
                _ => 1e6,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        for _ in 0..32 {
            let index = sample_discrete(&probabilities, &mut rng);
            prop_assert!(index < probabilities.len());
            // A zero entry can only ever be picked as the terminal
            // fallback for mass-deficient vectors.
            if probabilities[index] == 0.0 {
                prop_assert_eq!(index, probabilities.len() - 1);
                let sum: f64 = probabilities.iter().sum();
                prop_assert!(sum < 1.0, "zero entry chosen despite full mass (sum {sum})");
            }
        }
    }

    /// `update_batch` is observationally identical to folding the same
    /// rewards through `update` one by one, for every policy — the
    /// equivalence the batched campaign's per-round reward flush relies on.
    #[test]
    fn update_batch_equals_sequential_updates(
        rewards in proptest::collection::vec(0.0f64..1.0, 0..24),
        arms in 1usize..6,
        arm_choice in 0usize..6,
    ) {
        let arm = arm_choice % arms;
        for kind in BanditKind::BUILTINS {
            let mut batched = kind.build(arms);
            let mut sequential = kind.build(arms);
            // Put both policies in the same non-trivial state first, driving
            // them with identical RNG streams so their select-side state
            // (EXP3's cached probabilities, UCB1's clock) stays in lockstep.
            let mut rng_a = StdRng::seed_from_u64(0xBA7C);
            let mut rng_b = StdRng::seed_from_u64(0xBA7C);
            for _ in 0..arms {
                let chosen_a = batched.select(&mut rng_a);
                let chosen_b = sequential.select(&mut rng_b);
                prop_assert_eq!(chosen_a, chosen_b, "{}", kind);
                batched.update(chosen_a, 0.25);
                sequential.update(chosen_b, 0.25);
            }
            batched.update_batch(arm, &rewards);
            for &reward in &rewards {
                sequential.update(arm, reward);
            }
            for index in 0..arms {
                prop_assert_eq!(batched.pulls(index), sequential.pulls(index), "{kind}");
                let (a, b) = (batched.value(index), sequential.value(index));
                prop_assert!(
                    (a - b).abs() < 1e-12 || (a.is_infinite() && b.is_infinite()),
                    "{kind}: value({index}) {a} != {b}"
                );
            }
        }
    }
}

/// ε-greedy keeps its selections in range and its value estimates finite
/// under the same adversarial alphabet (plain test: the policy is
/// deterministic enough that one long run covers it).
#[test]
fn epsilon_greedy_selections_stay_in_bounds() {
    let mut bandit = EpsilonGreedy::new(5, 0.1);
    let mut rng = StdRng::seed_from_u64(0xE6);
    for step in 0..2000 {
        let arm = bandit.select(&mut rng);
        assert!(arm < 5);
        let reward = match step % 4 {
            0 => 0.0,
            1 => 1e18,
            2 => f64::MIN_POSITIVE,
            _ => 1.0,
        };
        bandit.update(arm, reward);
        if step % 97 == 0 {
            bandit.reset_arm(arm);
        }
    }
    for arm in 0..5 {
        assert!(bandit.value(arm).is_finite());
    }
}
