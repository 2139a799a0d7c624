//! Registered custom policy: an optimistic Thompson variant end-to-end
//! through the campaign-spec API.
//!
//! This is how any policy implementing [`mab::Bandit`] — not just the
//! algorithms evaluated in the paper — schedules MABFuzz seeds: a policy is
//! registered once under a fresh name, and from then on it behaves exactly
//! like a built-in algorithm — it parses by name, it is named in a
//! declarative [`CampaignSpec`], it drives a full campaign through
//! `Campaign::from_spec(...).execute()`, and it appears in the report label
//! — **without editing a single line of the core or bench crates**.
//!
//! The policy registered here is a deliberate callback: plain Thompson
//! sampling started life in this example and was then promoted to the
//! built-in [`mab::Thompson`] (its name is now reserved by the registry, as
//! the assertion below demonstrates). The example keeps the promotion
//! pipeline honest by registering the *next* experiment on top of the
//! built-in: Thompson with an **optimistic prior** — every arm's mean
//! starts at 1.0 instead of 0.0, so unexplored and freshly reset seeds look
//! like guaranteed wins until evidence says otherwise.
//!
//! ```sh
//! cargo run --example custom_policy
//! ```

use mab::{Bandit, BanditKind, PolicyParams, RegistryError, Thompson};
use mabfuzz::{BugSpec, Campaign, CampaignSpec};
use proc_sim::ProcessorKind;

/// Thompson sampling with an optimistic prior mean.
///
/// Wraps the built-in [`Thompson`] and re-biases the value estimate: a
/// never-pulled (or freshly reset) arm behaves as if it had already paid a
/// full reward, which front-loads exploration of new seeds even harder than
/// the wide prior alone. The selection rule, posterior width and
/// incremental-mean update are all delegated to the built-in.
struct OptimisticThompson {
    kind: BanditKind,
    inner: Thompson,
    optimism: f64,
}

impl OptimisticThompson {
    fn new(kind: BanditKind, arms: usize) -> OptimisticThompson {
        OptimisticThompson { kind, inner: Thompson::new(arms), optimism: 1.0 }
    }

    /// The optimistic bias decays with evidence: `optimism / (N(a) + 1)`.
    fn bias(&self, arm: usize) -> f64 {
        self.optimism / (self.inner.pulls(arm) as f64 + 1.0)
    }
}

impl Bandit for OptimisticThompson {
    fn kind(&self) -> BanditKind {
        // The registered Custom kind: labels and reports show the name.
        self.kind
    }

    fn arms(&self) -> usize {
        self.inner.arms()
    }

    fn select(&mut self, rng: &mut dyn rand::RngCore) -> usize {
        // The built-in exposes its posterior (`value` + `sigma`), so the
        // variant redraws the same `Normal(mean, sigma)` samples and adds
        // the decaying bias before the argmax — one pass, the same
        // two-uniforms-per-arm cost as the built-in.
        let mut best = 0usize;
        let mut best_sample = f64::NEG_INFINITY;
        for arm in 0..self.inner.arms() {
            let unbiased =
                self.inner.value(arm) + self.inner.sigma(arm) * standard_normal_via(&mut *rng);
            let sample = unbiased + self.bias(arm);
            if sample > best_sample {
                best_sample = sample;
                best = arm;
            }
        }
        best
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.inner.update(arm, reward);
    }

    fn reset_arm(&mut self, arm: usize) {
        self.inner.reset_arm(arm);
    }

    fn value(&self, arm: usize) -> f64 {
        self.inner.value(arm) + self.bias(arm)
    }

    fn pulls(&self, arm: usize) -> u64 {
        self.inner.pulls(arm)
    }
}

/// One standard-normal draw via Box–Muller (the vendored `rand` shim
/// provides uniform `f64`s only) — the same transform the built-in uses.
fn standard_normal_via(rng: &mut dyn rand::RngCore) -> f64 {
    use rand::Rng as _;
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn main() {
    // "thompson" graduated to a built-in, so the registry now rejects it —
    // the reserved-name check is what keeps one spelling from meaning two
    // different policies in different processes.
    let taken = mab::register_policy("thompson", |params: &PolicyParams| {
        Box::new(Thompson::new(params.arms))
    });
    assert!(
        matches!(taken, Err(RegistryError::ReservedName(_))),
        "the promoted policy's name is reserved by the built-in"
    );

    // One registration, process-wide. From here on "thompson-optimistic"
    // parses everywhere a policy name is accepted *in this process* — specs,
    // `BanditKind::parse`, report labels. (Registration is per-process: a
    // separate binary like `experiments` would need to register the policy
    // itself before `run --algorithm thompson-optimistic` could resolve it.)
    mab::register_policy("thompson-optimistic", |params: &PolicyParams| {
        Box::new(OptimisticThompson::new(params.kind, params.arms))
    })
    .expect("the name is fresh");

    let tests = 400;
    let spec_for = |policy: &str| {
        CampaignSpec::builder()
            .policy_named(policy)
            .max_tests(tests)
            .processor(ProcessorKind::Cva6, BugSpec::Native)
            .rng_seed(17)
            .build()
            .expect("valid spec")
    };

    // The same declarative pipeline runs the built-in and the custom variant.
    let thompson = Campaign::from_spec(&spec_for("thompson")).expect("built-in spec").execute();
    let optimistic =
        Campaign::from_spec(&spec_for("thompson-optimistic")).expect("custom spec").execute();

    println!("MABFuzz on cva6, {tests} tests per campaign\n");
    println!("{}", thompson.stats);
    println!("{}", optimistic.stats);
    assert!(
        optimistic.stats.label().contains("thompson-optimistic"),
        "custom policies label their reports"
    );
    println!(
        "\narm resets — thompson: {}, thompson-optimistic: {}",
        thompson.total_resets, optimistic.total_resets
    );
    println!(
        "\nThe optimistic variant was registered at runtime and named in a\n\
         serializable CampaignSpec; core and bench sources are untouched\n\
         (paper contribution 3: the fuzzing loop is MAB-algorithm-agnostic)."
    );
}
