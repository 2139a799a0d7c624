//! Declarative campaign specifications.
//!
//! [`CampaignSpec`] is the single serializable description of **one
//! campaign**: which policy schedules seeds (the baseline or any
//! [`BanditKind`], including custom policies registered through
//! [`mab::register_policy`]), the reward/reset parameters (α, γ, ε, η), the
//! shared fuzzing-campaign configuration (budget, mutation counts, program
//! generator), the RNG seed and the per-round batch size. It is the only way to
//! describe a campaign: the experiment grid, the `experiments` binary
//! (`experiments run --spec file.json`), the campaign service and the
//! [`Campaign`](crate::Campaign) session type all consume it.
//!
//! Specs are built fluently and validated once, at [`build`]:
//!
//! ```
//! use mab::BanditKind;
//! use mabfuzz::CampaignSpec;
//!
//! let spec = CampaignSpec::builder()
//!     .algorithm(BanditKind::Exp3)
//!     .arms(4)
//!     .alpha(0.5)
//!     .max_tests(200)
//!     .rng_seed(7)
//!     .build()
//!     .unwrap();
//! assert_eq!(spec.label(), "MABFuzz: EXP3");
//! assert_eq!(spec.arms(), 4);
//!
//! // Round-trips through JSON.
//! let restored = CampaignSpec::from_json(&spec.to_json()).unwrap();
//! assert_eq!(restored, spec);
//! ```
//!
//! [`build`]: CampaignSpecBuilder::build
//!
//! The JSON codec is hand-rolled (like the deterministic report renderers in
//! `mabfuzz-bench`): the vendored `serde` shim provides only marker traits,
//! so the spec implements an explicit, stable schema with strict
//! unknown-field rejection — a typo'd field in a spec file fails loudly
//! instead of being silently ignored.

use std::fmt;

use fuzzer::{CampaignConfig, CoverageSignal, ShardPlan};
use mab::{BanditKind, PolicyParams};
use proc_sim::{BugSet, Processor, ProcessorKind, Vulnerability};
use riscv::gen::{ClassWeights, GeneratorConfig};
use serde::{Deserialize, Serialize};

use crate::json_value as json;

/// Which scheduling policy drives the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// The TheHuzz-style baseline: static FIFO scheduling, no bandit.
    Baseline,
    /// MABFuzz with the given bandit policy (built-in or registered custom).
    Bandit(BanditKind),
}

impl PolicySpec {
    /// Parses a policy name: `thehuzz` / `baseline` / `fifo` select the
    /// baseline, anything else resolves through [`BanditKind::parse`]
    /// (case-insensitive, registered custom policies included).
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownPolicy`], listing every name this function
    /// accepts — the baseline spellings as well as every bandit policy.
    pub fn parse(text: &str) -> Result<PolicySpec, SpecError> {
        // The baseline spellings come from the registry's reserved-name
        // list, so this match and `register_policy`'s shadowing guard can
        // never drift apart.
        let key = text.trim().to_ascii_lowercase();
        if mab::BASELINE_SCHEDULER_NAMES.contains(&key.as_str()) {
            Ok(PolicySpec::Baseline)
        } else {
            BanditKind::parse(text).map(PolicySpec::Bandit).map_err(|error| {
                let mut valid = vec!["TheHuzz"];
                valid.extend(error.valid);
                SpecError::UnknownPolicy(format!(
                    "unknown policy `{}` (valid policies: {})",
                    error.name,
                    valid.join(", ")
                ))
            })
        }
    }

    /// Returns the policy's display name (the spelling
    /// [`parse`](PolicySpec::parse) accepts back).
    pub fn name(self) -> &'static str {
        match self {
            PolicySpec::Baseline => "TheHuzz",
            PolicySpec::Bandit(kind) => kind.name(),
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which injected bugs a spec-built processor carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BugSpec {
    /// No injected bugs (coverage experiments).
    None,
    /// The processor's paper-native bugs (V1–V6 on CVA6, V7 on Rocket).
    Native,
    /// Exactly one vulnerability (detection experiments).
    Only(Vulnerability),
}

impl BugSpec {
    /// Parses `none`, `native` or a vulnerability id (`V1`–`V7`).
    pub fn parse(text: &str) -> Result<BugSpec, SpecError> {
        match text.trim().to_ascii_lowercase().as_str() {
            "none" => Ok(BugSpec::None),
            "native" => Ok(BugSpec::Native),
            other => Vulnerability::parse(other)
                .map(BugSpec::Only)
                .ok_or_else(|| SpecError::UnknownBugs(text.trim().to_owned())),
        }
    }

    /// Renders the spelling [`parse`](BugSpec::parse) accepts back.
    pub fn name(self) -> &'static str {
        match self {
            BugSpec::None => "none",
            BugSpec::Native => "native",
            BugSpec::Only(vulnerability) => vulnerability.id(),
        }
    }

    /// Materialises the bug set.
    pub fn to_bug_set(self, core: ProcessorKind) -> BugSet {
        match self {
            BugSpec::None => BugSet::none(),
            BugSpec::Native => BugSet::native_to(core.name()),
            BugSpec::Only(vulnerability) => BugSet::only(vulnerability),
        }
    }
}

/// The processor a self-contained spec runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorSpec {
    /// Which benchmark core.
    pub core: ProcessorKind,
    /// Which injected bugs.
    pub bugs: BugSpec,
}

impl ProcessorSpec {
    /// Builds the described processor model.
    pub fn build(self) -> Box<dyn Processor> {
        self.core.build(self.bugs.to_bug_set(self.core))
    }
}

/// Why a [`CampaignSpec`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// α must lie in `[0, 1]`.
    AlphaOutOfRange(f64),
    /// ε must lie in `[0, 1]`.
    EpsilonOutOfRange(f64),
    /// η must be positive and finite.
    EtaNotPositive(f64),
    /// γ must be at least 1.
    ZeroGamma,
    /// The campaign needs at least one arm/seed.
    ZeroArms,
    /// The campaign needs a positive test budget.
    ZeroTests,
    /// Per-test instruction budget must be positive.
    ZeroSteps,
    /// Coverage-series sampling interval must be positive.
    ZeroSampleInterval,
    /// A spec document's `shards` key was `0`. The key is otherwise ignored:
    /// every campaign simulates on its own thread, and `to_json` always
    /// writes `"shards":1`.
    ZeroShards,
    /// Batch plans need at least one test per round.
    ZeroBatch,
    /// The policy name resolved to nothing; the message lists valid names.
    UnknownPolicy(String),
    /// The processor core name is not one of the benchmarks.
    UnknownProcessor(String),
    /// The bug selector is not `none`, `native` or a vulnerability id.
    UnknownBugs(String),
    /// A generator probability is not a finite value in `[0, 1]`.
    GeneratorProbOutOfRange {
        /// Which generator field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The spec names no processor but the caller asked the spec to build
    /// one.
    MissingProcessor,
    /// The supplied bandit's arm count does not match the spec's.
    ArmCountMismatch {
        /// Arms the bandit was built with.
        bandit: usize,
        /// Arms the spec declares.
        spec: usize,
    },
    /// The JSON document failed to parse or did not match the schema.
    Json(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::AlphaOutOfRange(alpha) => {
                write!(f, "alpha must lie in [0, 1], got {alpha}")
            }
            SpecError::EpsilonOutOfRange(epsilon) => {
                write!(f, "epsilon must lie in [0, 1], got {epsilon}")
            }
            SpecError::EtaNotPositive(eta) => {
                write!(f, "eta must be positive and finite, got {eta}")
            }
            SpecError::ZeroGamma => f.write_str("gamma must be at least 1"),
            SpecError::ZeroArms => f.write_str("the campaign needs at least one arm"),
            SpecError::ZeroTests => f.write_str("max_tests must be at least 1"),
            SpecError::ZeroSteps => f.write_str("max_steps_per_test must be at least 1"),
            SpecError::ZeroSampleInterval => f.write_str("sample_interval must be at least 1"),
            SpecError::ZeroShards => f.write_str("the shard plan needs at least one shard"),
            SpecError::ZeroBatch => f.write_str("the shard plan needs at least one test per round"),
            SpecError::UnknownPolicy(message) => f.write_str(message),
            SpecError::UnknownProcessor(name) => write!(f, "unknown processor core `{name}`"),
            SpecError::UnknownBugs(name) => {
                write!(f, "unknown bug selector `{name}` (expected none, native or V1..V7)")
            }
            SpecError::GeneratorProbOutOfRange { field, value } => {
                write!(f, "generator.{field} must be a finite probability in [0, 1], got {value}")
            }
            SpecError::MissingProcessor => {
                f.write_str("the spec names no processor; add a \"processor\" section or use Campaign::from_spec_on")
            }
            SpecError::ArmCountMismatch { bandit, spec } => write!(
                f,
                "the bandit was built for {bandit} arms but the spec declares {spec}"
            ),
            SpecError::Json(message) => write!(f, "invalid campaign spec JSON: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete, validated, serializable description of one fuzzing campaign.
///
/// Construct through [`CampaignSpec::builder`] (which validates) or
/// [`CampaignSpec::from_json`] (which parses *and* validates); the fields
/// are public for inspection and for cheap per-cell tweaks in experiment
/// grids (re-validate with [`validate`](CampaignSpec::validate) after
/// editing by hand).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Which scheduling policy drives the campaign.
    pub policy: PolicySpec,
    /// Weight of arm-locally new coverage in the reward (`α ∈ [0, 1]`).
    pub alpha: f64,
    /// Saturation window: γ consecutive zero-gain pulls reset an arm.
    pub gamma: usize,
    /// Exploration probability for ε-greedy (and custom policies that reuse
    /// the knob).
    pub epsilon: f64,
    /// Learning rate for EXP3 (and custom policies that reuse the knob).
    pub eta: f64,
    /// Seed of the campaign's deterministic RNG stream.
    pub rng_seed: u64,
    /// Tests simulated per bandit round. **1 is the legacy serial stream**
    /// every published artefact uses; larger batches are a different
    /// deterministic campaign (see the determinism contract in
    /// `fuzzer::shard`).
    pub batch_size: usize,
    /// Which coverage signal feeds the reward: the paper's point coverage
    /// (the default — every published artefact uses it, and `to_json` omits
    /// the field entirely so existing goldens stay byte-identical) or static
    /// CFG edge coverage.
    pub coverage_signal: CoverageSignal,
    /// The processor under test, when the spec is self-contained.
    /// `None` when the caller supplies the processor (grid cells).
    pub processor: Option<ProcessorSpec>,
    /// Shared campaign parameters (budget, mutation counts, generator).
    /// `campaign.num_seeds` doubles as the number of arms.
    pub campaign: CampaignConfig,
}

impl CampaignSpec {
    /// Starts a builder initialised with the paper defaults (UCB, α = 0.25,
    /// γ = 3, ε = 0.1, η = 0.1, serial plan, seed 0).
    pub fn builder() -> CampaignSpecBuilder {
        CampaignSpecBuilder::default()
    }

    /// Number of arms (the campaign's `num_seeds`).
    pub fn arms(&self) -> usize {
        self.campaign.num_seeds
    }

    /// The human-readable campaign label used in reports: `"TheHuzz"` or
    /// `"MABFuzz: <policy>"` — custom policies appear under their registered
    /// name.
    pub fn label(&self) -> String {
        match self.policy {
            PolicySpec::Baseline => "TheHuzz".to_owned(),
            PolicySpec::Bandit(kind) => format!("MABFuzz: {kind}"),
        }
    }

    /// The batch plan the spec describes.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::serial().with_batch_size(self.batch_size)
    }

    /// The bandit-policy construction parameters the spec describes.
    pub fn policy_params(&self, kind: BanditKind) -> PolicyParams {
        PolicyParams { kind, arms: self.arms(), epsilon: self.epsilon, eta: self.eta }
    }

    /// Checks every invariant of the spec.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        // A hand-constructed `BanditKind::Custom` may name a policy that was
        // never registered; catching it here keeps `Campaign::from_spec*`
        // panic-free (errors-as-values all the way down).
        if let PolicySpec::Bandit(BanditKind::Custom(name)) = self.policy {
            if mab::lookup_policy(name).is_none() {
                return Err(SpecError::UnknownPolicy(format!(
                    "custom policy `{name}` is not registered (register_policy first)"
                )));
            }
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(SpecError::AlphaOutOfRange(self.alpha));
        }
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err(SpecError::EpsilonOutOfRange(self.epsilon));
        }
        if !(self.eta > 0.0 && self.eta.is_finite()) {
            return Err(SpecError::EtaNotPositive(self.eta));
        }
        if self.gamma == 0 {
            return Err(SpecError::ZeroGamma);
        }
        if self.campaign.num_seeds == 0 {
            return Err(SpecError::ZeroArms);
        }
        if self.campaign.max_tests == 0 {
            return Err(SpecError::ZeroTests);
        }
        if self.campaign.max_steps_per_test == 0 {
            return Err(SpecError::ZeroSteps);
        }
        if self.campaign.sample_interval == 0 {
            return Err(SpecError::ZeroSampleInterval);
        }
        if self.batch_size == 0 {
            return Err(SpecError::ZeroBatch);
        }
        // Finite probabilities keep the JSON round-trip total: `to_json`
        // renders non-finite floats as `null`, which `from_json` (rightly)
        // rejects — so no valid spec may carry one.
        for (field, value) in [
            ("unimplemented_csr_prob", self.campaign.generator.unimplemented_csr_prob),
            ("wild_memory_prob", self.campaign.generator.wild_memory_prob),
        ] {
            if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
                return Err(SpecError::GeneratorProbOutOfRange { field, value });
            }
        }
        Ok(())
    }

    /// Renders the spec as one deterministic JSON object (compact, fixed
    /// field order, shortest-round-trip floats).
    pub fn to_json(&self) -> String {
        let weights = &self.campaign.generator.weights;
        let processor = match &self.processor {
            None => "null".to_owned(),
            Some(spec) => format!(
                "{{\"core\":{},\"bugs\":{}}}",
                json_string(spec.core.name()),
                json_string(spec.bugs.name())
            ),
        };
        format!(
            concat!(
                "{{\"policy\":{policy},\"alpha\":{alpha},\"gamma\":{gamma},",
                "\"epsilon\":{epsilon},\"eta\":{eta},\"rng_seed\":{rng_seed},",
                "\"shards\":1,\"batch_size\":{batch_size},{signal}",
                "\"processor\":{processor},\"campaign\":{{",
                "\"max_tests\":{max_tests},\"max_steps_per_test\":{max_steps},",
                "\"num_seeds\":{num_seeds},",
                "\"mutations_per_interesting_test\":{mutations},",
                "\"stop_on_first_detection\":{stop},",
                "\"sample_interval\":{sample_interval},\"generator\":{{",
                "\"instr_count\":{instr_count},\"weights\":{{",
                "\"arith\":{arith},\"mul\":{mul},\"div\":{div},\"load\":{load},",
                "\"store\":{store},\"branch\":{branch},\"jump\":{jump},",
                "\"csr\":{csr},\"system\":{system},\"fence\":{fence}}},",
                "\"unimplemented_csr_prob\":{csr_prob},",
                "\"wild_memory_prob\":{wild_prob},",
                "\"terminate_with_ecall\":{ecall}}}}}}}",
            ),
            policy = json_string(self.policy.name()),
            alpha = json_float(self.alpha),
            gamma = self.gamma,
            epsilon = json_float(self.epsilon),
            eta = json_float(self.eta),
            rng_seed = self.rng_seed,
            batch_size = self.batch_size,
            // Omitted entirely for the default point signal so every spec
            // JSON written before the field existed stays byte-identical.
            signal = match self.coverage_signal {
                CoverageSignal::Point => "",
                CoverageSignal::Edge => "\"coverage_signal\":\"edge\",",
            },
            processor = processor,
            max_tests = self.campaign.max_tests,
            max_steps = self.campaign.max_steps_per_test,
            num_seeds = self.campaign.num_seeds,
            mutations = self.campaign.mutations_per_interesting_test,
            stop = self.campaign.stop_on_first_detection,
            sample_interval = self.campaign.sample_interval,
            instr_count = self.campaign.generator.instr_count,
            arith = weights.arith,
            mul = weights.mul,
            div = weights.div,
            load = weights.load,
            store = weights.store,
            branch = weights.branch,
            jump = weights.jump,
            csr = weights.csr,
            system = weights.system,
            fence = weights.fence,
            csr_prob = json_float(self.campaign.generator.unimplemented_csr_prob),
            wild_prob = json_float(self.campaign.generator.wild_memory_prob),
            ecall = self.campaign.generator.terminate_with_ecall,
        )
    }

    /// Parses and validates a spec from its JSON form. Every field is
    /// optional — omitted fields take the builder defaults — but unknown
    /// fields are rejected, so typos fail loudly.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] for malformed documents or schema violations, or
    /// any validation error of [`validate`](CampaignSpec::validate).
    pub fn from_json(text: &str) -> Result<CampaignSpec, SpecError> {
        let value = json::parse(text).map_err(SpecError::Json)?;
        // `spec_from_value` ends in the builder's `build()`, which is the
        // single validation authority — no second pass needed here.
        spec_from_value(&value)
    }

    /// Parses and validates a spec from an already-parsed JSON value — the
    /// entry point for callers whose specs are embedded in a larger
    /// document (a dispatch grid file holding an array of specs, say) and
    /// that therefore cannot hand [`from_json`](CampaignSpec::from_json) a
    /// standalone text. Same strict schema, same errors.
    ///
    /// # Errors
    ///
    /// Exactly those of [`from_json`](CampaignSpec::from_json).
    pub fn from_value(value: &json::Value) -> Result<CampaignSpec, SpecError> {
        spec_from_value(value)
    }
}

impl Default for CampaignSpec {
    /// The paper-default UCB campaign on the default budget.
    fn default() -> Self {
        CampaignSpec::builder().build().expect("the default spec is valid")
    }
}

/// Fluent builder for [`CampaignSpec`]; every setter is infallible and
/// [`build`](CampaignSpecBuilder::build) validates the assembled spec.
#[derive(Debug, Clone)]
pub struct CampaignSpecBuilder {
    policy: PolicyChoice,
    spec: CampaignSpec,
}

/// A policy either resolved already or deferred to build-time name lookup
/// (so `policy_named("thom pson")` surfaces its error in `build`'s
/// `Result`, not as a panic in the middle of a fluent chain).
#[derive(Debug, Clone)]
enum PolicyChoice {
    Resolved(PolicySpec),
    Named(String),
}

impl Default for CampaignSpecBuilder {
    fn default() -> Self {
        CampaignSpecBuilder {
            policy: PolicyChoice::Resolved(PolicySpec::Bandit(BanditKind::Ucb1)),
            spec: CampaignSpec {
                policy: PolicySpec::Bandit(BanditKind::Ucb1),
                alpha: 0.25,
                gamma: 3,
                epsilon: 0.1,
                eta: 0.1,
                rng_seed: 0,
                batch_size: 1,
                coverage_signal: CoverageSignal::Point,
                processor: None,
                campaign: CampaignConfig::default(),
            },
        }
    }
}

impl CampaignSpecBuilder {
    /// Selects the scheduling policy.
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = PolicyChoice::Resolved(policy);
        self
    }

    /// Selects a MABFuzz bandit policy.
    pub fn algorithm(self, kind: BanditKind) -> Self {
        self.policy(PolicySpec::Bandit(kind))
    }

    /// Selects the TheHuzz baseline (no bandit).
    pub fn baseline(self) -> Self {
        self.policy(PolicySpec::Baseline)
    }

    /// Selects the policy by name; resolution (and its error) happens in
    /// [`build`](CampaignSpecBuilder::build).
    pub fn policy_named(mut self, name: &str) -> Self {
        self.policy = PolicyChoice::Named(name.to_owned());
        self
    }

    /// Sets the number of arms / initial seeds.
    pub fn arms(mut self, arms: usize) -> Self {
        self.spec.campaign.num_seeds = arms;
        self
    }

    /// Sets the reward weight α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.spec.alpha = alpha;
        self
    }

    /// Sets the saturation window γ.
    pub fn gamma(mut self, gamma: usize) -> Self {
        self.spec.gamma = gamma;
        self
    }

    /// Sets the ε-greedy exploration probability.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.spec.epsilon = epsilon;
        self
    }

    /// Sets the EXP3 learning rate η.
    pub fn eta(mut self, eta: f64) -> Self {
        self.spec.eta = eta;
        self
    }

    /// Sets the campaign test budget.
    pub fn max_tests(mut self, max_tests: u64) -> Self {
        self.spec.campaign.max_tests = max_tests;
        self
    }

    /// Sets the per-test committed-instruction budget.
    pub fn max_steps_per_test(mut self, max_steps: usize) -> Self {
        self.spec.campaign.max_steps_per_test = max_steps;
        self
    }

    /// Sets how many mutants each interesting test spawns.
    pub fn mutations_per_interesting_test(mut self, mutations: usize) -> Self {
        self.spec.campaign.mutations_per_interesting_test = mutations;
        self
    }

    /// Sets the coverage-series sampling interval.
    pub fn sample_interval(mut self, interval: u64) -> Self {
        self.spec.campaign.sample_interval = interval;
        self
    }

    /// Stops the campaign at the first architectural mismatch (Table I
    /// detection mode).
    pub fn stop_on_first_detection(mut self, stop: bool) -> Self {
        self.spec.campaign.stop_on_first_detection = stop;
        self
    }

    /// Replaces the program-generator configuration.
    pub fn generator(mut self, generator: GeneratorConfig) -> Self {
        self.spec.campaign.generator = generator;
        self
    }

    /// Replaces the whole shared campaign configuration (budget, mutation
    /// counts, generator, number of seeds) in one call.
    pub fn campaign(mut self, campaign: CampaignConfig) -> Self {
        self.spec.campaign = campaign;
        self
    }

    /// Sets the campaign RNG seed.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.spec.rng_seed = seed;
        self
    }

    /// Sets the per-round batch size (1 = the legacy serial stream).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.spec.batch_size = batch_size;
        self
    }

    /// Adopts a whole batch plan.
    pub fn plan(self, plan: &ShardPlan) -> Self {
        self.batch_size(plan.batch_size())
    }

    /// Selects the coverage signal feeding the reward (default: point).
    pub fn coverage_signal(mut self, signal: CoverageSignal) -> Self {
        self.spec.coverage_signal = signal;
        self
    }

    /// Names the processor the spec runs against, making it self-contained.
    pub fn processor(mut self, core: ProcessorKind, bugs: BugSpec) -> Self {
        self.spec.processor = Some(ProcessorSpec { core, bugs });
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// The first violated invariant (see [`SpecError`]); name-based policy
    /// selection resolves here and reports unknown names with the full list
    /// of valid policies.
    pub fn build(mut self) -> Result<CampaignSpec, SpecError> {
        self.spec.policy = match &self.policy {
            PolicyChoice::Resolved(policy) => *policy,
            PolicyChoice::Named(name) => PolicySpec::parse(name)?,
        };
        self.spec.validate()?;
        Ok(self.spec)
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    crate::json_text::push_json_string(&mut out, text);
    out
}

fn json_float(value: f64) -> String {
    let mut out = String::new();
    crate::json_text::push_json_float(&mut out, value);
    out
}

fn spec_from_value(value: &json::Value) -> Result<CampaignSpec, SpecError> {
    let object = value.as_object("spec")?;
    let mut builder = CampaignSpec::builder();
    let mut spec = builder.spec.clone();
    for (key, field) in object {
        match key.as_str() {
            "policy" => builder = builder.policy_named(field.as_str("policy")?),
            "alpha" => spec.alpha = field.as_f64("alpha")?,
            "gamma" => spec.gamma = field.as_usize("gamma")?,
            "epsilon" => spec.epsilon = field.as_f64("epsilon")?,
            "eta" => spec.eta = field.as_f64("eta")?,
            "rng_seed" => spec.rng_seed = field.as_u64("rng_seed")?,
            // Kept on the wire for the spec files, goldens and clients that
            // carry it; any positive count runs the same campaign.
            "shards" => {
                if field.as_usize("shards")? == 0 {
                    return Err(SpecError::ZeroShards);
                }
            }
            "batch_size" => spec.batch_size = field.as_usize("batch_size")?,
            "coverage_signal" => {
                let name = field.as_str("coverage_signal")?;
                spec.coverage_signal = CoverageSignal::parse(name).ok_or_else(|| {
                    SpecError::Json(format!(
                        "unknown coverage signal `{name}` (expected \"point\" or \"edge\")"
                    ))
                })?;
            }
            "processor" => spec.processor = processor_from_value(field)?,
            "campaign" => campaign_from_value(field, &mut spec.campaign)?,
            other => {
                return Err(SpecError::Json(format!("unknown spec field `{other}`")));
            }
        }
    }
    builder.spec = spec;
    builder.build()
}

fn processor_from_value(value: &json::Value) -> Result<Option<ProcessorSpec>, SpecError> {
    if value.is_null() {
        return Ok(None);
    }
    let object = value.as_object("processor")?;
    let mut core = None;
    let mut bugs = BugSpec::Native;
    for (key, field) in object {
        match key.as_str() {
            "core" => {
                let name = field.as_str("processor.core")?;
                core = Some(
                    ProcessorKind::parse(name)
                        .ok_or_else(|| SpecError::UnknownProcessor(name.to_owned()))?,
                );
            }
            "bugs" => bugs = BugSpec::parse(field.as_str("processor.bugs")?)?,
            other => {
                return Err(SpecError::Json(format!("unknown processor field `{other}`")));
            }
        }
    }
    let core = core.ok_or_else(|| SpecError::Json("processor.core is required".to_owned()))?;
    Ok(Some(ProcessorSpec { core, bugs }))
}

fn campaign_from_value(value: &json::Value, campaign: &mut CampaignConfig) -> Result<(), SpecError> {
    let object = value.as_object("campaign")?;
    for (key, field) in object {
        match key.as_str() {
            "max_tests" => campaign.max_tests = field.as_u64("campaign.max_tests")?,
            "max_steps_per_test" => {
                campaign.max_steps_per_test = field.as_usize("campaign.max_steps_per_test")?
            }
            "num_seeds" => campaign.num_seeds = field.as_usize("campaign.num_seeds")?,
            "mutations_per_interesting_test" => {
                campaign.mutations_per_interesting_test =
                    field.as_usize("campaign.mutations_per_interesting_test")?
            }
            "stop_on_first_detection" => {
                campaign.stop_on_first_detection =
                    field.as_bool("campaign.stop_on_first_detection")?
            }
            "sample_interval" => {
                campaign.sample_interval = field.as_u64("campaign.sample_interval")?
            }
            "generator" => generator_from_value(field, &mut campaign.generator)?,
            other => {
                return Err(SpecError::Json(format!("unknown campaign field `{other}`")));
            }
        }
    }
    Ok(())
}

fn generator_from_value(
    value: &json::Value,
    generator: &mut GeneratorConfig,
) -> Result<(), SpecError> {
    let object = value.as_object("generator")?;
    for (key, field) in object {
        match key.as_str() {
            "instr_count" => generator.instr_count = field.as_usize("generator.instr_count")?,
            "weights" => weights_from_value(field, &mut generator.weights)?,
            "unimplemented_csr_prob" => {
                generator.unimplemented_csr_prob =
                    field.as_f64("generator.unimplemented_csr_prob")?
            }
            "wild_memory_prob" => {
                generator.wild_memory_prob = field.as_f64("generator.wild_memory_prob")?
            }
            "terminate_with_ecall" => {
                generator.terminate_with_ecall = field.as_bool("generator.terminate_with_ecall")?
            }
            other => {
                return Err(SpecError::Json(format!("unknown generator field `{other}`")));
            }
        }
    }
    Ok(())
}

fn weights_from_value(value: &json::Value, weights: &mut ClassWeights) -> Result<(), SpecError> {
    let object = value.as_object("weights")?;
    for (key, field) in object {
        let target = match key.as_str() {
            "arith" => &mut weights.arith,
            "mul" => &mut weights.mul,
            "div" => &mut weights.div,
            "load" => &mut weights.load,
            "store" => &mut weights.store,
            "branch" => &mut weights.branch,
            "jump" => &mut weights.jump,
            "csr" => &mut weights.csr,
            "system" => &mut weights.system,
            "fence" => &mut weights.fence,
            other => {
                return Err(SpecError::Json(format!("unknown weight class `{other}`")));
            }
        };
        *target = field.as_u32(&format!("weights.{key}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let spec = CampaignSpec::default();
        assert_eq!(spec.policy, PolicySpec::Bandit(BanditKind::Ucb1));
        assert_eq!(spec.arms(), 10);
        assert!((spec.alpha - 0.25).abs() < 1e-12);
        assert_eq!(spec.gamma, 3);
        assert!((spec.epsilon - 0.1).abs() < 1e-12);
        assert!((spec.eta - 0.1).abs() < 1e-12);
        assert_eq!(spec.plan(), ShardPlan::serial());
        assert_eq!(spec.label(), "MABFuzz: UCB");
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn builder_sets_every_field() {
        let spec = CampaignSpec::builder()
            .algorithm(BanditKind::Exp3)
            .arms(6)
            .alpha(0.5)
            .gamma(7)
            .epsilon(0.2)
            .eta(0.3)
            .max_tests(99)
            .max_steps_per_test(123)
            .mutations_per_interesting_test(2)
            .sample_interval(5)
            .stop_on_first_detection(true)
            .rng_seed(42)
            .batch_size(16)
            .processor(ProcessorKind::Rocket, BugSpec::Native)
            .build()
            .unwrap();
        assert_eq!(spec.arms(), 6);
        assert_eq!(spec.campaign.max_tests, 99);
        assert_eq!(spec.campaign.max_steps_per_test, 123);
        assert!(spec.campaign.stop_on_first_detection);
        assert_eq!(spec.rng_seed, 42);
        assert_eq!(spec.plan(), ShardPlan::serial().with_batch_size(16));
        assert_eq!(spec.processor.unwrap().core, ProcessorKind::Rocket);
        assert_eq!(spec.label(), "MABFuzz: EXP3");
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let cases: Vec<(CampaignSpecBuilder, SpecError)> = vec![
            (CampaignSpec::builder().alpha(1.5), SpecError::AlphaOutOfRange(1.5)),
            (CampaignSpec::builder().alpha(-0.1), SpecError::AlphaOutOfRange(-0.1)),
            (CampaignSpec::builder().epsilon(2.0), SpecError::EpsilonOutOfRange(2.0)),
            (CampaignSpec::builder().eta(0.0), SpecError::EtaNotPositive(0.0)),
            (CampaignSpec::builder().eta(f64::NAN), SpecError::EtaNotPositive(f64::NAN)),
            (CampaignSpec::builder().gamma(0), SpecError::ZeroGamma),
            (CampaignSpec::builder().arms(0), SpecError::ZeroArms),
            (CampaignSpec::builder().max_tests(0), SpecError::ZeroTests),
            (CampaignSpec::builder().max_steps_per_test(0), SpecError::ZeroSteps),
            (CampaignSpec::builder().sample_interval(0), SpecError::ZeroSampleInterval),
            (CampaignSpec::builder().batch_size(0), SpecError::ZeroBatch),
        ];
        for (builder, expected) in cases {
            let error = builder.build().expect_err("invalid spec");
            // NaN != NaN, so compare through the Display form.
            assert_eq!(error.to_string(), expected.to_string());
        }
    }

    #[test]
    fn policy_names_resolve_or_fail_loudly() {
        assert_eq!(PolicySpec::parse("TheHuzz").unwrap(), PolicySpec::Baseline);
        assert_eq!(PolicySpec::parse("baseline").unwrap(), PolicySpec::Baseline);
        assert_eq!(
            PolicySpec::parse("ucb1").unwrap(),
            PolicySpec::Bandit(BanditKind::Ucb1)
        );
        let spec = CampaignSpec::builder().policy_named("EXP3").build().unwrap();
        assert_eq!(spec.policy, PolicySpec::Bandit(BanditKind::Exp3));
        let error = CampaignSpec::builder().policy_named("nope").build().expect_err("typo");
        let message = error.to_string();
        assert!(message.contains("nope"));
        assert!(message.contains("UCB"), "the error lists valid policies: {message}");
        assert!(message.contains("TheHuzz"), "the baseline spellings are listed too: {message}");
    }

    #[test]
    fn non_finite_generator_probabilities_fail_validation() {
        // Guards the total round-trip: a NaN probability would serialize as
        // `null` and be rejected by from_json, so build() must refuse it.
        let generator =
            GeneratorConfig { unimplemented_csr_prob: f64::NAN, ..GeneratorConfig::default() };
        let error = CampaignSpec::builder().generator(generator).build().expect_err("NaN prob");
        assert!(error.to_string().contains("unimplemented_csr_prob"), "got: {error}");

        let generator = GeneratorConfig { wild_memory_prob: 1.5, ..GeneratorConfig::default() };
        let error = CampaignSpec::builder().generator(generator).build().expect_err("prob > 1");
        assert!(error.to_string().contains("wild_memory_prob"), "got: {error}");
    }

    #[test]
    fn hand_constructed_unregistered_custom_kinds_fail_validation() {
        // `BanditKind::Custom` is a public variant; a spec naming a policy
        // nobody registered must surface an error, not a panic, from the
        // campaign entry points.
        let error = CampaignSpec::builder()
            .algorithm(BanditKind::Custom("spec-test-never-registered"))
            .build()
            .expect_err("unregistered custom policy");
        assert!(
            error.to_string().contains("not registered"),
            "got: {error}"
        );
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let spec = CampaignSpec::builder()
            .baseline()
            .arms(4)
            .alpha(0.75)
            .gamma(2)
            .max_tests(77)
            .rng_seed(u64::MAX)
            .batch_size(8)
            .processor(ProcessorKind::Cva6, BugSpec::Only(Vulnerability::V5MissingAccessFault))
            .build()
            .unwrap();
        let json = spec.to_json();
        let restored = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(restored, spec);
        assert_eq!(restored.rng_seed, u64::MAX, "64-bit seeds survive the codec");
        assert_eq!(restored.to_json(), json, "rendering is deterministic");
    }

    #[test]
    fn json_shards_key_is_accepted_ignored_and_rendered_as_one() {
        // Any positive count parses to the same spec, which renders the key
        // back as 1 at its usual position.
        let four = CampaignSpec::from_json("{\"shards\":4,\"batch_size\":8}").unwrap();
        assert_eq!(four, CampaignSpec::builder().batch_size(8).build().unwrap());
        assert!(four.to_json().contains("\"rng_seed\":0,\"shards\":1,\"batch_size\":8,"));
        let zero = CampaignSpec::from_json("{\"shards\":0}").expect_err("zero shards");
        assert_eq!(zero, SpecError::ZeroShards);
        let text = CampaignSpec::from_json("{\"shards\":\"many\"}").expect_err("not a number");
        assert!(text.to_string().contains("shards"), "got: {text}");
    }

    #[test]
    fn json_defaults_apply_to_omitted_fields() {
        let spec = CampaignSpec::from_json("{\"policy\":\"exp3\",\"rng_seed\":9}").unwrap();
        assert_eq!(spec.policy, PolicySpec::Bandit(BanditKind::Exp3));
        assert_eq!(spec.rng_seed, 9);
        assert_eq!(spec.arms(), 10, "defaults fill the rest");
        let empty = CampaignSpec::from_json("{}").unwrap();
        assert_eq!(empty, CampaignSpec::default());
    }

    #[test]
    fn coverage_signal_round_trips_and_defaults_to_point() {
        // The default signal never appears in the rendered JSON: specs
        // written before the field existed stay byte-identical.
        let point = CampaignSpec::default();
        assert_eq!(point.coverage_signal, CoverageSignal::Point);
        assert!(!point.to_json().contains("coverage_signal"));

        let edge = CampaignSpec::builder().coverage_signal(CoverageSignal::Edge).build().unwrap();
        let json = edge.to_json();
        assert!(json.contains("\"coverage_signal\":\"edge\""));
        assert_eq!(CampaignSpec::from_json(&json).unwrap(), edge);

        // Spelling the default out loud parses back to the default too.
        let explicit = CampaignSpec::from_json("{\"coverage_signal\":\"point\"}").unwrap();
        assert_eq!(explicit, CampaignSpec::default());

        let error = CampaignSpec::from_json("{\"coverage_signal\":\"path\"}").expect_err("bad signal");
        assert!(error.to_string().contains("unknown coverage signal `path`"), "got: {error}");
    }

    #[test]
    fn json_rejects_unknown_fields_and_bad_values() {
        for (document, needle) in [
            ("{\"polcy\":\"ucb\"}", "unknown spec field `polcy`"),
            ("{\"campaign\":{\"maxtests\":1}}", "unknown campaign field"),
            ("{\"campaign\":{\"generator\":{\"weights\":{\"arty\":1}}}}", "unknown weight class"),
            ("{\"alpha\":\"high\"}", "expected a number"),
            ("{\"rng_seed\":-4}", "non-negative integer"),
            ("{\"alpha\":2.0}", "alpha must lie in"),
            ("{\"policy\":\"gradient\"}", "valid policies: TheHuzz"),
            ("{\"processor\":{\"core\":\"pentium\"}}", "unknown processor core"),
            ("{\"processor\":{\"bugs\":\"native\"}}", "processor.core is required"),
            ("{\"processor\":{\"core\":\"cva6\",\"bugs\":\"V99\"}}", "unknown bug selector"),
            ("{\"alpha\":", "unexpected end"),
            ("{\"alpha\":0.25}}", "trailing content"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
        ] {
            let error = CampaignSpec::from_json(document).expect_err(document);
            assert!(
                error.to_string().contains(needle),
                "`{document}` → `{error}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        // RFC 8259 allows any character via \u escapes, with non-BMP
        // scalars as surrogate pairs; the strict reader must accept specs
        // other JSON tools produced. (The unknown-field error proves the
        // decoded key survived intact.)
        let error = CampaignSpec::from_json("{\"\\u0070\\u006flicy\\ud83d\\ude00\":1}")
            .expect_err("unknown field");
        assert!(error.to_string().contains("policy😀"), "got: {error}");
        for (document, needle) in [
            ("{\"\\ud83d\":1}", "lone high surrogate"),
            ("{\"\\ud83d\\u0041\":1}", "invalid low surrogate"),
            ("{\"\\ud8\":1}", "invalid digit"),
        ] {
            let error = CampaignSpec::from_json(document).expect_err(document);
            assert!(error.to_string().contains(needle), "`{document}` → `{error}`");
        }
    }

    #[test]
    fn bug_specs_materialise_the_right_sets() {
        assert!(BugSpec::None.to_bug_set(ProcessorKind::Cva6).is_empty());
        assert!(!BugSpec::Native.to_bug_set(ProcessorKind::Cva6).is_empty());
        assert!(BugSpec::Native.to_bug_set(ProcessorKind::Boom).is_empty(), "BOOM has no native bugs");
        let only = BugSpec::Only(Vulnerability::V5MissingAccessFault);
        assert!(only.to_bug_set(ProcessorKind::Cva6).has(Vulnerability::V5MissingAccessFault));
        assert_eq!(BugSpec::parse("native").unwrap(), BugSpec::Native);
        assert_eq!(BugSpec::parse("NONE").unwrap(), BugSpec::None);
        assert_eq!(BugSpec::parse("V5").unwrap(), only);
    }
}
