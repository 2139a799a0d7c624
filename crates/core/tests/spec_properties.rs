//! Property suites for the campaign-spec JSON codec.
//!
//! Two guarantees the service layer leans on, since `POST /campaigns` feeds
//! attacker-controlled bytes straight into the strict codec:
//!
//! 1. **Total round-trip**: every *valid* spec — any policy, any parameter
//!    combination the builder accepts — encodes to JSON that decodes back to
//!    an equal spec, and re-encodes to the identical bytes.
//! 2. **No panics on hostile input**: arbitrarily mutated and truncated
//!    documents are either parsed (into a spec that then round-trips) or
//!    rejected with a `SpecError` — never a panic in the parser, the schema
//!    walker or validation.

use mab::BanditKind;
use mabfuzz::{BugSpec, CampaignSpec, CampaignSpecBuilder, PolicySpec};
use proc_sim::{ProcessorKind, Vulnerability};
use proptest::prelude::*;

/// Builds a valid spec from the property's raw draws.
#[allow(clippy::too_many_arguments)]
fn arbitrary_valid_spec(
    policy_index: usize,
    alpha_percent: usize,
    gamma: usize,
    epsilon_percent: usize,
    eta_thousandths: usize,
    rng_seed: u64,
    batch_size: usize,
    arms: usize,
    max_tests: u64,
    max_steps: usize,
    sample_interval: u64,
    mutations: usize,
    processor_index: usize,
    stop: bool,
) -> CampaignSpec {
    let builder = CampaignSpec::builder();
    let builder = match policy_index % 4 {
        0 => builder.baseline(),
        1 => builder.algorithm(BanditKind::Ucb1),
        2 => builder.algorithm(BanditKind::EpsilonGreedy),
        _ => builder.algorithm(BanditKind::Exp3),
    };
    let builder: CampaignSpecBuilder = match processor_index % 4 {
        0 => builder,
        1 => builder.processor(ProcessorKind::Rocket, BugSpec::Native),
        2 => builder.processor(ProcessorKind::Cva6, BugSpec::Only(Vulnerability::V5MissingAccessFault)),
        _ => builder.processor(ProcessorKind::Boom, BugSpec::None),
    };
    builder
        .alpha(alpha_percent as f64 / 100.0)
        .gamma(gamma)
        .epsilon(epsilon_percent as f64 / 100.0)
        .eta(eta_thousandths as f64 / 1000.0)
        .rng_seed(rng_seed)
        .batch_size(batch_size)
        .arms(arms)
        .max_tests(max_tests)
        .max_steps_per_test(max_steps)
        .sample_interval(sample_interval)
        .mutations_per_interesting_test(mutations)
        .stop_on_first_detection(stop)
        .build()
        .expect("every draw stays inside the validated ranges")
}

proptest! {
    /// Arbitrary valid specs survive encode → decode → encode unchanged.
    #[test]
    fn valid_specs_round_trip_through_json(
        policy_index in 0usize..4,
        alpha_percent in 0usize..=100,
        gamma in 1usize..12,
        epsilon_percent in 0usize..=100,
        eta_thousandths in 1usize..=2500,
        rng_seed in 0u64..=u64::MAX,
        batch_size in 1usize..10,
        arms in 1usize..14,
        max_tests in 1u64..100_000,
        max_steps in 1usize..1000,
        sample_interval in 1u64..100,
        mutations in 0usize..8,
        processor_index in 0usize..4,
        stop_flag in 0usize..2,
    ) {
        let spec = arbitrary_valid_spec(
            policy_index, alpha_percent, gamma, epsilon_percent, eta_thousandths,
            rng_seed, batch_size, arms, max_tests, max_steps,
            sample_interval, mutations, processor_index, stop_flag == 1,
        );
        let json = spec.to_json();
        let restored = CampaignSpec::from_json(&json).expect("a valid spec's JSON parses");
        prop_assert_eq!(&restored, &spec, "decode(encode(spec)) == spec");
        prop_assert_eq!(restored.to_json(), json, "rendering is deterministic");
        // The policy spelling in the document resolves back to the policy.
        prop_assert_eq!(PolicySpec::parse(spec.policy.name()).unwrap(), spec.policy);
    }

    /// Mutated documents — a character replaced, inserted or deleted —
    /// never panic the strict codec; when they still parse, the result is a
    /// valid spec that round-trips.
    #[test]
    fn mutated_spec_documents_never_panic(
        policy_index in 0usize..4,
        processor_index in 0usize..4,
        rng_seed in 0u64..=u64::MAX,
        mutation_kind in 0usize..3,
        position_permille in 0usize..1000,
        replacement in 0usize..96,
    ) {
        let spec = arbitrary_valid_spec(
            policy_index, 25, 3, 10, 100, rng_seed, 1, 4, 100, 200, 5, 2,
            processor_index, false,
        );
        let document: Vec<char> = spec.to_json().chars().collect();
        let position = position_permille * document.len() / 1000;
        // Printable-ASCII replacement alphabet: covers structural bytes
        // (quotes, braces, commas, digits) and plain letters.
        let replacement = (b' ' + replacement as u8) as char;
        let mut mutated: Vec<char> = document.clone();
        match mutation_kind {
            0 => mutated[position.min(document.len() - 1)] = replacement,
            1 => mutated.insert(position, replacement),
            _ => {
                mutated.remove(position.min(document.len() - 1));
            }
        }
        let mutated: String = mutated.into_iter().collect();
        if let Ok(parsed) = CampaignSpec::from_json(&mutated) {
            // Still-valid documents (e.g. a digit flipped inside a number)
            // must keep the codec total.
            let rendered = parsed.to_json();
            prop_assert_eq!(CampaignSpec::from_json(&rendered).unwrap(), parsed);
        }
    }

    /// Truncated documents — any prefix of a valid document — never panic,
    /// and only the full document parses.
    #[test]
    fn truncated_spec_documents_never_panic(
        policy_index in 0usize..4,
        processor_index in 0usize..4,
        rng_seed in 0u64..=u64::MAX,
        keep_permille in 0usize..1000,
    ) {
        let spec = arbitrary_valid_spec(
            policy_index, 25, 3, 10, 100, rng_seed, 4, 4, 100, 200, 5, 2,
            processor_index, true,
        );
        let document: Vec<char> = spec.to_json().chars().collect();
        let keep = keep_permille * document.len() / 1000;
        let prefix: String = document[..keep].iter().collect();
        prop_assert!(
            CampaignSpec::from_json(&prefix).is_err(),
            "a strict codec rejects every proper prefix (kept {keep} of {} chars)",
            document.len()
        );
    }
}

/// Deep recursion must not blow the parser's stack: the reader enforces
/// `json_value::MAX_DEPTH`, so a hostile `[[[[…` document — the service
/// parses attacker-controlled bodies on ordinary connection threads — is
/// rejected with an error long before the recursion could overflow.
#[test]
fn deeply_nested_documents_fail_without_crashing() {
    let document = "[".repeat(1 << 20);
    let error = CampaignSpec::from_json(&document).expect_err("hostile nesting rejected");
    assert!(error.to_string().contains("nesting deeper"), "{error}");
}
