//! TheHuzz, the baseline fuzzer of §II-A, as a test oracle and test suite.
//!
//! [`reference_campaign`] states TheHuzz's simulate–compare–mutate loop on
//! its own, exactly as the stand-alone baseline fuzzer ran it: every seed
//! queues in one global pool, tests run strictly first in, first out, an
//! empty pool gets a fresh random seed, and each test that covers new
//! points is mutated into a fixed number of children at the back of the
//! queue. A [`PolicySpec::Baseline`](crate::PolicySpec::Baseline) campaign
//! runs the same algorithm as the FIFO schedule of the one campaign loop,
//! and must reproduce this loop's statistics draw for draw.

use std::sync::Arc;

use fuzzer::{CampaignStats, ExecScratch, FuzzHarness, MutationEngine, SeedGenerator, TestPool};
use proc_sim::Processor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::CampaignSpec;

/// Runs TheHuzz's loop over `spec` and returns its statistics.
pub(crate) fn reference_campaign(
    processor: Arc<dyn Processor>,
    spec: &CampaignSpec,
) -> CampaignStats {
    let config = &spec.campaign;
    let mut harness = FuzzHarness::new(processor, config.max_steps_per_test);
    harness.set_coverage_signal(spec.coverage_signal);
    let mut rng = StdRng::seed_from_u64(spec.rng_seed);
    let mut seeds = SeedGenerator::new(config.generator.clone());
    let mutator = MutationEngine::new(config.generator.clone());
    let label = format!("TheHuzz on {}", harness.processor().name());
    let mut stats = CampaignStats::new(label, harness.coverage_space_len(), config.sample_interval);
    let mut pool = TestPool::new();
    pool.push_all(seeds.generate_seeds(&mut rng, config.num_seeds));
    let mut scratch = ExecScratch::new();

    while stats.tests_executed() < config.max_tests {
        let test = match pool.pop() {
            Some(test) => test,
            None => seeds.generate_seed(&mut rng),
        };
        let outcome = harness.run_program_into(&test.program, &mut scratch);
        let detected = outcome.detected_mismatch();
        let new_points = stats.record_test_count(test.id, outcome.coverage, outcome.diff);
        if config.stop_on_first_detection && detected {
            break;
        }
        if new_points > 0 {
            for _ in 0..config.mutations_per_interesting_test {
                let (mutant, _op) = mutator.mutate(&test.program, &mut rng);
                pool.push(seeds.adopt_child(&test, mutant));
            }
        }
    }
    stats.finish();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use proc_sim::cores::{Cva6Core, RocketCore};
    use proc_sim::{BugSet, Vulnerability};

    use crate::observer::{CampaignObserver, TestFolded};
    use crate::{Campaign, CancelToken, MabFuzzOutcome};

    fn small_spec(max_tests: u64, rng_seed: u64) -> CampaignSpec {
        CampaignSpec::builder()
            .baseline()
            .arms(4)
            .max_tests(max_tests)
            .max_steps_per_test(200)
            .mutations_per_interesting_test(2)
            .sample_interval(5)
            .rng_seed(rng_seed)
            .build()
            .expect("valid spec")
    }

    fn detection_spec() -> CampaignSpec {
        let mut spec = small_spec(400, 3);
        spec.campaign.stop_on_first_detection = true;
        spec
    }

    fn rocket() -> Arc<dyn Processor> {
        Arc::new(RocketCore::new(BugSet::none()))
    }

    fn cva6_v5() -> Arc<dyn Processor> {
        Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V5MissingAccessFault)))
    }

    fn run(processor: Arc<dyn Processor>, spec: &CampaignSpec) -> MabFuzzOutcome {
        Campaign::from_spec_on(processor, spec).unwrap().execute()
    }

    /// Hands every folded test to a closure.
    struct OnTest<F>(F);

    impl<F: FnMut(&TestFolded<'_>) + Send> CampaignObserver for OnTest<F> {
        fn test_folded(&mut self, event: &TestFolded<'_>) {
            (self.0)(event);
        }
    }

    #[test]
    fn campaign_runs_the_requested_number_of_tests() {
        let spec = small_spec(30, 1);
        let outcome = run(rocket(), &spec);
        assert_eq!(outcome.stats.tests_executed(), 30);
        let coverage = outcome.stats.final_coverage();
        assert!(coverage > 100, "30 tests should cover a fair number of points");
        assert_eq!(outcome.stats.mismatching_tests(), 0, "bug-free core never mismatches");
        let reference = reference_campaign(rocket(), &spec);
        assert_eq!(outcome.stats, reference, "the FIFO schedule runs TheHuzz");
    }

    #[test]
    fn coverage_grows_monotonically_and_saturates() {
        let outcome = run(rocket(), &small_spec(60, 2));
        let history = outcome.stats.cumulative().history();
        assert!(history.windows(2).all(|w| w[1] >= w[0]));
        // Early tests contribute far more new coverage than late ones
        // (diminishing returns — the property MABFuzz exploits).
        let first_10: usize = history[9];
        let last_10_gain: usize = history[history.len() - 1] - history[history.len() - 11];
        assert!(first_10 > last_10_gain, "coverage gains should diminish over time");
    }

    #[test]
    fn detection_mode_stops_at_the_first_mismatch() {
        let stats = run(cva6_v5(), &detection_spec()).stats;
        let detection = stats.first_detection().expect("V5 is easy to trigger");
        assert!(detection <= 400);
        assert_eq!(stats.tests_executed(), detection, "campaign stops at the detection");
    }

    #[test]
    fn identical_rng_seeds_reproduce_identical_campaigns() {
        let a = run(rocket(), &small_spec(15, 9));
        let b = run(rocket(), &small_spec(15, 9));
        assert_eq!(a, b);
    }

    #[test]
    fn run_with_reports_every_test_without_changing_the_campaign() {
        let plain = run(rocket(), &small_spec(40, 5));
        let records = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&records);
        let observed = Campaign::from_spec_on(rocket(), &small_spec(40, 5))
            .unwrap()
            .with_observer(Box::new(OnTest(move |event: &TestFolded<'_>| {
                assert!(event.covered >= event.global_new);
                assert_eq!((event.arm, event.local_new, event.reward), (0, event.global_new, 0.0));
                sink.lock().unwrap().push((event.test_number, event.covered));
            })))
            .execute();
        assert_eq!(plain, observed, "the observer must not perturb the campaign");
        let records = records.lock().unwrap();
        assert_eq!(records.len(), 40, "one record per executed test");
        let numbers: Vec<u64> = records.iter().map(|r| r.0).collect();
        assert_eq!(numbers, (1..=40).collect::<Vec<u64>>(), "records arrive in FIFO order");
        assert_eq!(records.last().unwrap().1, observed.stats.final_coverage());
    }

    #[test]
    fn detection_mode_reports_the_stopping_test_before_breaking() {
        let last = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&last);
        let stats = Campaign::from_spec_on(cva6_v5(), &detection_spec())
            .unwrap()
            .with_observer(Box::new(OnTest(move |event: &TestFolded<'_>| {
                *sink.lock().unwrap() = Some((event.test_number, event.detected));
            })))
            .execute()
            .stats;
        let detection = stats.first_detection().expect("V5 is easy to trigger");
        assert_eq!(
            *last.lock().unwrap(),
            Some((detection, true)),
            "the detecting test is the last record a stopping campaign reports"
        );
        assert_eq!(stats.tests_executed(), detection);
    }

    #[test]
    fn stop_probes_cut_the_loop_at_a_test_boundary() {
        let token = CancelToken::new();
        let probe = token.clone();
        let mut executed = 0;
        let stats = Campaign::from_spec_on(rocket(), &small_spec(50, 7))
            .unwrap()
            .with_observer(Box::new(OnTest(move |event: &TestFolded<'_>| {
                assert_eq!(event.test_number, executed + 1, "records stay in FIFO order");
                executed = event.test_number;
                if executed == 12 {
                    probe.cancel();
                }
            })))
            .with_cancellation(token.clone())
            .execute()
            .stats;
        assert!(token.was_interrupted());
        assert_eq!(stats.tests_executed(), 12, "the probe cut the campaign early");
        assert_eq!(stats.cumulative().history().len(), 12);

        // A stop requested before the first test yields an empty, finished
        // campaign.
        let token = CancelToken::new();
        token.cancel();
        let outcome = Campaign::from_spec_on(rocket(), &small_spec(50, 7))
            .unwrap()
            .with_observer(Box::new(OnTest(|_: &TestFolded<'_>| panic!("no test may run"))))
            .with_cancellation(token)
            .execute();
        assert_eq!(outcome.stats.tests_executed(), 0);
        assert!(outcome.arms.is_empty());
    }

    #[test]
    fn different_rng_seeds_explore_differently() {
        let a = run(rocket(), &small_spec(15, 10));
        let b = run(rocket(), &small_spec(15, 11));
        assert_ne!(a.stats.cumulative().history(), b.stats.cumulative().history());
    }
}
