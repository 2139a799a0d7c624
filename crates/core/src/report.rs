//! Deterministic JSON rendering of one campaign's outcome.
//!
//! [`campaign_json`] is **the** campaign report document of the workspace:
//! it is what `experiments run --spec file.json --json` prints and what the
//! campaign service serves from `GET /campaigns/{id}/report` — one
//! renderer, so a report
//! fetched over the wire is byte-identical to the one the CLI would have
//! printed for the same spec, and the concurrency-equivalence suite can
//! `cmp` the two directly.
//!
//! Rendering is by hand with fixed field order and shortest-round-trip float
//! formatting (the `json_text` conventions shared with
//! the spec codec and the JSONL event stream): the document is a stable
//! machine-readable artefact, golden-pinned in
//! `tests/golden/spec_campaign_smoke.json`.

use coverage::CoverageSeries;

use crate::json_text::push_json_string;
use crate::json_value;
use crate::campaign::MabFuzzOutcome;
use crate::spec::CampaignSpec;

/// Renders a JSON string literal (quoted, escaped) under the workspace's
/// shared escaping conventions — the one escaping routine behind the spec
/// codec, the event stream, the campaign report and the service protocol
/// bodies, exported so no consumer needs a drift-prone copy.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    push_json_string(&mut out, text);
    out
}

/// Renders the outcome of one spec-driven campaign: label, policy, the spec
/// that produced it, coverage curve, detections and per-arm summary — one
/// deterministic JSON document.
pub fn campaign_json(spec: &CampaignSpec, outcome: &MabFuzzOutcome) -> String {
    let stats = &outcome.stats;
    let series: Vec<String> = stats
        .series()
        .points()
        .iter()
        .map(|p| format!("[{},{}]", p.tests, p.covered))
        .collect();
    let detections: Vec<String> = stats
        .detections()
        .iter()
        .map(|d| {
            format!(
                "{{\"test_number\":{},\"test_id\":{},\"summary\":{}}}",
                d.test_number,
                d.test_id.0,
                json_string(&d.summary)
            )
        })
        .collect();
    let arms: Vec<String> = outcome
        .arms
        .iter()
        .map(|arm| {
            format!(
                "{{\"index\":{},\"pulls\":{},\"resets\":{},\"final_local_coverage\":{}}}",
                arm.index, arm.pulls, arm.resets, arm.final_local_coverage
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"campaign\",\"label\":{},\"policy\":{},\"spec\":{},\
         \"tests_executed\":{},\"final_coverage\":{},\"mismatching_tests\":{},\
         \"first_detection\":{},\"total_resets\":{},\"series\":[{}],\
         \"detections\":[{}],\"arms\":[{}]}}",
        json_string(stats.label()),
        json_string(spec.policy.name()),
        spec.to_json(),
        stats.tests_executed(),
        stats.final_coverage(),
        stats.mismatching_tests(),
        stats.first_detection().map_or_else(|| "null".to_owned(), |t| t.to_string()),
        outcome.total_resets,
        series.join(","),
        detections.join(","),
        arms.join(",")
    )
}

/// The reduction-facing numbers of one campaign, extracted either from a
/// live [`MabFuzzOutcome`] or from a rendered [`campaign_json`] document.
///
/// This is the contract that lets a *remote* campaign feed the same
/// experiment reductions as a local one: every quantity the paper's
/// artefacts reduce over — first detection, the sampled coverage series,
/// final coverage, reset counts — appears in the report document as an
/// exact integer, so parsing the report back
/// ([`from_report_json`](CampaignSummary::from_report_json)) reproduces
/// [`from_outcome`](CampaignSummary::from_outcome) bit for bit. The
/// dispatch coordinator relies on this equivalence to merge remote results
/// into artefacts byte-identical to a local run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// The campaign's report label (`"MABFuzz: UCB"`, `"TheHuzz"`, …).
    pub label: String,
    /// Tests the campaign actually executed.
    pub tests_executed: u64,
    /// Final cumulative coverage.
    pub final_coverage: usize,
    /// Tests whose DUT/golden architectural states mismatched.
    pub mismatching_tests: u64,
    /// Test number of the first mismatch, if any.
    pub first_detection: Option<u64>,
    /// Total arm resets (zero for baseline campaigns).
    pub total_resets: u64,
    /// The sampled cumulative coverage curve.
    pub series: CoverageSeries,
}

impl CampaignSummary {
    /// Extracts the summary from a locally executed campaign.
    pub fn from_outcome(outcome: &MabFuzzOutcome) -> CampaignSummary {
        let stats = &outcome.stats;
        CampaignSummary {
            label: stats.label().to_owned(),
            tests_executed: stats.tests_executed(),
            final_coverage: stats.final_coverage(),
            mismatching_tests: stats.mismatching_tests(),
            first_detection: stats.first_detection(),
            total_resets: outcome.total_resets,
            series: stats.series().clone(),
        }
    }

    /// Parses the summary back out of a [`campaign_json`] document, e.g. one
    /// fetched from a remote worker's `/campaigns/{id}/report`.
    ///
    /// # Errors
    ///
    /// A description of the first schema violation (missing field, wrong
    /// type, out-of-order series) — remote documents are untrusted input.
    pub fn from_report_json(report: &str) -> Result<CampaignSummary, String> {
        let value = json_value::parse(report)?;
        let str_field = |name: &str| -> Result<String, String> {
            value
                .get(name)
                .ok_or_else(|| format!("report lacks `{name}`"))?
                .as_str(name)
                .map(str::to_owned)
                .map_err(|error| error.to_string())
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            value
                .get(name)
                .ok_or_else(|| format!("report lacks `{name}`"))?
                .as_u64(name)
                .map_err(|error| error.to_string())
        };
        let label = str_field("label")?;
        let first_detection = match value.get("first_detection") {
            None => return Err("report lacks `first_detection`".to_owned()),
            Some(field) if field.is_null() => None,
            Some(field) => {
                Some(field.as_u64("first_detection").map_err(|error| error.to_string())?)
            }
        };
        let mut series = CoverageSeries::new(label.clone());
        let points = value
            .get("series")
            .ok_or("report lacks `series`")?
            .as_array("series")
            .map_err(|error| error.to_string())?;
        let mut last_tests = None;
        for point in points {
            let pair = point.as_array("series point").map_err(|error| error.to_string())?;
            let [tests, covered] = pair else {
                return Err(format!("series point has {} elements, expected 2", pair.len()));
            };
            let tests = tests.as_u64("series tests").map_err(|error| error.to_string())?;
            let covered =
                covered.as_usize("series covered").map_err(|error| error.to_string())?;
            // `CoverageSeries::record` panics on out-of-order samples; remote
            // input must fail with an error instead.
            if last_tests.is_some_and(|last| tests < last) {
                return Err(format!("series runs backwards at tests={tests}"));
            }
            last_tests = Some(tests);
            series.record(tests, covered);
        }
        Ok(CampaignSummary {
            label,
            tests_executed: u64_field("tests_executed")?,
            final_coverage: u64_field("final_coverage")? as usize,
            mismatching_tests: u64_field("mismatching_tests")?,
            first_detection,
            total_resets: u64_field("total_resets")?,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Campaign;
    use proc_sim::{cores::RocketCore, BugSet};
    use std::sync::Arc;

    #[test]
    fn campaign_reports_render_deterministically() {
        let spec = CampaignSpec::builder()
            .max_tests(20)
            .sample_interval(5)
            .rng_seed(3)
            .build()
            .unwrap();
        let run = || {
            Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
                .unwrap()
                .execute()
        };
        let a = campaign_json(&spec, &run());
        let b = campaign_json(&spec, &run());
        assert_eq!(a, b, "identical campaigns render identical documents");
        assert!(a.starts_with("{\"experiment\":\"campaign\",\"label\":"), "{a}");
        assert!(a.contains("\"tests_executed\":20"), "{a}");
        assert!(a.contains(&format!("\"spec\":{}", spec.to_json())), "{a}");
    }

    #[test]
    fn strings_follow_the_shared_escaping_conventions() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn summary_from_report_equals_summary_from_outcome() {
        // The dispatch coordinator's core assumption: parsing a rendered
        // report reproduces the local summary exactly, so remote execution
        // feeds the experiment reductions the same bits a local run would.
        let spec = CampaignSpec::builder()
            .max_tests(40)
            .sample_interval(7)
            .rng_seed(11)
            .build()
            .unwrap();
        let outcome = Campaign::from_spec_on(
            Arc::new(RocketCore::new(BugSet::native_to("rocket"))),
            &spec,
        )
            .unwrap()
            .execute();
        let direct = CampaignSummary::from_outcome(&outcome);
        let parsed = CampaignSummary::from_report_json(&campaign_json(&spec, &outcome))
            .expect("a rendered report parses");
        assert_eq!(parsed, direct);
        assert_eq!(parsed.series.label(), outcome.stats.label());
    }

    #[test]
    fn summary_rejects_malformed_reports() {
        assert!(CampaignSummary::from_report_json("not json").is_err());
        assert!(
            CampaignSummary::from_report_json("{\"error\":\"boom\"}")
                .unwrap_err()
                .contains("lacks"),
            "failure documents are not summaries"
        );
        let backwards = "{\"label\":\"x\",\"first_detection\":null,\
                         \"series\":[[10,1],[5,2]],\"tests_executed\":1,\
                         \"final_coverage\":1,\"mismatching_tests\":0,\"total_resets\":0}";
        assert!(CampaignSummary::from_report_json(backwards)
            .unwrap_err()
            .contains("backwards"));
    }
}
