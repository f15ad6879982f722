//! The determinism guarantee, enforced across the registry: a batch's
//! rows and text do not depend on the thread budget. Every registry
//! scenario runs at budgets 1, 2 and 8 except the large instances and
//! one enumeration whose debug-build cost would dominate the test; the
//! rows, with their wall-clock `elapsed_ms` fields removed, must
//! serialize byte for byte alike.

use sg_scenario::{registry, run_batch, BatchOptions, Scenario, Task};
use systolic_gossip::to_json_line;

/// Left out: the n ≥ 10⁵ instances, and an enumeration that costs
/// several seconds in a debug build while adding no unit kind or task
/// the rest do not cover.
const SKIPPED: &[&str] = &["rand-large-rr", "enum-knodel-w416"];

fn subset() -> Vec<Scenario> {
    registry()
        .into_iter()
        .filter(|s| !s.name.starts_with("sim-large-") && !SKIPPED.contains(&s.name))
        .collect()
}

/// Every row as its JSON line without `elapsed_ms`, then every
/// scenario's text report.
fn run(scenarios: &[Scenario], threads: usize) -> (Vec<String>, Vec<String>) {
    let opts = BatchOptions {
        threads,
        ..BatchOptions::default()
    };
    let report = run_batch(scenarios, &opts);
    let rows = report
        .tagged_rows()
        .into_iter()
        .map(|mut row| {
            row.fields.retain(|(name, _)| name != "elapsed_ms");
            to_json_line(&row)
        })
        .collect();
    let text = report.outcomes.iter().map(|o| o.render_text()).collect();
    (rows, text)
}

#[test]
fn registry_rows_are_identical_at_one_two_and_eight_threads() {
    let scenarios = subset();
    for task in [
        Task::Bound,
        Task::Simulate,
        Task::Compare,
        Task::Matrices,
        Task::Search,
        Task::Enumerate,
        Task::Execute,
        Task::Randomized,
    ] {
        assert!(
            scenarios.iter().any(|s| s.task == task),
            "the subset has no {} scenario",
            task.name()
        );
    }
    assert!(
        scenarios.iter().any(|s| !s.checks.is_empty()),
        "the subset has no paper checks"
    );

    let (rows, text) = run(&scenarios, 1);
    assert!(
        rows.iter().any(|r| r.contains("\"kind\":\"table\"")),
        "the subset has no family-table rows"
    );
    assert!(
        rows.iter().any(|r| r.contains("\"kind\":\"matrices\"")),
        "the subset has no matrices rows"
    );
    assert!(
        rows.iter().any(|r| r.contains("\"kind\":\"check\"")),
        "the subset has no check rows"
    );
    for threads in [2, 8] {
        let (other_rows, other_text) = run(&scenarios, threads);
        assert_eq!(
            rows.len(),
            other_rows.len(),
            "row count at {threads} threads"
        );
        for (a, b) in rows.iter().zip(&other_rows) {
            assert_eq!(a, b, "row differs at {threads} threads");
        }
        assert_eq!(text, other_text, "text differs at {threads} threads");
    }
}
