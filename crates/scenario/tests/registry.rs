//! End-to-end: the registry scenarios run through the batch executor and
//! reproduce the former figure binaries' numbers.

use sg_scenario::{find, registry, run_batch, BatchOptions, Task};
use systolic_gossip::sg_bounds::tables;
use systolic_gossip::Value;

fn opts() -> BatchOptions {
    BatchOptions {
        threads: 4,
        ..Default::default()
    }
}

#[test]
fn figure_scenarios_reproduce_the_paper_tables() {
    let scenarios: Vec<_> = ["fig4", "fig5", "fig6", "fig8"]
        .iter()
        .map(|n| find(n).expect(n))
        .collect();
    let report = run_batch(&scenarios, &opts());
    assert!(report.checks_ok(), "paper checks failed");

    let references = [
        tables::fig4(),
        tables::fig5(),
        tables::fig6(),
        tables::fig8(),
    ];
    for (outcome, reference) in report.outcomes.iter().zip(&references) {
        let table = outcome
            .table
            .as_ref()
            .unwrap_or_else(|| panic!("{} produced no table", outcome.name));
        assert_eq!(table.rows.len(), reference.rows.len(), "{}", outcome.name);
        for (got, want) in table.rows.iter().zip(&reference.rows) {
            assert_eq!(got.label, want.label, "{}", outcome.name);
            for (gc, wc) in got.cells.iter().zip(&want.cells) {
                assert!(
                    (gc.value - wc.value).abs() < 1e-12,
                    "{} {}: {} vs {}",
                    outcome.name,
                    got.label,
                    gc.value,
                    wc.value
                );
                assert_eq!(gc.starred, wc.starred, "{} {}", outcome.name, got.label);
            }
        }
    }
}

#[test]
fn batch_executor_memoizes_across_sweep_points() {
    // zoo-bounds sweeps two periods over 15 networks: each network must
    // be built and traversed once, then hit the cache for the second
    // period.
    let sc = find("zoo-bounds").expect("registered");
    let n_networks = sc.networks.len();
    let report = run_batch(&[sc], &opts());
    assert_eq!(report.cache.graph_builds, n_networks, "{:?}", report.cache);
    assert!(
        report.cache.graph_hits >= n_networks,
        "expected per-network cache hits, got {:?}",
        report.cache
    );
    // Two bound rows per network.
    let bound_rows = report.outcomes[0]
        .rows
        .iter()
        .filter(|r| r.get("kind") == Some(&Value::Text("bound".into())))
        .count();
    assert_eq!(bound_rows, 2 * n_networks);
}

#[test]
fn simulate_scenarios_are_sound() {
    for name in ["curves", "torus-sweep", "ccc-tour"] {
        let sc = find(name).expect(name);
        let report = run_batch(&[sc], &opts());
        let audits: Vec<_> = report.outcomes[0]
            .rows
            .iter()
            .filter(|r| r.get("kind") == Some(&Value::Text("audit".into())))
            .collect();
        assert!(!audits.is_empty(), "{name}: no audit rows");
        for row in audits {
            assert_eq!(
                row.get("sound"),
                Some(&Value::Bool(true)),
                "{name}: unsound audit: {row:?}"
            );
            assert!(
                !matches!(row.get("measured_rounds"), Some(&Value::Null)),
                "{name}: protocol did not complete: {row:?}"
            );
        }
    }
}

#[test]
fn compare_scenarios_are_sound() {
    for name in ["diameter-bounds-weighted", "random-regular"] {
        let sc = find(name).expect(name);
        let report = run_batch(&[sc], &opts());
        let rows = &report.outcomes[0].rows;
        assert!(!rows.is_empty(), "{name}: no rows");
        for row in rows {
            if let Some(v) = row.get("sound") {
                assert_eq!(v, &Value::Bool(true), "{name}: violation: {row:?}");
            }
        }
    }
}

#[test]
fn every_registered_scenario_expands_to_work() {
    // Smoke: every scenario must produce at least one row or text block
    // when run. Use cheap stand-ins for the expensive ones by checking
    // unit expansion indirectly: matrices/table scenarios run fully, and
    // the rest are covered by the dedicated tests above, so here we only
    // run the tables + matrices subset end-to-end.
    let cheap: Vec<_> = registry()
        .into_iter()
        .filter(|s| matches!(s.task, Task::Bound | Task::Matrices) && s.networks.is_empty())
        .collect();
    assert!(cheap.len() >= 5);
    let report = run_batch(&cheap, &opts());
    for o in &report.outcomes {
        assert!(
            !o.rows.is_empty() || !o.text.is_empty(),
            "{}: produced nothing",
            o.name
        );
    }
}

#[test]
fn tagged_rows_stream_as_json_and_csv() {
    let sc = find("fig4").expect("registered");
    let report = run_batch(&[sc], &opts());
    let rows = report.tagged_rows();
    assert!(!rows.is_empty());
    for row in &rows {
        assert_eq!(row.fields[0].0, "scenario");
        let json = systolic_gossip::to_json_line(row);
        assert!(json.starts_with("{\"scenario\":\"fig4\""), "{json}");
    }
    let csv = systolic_gossip::to_csv(&rows);
    assert!(csv.lines().next().unwrap().starts_with("scenario,"));
    assert_eq!(csv.lines().count(), rows.len() + 1);
}
