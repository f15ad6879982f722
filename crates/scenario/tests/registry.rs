//! End-to-end: the registry scenarios run through the batch executor and
//! reproduce the paper's figure tables.

use sg_scenario::{find, registry, run_batch, BatchOptions, Task};
use systolic_gossip::sg_bounds::registry::upper_bounds_for;
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

    // (rows, columns) of Figs. 4, 5, 6 (with the diameter column) and 8.
    let shapes = [(1, 7), (10, 6), (10, 2), (9, 7)];
    for (outcome, (rows, columns)) in report.outcomes.iter().zip(shapes) {
        let table = outcome
            .table
            .as_ref()
            .unwrap_or_else(|| panic!("{} produced no table", outcome.name));
        assert_eq!(table.rows.len(), rows, "{}", outcome.name);
        assert_eq!(table.columns.len(), columns, "{}", outcome.name);
        for row in &table.rows {
            assert_eq!(row.cells.len(), columns, "{} {}", outcome.name, row.label);
        }
    }
}

#[test]
fn figure_tables_stay_internally_consistent_with_the_registry_story() {
    // Fig. 5's systolic cells never cross the [24] systolic upper
    // bounds at the periods those constructions use (s ≥ 4), and every
    // cell of Figs. 4–8 is positive and finite.
    let scenarios: Vec<_> = ["fig4", "fig5", "fig6", "fig8"]
        .iter()
        .map(|n| find(n).expect(n))
        .collect();
    let report = run_batch(&scenarios, &opts());
    for outcome in &report.outcomes {
        let table = outcome.table.as_ref().expect("figure table");
        for row in &table.rows {
            for cell in &row.cells {
                assert!(
                    cell.value.is_finite() && cell.value > 0.0,
                    "{}: {} has a bad cell {}",
                    outcome.name,
                    row.label,
                    cell.value
                );
            }
        }
    }
    let fig5 = report.outcomes[1].table.as_ref().expect("Fig. 5 table");
    let mut checked = 0;
    for row in &fig5.rows {
        let ubs = upper_bounds_for(row.label.as_str());
        let systolic_ub: Vec<_> = ubs
            .iter()
            .filter(|e| e.problem == "systolic gossip")
            .collect();
        // Columns are s = 3..8; the [24] constructions need s >= 4.
        for ub in systolic_ub {
            checked += 1;
            for cell in &row.cells[1..] {
                assert!(
                    cell.value <= ub.coefficient + 1e-9,
                    "{}: Fig. 5 cell {} crosses {} from {}",
                    row.label,
                    cell.value,
                    ub.coefficient,
                    ub.source
                );
            }
        }
    }
    assert!(checked > 0, "no Fig. 5 row has a systolic upper bound");
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
