//! Integration: every numeric value the paper states must reproduce
//! through the public API.

use sg_scenario::{find, run_batch, BatchOptions};
use systolic_gossip::prelude::*;
use systolic_gossip::sg_bounds::tables::FigTable;

/// The rendered tables of the registry's `names` figure scenarios.
fn figure_tables(names: &[&str]) -> Vec<FigTable> {
    let scenarios: Vec<_> = names.iter().map(|n| find(n).expect(n)).collect();
    run_batch(&scenarios, &BatchOptions::default())
        .outcomes
        .into_iter()
        .map(|o| o.table.expect("figure scenario renders a table"))
        .collect()
}

/// Fig. 4: e(3..8) and the s → ∞ limit (Section 1 lists all seven).
#[test]
fn fig4_all_paper_values() {
    let expected = [
        (Period::Systolic(3), 2.8808),
        (Period::Systolic(4), 1.8133),
        (Period::Systolic(5), 1.6502),
        (Period::Systolic(6), 1.5363),
        (Period::Systolic(7), 1.5021),
        (Period::Systolic(8), 1.4721),
        (Period::NonSystolic, 1.4404),
    ];
    for (p, want) in expected {
        let got = e_coefficient(BoundMode::HalfDuplex, p);
        assert!(
            (got - want).abs() < 1.2e-4,
            "{p}: computed {got:.5}, paper {want}"
        );
    }
}

/// Section 1's systolic spot values: for s = 4,
/// g(WBF(2,D)) ≥ 2.0218·log n and g(DB(2,D)) ≥ 1.8133·log n.
#[test]
fn section1_systolic_spot_values() {
    let wbf = Network::WrappedButterfly { d: 2, dd: 6 };
    let r = bound_report(&wbf, Mode::HalfDuplex, Period::Systolic(4));
    assert!((r.separator_coefficient.unwrap() - 2.0218).abs() < 5e-4);

    let db = Network::DeBruijn { d: 2, dd: 6 };
    let r = bound_report(&db, Mode::HalfDuplex, Period::Systolic(4));
    assert!((r.separator_coefficient.unwrap() - 1.8133).abs() < 5e-4);
}

/// Section 1's non-systolic spot values: g(WBF(2,D)) ≥ 1.9750·log n,
/// g(DB(2,D)) ≥ 1.5876·log n.
#[test]
fn section1_nonsystolic_spot_values() {
    let wbf = Network::WrappedButterfly { d: 2, dd: 6 };
    let r = bound_report(&wbf, Mode::HalfDuplex, Period::NonSystolic);
    assert!((r.separator_coefficient.unwrap() - 1.9750).abs() < 5e-4);

    let db = Network::DeBruijn { d: 2, dd: 6 };
    let r = bound_report(&db, Mode::HalfDuplex, Period::NonSystolic);
    assert!((r.separator_coefficient.unwrap() - 1.5876).abs() < 5e-4);
}

/// The broadcasting constants of [22, 2] quoted in the introduction.
#[test]
fn broadcasting_constants() {
    assert!((c_broadcast(2) - 1.4404).abs() < 1.2e-4);
    assert!((c_broadcast(3) - 1.1374).abs() < 1.2e-4);
    assert!((c_broadcast(4) - 1.0562).abs() < 1.2e-4);
}

/// Fig. 8's general row coincides with the broadcasting constants
/// (the Section 6 equivalence between full-duplex systolic gossip and
/// bounded-degree broadcast).
#[test]
fn full_duplex_equals_broadcast() {
    for s in 3..=10 {
        assert!(
            (e_full_duplex(s) - c_broadcast(s - 1)).abs() < 1e-9,
            "s={s}"
        );
    }
}

/// Structural facts of the rendered tables.
#[test]
fn tables_shape_and_stars() {
    let [f4, f5, f6, f8]: [FigTable; 4] = figure_tables(&["fig4", "fig5", "fig6", "fig8"])
        .try_into()
        .expect("four tables");
    assert_eq!(f4.rows.len(), 1);
    assert_eq!(f4.columns.len(), 7);

    assert_eq!(f5.rows.len(), 10);
    // DB(3,D) is fully starred for s >= 4 (the separator never improves
    // the general bound for degree 3 at these periods).
    let db3 = f5.rows.iter().find(|r| r.label == "DB(3,D)").unwrap();
    assert!(db3.cells[1..].iter().all(|c| c.starred));

    // Every e(∞) value beats or matches the general 1.4404, and every
    // value beats its own diameter coefficient for these families.
    for row in &f6.rows {
        assert!(row.cells[0].value >= 1.4404 - 1.2e-4, "{}", row.label);
        assert!(
            row.cells[0].value >= row.cells[1].value - 1e-9,
            "{}: bound below diameter",
            row.label
        );
    }

    assert!(f8.rows.len() >= 9); // general + 4 families × 2 degrees
}

/// The λ* fixpoints behind Fig. 4 solve the paper's equation
/// λ·√(p_{⌈s/2⌉}(λ))·√(p_{⌊s/2⌋}(λ)) = 1.
#[test]
fn lambda_fixpoints_satisfy_equation() {
    use systolic_gossip::sg_bounds::lambda_star;
    use systolic_gossip::sg_bounds::pfun::f_half_duplex;
    for s in 3..=12 {
        let l = lambda_star(BoundMode::HalfDuplex, Period::Systolic(s));
        assert!((f_half_duplex(s, l) - 1.0).abs() < 1e-9, "s={s}");
    }
}

/// The golden-ratio endpoints: λ*(∞) = 1/φ for half-duplex and 1/2 for
/// full-duplex.
#[test]
fn nonsystolic_fixpoints() {
    use systolic_gossip::sg_bounds::lambda_star;
    let l = lambda_star(BoundMode::HalfDuplex, Period::NonSystolic);
    assert!((l - 0.618_033_988_75).abs() < 1e-9);
    let l = lambda_star(BoundMode::FullDuplex, Period::NonSystolic);
    assert!((l - 0.5).abs() < 1e-9);
}
