//! Generic family tables: the one builder behind Figs. 4, 5, 6 and 8.
//!
//! The paper's four numeric tables are all instances of one shape — rows
//! are network families (plus the "any network" general row), columns are
//! periods (plus a diameter column in the non-systolic comparison) — so
//! the scenario subsystem generates them from `(mode, degrees, periods)`;
//! `sg_bounds::tables` holds only the table types. The paper values of
//! each figure are asserted by this module's tests, and the rows of
//! every figure scenario are pinned byte for byte by
//! `tests/golden_rows.rs`.

use sg_bounds::diameter;
use sg_bounds::pfun::{BoundMode, Period};
use sg_bounds::tables::{Cell, FigRow, FigTable};
use sg_graphs::separator::{
    params_butterfly, params_de_bruijn, params_kautz, params_wbf_directed, params_wbf_undirected,
    SeparatorParams,
};
use sg_protocol::mode::Mode;
use systolic_gossip::{bound_mode, BoundOracle};

/// One row of a family table: the general bound (no separator) or a
/// separator family at a fixed degree.
#[derive(Debug, Clone)]
pub struct FamilySpec {
    /// Row label in the paper's notation.
    pub label: String,
    /// Separator parameters; `None` for the general "any network" row.
    pub params: Option<SeparatorParams>,
    /// The family's diameter coefficient (Fig. 6 comparison column).
    pub diam_coeff: Option<f64>,
}

/// The rows of a family table for `mode` and `degrees`: the general row
/// when `degrees` is empty or the mode is full-duplex (Fig. 4's only row,
/// Fig. 8's first row), then the five Lemma 3.1 families per degree —
/// minus the directed wrapped butterfly in full-duplex mode, which has no
/// full-duplex variant.
pub fn family_specs(mode: Mode, degrees: &[usize]) -> Vec<FamilySpec> {
    let full_duplex = matches!(mode, Mode::FullDuplex);
    let mut rows = Vec::new();
    if degrees.is_empty() || full_duplex {
        rows.push(FamilySpec {
            label: "any network".into(),
            params: None,
            diam_coeff: None,
        });
    }
    for &d in degrees {
        rows.push(FamilySpec {
            label: format!("BF({d},D)"),
            params: Some(params_butterfly(d)),
            diam_coeff: Some(diameter::diam_coeff_butterfly(d)),
        });
        if !full_duplex {
            rows.push(FamilySpec {
                label: format!("WBF->({d},D)"),
                params: Some(params_wbf_directed(d)),
                diam_coeff: Some(diameter::diam_coeff_wbf_directed(d)),
            });
        }
        rows.push(FamilySpec {
            label: format!("WBF({d},D)"),
            params: Some(params_wbf_undirected(d)),
            diam_coeff: Some(diameter::diam_coeff_wbf_undirected(d)),
        });
        rows.push(FamilySpec {
            label: format!("DB({d},D)"),
            params: Some(params_de_bruijn(d)),
            diam_coeff: Some(diameter::diam_coeff_de_bruijn(d)),
        });
        rows.push(FamilySpec {
            label: format!("K({d},D)"),
            params: Some(params_kautz(d)),
            diam_coeff: Some(diameter::diam_coeff_kautz(d)),
        });
    }
    rows
}

/// `true` when the table gets the Fig. 6 diameter comparison column: the
/// sweep is exactly the non-systolic limit.
pub fn with_diameter_column(periods: &[Period]) -> bool {
    periods == [Period::NonSystolic]
}

/// Computes one row of the family table, resolving every cell through
/// the batch's shared memoizing oracle — repeated columns and families
/// shared between scenarios cost one optimizer run each.
pub fn family_row(
    spec: &FamilySpec,
    mode: Mode,
    periods: &[Period],
    oracle: &BoundOracle,
) -> FigRow {
    let bm: BoundMode = bound_mode(mode);
    let mut cells: Vec<Cell> = periods
        .iter()
        .map(|&p| {
            let (value, starred) = oracle.family_cell(spec.params, bm, p);
            Cell { value, starred }
        })
        .collect();
    if with_diameter_column(periods) {
        cells.push(Cell {
            value: spec.diam_coeff.unwrap_or(f64::NAN),
            starred: false,
        });
    }
    FigRow {
        label: spec.label.clone(),
        cells,
    }
}

/// Assembles a rendered table from precomputed rows.
pub fn assemble_table(title: &str, periods: &[Period], rows: Vec<FigRow>) -> FigTable {
    let mut columns: Vec<String> = periods.iter().map(|p| p.label()).collect();
    if with_diameter_column(periods) {
        columns.push("diam.".into());
    }
    FigTable {
        title: title.to_string(),
        columns,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_bounds::broadcast::c_broadcast;
    use sg_bounds::tables::standard_periods;

    fn table_for(mode: Mode, degrees: &[usize], periods: &[Period]) -> FigTable {
        let oracle = BoundOracle::new();
        let rows = family_specs(mode, degrees)
            .iter()
            .map(|spec| family_row(spec, mode, periods, &oracle))
            .collect();
        assemble_table("t", periods, rows)
    }

    fn fig4() -> FigTable {
        table_for(Mode::HalfDuplex, &[], &standard_periods())
    }

    fn fig5() -> FigTable {
        let periods: Vec<Period> = (3..=8).map(Period::Systolic).collect();
        table_for(Mode::HalfDuplex, &[2, 3], &periods)
    }

    fn fig6() -> FigTable {
        table_for(Mode::HalfDuplex, &[2, 3], &[Period::NonSystolic])
    }

    fn fig8() -> FigTable {
        table_for(Mode::FullDuplex, &[2, 3], &standard_periods())
    }

    #[test]
    fn fig4_row_matches_paper() {
        let t = fig4();
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].label, "any network");
        let vals: Vec<f64> = t.rows[0].cells.iter().map(|c| c.value).collect();
        let paper = [2.8808, 1.8133, 1.6502, 1.5363, 1.5021, 1.4721, 1.4404];
        assert_eq!(vals.len(), paper.len());
        for (got, want) in vals.iter().zip(paper) {
            assert!((got - want).abs() < 1.2e-4, "{got} vs {want}");
        }
    }

    #[test]
    fn fig5_has_all_families_and_sane_values() {
        let t = fig5();
        assert_eq!(t.rows.len(), 10); // 5 families × 2 degrees
        assert_eq!(t.columns.len(), 6);
        for row in &t.rows {
            for (cell, col) in row.cells.iter().zip(&t.columns) {
                assert!(
                    cell.value >= 1.4404 - 1e-6 && cell.value <= 3.0,
                    "{} {col}: {}",
                    row.label,
                    cell.value
                );
            }
            // e(s) non-increasing in s within a row.
            for w in row.cells.windows(2) {
                assert!(w[0].value >= w[1].value - 1e-9, "{}", row.label);
            }
        }
    }

    #[test]
    fn fig5_db_s4_is_starred_wbf_s4_is_not() {
        let t = fig5();
        let db2 = t.rows.iter().find(|r| r.label == "DB(2,D)").unwrap();
        let wbf2 = t.rows.iter().find(|r| r.label == "WBF(2,D)").unwrap();
        // Column order is s=3..8, so s=4 is index 1.
        assert!(db2.cells[1].starred, "DB(2,D) s=4 coincides with Fig. 4");
        assert!(!wbf2.cells[1].starred, "WBF(2,D) s=4 is an improvement");
        assert!((wbf2.cells[1].value - 2.0218).abs() < 5e-4);
    }

    #[test]
    fn fig6_rows_and_diameter_column() {
        let t = fig6();
        assert_eq!(t.rows.len(), 10);
        assert_eq!(t.columns, ["s=∞", "diam."]);
        let wbf2 = t.rows.iter().find(|r| r.label == "WBF(2,D)").unwrap();
        assert!((wbf2.cells[0].value - 1.9750).abs() < 5e-4);
        assert!((wbf2.cells[1].value - 1.5).abs() < 1e-12);
        // Every non-systolic bound beats (or equals) the general 1.4404.
        for row in &t.rows {
            assert!(row.cells[0].value >= 1.4404 - 1e-6, "{}", row.label);
        }
    }

    #[test]
    fn fig8_general_row_is_broadcast_constants() {
        let t = fig8();
        let general = &t.rows[0];
        assert_eq!(general.label, "any network");
        // Columns s = 3..8 equal the d-bonacci broadcasting constants
        // c(s−1); the ∞ column is 1.
        for (i, cell) in general.cells.iter().enumerate() {
            let want = if i < 6 { c_broadcast(3 + i - 1) } else { 1.0 };
            assert!(
                (cell.value - want).abs() < 1e-6,
                "col {i}: {} vs {want}",
                cell.value
            );
        }
        // The three constants the paper quotes.
        assert!((general.cells[0].value - 1.4404).abs() < 1.2e-4);
        assert!((general.cells[1].value - 1.1374).abs() < 1.2e-4);
        assert!((general.cells[2].value - 1.0562).abs() < 1.2e-4);
        // Separator rows dominate the general row entrywise.
        for row in &t.rows[1..] {
            for (c, g) in row.cells.iter().zip(&general.cells) {
                assert!(c.value >= g.value - 1e-9, "{}", row.label);
            }
        }
        // Directed WBF must not appear in the full-duplex table.
        assert_eq!(t.rows.len(), 9);
        assert!(t.rows.iter().all(|r| !r.label.starts_with("WBF->")));
    }

    #[test]
    fn render_contains_values_and_stars() {
        let s = fig5().render();
        assert!(s.contains("DB(2,D)"));
        assert!(s.contains('*'));
        assert!(s.contains("2.0218") || s.contains("2.021"));
    }
}
