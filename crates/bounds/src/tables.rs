//! The figure-table types: one [`FigTable`] per reproduced figure, one
//! [`Cell`] per table entry of the paper. `render()` prints the aligned
//! ASCII the `sg-bench run fig4 …` scenarios emit. Boundary cells (where
//! the separator optimizer sits on the feasibility boundary `f(λ) = 1`
//! and the value therefore coincides with the general bound) are marked
//! with `∗`, matching the paper's convention in Figs. 5 and 8. The
//! builder that fills them is `sg_scenario::tables`.

use crate::pfun::Period;

/// One table cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The coefficient of `log₂ n`.
    pub value: f64,
    /// `true` when the entry coincides with the general (Fig. 4 / broadcast)
    /// bound — rendered with the paper's `∗`.
    pub starred: bool,
}

/// One table row.
#[derive(Debug, Clone)]
pub struct FigRow {
    /// Row label (network family and degree).
    pub label: String,
    /// Cells aligned with the table's column labels.
    pub cells: Vec<Cell>,
}

/// A rendered-able reproduction of one of the paper's figures.
#[derive(Debug, Clone)]
pub struct FigTable {
    /// Figure title.
    pub title: String,
    /// Column labels.
    pub columns: Vec<String>,
    /// Rows.
    pub rows: Vec<FigRow>,
}

impl FigTable {
    /// Aligned ASCII rendering.
    pub fn render(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.chars().count())
            .chain(std::iter::once(8))
            .max()
            .unwrap();
        let col_w = 10usize;
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        out.push_str(&format!("{:label_w$}", ""));
        for c in &self.columns {
            out.push_str(&format!(" {:>col_w$}", c));
        }
        out.push('\n');
        out.push_str(&"-".repeat(label_w + (col_w + 1) * self.columns.len()));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:label_w$}", r.label));
            for c in &r.cells {
                let star = if c.starred { "*" } else { "" };
                out.push_str(&format!(" {:>col_w$}", format!("{:.4}{}", c.value, star)));
            }
            out.push('\n');
        }
        out
    }
}

/// The standard period columns of the paper's tables: `s = 3..8` and `∞`.
pub fn standard_periods() -> Vec<Period> {
    (3..=8)
        .map(Period::Systolic)
        .chain(std::iter::once(Period::NonSystolic))
        .collect()
}
