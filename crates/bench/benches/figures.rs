//! Criterion benches for the figure-regeneration pipeline: the cost of
//! producing each table of the paper from scratch.

use criterion::{criterion_group, criterion_main, Criterion};
use sg_scenario::tables::{assemble_table, family_row, family_specs};
use std::hint::black_box;
use systolic_gossip::prelude::Mode;
use systolic_gossip::sg_bounds::pfun::{BoundMode, Period};
use systolic_gossip::sg_bounds::tables::{standard_periods, FigTable};
use systolic_gossip::sg_bounds::{e_coefficient, e_separator};
use systolic_gossip::sg_graphs::separator::params_wbf_undirected;
use systolic_gossip::BoundOracle;

/// One figure built by `sg_scenario::tables` against a fresh oracle, so
/// every iteration computes its cells instead of hitting the memo.
fn table(mode: Mode, degrees: &[usize], periods: &[Period]) -> FigTable {
    let oracle = BoundOracle::new();
    let rows = family_specs(mode, degrees)
        .iter()
        .map(|spec| family_row(spec, mode, periods, &oracle))
        .collect();
    assemble_table("bench", periods, rows)
}

fn bench_figures(c: &mut Criterion) {
    let fig5_periods: Vec<Period> = (3..=8).map(Period::Systolic).collect();
    let figures: [(&str, Mode, &[usize], Vec<Period>); 4] = [
        ("fig4_table", Mode::HalfDuplex, &[], standard_periods()),
        ("fig5_table", Mode::HalfDuplex, &[2, 3], fig5_periods),
        (
            "fig6_table",
            Mode::HalfDuplex,
            &[2, 3],
            vec![Period::NonSystolic],
        ),
        ("fig8_table", Mode::FullDuplex, &[2, 3], standard_periods()),
    ];
    for (name, mode, degrees, periods) in &figures {
        c.bench_function(name, |b| {
            b.iter(|| black_box(table(*mode, degrees, periods)))
        });
    }
}

fn bench_solvers(c: &mut Criterion) {
    c.bench_function("e_general_s8", |b| {
        b.iter(|| black_box(e_coefficient(BoundMode::HalfDuplex, Period::Systolic(8))))
    });
    c.bench_function("separator_optimizer_wbf_s4", |b| {
        b.iter(|| {
            black_box(e_separator(
                params_wbf_undirected(2),
                BoundMode::HalfDuplex,
                Period::Systolic(4),
            ))
        })
    });
}

criterion_group!(benches, bench_figures, bench_solvers);
criterion_main!(benches);
