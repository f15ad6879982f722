//! Golden bound rows: the paper figures, the bound and diameter sweeps,
//! the audits, six searches and one exact enumeration, run through
//! `run_batch` at two threads and compared line for line with the
//! committed `golden/bound_rows.jsonl`. Every number the bound layer
//! composes (the three exact floors and which one won, `e(s)`, the
//! separator coefficient, λ\*, Theorem 4.1's break-even `t`, the
//! Section 7 diameter bound) reaches a row of one of these scenarios, so
//! a refactor of that layer that moves a digit fails here.
//!
//! The wall-clock `elapsed_ms` and the machine-dependent `threads`
//! fields are left out. A deliberate change of values regenerates the
//! file from a release build:
//!
//! ```text
//! ./target/release/sg-bench run fig4 fig5 fig5-highdeg fig6 fig8 \
//!     zoo-bounds diameter-bounds diameter-bounds-weighted validate \
//!     search-path search-cycle search-cycle-s2 search-hypercube \
//!     search-torus search-knodel enum-cycle-directed \
//!     --threads 2 --format json \
//!   | sed -E 's/"(elapsed_ms|threads)":[0-9]+,//g' \
//!   > crates/scenario/tests/golden/bound_rows.jsonl
//! ```

use sg_scenario::{find, run_batch, BatchOptions};
use systolic_gossip::to_json_line;

const SCENARIOS: &[&str] = &[
    "fig4",
    "fig5",
    "fig5-highdeg",
    "fig6",
    "fig8",
    "zoo-bounds",
    "diameter-bounds",
    "diameter-bounds-weighted",
    "validate",
    "search-path",
    "search-cycle",
    "search-cycle-s2",
    "search-hypercube",
    "search-torus",
    "search-knodel",
    "enum-cycle-directed",
];

const GOLDEN: &str = include_str!("golden/bound_rows.jsonl");

#[test]
fn bound_rows_match_the_golden_file() {
    let scenarios: Vec<_> = SCENARIOS
        .iter()
        .map(|name| find(name).unwrap_or_else(|| panic!("no scenario `{name}`")))
        .collect();
    let opts = BatchOptions {
        threads: 2,
        ..BatchOptions::default()
    };
    let got: Vec<String> = run_batch(&scenarios, &opts)
        .tagged_rows()
        .into_iter()
        .map(|mut row| {
            row.fields
                .retain(|(name, _)| name != "elapsed_ms" && name != "threads");
            to_json_line(&row)
        })
        .collect();
    let want: Vec<&str> = GOLDEN.lines().collect();
    for source in ["doubling", "diameter", "linear-s2"] {
        let field = format!("\"floor_source\":\"{source}\"");
        assert!(
            want.iter().any(|r| r.contains(&field)),
            "no golden row has {field}"
        );
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "row {} differs from the golden file", i + 1);
    }
    assert_eq!(
        got.len(),
        want.len(),
        "row count differs from the golden file"
    );
}
