//! Shared helpers for the benchmark harness.
//!
//! The former per-figure binaries were replaced by the `sg-bench` CLI
//! over [`sg_scenario::registry()`]; what remains here is
//! [`Trajectory`], the one writer of the `BENCH_*.json` trajectory
//! files, and the small helpers the benches and binaries share. Prefer
//! the scenario registry for anything user-facing.

#![forbid(unsafe_code)]

use criterion::Criterion;
use std::path::{Path, PathBuf};
use systolic_gossip::{json, to_json_line, Row, Value};

/// `true` when `SG_BENCH_FAST=1`: the benches shrink sample counts and
/// sizes for CI smoke runs.
pub fn fast_mode() -> bool {
    std::env::var("SG_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// `println!` for the binaries, through one `writeln!`: once the reader
/// has closed stdout (`sg-bench list | head -1`), the process exits at
/// once with status 0 and nothing on stderr, where `println!` panics.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        match writeln!(std::io::stdout(), $($arg)*) {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
            written => written.expect("failed printing to stdout"),
        }
    }};
}

/// The median of the recorded benchmark `name`, in nanoseconds.
pub fn median_ns(c: &Criterion, name: &str) -> Option<u128> {
    c.results()
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.median_ns)
}

/// `BENCH_<tag>.json` at the workspace root, next to `Cargo.lock` (cargo
/// runs benches with the package dir as CWD).
pub fn bench_json_path(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{tag}.json"))
}

/// One top-level value of a trajectory file.
enum Entry {
    Scalar(Value),
    Rows(Vec<Row>),
    Row(Row),
}

/// A `BENCH_*.json` trajectory file: header scalars, the criterion
/// `results` rows and named sections, one top-level key per line and one
/// row per line. Every value goes through the shared row encoder
/// ([`to_json_line`]), so strings are escaped and floats print at full
/// precision.
pub struct Trajectory {
    entries: Vec<(String, Entry)>,
}

impl Trajectory {
    /// A trajectory headed by `suite` and `generated_unix`.
    pub fn new(suite: &str) -> Self {
        Self::named(suite).stamped()
    }

    /// A criterion bench's trajectory, headed by `suite`, `fast` (see
    /// [`fast_mode`]) and `generated_unix`.
    pub fn bench(suite: &str) -> Self {
        Self::named(suite).scalar("fast", fast_mode()).stamped()
    }

    fn named(suite: &str) -> Self {
        Self {
            entries: Vec::new(),
        }
        .scalar("suite", suite)
    }

    fn stamped(self) -> Self {
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        self.scalar("generated_unix", unix_secs as usize)
    }

    /// Appends a header scalar.
    pub fn scalar(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.entries.push((key.into(), Entry::Scalar(value.into())));
        self
    }

    /// Appends `results`: one row per benchmark `c` recorded, in order.
    pub fn results(self, c: &Criterion) -> Self {
        let rows = c
            .results()
            .iter()
            .map(|r| {
                Row::new()
                    .with("name", r.name.as_str())
                    .with("min_ns", r.min_ns as usize)
                    .with("median_ns", r.median_ns as usize)
                    .with("mean_ns", r.mean_ns as usize)
                    .with("samples", r.samples)
            })
            .collect();
        self.rows("results", rows)
    }

    /// Appends a section holding a list of rows.
    pub fn rows(mut self, key: &str, rows: Vec<Row>) -> Self {
        self.entries.push((key.into(), Entry::Rows(rows)));
        self
    }

    /// Appends a section holding a single row.
    pub fn row(mut self, key: &str, row: Row) -> Self {
        self.entries.push((key.into(), Entry::Row(row)));
        self
    }

    /// The file's text.
    ///
    /// # Panics
    /// Panics when the text does not parse back as JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, entry)) in self.entries.iter().enumerate() {
            let body = match entry {
                Entry::Scalar(v) => encode(v.clone()),
                Entry::Row(row) => to_json_line(row),
                Entry::Rows(rows) => {
                    let lines: Vec<String> = rows.iter().map(to_json_line).collect();
                    format!("[\n    {}\n  ]", lines.join(",\n    "))
                }
            };
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let key = encode(key.as_str().into());
            out.push_str(&format!("  {key}: {body}{comma}\n"));
        }
        out.push_str("}\n");
        if let Err(e) = json::parse(&out) {
            panic!("trajectory renders malformed JSON ({e}):\n{out}");
        }
        out
    }

    /// Writes the file to [`bench_json_path`]`(tag)` and reports where.
    ///
    /// # Panics
    /// Panics when the file cannot be written.
    pub fn save(&self, tag: &str) {
        let path = bench_json_path(tag);
        std::fs::write(&path, self.render())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("\nwrote {}", path.display());
    }
}

/// One value as the row encoder spells it.
fn encode(v: Value) -> String {
    let line = to_json_line(&Row::new().with("", v));
    // Strip the `{"":` and `}` around the value.
    line[4..line.len() - 1].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_gossip::json::Json;

    #[test]
    fn trajectory_round_trips_through_the_parser() {
        let name = r#"q"uote\back ö"#;
        let t = Trajectory::new(name)
            .scalar("seed", 7usize)
            .rows(
                "points",
                vec![
                    Row::new()
                        .with("name", name)
                        .with("optimum", Option::<usize>::None),
                    Row::new().with("ratio", 0.125),
                ],
            )
            .row(
                "ablation",
                Row::new().with("period", 3usize).with("ok", true),
            );
        let text = t.render();
        let Json::Obj(top) = json::parse(&text).expect("parses") else {
            panic!("not an object:\n{text}");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["suite", "generated_unix", "seed", "points", "ablation"]
        );
        assert_eq!(top[0].1, Json::Str(name.into()));
        assert!(matches!(top[1].1, Json::Int(secs) if secs > 0));
        assert_eq!(top[2].1, Json::Int(7));
        let obj = |fields: &[(&str, Json)]| {
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            )
        };
        assert_eq!(
            top[3].1,
            Json::Arr(vec![
                obj(&[("name", Json::Str(name.into())), ("optimum", Json::Null)]),
                obj(&[("ratio", Json::Float(0.125))]),
            ])
        );
        assert_eq!(
            top[4].1,
            obj(&[("period", Json::Int(3)), ("ok", Json::Bool(true))])
        );
        // One top-level key per line, one row per line.
        assert_eq!(text.lines().count(), 10, "{text}");
    }
}
