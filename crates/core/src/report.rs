//! Lower-bound reports: everything the paper can say about a network in
//! one structure.

use crate::network::Network;
use sg_bounds::pfun::{BoundMode, Period};
use sg_graphs::traversal;
use sg_protocol::mode::Mode;

/// Maps a protocol communication mode onto the paper's analytical regime.
pub fn bound_mode(mode: Mode) -> BoundMode {
    match mode {
        Mode::Directed | Mode::HalfDuplex => BoundMode::HalfDuplex,
        Mode::FullDuplex => BoundMode::FullDuplex,
    }
}

/// All applicable lower bounds for gossiping on a network under a mode
/// and period, in *rounds* (coefficients multiplied by `log₂ n`).
#[derive(Debug, Clone)]
pub struct BoundReport {
    /// Network name.
    pub network: String,
    /// Number of processors.
    pub n: usize,
    /// Communication mode.
    pub mode: Mode,
    /// Systolic period (or non-systolic).
    pub period: Period,
    /// The general coefficient (Cor. 4.4 / §6): `e(s)`.
    pub general_coefficient: f64,
    /// General bound in rounds: `e(s)·log₂ n`.
    pub general_rounds: f64,
    /// Theorem 5.1 coefficient, when the family has a separator.
    pub separator_coefficient: Option<f64>,
    /// Separator bound in rounds.
    pub separator_rounds: Option<f64>,
    /// Measured diameter (a trivial lower bound), when the graph is
    /// strongly connected.
    pub diameter: Option<u32>,
    /// The strongest of the above, in rounds.
    pub best_rounds: f64,
}

/// Computes the full bound report for a network/mode/period: one
/// uncached [`crate::oracle::evaluate_bounds`] on the freshly built
/// digraph. Callers with repeated queries should go through the
/// memoizing [`crate::oracle::BoundOracle`] instead.
///
/// # Panics
/// Panics when `mode` requires a symmetric digraph but the network is
/// directed.
pub fn bound_report(network: &Network, mode: Mode, period: Period) -> BoundReport {
    let g = network.build();
    let diameter = traversal::diameter(&g);
    crate::oracle::evaluate_bounds(network, &g, diameter, mode, period).report
}

/// One typed cell of a streamed result row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A float (rendered with full precision).
    Float(f64),
    /// A string.
    Text(String),
    /// A boolean.
    Bool(bool),
    /// Missing / not applicable.
    Null,
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// One streamed result row: named fields in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Row {
    /// `(field name, value)` pairs.
    pub fields: Vec<(String, Value)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field (builder style).
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.fields.push((name.to_string(), value.into()));
        self
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn json_value_into(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => out.push_str(&i.to_string()),
        // A whole float keeps a `.0` (`58.0`, `-0.0`), so a float column
        // reads back as floats whatever its values.
        Value::Float(f) if f.is_finite() && f.fract() == 0.0 => out.push_str(&format!("{f:.1}")),
        Value::Float(f) if f.is_finite() => out.push_str(&format!("{f}")),
        Value::Float(_) => out.push_str("null"),
        Value::Text(s) => {
            out.push('"');
            json_escape_into(out, s);
            out.push('"');
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Null => out.push_str("null"),
    }
}

/// Renders one row as a single-line JSON object (JSON-lines streaming).
pub fn to_json_line(row: &Row) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in row.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(&mut out, k);
        out.push_str("\":");
        json_value_into(&mut out, v);
    }
    out.push('}');
    out
}

fn csv_cell(v: &Value) -> String {
    let raw = match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_finite() => format!("{f}"),
        Value::Float(_) => String::new(),
        Value::Text(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Null => String::new(),
    };
    if raw.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw
    }
}

/// Renders rows as CSV: the header is the insertion-ordered union of all
/// field names, missing fields are empty cells.
pub fn to_csv(rows: &[Row]) -> String {
    let mut header: Vec<&str> = Vec::new();
    for row in rows {
        for (k, _) in &row.fields {
            if !header.contains(&k.as_str()) {
                header.push(k);
            }
        }
    }
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        let line: Vec<String> = header
            .iter()
            .map(|k| row.get(k).map_or_else(String::new, csv_cell))
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

impl BoundReport {
    /// The report as a streamable [`Row`].
    pub fn row(&self) -> Row {
        Row::new()
            .with("network", self.network.as_str())
            .with("n", self.n)
            .with("mode", self.mode.name())
            .with("period", self.period.label())
            .with("general_coefficient", self.general_coefficient)
            .with("general_rounds", self.general_rounds)
            .with("separator_coefficient", self.separator_coefficient)
            .with("separator_rounds", self.separator_rounds)
            .with("diameter", self.diameter)
            .with("best_rounds", self.best_rounds)
    }
}

impl std::fmt::Display for BoundReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} (n = {}), {} mode, {}:",
            self.network, self.n, self.mode, self.period
        )?;
        writeln!(
            f,
            "  general bound   : {:.4} · log2(n) = {:.1} rounds",
            self.general_coefficient, self.general_rounds
        )?;
        if let (Some(c), Some(r)) = (self.separator_coefficient, self.separator_rounds) {
            writeln!(
                f,
                "  separator bound : {:.4} · log2(n) = {:.1} rounds",
                c, r
            )?;
        }
        if let Some(d) = self.diameter {
            writeln!(f, "  diameter bound  : {d} rounds")?;
        }
        write!(f, "  strongest       : {:.1} rounds", self.best_rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_escapes_and_types() {
        let row = Row::new()
            .with("name", "a\"b\nc")
            .with("n", 12usize)
            .with("x", 1.5)
            .with("ok", true)
            .with("missing", Option::<f64>::None);
        let json = to_json_line(&row);
        assert_eq!(
            json,
            r#"{"name":"a\"b\nc","n":12,"x":1.5,"ok":true,"missing":null}"#
        );
    }

    #[test]
    fn whole_floats_stay_floats_through_json() {
        let row = Row::new()
            .with("a", 58.0)
            .with("b", 0.0)
            .with("c", -0.0)
            .with("d", 2.5);
        let line = to_json_line(&row);
        assert_eq!(line, r#"{"a":58.0,"b":0.0,"c":-0.0,"d":2.5}"#);
        let parsed = crate::json::parse(&line).unwrap();
        for key in ["a", "b"] {
            assert!(
                matches!(parsed.get(key), Some(crate::json::Json::Float(_))),
                "{key} parsed as {:?}",
                parsed.get(key)
            );
        }
    }

    #[test]
    fn csv_unions_headers_and_quotes() {
        let rows = vec![
            Row::new().with("a", 1usize).with("b", "x,y"),
            Row::new().with("a", 2usize).with("c", 0.5),
        ];
        let csv = to_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("a,b,c"));
        assert_eq!(lines.next(), Some("1,\"x,y\","));
        assert_eq!(lines.next(), Some("2,,0.5"));
    }

    #[test]
    fn bound_report_row_is_streamable() {
        let net = Network::WrappedButterfly { d: 2, dd: 5 };
        let r = bound_report(&net, Mode::HalfDuplex, Period::Systolic(4));
        let row = r.row();
        assert_eq!(row.get("network"), Some(&Value::Text("WBF(2,5)".into())));
        assert!(matches!(
            row.get("separator_coefficient"),
            Some(Value::Float(_))
        ));
        let json = to_json_line(&row);
        assert!(json.contains("\"best_rounds\":"));
    }

    #[test]
    fn wbf_report_has_all_three_bounds() {
        let net = Network::WrappedButterfly { d: 2, dd: 5 };
        let r = bound_report(&net, Mode::HalfDuplex, Period::Systolic(4));
        assert!(r.separator_coefficient.is_some());
        assert!((r.separator_coefficient.unwrap() - 2.0218).abs() < 1e-3);
        assert!(r.diameter.is_some());
        assert!(r.best_rounds >= r.general_rounds);
        let shown = r.to_string();
        assert!(shown.contains("separator bound"));
    }

    #[test]
    fn path_report_diameter_dominates() {
        // On a long path, the diameter bound (n−1) crushes the log bound.
        let net = Network::Path { n: 64 };
        let r = bound_report(&net, Mode::HalfDuplex, Period::Systolic(4));
        assert_eq!(r.diameter, Some(63));
        assert!(r.best_rounds >= 63.0);
        assert!(r.separator_coefficient.is_none());
    }

    #[test]
    fn directed_networks_work_in_directed_mode() {
        let net = Network::KautzDirected { d: 2, dd: 4 };
        let r = bound_report(&net, Mode::Directed, Period::NonSystolic);
        assert!(r.general_coefficient > 1.44 - 1e-4);
        assert!(r.separator_coefficient.unwrap() > r.general_coefficient - 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot run")]
    fn full_duplex_on_directed_network_panics() {
        let net = Network::DeBruijnDirected { d: 2, dd: 3 };
        let _ = bound_report(&net, Mode::FullDuplex, Period::Systolic(4));
    }

    #[test]
    fn full_duplex_bounds_are_weaker_than_half_duplex() {
        // Full-duplex protocols are more powerful, so their lower bounds
        // are smaller.
        let net = Network::DeBruijn { d: 2, dd: 5 };
        let hd = bound_report(&net, Mode::HalfDuplex, Period::Systolic(5));
        let fd = bound_report(&net, Mode::FullDuplex, Period::Systolic(5));
        assert!(fd.general_rounds < hd.general_rounds);
    }
}
