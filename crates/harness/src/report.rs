//! Plain-text table / CSV rendering for experiment reports.

use std::fmt::Write as _;

/// Renders an aligned plain-text table with a header row.
///
/// # Example
/// ```
/// use idem_harness::report::render_table;
/// let out = render_table(
///     &["system", "tput"],
///     &[vec!["IDEM".into(), "43k".into()], vec!["Paxos".into(), "41k".into()]],
/// );
/// assert!(out.contains("system"));
/// assert!(out.lines().count() >= 4);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let write_row = |cells: &[String], out: &mut String| {
        let line = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ");
        let _ = writeln!(out, "{}", line.trim_end());
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    write_row(&header_cells, &mut out);
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    write_row(&rule, &mut out);
    for row in rows {
        write_row(row, &mut out);
    }
    out
}

/// Renders rows as CSV (no quoting; experiment values never contain commas).
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", headers.join(","));
    for row in rows {
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

/// One column of a [`Table`]: its header in the text table, in the CSV, or
/// in both. A column with one header is left out of the other rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// `(text header, CSV header)`.
    Both(&'static str, &'static str),
    /// A column only the text table prints.
    Text(&'static str),
    /// A column only the CSV stores.
    Csv(&'static str),
}

impl Column {
    fn text(self) -> Option<&'static str> {
        match self {
            Column::Both(h, _) | Column::Text(h) => Some(h),
            Column::Csv(_) => None,
        }
    }

    fn csv(self) -> Option<&'static str> {
        match self {
            Column::Both(_, h) | Column::Csv(h) => Some(h),
            Column::Text(_) => None,
        }
    }
}

/// One cell of a [`Table`] row in both its forms: what the text table
/// prints and what the CSV stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// The paper-style form, e.g. `43.1k`.
    pub text: String,
    /// The raw form, e.g. `43120.5`.
    pub csv: String,
}

impl Value {
    /// A value with a different text and CSV form.
    pub fn new(text: impl Into<String>, csv: impl Into<String>) -> Value {
        Value {
            text: text.into(),
            csv: csv.into(),
        }
    }

    /// A value both forms print alike: a label or a count.
    pub fn plain(v: impl ToString) -> Value {
        let s = v.to_string();
        Value::new(s.clone(), s)
    }

    /// A client-load factor: `2x` / `2`.
    pub fn factor(f: f64) -> Value {
        Value::new(format!("{f}x"), f.to_string())
    }

    /// A rate in requests per second: [`fmt_kreq`] / raw.
    pub fn kreq(v: f64) -> Value {
        Value::new(fmt_kreq(v), v.to_string())
    }

    /// A latency in milliseconds: [`fmt_ms`] / raw.
    pub fn ms(v: f64) -> Value {
        Value::new(fmt_ms(v), v.to_string())
    }

    /// A percentage: [`fmt_pct`] / raw.
    pub fn pct(v: f64) -> Value {
        Value::new(fmt_pct(v), v.to_string())
    }
}

/// An experiment table declared once and rendered twice: as the aligned
/// text table of [`render_table`] and as the CSV of [`render_csv`], from
/// the same rows.
///
/// # Example
/// ```
/// use idem_harness::report::{Column, Table, Value};
/// let mut t = Table::new(&[
///     Column::Both("load", "load_factor"),
///     Column::Csv("clients"),
///     Column::Both("tput [req/s]", "throughput"),
/// ]);
/// t.push([Value::factor(0.5), Value::plain(25), Value::kreq(21_500.0)]);
/// assert_eq!(t.csv(), "load_factor,clients,throughput\n0.5,25,21500\n");
/// assert!(t.text().ends_with("\n0.5x         21.5k\n"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    columns: Vec<Column>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table with these columns.
    pub fn new(columns: &[Column]) -> Table {
        Table {
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Appends one row, one value per column.
    ///
    /// # Panics
    /// Panics if the row does not have one value per column.
    pub fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        let row: Vec<Value> = row.into_iter().collect();
        assert_eq!(row.len(), self.columns.len(), "one value per column");
        self.rows.push(row);
    }

    /// The aligned text table of the columns that have a text header.
    pub fn text(&self) -> String {
        let (headers, rows) = self.select(Column::text, |v| &v.text);
        render_table(&headers, &rows)
    }

    /// The CSV of the columns that have a CSV header.
    pub fn csv(&self) -> String {
        let (headers, rows) = self.select(Column::csv, |v| &v.csv);
        render_csv(&headers, &rows)
    }

    fn select(
        &self,
        header: fn(Column) -> Option<&'static str>,
        form: fn(&Value) -> &String,
    ) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let (keep, headers): (Vec<usize>, Vec<&'static str>) = self
            .columns
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| header(c).map(|h| (i, h)))
            .unzip();
        let rows = self
            .rows
            .iter()
            .map(|row| keep.iter().map(|&i| form(&row[i]).clone()).collect())
            .collect();
        (headers, rows)
    }
}

/// Formats a requests-per-second value the way the paper quotes it
/// ("43.1k req/s").
pub fn fmt_kreq(v: f64) -> String {
    format!("{:.1}k", v / 1000.0)
}

/// Formats a latency in milliseconds with two decimals.
pub fn fmt_ms(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a byte count in gigabytes with two decimals (Table 1 units).
pub fn fmt_gb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e9)
}

/// Formats a percentage with one decimal.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Renders a series as a unicode sparkline (one block character per
/// sample, scaled to the series maximum). NaN samples render as spaces.
///
/// # Example
/// ```
/// use idem_harness::report::sparkline;
/// let s = sparkline(&[0.0, 1.0, 2.0, 4.0, 8.0]);
/// assert_eq!(s.chars().count(), 5);
/// assert!(s.ends_with('█'));
/// ```
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if max <= 0.0 {
                BLOCKS[0]
            } else {
                let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
                BLOCKS[idx]
            }
        })
        .collect()
}

/// Downsamples a `(t, value)` series to at most `width` points by
/// averaging buckets, returning just the values (for sparklines).
pub fn downsample(series: &[(f64, f64)], width: usize) -> Vec<f64> {
    if series.is_empty() || width == 0 {
        return Vec::new();
    }
    let chunk = series.len().div_ceil(width);
    series
        .chunks(chunk)
        .map(|c| c.iter().map(|(_, v)| *v).sum::<f64>() / c.len() as f64)
        .collect()
}

/// The paper's bound on the number a [`Claim`] measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The number must be at least this.
    AtLeast(f64),
    /// The number must be at most this.
    AtMost(f64),
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::AtLeast(b) => write!(f, ">= {b}"),
            Bound::AtMost(b) => write!(f, "<= {b}"),
        }
    }
}

/// One checkable clause of the paper's statement for an experiment: a
/// number the experiment measured, held against the paper's bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is measured, e.g. `Paxos latency 4x / 0.5x`.
    pub name: &'static str,
    /// The measured number.
    pub measured: f64,
    /// The paper's bound on it.
    pub bound: Bound,
    /// The EXPERIMENTS.md "Summary of deviations" entry this claim is
    /// known to fail by; `None` declares that it holds.
    pub deviation: Option<u8>,
}

/// How a [`Claim`] came out against its declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Declared to hold, and holds.
    Holds,
    /// Fails by its declared deviation.
    Deviation(u8),
    /// Declared to hold, and fails.
    Fails,
    /// Declared to fail by this deviation, and holds.
    Closes(u8),
}

impl Verdict {
    /// Whether the claim came out as declared.
    pub fn as_declared(self) -> bool {
        matches!(self, Verdict::Holds | Verdict::Deviation(_))
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::Deviation(n) => write!(f, "deviation {n}"),
            Verdict::Fails => write!(f, "FAILS"),
            Verdict::Closes(n) => write!(f, "HOLDS against deviation {n}"),
        }
    }
}

impl Claim {
    /// A claim declared to hold. `claims.csv` is not quoted, so the name
    /// may hold no comma.
    pub fn new(name: &'static str, measured: f64, bound: Bound) -> Claim {
        assert!(!name.contains(','), "claim name with a comma: {name}");
        Claim {
            name,
            measured,
            bound,
            deviation: None,
        }
    }

    /// Declares the claim known to fail by deviation `n`.
    pub fn deviation(self, n: u8) -> Claim {
        Claim {
            deviation: Some(n),
            ..self
        }
    }

    /// The measured number against the bound and the declaration. A NaN
    /// measurement admits no bound.
    pub fn verdict(&self) -> Verdict {
        let holds = match self.bound {
            Bound::AtLeast(b) => self.measured >= b,
            Bound::AtMost(b) => self.measured <= b,
        };
        match (holds, self.deviation) {
            (true, None) => Verdict::Holds,
            (false, None) => Verdict::Fails,
            (false, Some(n)) => Verdict::Deviation(n),
            (true, Some(n)) => Verdict::Closes(n),
        }
    }
}

/// The claims of one or more experiments as one [`Table`]: its text is a
/// report's claims, its CSV is `claims.csv`. Each claim comes with the
/// name of its experiment, which only the CSV stores.
pub fn claims_table<'a>(claims: impl IntoIterator<Item = (&'a str, &'a Claim)>) -> Table {
    let mut table = Table::new(&[
        Column::Csv("experiment"),
        Column::Both("claim", "claim"),
        Column::Both("paper", "paper"),
        Column::Both("measured", "measured"),
        Column::Both("verdict", "verdict"),
    ]);
    for (experiment, c) in claims {
        table.push([
            Value::plain(experiment),
            Value::plain(c.name),
            Value::plain(c.bound),
            Value::new(format!("{:.2}", c.measured), c.measured.to_string()),
            Value::plain(c.verdict()),
        ]);
    }
    table
}

/// A rendered experiment: title, the claims it checks, paper-style
/// table(s), CSV artifacts.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment label, e.g. "Figure 6".
    pub title: String,
    /// The paper's claims this experiment checks, as measured.
    pub claims: Vec<Claim>,
    /// Rendered plain-text tables.
    pub body: String,
    /// `(file name, content)` CSV artifacts for plotting.
    pub csv: Vec<(String, String)>,
}

impl ExperimentReport {
    /// Renders the complete report as text: the title, the claims table
    /// (when the experiment declares claims), the body.
    pub fn to_text(&self) -> String {
        let claims = claims_table(self.claims.iter().map(|c| ("", c))).text() + "\n";
        let claims = if self.claims.is_empty() { "" } else { &claims };
        format!("== {} ==\n{claims}{}", self.title, self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let out = render_table(
            &["a", "long_header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // all rows align on the right edge of each column
        assert!(lines[0].contains("long_header"));
        assert!(lines[2].ends_with("2"));
    }

    #[test]
    fn csv_renders_rows() {
        let out = render_csv(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(out, "x,y\n1,2\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_kreq(43_120.0), "43.1k");
        assert_eq!(fmt_ms(1.276), "1.28");
        assert_eq!(fmt_gb(3_260_000_000), "3.26");
        assert_eq!(fmt_pct(10.04), "10.0%");
    }

    #[test]
    fn values_carry_both_forms() {
        let forms = |v: Value| (v.text, v.csv);
        let pair = |t: &str, c: &str| (t.to_string(), c.to_string());
        assert_eq!(forms(Value::factor(0.2)), pair("0.2x", "0.2"));
        assert_eq!(forms(Value::factor(1.0)), pair("1x", "1"));
        assert_eq!(forms(Value::kreq(42_551.67)), pair("42.6k", "42551.67"));
        assert_eq!(forms(Value::ms(1.276)), pair("1.28", "1.276"));
        assert_eq!(forms(Value::pct(10.04)), pair("10.0%", "10.04"));
        assert_eq!(forms(Value::plain(12_345u64)), pair("12345", "12345"));
        assert_eq!(forms(Value::new("RT=20", "20")), pair("RT=20", "20"));
    }

    #[test]
    fn one_sided_columns_render_once() {
        let mut t = Table::new(&[
            Column::Both("system", "system"),
            Column::Csv("population"),
            Column::Text("note"),
            Column::Both("p99", "p99_ms"),
        ]);
        t.push([
            Value::plain("IDEM"),
            Value::plain(100),
            Value::plain("ok"),
            Value::new("1.28", "1.2760"),
        ]);
        assert_eq!(t.csv(), "system,population,p99_ms\nIDEM,100,1.2760\n");
        assert_eq!(
            t.text(),
            render_table(
                &["system", "note", "p99"],
                &[vec!["IDEM".into(), "ok".into(), "1.28".into()]],
            )
        );
    }

    #[test]
    fn table_text_is_right_aligned() {
        let mut t = Table::new(&[Column::Both("a", "a"), Column::Both("long_header", "b")]);
        t.push([Value::plain(1), Value::plain(2)]);
        t.push([Value::plain(333), Value::plain(4)]);
        let out = t.text();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "  a  long_header");
        assert_eq!(lines[1], "---  -----------");
        assert_eq!(lines[2], "  1            2");
        assert_eq!(lines[3], "333            4");
    }

    #[test]
    #[should_panic(expected = "one value per column")]
    fn short_rows_are_refused() {
        Table::new(&[Column::Csv("x"), Column::Csv("y")]).push([Value::plain(1)]);
    }

    #[test]
    fn sparkline_scales_to_max() {
        let s = sparkline(&[0.0, 4.0, 8.0]);
        assert_eq!(s, "▁▅█");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[f64::NAN, 1.0]), " █");
    }

    #[test]
    fn downsample_buckets_by_mean() {
        let series: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64)).collect();
        let d = downsample(&series, 5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], 0.5);
        assert_eq!(d[4], 8.5);
        assert!(downsample(&[], 5).is_empty());
    }

    #[test]
    fn claims_render_their_verdicts() {
        let claim = |measured, bound, deviation| Claim {
            name: "tput 14x / 2x",
            measured,
            bound,
            deviation,
        };
        // (claim, verdict, as declared, text line under the title, claims.csv row)
        let cases = [
            (
                claim(7.333, Bound::AtLeast(6.0), None),
                Verdict::Holds,
                true,
                "tput 14x / 2x   >= 6      7.33    holds",
                "fig9b,tput 14x / 2x,>= 6,7.333,holds",
            ),
            (
                claim(2.5, Bound::AtMost(2.0), None),
                Verdict::Fails,
                false,
                "tput 14x / 2x   <= 2      2.50    FAILS",
                "fig9b,tput 14x / 2x,<= 2,2.5,FAILS",
            ),
            (
                claim(f64::NAN, Bound::AtMost(2.0), None),
                Verdict::Fails,
                false,
                "tput 14x / 2x   <= 2       NaN    FAILS",
                "fig9b,tput 14x / 2x,<= 2,NaN,FAILS",
            ),
            (
                claim(0.97, Bound::AtMost(0.6), Some(3)),
                Verdict::Deviation(3),
                true,
                "tput 14x / 2x  <= 0.6      0.97  deviation 3",
                "fig9b,tput 14x / 2x,<= 0.6,0.97,deviation 3",
            ),
            (
                claim(0.5, Bound::AtMost(0.6), Some(3)),
                Verdict::Closes(3),
                false,
                "tput 14x / 2x  <= 0.6      0.50  HOLDS against deviation 3",
                "fig9b,tput 14x / 2x,<= 0.6,0.5,HOLDS against deviation 3",
            ),
        ];
        for (claim, verdict, declared, line, row) in cases {
            assert_eq!(claim.verdict(), verdict, "{claim:?}");
            assert_eq!(verdict.as_declared(), declared, "{claim:?}");
            let report = ExperimentReport {
                title: "Figure 9b".into(),
                claims: vec![claim.clone()],
                body: "table\n".into(),
                csv: Vec::new(),
            };
            let text = report.to_text();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines[0], "== Figure 9b ==");
            assert_eq!(lines[3], line, "{claim:?}");
            assert!(text.ends_with(&format!("{line}\n\ntable\n")), "{text}");
            assert_eq!(
                claims_table([("fig9b", &claim)]).csv(),
                format!("experiment,claim,paper,measured,verdict\n{row}\n")
            );
        }
    }
}
