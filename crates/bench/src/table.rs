//! Plain-text result tables and CSV emission for the experiment
//! harness. The percentile columns come from `agar_obs`'s
//! [`LatencySummary`](agar_obs::LatencySummary).

use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// A printable experiment result table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers.
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the rows.
    pub fn rows(&self) -> impl Iterator<Item = &[String]> {
        self.rows.iter().map(Vec::as_slice)
    }

    /// Writes the table as CSV.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(path)?;
        writeln!(file, "{}", csv_row(&self.headers))?;
        for row in &self.rows {
            writeln!(file, "{}", csv_row(row))?;
        }
        Ok(())
    }

    /// The table as one JSON object (`title`, `headers`, `rows`).
    pub(crate) fn json(&self) -> String {
        let array = |cells: &[String]| {
            let cells: Vec<String> = cells.iter().map(|c| json_string(c)).collect();
            format!("[{}]", cells.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|row| array(row)).collect();
        format!(
            "{{\"title\": {}, \"headers\": {}, \"rows\": [{}]}}",
            json_string(&self.title),
            array(&self.headers),
            rows.join(", ")
        )
    }
}

/// `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

fn csv_row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_obs::{LatencyHistogram, LatencySummary};
    use std::time::Duration;

    fn sample() -> Table {
        let mut t = Table::new("Demo", vec!["policy".into(), "latency".into()]);
        t.push_row(vec!["Agar".into(), "416".into()]);
        t.push_row(vec!["LFU-7".into(), "489".into()]);
        t
    }

    #[test]
    fn display_renders_aligned_table() {
        let text = sample().to_string();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("policy"));
        assert!(text.contains("Agar"));
        assert!(text.contains("489"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        sample().push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("agar-table-test");
        let path = dir.join("demo.csv");
        sample().write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("policy,latency"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        assert_eq!(csv_row(&["a,b".into()]), "\"a,b\"");
        assert_eq!(csv_row(&["say \"hi\"".into()]), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_row(&["plain".into()]), "plain");
    }

    #[test]
    fn percentile_cells_match_headers() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_millis(250));
        let cells = h.summary().percentile_cells();
        assert_eq!(cells.len(), LatencySummary::percentile_headers().len());
        assert!(cells.iter().all(|c| c == "250"));
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.title(), "Demo");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.rows().count(), 2);
    }
}
