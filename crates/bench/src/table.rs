//! Minimal fixed-width table printer shared by the experiment binaries.
//!
//! Every experiment prints (a) a human-readable table and (b) one JSON
//! line per row (for downstream plotting), in the format
//! `{"experiment": ..., "row": {...}}`.
//!
//! JSON is emitted by a hand-rolled escaper rather than serde: the build
//! environment has no crates registry, and the only values serialized
//! here are strings and displayable scalars.

/// Escapes `s` as the contents of a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A quoted JSON string literal for `s`.
fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// A table under construction.
#[derive(Debug)]
pub struct Table {
    experiment: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table for `experiment` with the given column headers.
    pub fn new(experiment: &str, headers: &[&str]) -> Self {
        Table {
            experiment: experiment.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells; must match the header count).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Prints the table and the per-row JSON lines to stdout.
    pub fn print(&self) {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        println!("\n== {} ==", self.experiment);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for r in &self.rows {
            println!("{}", fmt_row(r));
        }
        for r in &self.rows {
            let obj = self
                .headers
                .iter()
                .zip(r)
                .map(|(h, c)| format!("{}: {}", json_string(h), json_string(c)))
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "JSON {{\"experiment\": {}, \"row\": {{{obj}}}}}",
                json_string(&self.experiment)
            );
        }
    }
}

/// Formats a float with 3 decimals.
pub fn f(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats an integer-valued cell.
pub fn d(x: impl std::fmt::Display) -> String {
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[d(1), f(2.5)]);
        t.print();
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.row(&[d(1), d(2)]);
    }

    #[test]
    fn escaping_is_json_safe() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
