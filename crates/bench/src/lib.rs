//! # abccc-bench — the experiment harness
//!
//! Every table/figure of the ABCCC evaluation is a registered
//! [`registry::Experiment`] (see `EXPERIMENTS.md` at the repository root
//! for the index). The [`engine`] executes any set of them at a chosen
//! [`registry::Preset`] with a shared topology [`cache`] and
//! work-stealing parallelism; each experiment prints its paper-style
//! stdout table and, when a JSON directory is given, drops a
//! deterministic rows artifact plus a provenance manifest there.
//!
//! Run them through the CLI, e.g.:
//!
//! ```text
//! cargo run -p abccc-cli --release -- experiments run --all --preset tiny
//! cargo run -p abccc-cli --release -- experiments run fig6_throughput --preset paper --json DIR
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod experiments;
pub mod registry;

/// A fixed-width text table that prints like the paper's tables.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }
}

/// Formats an f64 with `digits` decimals.
pub fn fmt_f(v: f64, digits: usize) -> String {
    let v = if v == 0.0 { 0.0 } else { v }; // normalize -0.0
    format!("{v:.digits$}")
}

/// Formats an optional value, rendering `None` as `—`.
pub fn fmt_opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "—".to_string(), |x| x.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.add_row(vec!["1".into(), "2".into()]);
        t.add_row(vec!["300".into(), "4".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("long-header"));
        // All data lines have equal width.
        let lines: Vec<&str> = r.lines().skip(1).collect();
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_opt::<u32>(None), "—");
        assert_eq!(fmt_opt(Some(7)), "7");
    }
}
