//! Aligned-table printing and the banner that opens each experiment.

use std::fmt::Display;

/// A simple column-aligned table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            parts.join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Standard experiment banner.
pub(crate) fn banner(id: &str, claim: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{id}: {claim}");
    println!("paper: {paper_ref}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = Table::new(&["n", "fixpoints"]);
        t.row(&[&3, &"none"]);
        t.row(&[&100, &2]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("n  "));
        assert!(lines[2].starts_with("3  "));
        assert!(lines[3].starts_with("100"));
    }

    #[test]
    fn columns_widen_to_their_longest_cell() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&[&"long cell", &2]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "a          b");
        assert_eq!(lines[1], "-".repeat(12));
        assert_eq!(lines[2], "long cell  2");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&[&1]);
    }
}
