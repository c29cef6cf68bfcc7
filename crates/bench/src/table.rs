//! Aligned text tables and CSV output for experiment results.

use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned text/CSV table.
///
/// # Example
///
/// ```
/// use bench::table::Table;
/// let mut t = Table::new(vec!["model".into(), "accuracy".into()]);
/// t.row(vec!["LSTM".into(), "0.81".into()]);
/// let text = t.render();
/// assert!(text.contains("LSTM"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    pub(crate) header: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row(&mut self, mut cells: Vec<String>) {
        while cells.len() < self.header.len() {
            cells.push(String::new());
        }
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(cols) {
                line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the CSV form (cells containing commas or quotes are quoted).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV form to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a".into(), "long_header".into()]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("long_header"));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["only".into()]);
        assert_eq!(t.len(), 1);
        assert!(t.to_csv().lines().nth(1).unwrap().contains("only,"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["x".into()]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.231), "23.1%");
    }
}
