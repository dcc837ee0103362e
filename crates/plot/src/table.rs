//! Aligned text tables.

/// A simple text table with a header row and column alignment.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given headers.
    ///
    /// # Examples
    ///
    /// ```
    /// use litegpu_plot::table::TextTable;
    /// let mut t = TextTable::new(&["GPU", "TFLOPS"]);
    /// t.row_owned(vec!["H100".into(), "2000".into()]);
    /// let s = t.render();
    /// assert!(s.contains("H100"));
    /// assert!(s.lines().count() >= 3);
    /// ```
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells are blank; extras are truncated).
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        let mut r = cells;
        r.resize(self.headers.len(), String::new());
        r.truncate(self.headers.len());
        self.rows.push(r);
        self
    }

    /// Renders the table: header, separator, rows. The first column is
    /// left-aligned, the rest right-aligned (numeric convention).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = w.saturating_sub(cell.chars().count());
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: &mut TextTable, cells: &[&str]) {
        t.row_owned(cells.iter().map(|c| c.to_string()).collect());
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        row(&mut t, &["short", "1"]);
        row(&mut t, &["a-much-longer-name", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width (alignment).
        assert_eq!(lines[0].chars().count(), lines[3].chars().count());
    }

    #[test]
    fn missing_and_extra_cells_normalized() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        row(&mut t, &["only-one"]);
        row(&mut t, &["1", "2", "3", "4-extra"]);
        assert_eq!(t.rows.len(), 2);
        let s = t.render();
        assert!(!s.contains("4-extra"));
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(&["x"]);
        assert!(t.rows.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    fn unicode_width_counted_by_chars() {
        let mut t = TextTable::new(&["µs", "val"]);
        row(&mut t, &["1.5 µs", "2"]);
        let s = t.render();
        assert!(s.contains("µs"));
    }
}
