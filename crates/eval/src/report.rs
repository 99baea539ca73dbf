//! Fixed-width table rendering for the `repro` harness, shaped like
//! the paper's result tables.

/// A simple left-aligned-first-column, right-aligned-rest table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Add one row; short rows are padded with empty cells, long rows
    /// are rejected.
    ///
    /// # Panics
    /// Panics when a row has more cells than the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert!(
            cells.len() <= self.header.len(),
            "row has {} cells, header has {}",
            cells.len(),
            self.header.len()
        );
        let mut r = cells.to_vec();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Convenience: label + f32 metrics formatted to 3 decimals.
    pub fn metric_row(&mut self, label: &str, values: &[f32]) -> &mut Self {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.3}")));
        self.row(&cells)
    }

    /// Render with box-drawing-free ASCII (stable under diffing).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (c, cell) in r.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (c, width) in widths.iter().enumerate().take(cols) {
                let cell = cells.get(c).map(String::as_str).unwrap_or("");
                if c == 0 {
                    line.push_str(&format!(" {cell:<width$} "));
                } else {
                    line.push_str(&format!("| {cell:>width$} "));
                }
            }
            line
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Method", "PR AUC", "R@P=0.7"]);
        t.metric_row("PGE(CNN)-RotatE", &[0.745, 0.729]);
        t.metric_row("RotatE", &[0.597, 0.405]);
        let r = t.render();
        assert!(r.contains("== Demo =="));
        assert!(r.contains("PGE(CNN)-RotatE"));
        assert!(r.contains("0.745"));
        // All data lines have equal width.
        let widths: Vec<usize> = r.lines().skip(1).map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{r}");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.row(&["only".to_string()]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn rejects_long_rows() {
        let mut t = Table::new("", &["a"]);
        t.row(&["x".to_string(), "y".to_string()]);
    }
}
