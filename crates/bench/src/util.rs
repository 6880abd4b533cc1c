//! Report formatting shared by the experiment runners.

use simcore::stats::Ccdf;
use std::fmt::Write as _;

/// Builds a report with a titled header and aligned columns.
pub struct Report {
    buf: String,
}

impl Report {
    /// Starts a report for one figure/table.
    pub fn new(title: &str, paper_ref: &str) -> Self {
        let mut buf = String::new();
        let _ = writeln!(buf, "# {title}");
        let _ = writeln!(buf, "# paper: {paper_ref}");
        Report { buf }
    }

    /// Adds a comment line.
    pub fn note(&mut self, s: &str) {
        let _ = writeln!(self.buf, "# {s}");
    }

    /// Adds a column-header line.
    pub fn header(&mut self, cols: &[&str]) {
        let _ = writeln!(self.buf, "# {}", cols.join("\t"));
    }

    /// Adds one data row.
    pub fn row(&mut self, cells: &[String]) {
        let _ = writeln!(self.buf, "{}", cells.join("\t"));
    }

    /// Adds a blank separator (between series in one file).
    pub fn blank(&mut self) {
        let _ = writeln!(self.buf);
    }

    /// Emits a named CCDF block (gnuplot "index" style).
    pub fn ccdf(&mut self, name: &str, c: &Ccdf) {
        let _ = writeln!(self.buf, "# series: {name}");
        self.buf.push_str(&c.to_text());
        self.blank();
    }

    /// Finishes the report.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Formats seconds as milliseconds with sensible precision.
pub fn ms(x: f64) -> String {
    format!("{:.4}", x * 1e3)
}

/// Formats a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float compactly.
pub fn num(x: f64) -> String {
    format!("{x:.5}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape() {
        let mut r = Report::new("t", "Fig 0");
        r.header(&["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        let s = r.finish();
        assert!(s.starts_with("# t\n# paper: Fig 0\n# a\tb\n1\t2\n"));
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(0.0123456), "12.3456");
        assert_eq!(pct(38.129), "38.13");
    }
}
