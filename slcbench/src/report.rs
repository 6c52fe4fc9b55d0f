//! The one JSON line a benchmark subcommand prints: metrics with units,
//! operations attempted and failed, and named text outputs `run.py`
//! compares against other processes (e.g. a rendered figure).

/// JSON string literal for `s`.
pub fn quote(s: &str) -> String {
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

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Accumulated results of one subcommand.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    texts: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn text(&mut self, name: &str, value: String) {
        self.texts.push((name.to_owned(), value));
    }

    /// Counts one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { format!("{v:e}") } else { "null".to_owned() };
                format!("{}:{{\"value\":{v},\"unit\":{}}}", quote(n), quote(u))
            })
            .collect();
        let texts: Vec<String> =
            self.texts.iter().map(|(n, t)| format!("{}:{}", quote(n), quote(t))).collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"texts\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(","),
            texts.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_control_characters() {
        assert_eq!(quote("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn report_counts_failures() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        r.check(false, || "bad".to_owned());
        r.metric("x.y", 1.5, "s");
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.to_json().contains("\"x.y\":{\"value\":1.5e0,\"unit\":\"s\"}"));
    }
}
