//! The traced run's time ledger: every row is a measured share of the
//! worker capacity `threads × loop wall`, and what no row covers is shown
//! as the unattributed remainder — never clamped. A negative remainder
//! means rows overlap, which is a benchmark error.

/// Rows of worker time, in nanoseconds, against a fixed capacity.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    capacity_ns: f64,
    rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// A ledger for `threads` workers over `wall_ns` of loop time.
    pub fn new(threads: usize, wall_ns: f64) -> Ledger {
        Ledger {
            capacity_ns: threads as f64 * wall_ns,
            rows: Vec::new(),
        }
    }

    /// Adds a measured row. A negative row is itself a measurement error.
    pub fn row(&mut self, name: &'static str, ns: f64) -> Result<(), String> {
        if ns < 0.0 || !ns.is_finite() {
            return Err(format!("ledger row {name} is {ns} ns"));
        }
        self.rows.push((name, ns));
        Ok(())
    }

    /// Capacity minus every row: exact, possibly negative.
    pub fn remainder_ns(&self) -> f64 {
        self.capacity_ns - self.rows.iter().map(|(_, ns)| ns).sum::<f64>()
    }

    /// A row's share of capacity (0 for an unknown row).
    pub fn share(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| ns / self.capacity_ns)
            .sum()
    }

    /// The unattributed share, or an error when the rows overrun the
    /// capacity (a row double-counts time).
    pub fn unattributed_share(&self) -> Result<f64, String> {
        let rest = self.remainder_ns();
        if rest < 0.0 {
            return Err(format!(
                "ledger rows exceed threads x wall by {:.0} ns",
                -rest
            ));
        }
        Ok(rest / self.capacity_ns)
    }

    /// One line per row plus the remainder, for the human-readable log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = |ns: f64| 100.0 * ns / self.capacity_ns;
        for (name, ns) in &self.rows {
            out.push_str(&format!(
                "  {name:<14} {:>14.0} ns  {:>6.2}%\n",
                ns,
                pct(*ns)
            ));
        }
        let rest = self.remainder_ns();
        out.push_str(&format!(
            "  {:<14} {:>14.0} ns  {:>6.2}%\n",
            "unattributed",
            rest,
            pct(rest)
        ));
        out.push_str(&format!(
            "  {:<14} {:>14.0} ns  100.00%\n",
            "capacity", self.capacity_ns
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_plus_remainder_equal_capacity() {
        let mut l = Ledger::new(2, 1_000.0);
        l.row("generate", 900.0).unwrap();
        l.row("analyze", 600.0).unwrap();
        l.row("idle", 300.0).unwrap();
        assert_eq!(l.capacity_ns, 2_000.0);
        assert_eq!(l.remainder_ns(), 200.0);
        let total: f64 = ["generate", "analyze", "idle"]
            .iter()
            .map(|r| l.share(r))
            .sum();
        assert!((total + l.unattributed_share().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overrun_is_an_error_not_a_zero() {
        let mut l = Ledger::new(1, 1_000.0);
        l.row("generate", 700.0).unwrap();
        l.row("analyze", 400.0).unwrap();
        assert_eq!(l.remainder_ns(), -100.0);
        assert!(l.unattributed_share().is_err());
        assert!(l.render().contains("-100"));
    }

    #[test]
    fn negative_rows_are_rejected() {
        let mut l = Ledger::new(1, 1_000.0);
        assert!(l.row("generate", -1.0).is_err());
        assert!(l.row("generate", f64::NAN).is_err());
    }
}
