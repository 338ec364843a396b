//! The metric catalogue and the result a run prints.

/// End-to-end metrics, reported by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("update_per_s", "stmt/s"),
    ("ops_per_s", "ops/s"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("recovery_s", "s"),
    ("wal_bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("state_literals_mean", "literals"),
];

/// The BLU-C primitives, each timed as its own layer.
pub const PRIMITIVES: [&str; 5] = ["assert", "combine", "complement", "mask", "genmask"];

/// Program counters reported as per-layer counts: `(metric, counter)`.
pub const COUNTERS: &[(&str, &str)] = &[
    ("blu.combine.products", "blu.combine.products"),
    ("blu.mask.steps", "blu.mask.steps"),
    ("logic.resolution.resolvents", "logic.resolution.resolvents"),
    (
        "logic.subsumption.comparisons",
        "logic.subsumption.comparisons",
    ),
    ("logic.index.sig_prunes", "logic.index.sig_prunes"),
    ("blu.genmask.assignments", "blu.genmask.assignments"),
    ("logic.dpll.decisions", "logic.dpll.decisions"),
    ("logic.dpll.conflicts", "logic.dpll.conflicts"),
    ("logic.intern.clauses", "logic.intern.clauses"),
    ("logic.governor.steps", "governor.steps"),
    ("store.wal.fsyncs", "store.wal.fsyncs"),
    ("store.wal.bytes", "store.wal.bytes"),
];

/// Per-layer metrics, reported by a traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for op in PRIMITIVES {
        out.push((format!("blu.clausal.{op}.calls"), "count"));
        out.push((format!("blu.clausal.{op}.self_ms"), "ms"));
        out.push((format!("blu.clausal.{op}.p99_us"), "us"));
    }
    for layer in ["hlu.parser", "hlu.compile", "logic.cnf", "logic.dpll"] {
        out.push((format!("{layer}.calls"), "count"));
        out.push((format!("{layer}.self_ms"), "ms"));
    }
    for (name, unit) in [
        ("blu.eval.self_ms", "ms"),
        ("store.append.self_ms", "ms"),
        ("store.commit.self_ms", "ms"),
        ("store.commit.p99_us", "us"),
        ("store.checkpoint.calls", "count"),
        ("store.checkpoint.p99_ms", "ms"),
        ("store.open.self_ms", "ms"),
        ("store.recover.replayed", "count"),
        ("logic.cache.genmask.hit_ratio", "ratio"),
        ("logic.cache.genmask.invalidations", "count"),
        ("hlu.database.residual_ms", "ms"),
        ("hlu.history.len", "count"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        out.push((name.to_owned(), unit));
    }
    for (name, _) in COUNTERS {
        out.push((
            (*name).to_owned(),
            if name.ends_with("bytes") {
                "bytes"
            } else {
                "count"
            },
        ));
    }
    out
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count or other context for the human-readable lines.
    pub note: String,
}

/// What a run found: its metrics and whether the program's outputs
/// were correct.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// §1.3.3 rejections; none are expected on these streams.
    pub rejected: u64,
    /// Every output check that did not hold, and every failed operation.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric from the catalogue; the unit comes from there.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let unit = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .chain(per_layer())
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
            .1;
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            note: note.into(),
        });
    }

    /// The metric called `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every output check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.rejected == 0
    }

    /// One line per metric, then the checks, for people to read.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<36} {:>16} {:<8} {}\n",
                m.name, m.value, m.unit, m.note
            ));
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "{:<36} {:>16} {:<8} {} failed of {} attempted; {} rejected (§1.3.3)\n",
            "failed_share", share, "ratio", self.failed, self.attempted, self.rejected
        ));
        for p in self.problems.iter().take(20) {
            out.push_str(&format!("check failed: {p}\n"));
        }
        out.push_str(&format!(
            "output checks: {}\n",
            if self.correct() { "pass" } else { "FAIL" }
        ));
        out
    }

    /// The machine-readable result: one JSON object on one line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
