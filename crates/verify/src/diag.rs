//! Diagnostic types: codes, severities, locations, and rendering.

use gpuflow_graph::{DataId, OpId};
use gpuflow_minijson::{Map, Value};

/// How bad a finding is.
///
/// Ordered so that `max()` over a report yields the worst severity:
/// `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a fact worth surfacing (e.g. the peak footprint).
    Note,
    /// The plan/graph works but wastes resources or looks suspicious.
    Warning,
    /// The graph or plan is invalid and must not execute.
    Error,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// An operator of the graph.
    Op(OpId),
    /// A data structure of the graph.
    Data(DataId),
    /// An offload unit of the plan.
    Unit(usize),
    /// A step of the plan (index into the step sequence).
    Step(usize),
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Location::Op(o) => write!(f, "op {}", o.index()),
            Location::Data(d) => write!(f, "{d}"),
            Location::Unit(u) => write!(f, "unit {u}"),
            Location::Step(i) => write!(f, "step {i}"),
        }
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code, `GF` + four digits (see
    /// `docs/diagnostics.md` for the catalogue).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// What the finding points at, when it points at one thing.
    pub location: Option<Location>,
    /// Human-readable statement of the problem.
    pub message: String,
    /// Optional remediation hint.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Construct an [`Severity::Error`] diagnostic.
    pub fn error(
        code: &'static str,
        location: Option<Location>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location,
            message: message.into(),
            help: None,
        }
    }

    /// Construct a [`Severity::Warning`] diagnostic.
    pub fn warning(
        code: &'static str,
        location: Option<Location>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            location,
            message: message.into(),
            help: None,
        }
    }

    /// Construct a [`Severity::Note`] diagnostic.
    pub fn note(
        code: &'static str,
        location: Option<Location>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Note,
            location,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a remediation hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// One human-readable line (plus an indented help line when present),
    /// e.g. `error[GF0017] step 4: unit 1 input mid not resident`.
    pub fn render(&self) -> String {
        let mut s = format!("{}[{}]", self.severity, self.code);
        if let Some(loc) = self.location {
            s.push_str(&format!(" {loc}:"));
        }
        s.push(' ');
        s.push_str(&self.message);
        if let Some(help) = &self.help {
            s.push_str("\n  help: ");
            s.push_str(help);
        }
        s
    }

    /// JSON object form.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("code", self.code);
        m.insert("severity", self.severity.label());
        if let Some(loc) = self.location {
            let mut l = Map::new();
            let (kind, index) = match loc {
                Location::Op(o) => ("op", o.index()),
                Location::Data(d) => ("data", d.index()),
                Location::Unit(u) => ("unit", u),
                Location::Step(i) => ("step", i),
            };
            l.insert("kind", kind);
            l.insert("index", index);
            m.insert("location", l);
        } else {
            m.insert("location", Value::Null);
        }
        m.insert("message", self.message.as_str());
        match &self.help {
            Some(h) => m.insert("help", h.as_str()),
            None => m.insert("help", Value::Null),
        };
        Value::Object(m)
    }
}

/// Severity tallies over a diagnostic list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Number of errors.
    pub errors: usize,
    /// Number of warnings.
    pub warnings: usize,
    /// Number of notes.
    pub notes: usize,
}

/// Tally a diagnostic list by severity.
pub fn count(diags: &[Diagnostic]) -> Counts {
    let mut c = Counts::default();
    for d in diags {
        match d.severity {
            Severity::Error => c.errors += 1,
            Severity::Warning => c.warnings += 1,
            Severity::Note => c.notes += 1,
        }
    }
    c
}

/// True when any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// One-line summary, e.g. `2 errors, 1 warning, 3 notes`.
pub fn summary(diags: &[Diagnostic]) -> String {
    let c = count(diags);
    let plural =
        |n: usize, word: &str| -> String { format!("{n} {word}{}", if n == 1 { "" } else { "s" }) };
    format!(
        "{}, {}, {}",
        plural(c.errors, "error"),
        plural(c.warnings, "warning"),
        plural(c.notes, "note")
    )
}

/// Render every diagnostic as text, one finding per line (help lines
/// indented beneath), ending with the summary line.
pub fn render_report(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render());
        out.push('\n');
    }
    out.push_str(&summary(diags));
    out.push('\n');
    out
}

/// One entry of the diagnostic-code [`registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeEntry {
    /// The stable `GF####` code.
    pub code: &'static str,
    /// The constant's name in its defining module.
    pub name: &'static str,
    /// The code family (one analyzer pass = one contiguous block).
    pub family: &'static str,
}

/// The master registry of every diagnostic code the crate can emit, in
/// numeric order. Each analyzer module keeps its own `codes` constants
/// (those are what call sites use); this table references them so a code
/// cannot exist without a registry entry, and the registry tests enforce
/// uniqueness, per-family contiguity, and coverage in
/// `docs/diagnostics.md`.
pub fn registry() -> Vec<CodeEntry> {
    use crate::{engine, graph_check, hazard, recover};
    let e = |code, name, family| CodeEntry { code, name, family };
    vec![
        e(graph_check::codes::CYCLE, "CYCLE", "graph"),
        e(graph_check::codes::SHAPE, "SHAPE", "graph"),
        e(
            graph_check::codes::UNREACHABLE_OP,
            "UNREACHABLE_OP",
            "graph",
        ),
        e(graph_check::codes::DEAD_DATA, "DEAD_DATA", "graph"),
        e(graph_check::codes::FOOTPRINT, "FOOTPRINT", "graph"),
        e(graph_check::codes::HALO, "HALO", "graph"),
        e(engine::codes::UNKNOWN_DATA, "UNKNOWN_DATA", "plan"),
        e(engine::codes::UNKNOWN_UNIT, "UNKNOWN_UNIT", "plan"),
        e(
            engine::codes::COPYIN_NOT_ON_HOST,
            "COPYIN_NOT_ON_HOST",
            "plan",
        ),
        e(engine::codes::COPYIN_RESIDENT, "COPYIN_RESIDENT", "plan"),
        e(
            engine::codes::COPYOUT_NOT_RESIDENT,
            "COPYOUT_NOT_RESIDENT",
            "plan",
        ),
        e(
            engine::codes::FREE_NOT_RESIDENT,
            "FREE_NOT_RESIDENT",
            "plan",
        ),
        e(engine::codes::DOUBLE_LAUNCH, "DOUBLE_LAUNCH", "plan"),
        e(
            engine::codes::INPUT_NOT_RESIDENT,
            "INPUT_NOT_RESIDENT",
            "plan",
        ),
        e(
            engine::codes::INPUT_NOT_PRODUCED,
            "INPUT_NOT_PRODUCED",
            "plan",
        ),
        e(engine::codes::OUTPUT_RESIDENT, "OUTPUT_RESIDENT", "plan"),
        e(engine::codes::OVER_CAPACITY, "OVER_CAPACITY", "plan"),
        e(engine::codes::NEVER_LAUNCHED, "NEVER_LAUNCHED", "plan"),
        e(
            engine::codes::OUTPUT_NOT_DELIVERED,
            "OUTPUT_NOT_DELIVERED",
            "plan",
        ),
        e(
            engine::codes::ACCOUNTING_UNDERFLOW,
            "ACCOUNTING_UNDERFLOW",
            "plan",
        ),
        e(
            engine::codes::INPUT_ON_OTHER_DEVICE,
            "INPUT_ON_OTHER_DEVICE",
            "multi",
        ),
        e(
            engine::codes::TRANSFER_NOT_STAGED,
            "TRANSFER_NOT_STAGED",
            "multi",
        ),
        e(
            engine::codes::DEVICE_OVER_CAPACITY,
            "DEVICE_OVER_CAPACITY",
            "multi",
        ),
        e(
            engine::codes::NOT_RESIDENT_ON_DEVICE,
            "NOT_RESIDENT_ON_DEVICE",
            "multi",
        ),
        e(
            engine::codes::INPUT_ON_NO_DEVICE,
            "INPUT_ON_NO_DEVICE",
            "multi",
        ),
        e(engine::codes::UNKNOWN_DEVICE, "UNKNOWN_DEVICE", "multi"),
        e(
            recover::codes::NOT_RECOVERABLE,
            "NOT_RECOVERABLE",
            "recover",
        ),
        e(
            recover::codes::CHECKPOINT_OVER_BUDGET,
            "CHECKPOINT_OVER_BUDGET",
            "recover",
        ),
        e(
            recover::codes::RETRY_UNBOUNDED,
            "RETRY_UNBOUNDED",
            "recover",
        ),
        e(hazard::codes::HAZARD_RAW, "HAZARD_RAW", "hazard"),
        e(hazard::codes::HAZARD_WAR, "HAZARD_WAR", "hazard"),
        e(hazard::codes::HAZARD_WAW, "HAZARD_WAW", "hazard"),
        e(hazard::codes::USE_AFTER_FREE, "USE_AFTER_FREE", "hazard"),
        e(hazard::codes::FREE_IN_FLIGHT, "FREE_IN_FLIGHT", "hazard"),
        e(hazard::codes::UNSTAGED_READ, "UNSTAGED_READ", "hazard"),
        e(hazard::codes::CERTIFIED, "CERTIFIED", "hazard"),
        e(
            crate::critpath::codes::ADVISOR_DIVERGENCE,
            "ADVISOR_DIVERGENCE",
            "profile",
        ),
        e(
            crate::guard::codes::DEADLINE_INFEASIBLE,
            "DEADLINE_INFEASIBLE",
            "guard",
        ),
        e(
            crate::guard::codes::JOURNAL_RECOVERED,
            "JOURNAL_RECOVERED",
            "guard",
        ),
        e(
            crate::guard::codes::BREAKER_TRIPPED,
            "BREAKER_TRIPPED",
            "guard",
        ),
        e(
            engine::codes::LINT_REDUNDANT_COPYIN,
            "LINT_REDUNDANT_COPYIN",
            "lint",
        ),
        e(engine::codes::LINT_FREE_THRASH, "LINT_FREE_THRASH", "lint"),
        e(
            engine::codes::LINT_DEAD_COPYOUT,
            "LINT_DEAD_COPYOUT",
            "lint",
        ),
        e(
            engine::codes::LINT_NON_BELADY_EVICTION,
            "LINT_NON_BELADY_EVICTION",
            "lint",
        ),
    ]
}

/// Render a diagnostic list as a JSON document.
pub fn report_to_json(diags: &[Diagnostic]) -> Value {
    let c = count(diags);
    let mut counts = Map::new();
    counts.insert("errors", c.errors);
    counts.insert("warnings", c.warnings);
    counts.insert("notes", c.notes);
    let mut m = Map::new();
    m.insert(
        "diagnostics",
        Value::Array(diags.iter().map(Diagnostic::to_json).collect()),
    );
    m.insert("counts", counts);
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_worst_last() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn render_includes_code_location_and_help() {
        let d = Diagnostic::error("GF0017", Some(Location::Step(4)), "input mid not resident")
            .with_help("copy it in first");
        let r = d.render();
        assert!(r.starts_with("error[GF0017] step 4: input mid not resident"));
        assert!(r.contains("help: copy it in first"));
    }

    #[test]
    fn counting_and_summary() {
        let diags = vec![
            Diagnostic::error("GF0001", None, "a"),
            Diagnostic::warning("GF0101", Some(Location::Unit(0)), "b"),
            Diagnostic::warning("GF0102", None, "c"),
            Diagnostic::note("GF0005", Some(Location::Op(OpId(1))), "d"),
        ];
        assert!(has_errors(&diags));
        let c = count(&diags);
        assert_eq!((c.errors, c.warnings, c.notes), (1, 2, 1));
        assert_eq!(summary(&diags), "1 error, 2 warnings, 1 note");
        assert!(render_report(&diags).lines().count() >= 5);
    }

    #[test]
    fn registry_codes_are_unique_and_well_formed() {
        let reg = registry();
        let mut seen = std::collections::HashSet::new();
        for e in &reg {
            assert!(
                e.code.len() == 6 && e.code.starts_with("GF"),
                "{} ({}) is not GF + four digits",
                e.code,
                e.name
            );
            assert!(
                e.code[2..].chars().all(|c| c.is_ascii_digit()),
                "{} has non-digit characters",
                e.code
            );
            assert!(seen.insert(e.code), "duplicate code {}", e.code);
        }
    }

    #[test]
    fn registry_families_are_contiguous_blocks() {
        let reg = registry();
        let num = |c: &str| c[2..].parse::<u32>().unwrap();
        // Codes appear in ascending numeric order…
        for w in reg.windows(2) {
            assert!(
                num(w[0].code) < num(w[1].code),
                "{} must precede {}",
                w[0].code,
                w[1].code
            );
        }
        // …and within one family they are consecutive integers, so a gap
        // means a code was removed without retiring it in the docs.
        for w in reg.windows(2) {
            if w[0].family == w[1].family {
                assert_eq!(
                    num(w[0].code) + 1,
                    num(w[1].code),
                    "family {} has a gap between {} and {}",
                    w[0].family,
                    w[0].code,
                    w[1].code
                );
            }
        }
    }

    #[test]
    fn registry_matches_docs_catalogue() {
        // Bidirectional coverage against docs/diagnostics.md: every
        // registered code has a `### GF####` section, and every code the
        // docs mention is registered (no phantom documentation).
        let docs = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/diagnostics.md"
        ))
        .expect("docs/diagnostics.md must exist");
        let reg = registry();
        for e in &reg {
            assert!(
                docs.contains(&format!("### {} —", e.code)),
                "{} ({}) has no section in docs/diagnostics.md",
                e.code,
                e.name
            );
        }
        let registered: std::collections::HashSet<&str> = reg.iter().map(|e| e.code).collect();
        let bytes = docs.as_bytes();
        let mut i = 0;
        while let Some(pos) = docs[i..].find("GF") {
            let at = i + pos;
            i = at + 2;
            if at + 6 <= bytes.len() && docs[at + 2..at + 6].chars().all(|c| c.is_ascii_digit()) {
                let code = &docs[at..at + 6];
                assert!(
                    registered.contains(code),
                    "docs mention {code} but the registry does not define it"
                );
            }
        }
    }

    #[test]
    fn json_report_shape() {
        let diags = vec![Diagnostic::error(
            "GF0010",
            Some(Location::Data(DataId(3))),
            "unknown data d3",
        )];
        let v = report_to_json(&diags);
        assert_eq!(v["counts"]["errors"].as_u64(), Some(1));
        let d = &v["diagnostics"][0];
        assert_eq!(d["code"], "GF0010");
        assert_eq!(d["severity"], "error");
        assert_eq!(d["location"]["kind"], "data");
        assert_eq!(d["location"]["index"].as_u64(), Some(3));
        // The document parses back.
        let text = v.to_string_pretty();
        assert_eq!(gpuflow_minijson::parse(&text).unwrap(), v);
    }
}
