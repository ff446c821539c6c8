//! The typed diagnostic model: stable lint codes, severities, and reports
//! with human ([`fmt::Display`]) and machine-readable ([`LintReport::to_json`])
//! renderings.
//!
//! Subjects and witnesses are interned [`Symbol`]s — a diagnostic carries
//! `u32` handles, and the strings materialize only when a report is
//! rendered. Reports are plain data (`Clone + PartialEq + Eq`), so verdicts
//! can be cached, compared bit-for-bit across runs and thread counts, and
//! shipped inside service errors.

use desync_netlist::Symbol;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a diagnostic is.
///
/// Errors make a design non-desynchronizable (or structurally meaningless)
/// and reject it before the flow's first stage; warnings are reported but
/// do not block the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Suspicious but not blocking.
    Warning,
    /// The design is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier of a lint pass.
///
/// Codes are part of the machine-readable output contract: once published
/// they never change meaning. `NL…` codes come from the netlist pass suite,
/// `MG…` from the marked-graph (control network) suite and `FL…` from the
/// flow-precondition pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LintCode {
    /// `NL001` — a net with more than one driver (cells and/or a primary
    /// input).
    MultiDrivenNet,
    /// `NL002` — a net read by a cell data pin or exposed as a primary
    /// output, but driven by nothing.
    FloatingInput,
    /// `NL003` — a net that nothing reads and no primary output observes.
    DeadNet,
    /// `NL004` — a cell whose output can never reach a primary output.
    UnreachableCell,
    /// `NL005` — a cycle in the combinational core, with the canonical
    /// cycle as witness.
    CombinationalCycle,
    /// `NL006` — a register whose clock/enable net has no driver and is not
    /// a primary input.
    UnclockedRegister,
    /// `NL007` — registers clocked by more than one distinct net.
    MultipleClocks,
    /// `NL008` — malformed primary ports (duplicate or input-and-output
    /// nets).
    PortSanity,
    /// `MG001` — the control network has a token-free cycle and can
    /// deadlock (non-live).
    TokenFreeCycle,
    /// `MG002` — a control-network cycle carries more than one token
    /// (unsafe).
    MultiTokenCycle,
    /// `MG003` — the control network is not strongly connected.
    NotStronglyConnected,
    /// `FL001` — the flow needs at least one flip-flop to desynchronize.
    NoRegisters,
    /// `FL002` — the design already contains level-sensitive latches or
    /// C-elements: sequential cells that are not flip-flops.
    AlreadyLatchBased,
}

impl LintCode {
    /// The stable textual code, e.g. `"NL001"`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::MultiDrivenNet => "NL001",
            LintCode::FloatingInput => "NL002",
            LintCode::DeadNet => "NL003",
            LintCode::UnreachableCell => "NL004",
            LintCode::CombinationalCycle => "NL005",
            LintCode::UnclockedRegister => "NL006",
            LintCode::MultipleClocks => "NL007",
            LintCode::PortSanity => "NL008",
            LintCode::TokenFreeCycle => "MG001",
            LintCode::MultiTokenCycle => "MG002",
            LintCode::NotStronglyConnected => "MG003",
            LintCode::NoRegisters => "FL001",
            LintCode::AlreadyLatchBased => "FL002",
        }
    }

    /// The severity this code reports at.
    ///
    /// Dead logic (`NL003`/`NL004`) and odd-but-harmless port declarations
    /// (`NL008` — a feedthrough net declared both input and output, or a
    /// duplicated port entry) are warnings: the flow handles such designs
    /// correctly, they are merely suspicious. Everything else breaks a flow
    /// precondition or a structural invariant and reports as an error.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::DeadNet | LintCode::UnreachableCell | LintCode::PortSanity => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }

    /// One-line description of what the pass checks.
    pub fn title(self) -> &'static str {
        match self {
            LintCode::MultiDrivenNet => "net has multiple drivers",
            LintCode::FloatingInput => "net is read but never driven",
            LintCode::DeadNet => "net is never read",
            LintCode::UnreachableCell => "cell output never reaches a primary output",
            LintCode::CombinationalCycle => "combinational cycle",
            LintCode::UnclockedRegister => "register clock/enable is undriven",
            LintCode::MultipleClocks => "multiple clock nets",
            LintCode::PortSanity => "malformed primary ports",
            LintCode::TokenFreeCycle => "control network is not live",
            LintCode::MultiTokenCycle => "control network is not safe",
            LintCode::NotStronglyConnected => "control network is not strongly connected",
            LintCode::NoRegisters => "no flip-flops to desynchronize",
            LintCode::AlreadyLatchBased => "design holds latches or C-elements",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding of a lint pass.
///
/// Every diagnostic names a concrete *subject* (the offending net, cell or
/// graph transition) and, where the verdict is proved by a structure rather
/// than a single object, a *witness*: the names along a cycle, the drivers
/// of a multi-driven net, the transitions of a disconnected component.
/// Witnesses are canonical — the same design produces the identical
/// diagnostic byte-for-byte on every run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Which pass fired.
    pub code: LintCode,
    /// The primary offending object (interned name).
    pub subject: Symbol,
    /// Proof structure: names along the cycle / drivers / component.
    pub witness: Vec<Symbol>,
    /// Human-oriented specifics (counts, roles); never required to
    /// interpret the finding mechanically.
    pub detail: String,
}

impl Diagnostic {
    /// Creates a diagnostic with an empty witness.
    pub fn new(code: LintCode, subject: Symbol, detail: impl Into<String>) -> Self {
        Self {
            code,
            subject,
            witness: Vec::new(),
            detail: detail.into(),
        }
    }

    /// Attaches a witness (builder style).
    pub fn with_witness(mut self, witness: Vec<Symbol>) -> Self {
        self.witness = witness;
        self
    }

    /// The severity of this diagnostic (a pure function of the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] `{}`: {}",
            self.severity(),
            self.code.code(),
            self.subject.as_str(),
            self.detail
        )?;
        if !self.witness.is_empty() {
            write!(f, " | witness: ")?;
            for (i, w) in self.witness.iter().enumerate() {
                if i > 0 {
                    f.write_str(" -> ")?;
                }
                f.write_str(w.as_str())?;
            }
        }
        Ok(())
    }
}

/// The result of running a pass suite: an ordered list of diagnostics.
///
/// Order is deterministic (pass order, then subject id order), so two
/// reports for the same design compare equal with `==`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends all findings of `other`.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Whether the design passed: no error-severity findings (warnings are
    /// allowed).
    pub fn is_clean(&self) -> bool {
        self.num_errors() == 0
    }

    /// Number of error-severity findings.
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics.len() - self.num_errors()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Whether any finding fired with `code`.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The first finding with `code`, if any.
    pub fn find(&self, code: LintCode) -> Option<&Diagnostic> {
        self.diagnostics.iter().find(|d| d.code == code)
    }

    /// Approximate heap footprint in bytes, for weight-accounted caches.
    pub fn weight(&self) -> usize {
        64 + self
            .diagnostics
            .iter()
            .map(|d| 64 + d.detail.len() + d.witness.len() * 4)
            .sum::<usize>()
    }

    /// Machine-readable rendering, schema `desync-lint/1`:
    ///
    /// ```json
    /// {"schema":"desync-lint/1","clean":false,"errors":1,"warnings":0,
    ///  "diagnostics":[{"code":"NL001","severity":"error","subject":"n1",
    ///                  "detail":"...","witness":["g0","g1"]}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.diagnostics.len() * 96);
        out.push_str("{\"schema\":\"desync-lint/1\"");
        out.push_str(&format!(
            ",\"clean\":{},\"errors\":{},\"warnings\":{}",
            self.is_clean(),
            self.num_errors(),
            self.num_warnings()
        ));
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"subject\":{},\"detail\":{},\"witness\":[",
                d.code.code(),
                d.severity(),
                json_string(d.subject.as_str()),
                json_string(&d.detail)
            ));
            for (j, w) in d.witness.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(w.as_str()));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "lint: clean");
        }
        writeln!(
            f,
            "lint: {} error(s), {} warning(s)",
            self.num_errors(),
            self.num_warnings()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Escapes `s` as a JSON string literal (with the quotes).
fn json_string(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport::new();
        r.push(
            Diagnostic::new(LintCode::MultiDrivenNet, "n1".into(), "driven 2 times")
                .with_witness(vec!["g0".into(), "g1".into()]),
        );
        r.push(Diagnostic::new(
            LintCode::DeadNet,
            "scratch".into(),
            "never read",
        ));
        r
    }

    #[test]
    fn severity_is_a_function_of_the_code() {
        assert_eq!(LintCode::MultiDrivenNet.severity(), Severity::Error);
        assert_eq!(LintCode::DeadNet.severity(), Severity::Warning);
        assert_eq!(LintCode::PortSanity.severity(), Severity::Warning);
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let all = [
            LintCode::MultiDrivenNet,
            LintCode::FloatingInput,
            LintCode::DeadNet,
            LintCode::UnreachableCell,
            LintCode::CombinationalCycle,
            LintCode::UnclockedRegister,
            LintCode::MultipleClocks,
            LintCode::PortSanity,
            LintCode::TokenFreeCycle,
            LintCode::MultiTokenCycle,
            LintCode::NotStronglyConnected,
            LintCode::NoRegisters,
            LintCode::AlreadyLatchBased,
        ];
        let mut codes: Vec<_> = all.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "no two passes share a code");
        assert_eq!(LintCode::MultiDrivenNet.code(), "NL001");
        assert_eq!(LintCode::TokenFreeCycle.code(), "MG001");
        assert_eq!(LintCode::NoRegisters.code(), "FL001");
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let r = sample();
        assert_eq!(r.num_errors(), 1);
        assert_eq!(r.num_warnings(), 1);
        assert!(!r.is_clean(), "an error makes the report dirty");
        assert!(r.has(LintCode::MultiDrivenNet));
        assert!(!r.has(LintCode::CombinationalCycle));
        assert!(LintReport::new().is_clean());
        let warn_only = LintReport {
            diagnostics: vec![Diagnostic::new(LintCode::DeadNet, "x".into(), "never read")],
        };
        assert!(warn_only.is_clean(), "warnings alone keep the report clean");
    }

    #[test]
    fn display_renders_code_subject_and_witness() {
        let text = sample().to_string();
        assert!(text.contains("error[NL001] `n1`: driven 2 times"), "{text}");
        assert!(text.contains("witness: g0 -> g1"), "{text}");
        assert!(text.contains("warning[NL003]"), "{text}");
    }

    #[test]
    fn json_shape_and_escaping() {
        let r = sample();
        let json = r.to_json();
        assert!(json.starts_with("{\"schema\":\"desync-lint/1\""), "{json}");
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("\"errors\":1"), "{json}");
        assert!(json.contains("\"code\":\"NL001\""), "{json}");
        assert!(json.contains("\"witness\":[\"g0\",\"g1\"]"), "{json}");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn reports_compare_bit_identically() {
        assert_eq!(sample(), sample());
        assert_eq!(sample().to_json(), sample().to_json());
    }
}
