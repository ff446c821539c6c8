//! Error types of the desynchronization flow.

use crate::submit::TenantId;
use desync_lint::LintReport;
use desync_netlist::NetlistError;
use std::fmt;
use std::sync::Arc;

/// Errors produced by the desynchronization flow.
#[derive(Debug, Clone, PartialEq)]
pub enum DesyncError {
    /// A netlist operation inside a stage failed (building the latch
    /// datapath or the overhead netlist), or the co-simulation testbench
    /// rejected a netlist. The input's preconditions are checked before any
    /// stage, by the lint gate ([`DesyncError::LintRejected`]).
    Netlist(NetlistError),
    /// The composed control model failed a correctness check.
    ModelCheck(String),
    /// The flow options contain a nonsensical knob value; rejected by
    /// [`DesyncOptions::validate`](crate::DesyncOptions::validate) before any
    /// stage runs.
    InvalidOptions(OptionsError),
    /// The verification stage was asked to run on a netlist that has data
    /// inputs, but no stimulus was configured via
    /// [`DesyncFlow::set_verification`](crate::DesyncFlow::set_verification).
    /// Without input vectors the equivalence check would pass vacuously.
    MissingStimulus,
    /// The design was rejected by the static pre-flight lint: the attached
    /// report carries every diagnostic with its witness. Produced by
    /// [`DesyncFlow::clustered`](crate::DesyncFlow::clustered), which every
    /// later stage runs first, so direct flows, engine flows and
    /// [`DesyncService`](crate::DesyncService) requests reject a bad design
    /// at one point, before any stage computes (the report is `Arc`-shared,
    /// so cloning the error is cheap and payloads stay bit-identical across
    /// worker threads).
    LintRejected(Arc<LintReport>),
    /// The request was cancelled cooperatively before it completed: its
    /// [`CancelToken`](crate::CancelToken) fired, or the owning
    /// [`ServiceQueue`](crate::ServiceQueue) was dropped with the request
    /// still pending. Checked at every stage boundary of
    /// [`DesyncFlow`](crate::DesyncFlow), so a cancelled request stops at the
    /// next stage edge rather than mid-computation.
    Cancelled,
    /// The request's deadline elapsed before a stage boundary was reached.
    /// Like cancellation this is cooperative: deadlines are checked when the
    /// request is picked up and at every stage edge, never mid-stage.
    DeadlineExceeded,
    /// The submission queue was at its configured depth bound — or the
    /// submitting tenant at its quota — and the admission policy is
    /// [`AdmissionPolicy::RejectNew`](crate::AdmissionPolicy::RejectNew):
    /// the request was shed instead of enqueued. The payload is the
    /// admission state observed under the queue lock at shed time, so
    /// operators tuning depth/quota see exactly what tripped.
    QueueFull {
        /// Pending requests (all tenants) at shed time.
        depth: usize,
        /// The configured global depth bound (`None` = unbounded: the
        /// shed was caused by the tenant quota alone).
        capacity: Option<usize>,
        /// The tenant whose submission was shed.
        tenant: TenantId,
        /// The shedding tenant's own pending requests at shed time.
        tenant_depth: usize,
        /// The configured per-tenant quota (`None` = unquotaed: the shed
        /// was caused by the global depth bound alone).
        tenant_quota: Option<usize>,
    },
    /// A worker panicked while computing this request. The panic was
    /// contained per-request (`catch_unwind` at the queue worker), the stage
    /// that was executing is recorded, and neither the worker thread nor the
    /// store's in-flight registry is left wedged.
    StagePanicked {
        /// Name of the pipeline stage that was executing when the panic
        /// unwound (`"clustered"`, `"latched"`, `"timed"`, `"controlled"`,
        /// `"verified"`, or `"request"` if it fired outside any stage).
        stage: &'static str,
        /// The panic payload, if it was a string; a placeholder otherwise.
        message: String,
    },
    /// A fault-injection failpoint fired with an `Error` action. Only ever
    /// produced with the `failpoints` cargo feature enabled (the variant is
    /// unconditionally present so exhaustive matches don't grow
    /// feature-dependent arms).
    FaultInjected {
        /// The failpoint site that fired (e.g. `"stage::timed"`).
        site: &'static str,
    },
}

/// A rejected knob in [`DesyncOptions`](crate::DesyncOptions), produced by
/// [`DesyncOptions::validate`](crate::DesyncOptions::validate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptionsError {
    /// `matched_delay_margin` is negative: the matched delay would be sized
    /// *below* the combinational delay it must cover, breaking the central
    /// safety property of the method.
    NegativeMatchedDelayMargin(f64),
    /// `controller_delay_ps` is zero or negative: the timed control model
    /// would contain zero-delay cycles and its cycle-time analysis would be
    /// meaningless.
    NonPositiveControllerDelay(f64),
    /// A timing parameter that must be non-negative (wire load, setup,
    /// clock-to-Q, latch D-to-Q) is negative.
    NegativeTimingParameter {
        /// Qualified name of the offending
        /// [`TimingConfig`](desync_sta::TimingConfig) field
        /// (e.g. `"timing.setup_ps"`).
        parameter: &'static str,
        /// The rejected value, in picoseconds.
        value: f64,
    },
    /// A numeric knob is NaN or infinite.
    NonFiniteParameter {
        /// Qualified name of the offending field.
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::NegativeMatchedDelayMargin(v) => {
                write!(f, "matched_delay_margin must be >= 0, got {v}")
            }
            OptionsError::NonPositiveControllerDelay(v) => {
                write!(f, "controller_delay_ps must be > 0, got {v}")
            }
            OptionsError::NegativeTimingParameter { parameter, value } => {
                write!(f, "{parameter} must be >= 0, got {value}")
            }
            OptionsError::NonFiniteParameter { parameter, value } => {
                write!(f, "{parameter} must be finite, got {value}")
            }
        }
    }
}

impl fmt::Display for DesyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesyncError::Netlist(e) => write!(f, "invalid input netlist: {e}"),
            DesyncError::ModelCheck(msg) => write!(f, "control model check failed: {msg}"),
            DesyncError::InvalidOptions(e) => write!(f, "invalid flow options: {e}"),
            DesyncError::MissingStimulus => write!(
                f,
                "netlist has data inputs but no verification stimulus was set; \
                 call DesyncFlow::set_verification first"
            ),
            DesyncError::LintRejected(report) => {
                write!(
                    f,
                    "design rejected by static lint ({} error(s)): ",
                    report.num_errors()
                )?;
                match report.errors().next() {
                    Some(first) => write!(f, "{first}"),
                    None => write!(f, "no diagnostics recorded"),
                }
            }
            DesyncError::Cancelled => write!(f, "request was cancelled before it completed"),
            DesyncError::DeadlineExceeded => {
                write!(f, "request deadline elapsed before completion")
            }
            DesyncError::QueueFull {
                depth,
                capacity,
                tenant,
                tenant_depth,
                tenant_quota,
            } => {
                write!(f, "submission queue is full (depth {depth}")?;
                if let Some(capacity) = capacity {
                    write!(f, " of {capacity}")?;
                }
                write!(f, "; tenant {tenant}: {tenant_depth} pending")?;
                if let Some(quota) = tenant_quota {
                    write!(f, " of quota {quota}")?;
                }
                write!(f, "); request shed by admission policy")
            }
            DesyncError::StagePanicked { stage, message } => {
                write!(f, "worker panicked in stage '{stage}': {message}")
            }
            DesyncError::FaultInjected { site } => {
                write!(f, "injected fault fired at failpoint '{site}'")
            }
        }
    }
}

impl std::error::Error for DesyncError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DesyncError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for DesyncError {
    fn from(e: NetlistError) -> Self {
        DesyncError::Netlist(e)
    }
}

impl From<OptionsError> for DesyncError {
    fn from(e: OptionsError) -> Self {
        DesyncError::InvalidOptions(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = DesyncError::from(NetlistError::DuplicateNet("x".into()));
        assert!(e.to_string().contains("invalid input netlist"));
        assert!(e.source().is_some());
        assert!(DesyncError::MissingStimulus.source().is_none());
        assert!(DesyncError::MissingStimulus
            .to_string()
            .contains("no verification stimulus"));
        assert!(DesyncError::ModelCheck("not live".into())
            .to_string()
            .contains("not live"));
    }

    #[test]
    fn option_errors_display_the_offending_value() {
        let e = DesyncError::from(OptionsError::NegativeMatchedDelayMargin(-0.2));
        assert!(e.to_string().contains("-0.2"));
        assert!(e.to_string().contains("invalid flow options"));
        let e = OptionsError::NonPositiveControllerDelay(0.0);
        assert!(e.to_string().contains("controller_delay_ps"));
        let e = OptionsError::NegativeTimingParameter {
            parameter: "timing.setup_ps",
            value: -1.0,
        };
        assert!(e.to_string().contains("timing.setup_ps"));
        let e = OptionsError::NonFiniteParameter {
            parameter: "matched_delay_margin",
            value: f64::NAN,
        };
        assert!(e.to_string().contains("finite"));
    }

    #[test]
    fn service_outcome_errors_display_their_cause() {
        assert!(DesyncError::Cancelled.to_string().contains("cancelled"));
        assert!(DesyncError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        let full = DesyncError::QueueFull {
            depth: 5,
            capacity: Some(5),
            tenant: TenantId::new(7),
            tenant_depth: 3,
            tenant_quota: Some(3),
        };
        assert!(full.to_string().contains("queue is full"), "{full}");
        assert!(full.to_string().contains("depth 5 of 5"), "{full}");
        assert!(full.to_string().contains("tenant 7"), "{full}");
        assert!(full.to_string().contains("3 pending of quota 3"), "{full}");
        let unbounded = DesyncError::QueueFull {
            depth: 4,
            capacity: None,
            tenant: TenantId::DEFAULT,
            tenant_depth: 4,
            tenant_quota: Some(4),
        };
        assert!(
            !unbounded.to_string().contains("of quota 4 of"),
            "{unbounded}"
        );
        assert!(unbounded.to_string().contains("depth 4;"), "{unbounded}");
        let e = DesyncError::StagePanicked {
            stage: "timed",
            message: "boom".into(),
        };
        assert!(e.to_string().contains("stage 'timed'"), "{e}");
        assert!(e.to_string().contains("boom"), "{e}");
        let e = DesyncError::FaultInjected {
            site: "store::insert",
        };
        assert!(e.to_string().contains("store::insert"), "{e}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DesyncError>();
    }

    #[test]
    fn lint_rejection_displays_the_first_error_and_compares_by_content() {
        use desync_lint::{Diagnostic, LintCode};
        let report = || {
            Arc::new(LintReport {
                diagnostics: vec![Diagnostic::new(
                    LintCode::MultiDrivenNet,
                    "bus".into(),
                    "driven 2 times",
                )],
            })
        };
        let e = DesyncError::LintRejected(report());
        assert!(e.to_string().contains("rejected by static lint"), "{e}");
        assert!(e.to_string().contains("NL001"), "{e}");
        assert!(e.to_string().contains("bus"), "{e}");
        // Distinct Arcs with equal payloads compare equal — the property the
        // cross-thread bit-identity guarantee rests on.
        assert_eq!(e, DesyncError::LintRejected(report()));
    }
}
