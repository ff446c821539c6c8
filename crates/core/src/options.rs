//! Configuration of the desynchronization flow.

use crate::controller::Protocol;
use crate::error::{DesyncError, OptionsError};
use crate::pipeline::Stage;
use desync_sta::TimingConfig;
use serde::{Deserialize, Serialize};

/// How flip-flops are grouped into latch clusters, each cluster receiving
/// one pair (master/slave) of local clock generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ClusteringStrategy {
    /// One cluster per flip-flop: the finest granularity and the maximum
    /// number of controllers. Faithful to the per-latch model of the paper's
    /// figures, but expensive in controllers for large designs.
    PerRegister,
    /// Group flip-flops whose instance names share a prefix (everything up
    /// to the last `[` or trailing index). Pipeline registers generated by
    /// word-level builders (`idex_a_ff[3]`, …) fall into one cluster per
    /// architectural register, which mirrors how an RTL-level flow would
    /// cluster by register bank. This is the default.
    #[default]
    ByNamePrefix,
}

/// All knobs of the desynchronization flow.
///
/// Every knob maps to exactly one stage of the staged pipeline
/// ([`DesyncFlow`](crate::DesyncFlow)); changing a knob mid-flow re-runs
/// only the stages it invalidates:
///
/// | knob | earliest stage re-run |
/// |---|---|
/// | `clustering` | `Clustered` |
/// | `timing`, `matched_delay_margin` | `Timed` |
/// | `protocol`, `controller_delay_ps` | `Controlled` |
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesyncOptions {
    /// Handshake protocol implemented by the controllers.
    pub protocol: Protocol,
    /// Flip-flop clustering strategy.
    pub clustering: ClusteringStrategy,
    /// Safety margin applied to matched delays (0.05 = 5 %).
    pub matched_delay_margin: f64,
    /// Delay added by a controller on each handshake arc (request/acknowledge
    /// propagation through the control logic), in picoseconds.
    pub controller_delay_ps: f64,
    /// Timing parameters shared with the static timing analyzer.
    pub timing: TimingConfig,
}

impl Default for DesyncOptions {
    fn default() -> Self {
        Self {
            protocol: Protocol::FullyDecoupled,
            clustering: ClusteringStrategy::ByNamePrefix,
            matched_delay_margin: 0.05,
            controller_delay_ps: 120.0,
            timing: TimingConfig::default(),
        }
    }
}

impl DesyncOptions {
    /// Returns a copy with a different protocol.
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Returns a copy with a different clustering strategy.
    pub fn with_clustering(mut self, clustering: ClusteringStrategy) -> Self {
        self.clustering = clustering;
        self
    }

    /// Returns a copy with a different matched-delay margin.
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.matched_delay_margin = margin;
        self
    }

    /// Returns a copy with a different per-arc controller delay.
    pub fn with_controller_delay_ps(mut self, delay_ps: f64) -> Self {
        self.controller_delay_ps = delay_ps;
        self
    }

    /// Returns a copy with different timing parameters.
    pub fn with_timing(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self
    }

    /// The canonical image of the option subset `stage` depends on.
    ///
    /// This is the single source of truth for the knob → stage mapping of
    /// the table above: two option sets produce identical results for
    /// `stage` (and every earlier stage) exactly when their prefixes for
    /// `stage` compare equal. `DesyncFlow` derives its invalidation from
    /// prefix inequality and `DesyncEngine` embeds the prefix in the
    /// uniform [`ArtifactStore`](crate::store::ArtifactStore) keys of its
    /// content-addressed cache, so invalidation, cache validity and
    /// eviction-recomputation can never drift apart.
    ///
    /// Floats enter the prefix as IEEE-754 bit patterns, making the prefix
    /// `Eq + Hash` without tolerating NaN (which [`DesyncOptions::validate`]
    /// rejects anyway).
    pub(crate) fn stage_prefix(&self, stage: Stage) -> StagePrefix {
        // Exhaustive destructuring (no `..`) of both the option set and the
        // timing sub-struct: adding a knob to either is a compile error here
        // until it is explicitly classified into a stage prefix — a new knob
        // can never silently fall out of the cache keys / invalidation.
        let DesyncOptions {
            protocol,
            clustering,
            matched_delay_margin,
            controller_delay_ps,
            timing,
        } = *self;
        let mut prefix = StagePrefix {
            clustering,
            ..StagePrefix::default()
        };
        if stage >= Stage::Timed {
            let TimingConfig {
                wire_delay_per_fanout_ps,
                setup_ps,
                clk_to_q_ps,
                latch_d_to_q_ps,
            } = timing;
            prefix.timing = Some([
                wire_delay_per_fanout_ps.to_bits(),
                setup_ps.to_bits(),
                clk_to_q_ps.to_bits(),
                latch_d_to_q_ps.to_bits(),
            ]);
            prefix.matched_delay_margin = Some(matched_delay_margin.to_bits());
        }
        if stage >= Stage::Controlled {
            prefix.protocol = Some(protocol);
            prefix.controller_delay_ps = Some(controller_delay_ps.to_bits());
        }
        prefix
    }

    /// The [`Stage::Timed`] prefix with the matched-delay margin stripped —
    /// the cache key of the margin-independent [`SizingAnalysis`]
    /// (arrival propagation, launch overheads, environment budgets), which
    /// every margin point of a sweep shares: a new margin only re-binds the
    /// matched delays from the analysis.
    ///
    /// [`SizingAnalysis`]: crate::pipeline::SizingAnalysis
    pub(crate) fn sizing_analysis_prefix(&self) -> StagePrefix {
        let mut prefix = self.stage_prefix(Stage::Timed);
        prefix.matched_delay_margin = None;
        prefix
    }

    /// Rejects nonsensical knob values.
    ///
    /// Called by [`DesyncFlow::new`](crate::DesyncFlow::new) and
    /// [`DesyncFlow::set_options`](crate::DesyncFlow::set_options) before any
    /// stage executes, so a bad knob fails fast instead of being silently
    /// clamped deep inside delay sizing.
    ///
    /// # Errors
    ///
    /// [`DesyncError::InvalidOptions`] when:
    ///
    /// * `matched_delay_margin` is negative or non-finite,
    /// * `controller_delay_ps` is zero, negative or non-finite,
    /// * any [`TimingConfig`] delay parameter is negative or non-finite.
    pub fn validate(&self) -> Result<(), DesyncError> {
        fn finite(parameter: &'static str, value: f64) -> Result<(), OptionsError> {
            if value.is_finite() {
                Ok(())
            } else {
                Err(OptionsError::NonFiniteParameter { parameter, value })
            }
        }
        fn non_negative(parameter: &'static str, value: f64) -> Result<(), OptionsError> {
            finite(parameter, value)?;
            if value < 0.0 {
                Err(OptionsError::NegativeTimingParameter { parameter, value })
            } else {
                Ok(())
            }
        }

        finite("matched_delay_margin", self.matched_delay_margin)?;
        if self.matched_delay_margin < 0.0 {
            return Err(OptionsError::NegativeMatchedDelayMargin(self.matched_delay_margin).into());
        }
        finite("controller_delay_ps", self.controller_delay_ps)?;
        if self.controller_delay_ps <= 0.0 {
            return Err(OptionsError::NonPositiveControllerDelay(self.controller_delay_ps).into());
        }
        non_negative(
            "timing.wire_delay_per_fanout_ps",
            self.timing.wire_delay_per_fanout_ps,
        )?;
        non_negative("timing.setup_ps", self.timing.setup_ps)?;
        non_negative("timing.clk_to_q_ps", self.timing.clk_to_q_ps)?;
        non_negative("timing.latch_d_to_q_ps", self.timing.latch_d_to_q_ps)?;
        Ok(())
    }
}

/// See [`DesyncOptions::stage_prefix`]. Fields are `None` when the stage
/// does not read the corresponding knob; floats are stored as bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct StagePrefix {
    clustering: ClusteringStrategy,
    timing: Option<[u64; 4]>,
    matched_delay_margin: Option<u64>,
    protocol: Option<Protocol>,
    controller_delay_ps: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OptionsError;

    #[test]
    fn defaults_are_sensible_and_valid() {
        let o = DesyncOptions::default();
        assert_eq!(o.protocol, Protocol::FullyDecoupled);
        assert_eq!(o.clustering, ClusteringStrategy::ByNamePrefix);
        assert!(o.matched_delay_margin > 0.0 && o.matched_delay_margin < 0.5);
        assert!(o.controller_delay_ps > 0.0);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn builder_style_updates() {
        let o = DesyncOptions::default()
            .with_protocol(Protocol::NonOverlapping)
            .with_clustering(ClusteringStrategy::PerRegister)
            .with_margin(0.2)
            .with_controller_delay_ps(90.0);
        assert_eq!(o.protocol, Protocol::NonOverlapping);
        assert_eq!(o.clustering, ClusteringStrategy::PerRegister);
        assert_eq!(o.matched_delay_margin, 0.2);
        assert_eq!(o.controller_delay_ps, 90.0);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn stage_prefixes_track_exactly_the_consumed_knobs() {
        let base = DesyncOptions::default();
        // A protocol change is invisible before `Controlled`.
        let proto = base.with_protocol(Protocol::NonOverlapping);
        for stage in [Stage::Clustered, Stage::Latched, Stage::Timed] {
            assert_eq!(base.stage_prefix(stage), proto.stage_prefix(stage));
        }
        assert_ne!(
            base.stage_prefix(Stage::Controlled),
            proto.stage_prefix(Stage::Controlled)
        );
        // A margin change is invisible to clustering and latch conversion.
        let margin = base.with_margin(0.3);
        assert_eq!(
            base.stage_prefix(Stage::Latched),
            margin.stage_prefix(Stage::Latched)
        );
        assert_ne!(
            base.stage_prefix(Stage::Timed),
            margin.stage_prefix(Stage::Timed)
        );
        // A clustering change moves every prefix.
        let clustering = base.with_clustering(ClusteringStrategy::PerRegister);
        for stage in Stage::ALL {
            assert_ne!(base.stage_prefix(stage), clustering.stage_prefix(stage));
        }
    }

    #[test]
    fn validate_rejects_negative_margin() {
        let err = DesyncOptions::default()
            .with_margin(-0.1)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            DesyncError::InvalidOptions(OptionsError::NegativeMatchedDelayMargin(-0.1))
        );
    }

    #[test]
    fn validate_rejects_non_positive_controller_delay() {
        for bad in [0.0, -5.0] {
            let err = DesyncOptions::default()
                .with_controller_delay_ps(bad)
                .validate()
                .unwrap_err();
            assert_eq!(
                err,
                DesyncError::InvalidOptions(OptionsError::NonPositiveControllerDelay(bad))
            );
        }
    }

    #[test]
    fn validate_rejects_nan_and_negative_timing() {
        let err = DesyncOptions::default()
            .with_margin(f64::NAN)
            .validate()
            .unwrap_err();
        assert!(matches!(
            err,
            DesyncError::InvalidOptions(OptionsError::NonFiniteParameter { .. })
        ));
        let timing = desync_sta::TimingConfig {
            setup_ps: -1.0,
            ..Default::default()
        };
        let err = DesyncOptions::default()
            .with_timing(timing)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            DesyncError::InvalidOptions(OptionsError::NegativeTimingParameter {
                parameter: "timing.setup_ps",
                value: -1.0,
            })
        );
    }
}
