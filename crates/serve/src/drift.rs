//! Serve-side drift plumbing around [`remix_drift::DriftDetector`].
//!
//! Each engine shard owns its detector outright — folding a verdict is plain
//! accumulation on the engine thread, no locks, no clock reads — and
//! publishes a compact view of its state through the lock-free
//! [`DriftStatus`] atomics that `GET /drift` aggregates at read time. When
//! the server was started with [`DriftAction::Swap`], the first alert on the
//! target group nudges the off-request-path swap coordinator through a
//! channel; the serving path never blocks on it.

use remix_core::Answer;
use remix_drift::{DriftAlert, DriftDetector, DriftFeature, VerdictFeatures};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// What a tripped drift alert should do, beyond being reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum DriftAction {
    /// Report only: alerts latch into `/drift`, `/stats`, and `/models`, and
    /// an operator decides what to do.
    #[default]
    Observe,
    /// Trigger the hot-swap coordinator: the first alert on the target
    /// group promotes `target` (a `name` or `name@version` registry
    /// reference) exactly as `POST /models/<name>/swap` would, off the
    /// request path. The trigger fires at most once per group per server
    /// lifetime; the outcome (HTTP status) is reported in `/drift`.
    Swap {
        /// Registry reference to promote: `name` (latest) or
        /// `name@version`.
        target: String,
    },
}

impl DriftAction {
    /// Stable name used in the `/drift` body.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            DriftAction::Observe => "observe",
            DriftAction::Swap { .. } => "swap",
        }
    }

    /// The swap target split into `(model name, optional version)`.
    pub(crate) fn target_parts(&self) -> Option<(&str, Option<&str>)> {
        match self {
            DriftAction::Observe => None,
            DriftAction::Swap { target } => Some(match target.split_once('@') {
                Some((name, version)) => (name, Some(version)),
                None => (target.as_str(), None),
            }),
        }
    }
}

/// One shard's published detector state: written by the engine thread with
/// relaxed stores, read lock-free by `GET /drift` / `GET /stats`.
///
/// `tripped` holds the currently-latched feature id
/// ([`DriftFeature::id`]; 0 = not tripped) and clears when a hot-swap resets
/// the detector; the `last_*` fields retain the most recent trip's metadata
/// across resets so operators can see what fired even after recovery.
#[derive(Default)]
pub(crate) struct DriftStatus {
    /// Verdicts folded since the last reset.
    pub verdicts: AtomicU64,
    /// Alerts raised since startup (never reset); `/stats`' `drift_alerts`
    /// is the sum of these over every shard.
    pub alerts: AtomicU64,
    /// Currently-latched feature id, 0 when not tripped.
    pub tripped: AtomicU32,
    /// Feature id of the most recent trip (retained across resets).
    pub last_feature: AtomicU32,
    /// `f32::to_bits` of the most recent trip's statistic magnitude.
    pub last_magnitude: AtomicU32,
    /// `f32::to_bits` of the threshold that magnitude exceeded.
    pub last_threshold: AtomicU32,
    /// Sketch window of the tripping statistic.
    pub last_window: AtomicU64,
    /// Detector verdict count when the most recent trip fired.
    pub last_trip_verdicts: AtomicU64,
    /// Times the detector was reset by an adopted hot-swap.
    pub resets: AtomicU64,
}

impl DriftStatus {
    fn publish_trip(&self, alert: &DriftAlert) {
        self.alerts.fetch_add(1, Ordering::Relaxed);
        self.last_feature
            .store(alert.feature.id(), Ordering::Relaxed);
        self.last_magnitude
            .store(alert.magnitude.to_bits(), Ordering::Relaxed);
        self.last_threshold
            .store(alert.threshold.to_bits(), Ordering::Relaxed);
        self.last_window.store(alert.window, Ordering::Relaxed);
        self.last_trip_verdicts
            .store(alert.verdicts_at_trip, Ordering::Relaxed);
        // Written last: a reader that sees `tripped` nonzero sees the
        // matching metadata (Release pairs with the Acquire in readers).
        self.tripped.store(alert.feature.id(), Ordering::Release);
    }

    /// The latched feature, if this shard is currently tripped.
    pub(crate) fn tripped_feature(&self) -> Option<DriftFeature> {
        DriftFeature::from_id(self.tripped.load(Ordering::Acquire))
    }
}

/// The auto-swap nudge an engine sends on its first alert.
pub(crate) struct DriftTrigger {
    /// Index of this engine's group in `Shared::groups`.
    pub group: usize,
    /// Channel into the drift coordinator thread.
    pub sender: mpsc::Sender<usize>,
}

/// The engine-thread side: the detector itself plus the shared handles the
/// fold publishes through.
pub(crate) struct EngineDrift {
    pub detector: DriftDetector,
    pub status: Arc<DriftStatus>,
    pub trigger: Option<DriftTrigger>,
}

impl EngineDrift {
    /// Folds one verdict's features and publishes the updated state. Called
    /// after the verdict has been formed and delivered — the detector is
    /// strictly passive and cannot influence the reply bytes.
    pub(crate) fn fold(&mut self, features: &VerdictFeatures) {
        if let Some(alert) = self.detector.observe(features) {
            self.status.publish_trip(&alert);
            if let Some(trigger) = &self.trigger {
                // The coordinator may already be gone during shutdown; a
                // missed nudge then is fine.
                let _ = trigger.sender.send(trigger.group);
            }
        }
        self.status
            .verdicts
            .store(self.detector.verdicts(), Ordering::Relaxed);
    }

    /// Re-learns the reference against a freshly-swapped-in model:
    /// called by the engine when it adopts a pending hot-swap.
    pub(crate) fn reset(&mut self) {
        self.detector.reset();
        self.status.tripped.store(0, Ordering::Release);
        self.status.verdicts.store(0, Ordering::Relaxed);
        self.status.resets.fetch_add(1, Ordering::Relaxed);
    }
}

/// The features the drift detector folds for one answered query.
pub(crate) fn verdict_features(answer: &Answer) -> VerdictFeatures {
    let verdict = &answer.verdict;
    if verdict.unanimous {
        return VerdictFeatures::unanimous();
    }
    VerdictFeatures {
        disagreement: true,
        margin: answer.signals.map(|s| s.margin),
        entropy: answer.signals.map(|s| s.entropy),
        // Only an XAI verdict carries per-model weights.
        weight_spread: (!verdict.details.is_empty()).then(|| verdict.weight_spread()),
        // The ladder position: Skip = 0 … Full = 3.
        xai_rung: verdict.xai_level as u8,
        degraded: answer.degraded,
        downgraded: answer.downgraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_names_and_targets() {
        assert_eq!(DriftAction::Observe.name(), "observe");
        assert_eq!(DriftAction::Observe.target_parts(), None);
        let pinned = DriftAction::Swap {
            target: "tabular@2.0.0".to_string(),
        };
        assert_eq!(pinned.name(), "swap");
        assert_eq!(pinned.target_parts(), Some(("tabular", Some("2.0.0"))));
        let latest = DriftAction::Swap {
            target: "tabular".to_string(),
        };
        assert_eq!(latest.target_parts(), Some(("tabular", None)));
    }

    #[test]
    fn status_publishes_and_retains_last_trip() {
        let status = DriftStatus::default();
        assert_eq!(status.tripped_feature(), None);
        let alert = DriftAlert {
            feature: DriftFeature::Entropy,
            magnitude: 42.5,
            threshold: 40.0,
            window: 32,
            verdicts_at_trip: 910,
        };
        status.publish_trip(&alert);
        assert_eq!(status.tripped_feature(), Some(DriftFeature::Entropy));
        assert_eq!(status.alerts.load(Ordering::Relaxed), 1);
        assert_eq!(
            f32::from_bits(status.last_magnitude.load(Ordering::Relaxed)),
            42.5
        );
        // A reset clears the latch but keeps the last-trip metadata.
        status.tripped.store(0, Ordering::Release);
        assert_eq!(status.tripped_feature(), None);
        assert_eq!(
            DriftFeature::from_id(status.last_feature.load(Ordering::Relaxed)),
            Some(DriftFeature::Entropy)
        );
        assert_eq!(status.last_trip_verdicts.load(Ordering::Relaxed), 910);
    }

    #[test]
    fn ladder_rungs_are_monotone() {
        use remix_xai::XaiLevel::{Full, Light, Skip, Standard};
        for (rung, level) in [(0, Skip), (1, Light), (2, Standard), (3, Full)] {
            let verdict = remix_core::RemixVerdict {
                prediction: remix_ensemble::Prediction::Decided(0),
                unanimous: false,
                details: Vec::new(),
                xai_level: level,
                timings: Default::default(),
            };
            let answer = Answer {
                verdict,
                signals: None,
                degraded: false,
                downgraded: false,
            };
            assert_eq!(verdict_features(&answer).xai_rung, rung, "{level:?}");
        }
    }
}
