use crate::triage::{plan_downgrades, TriageScheduler, TriageSignals};
use crate::verdict::{ModelDetail, RemixVerdict, StageTimings};
use rand::{rngs::StdRng, SeedableRng};
use remix_diversity::{sparseness_with_threshold, DiversityMetric};
use remix_ensemble::{majority_with_weights, ModelOutput, Prediction, TrainedEnsemble};
use remix_tensor::{fnv1a64, splitmix64, Tensor};
use remix_trace::Counter;
use remix_xai::{Explainer, ExplainerConfig, XaiLevel, XaiTechnique};
use std::time::{Duration, Instant};

/// One input to [`Remix::predict_batch`].
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    /// The `[C, H, W]` input.
    pub image: &'a Tensor,
    /// When the prediction sweep finishes after this instant, a
    /// disagreement skips XAI and is answered by the unweighted majority
    /// vote (see [`Answer::degraded`]). `None` never degrades.
    pub deadline: Option<Instant>,
}

impl<'a> Query<'a> {
    /// A query without a deadline.
    pub fn new(image: &'a Tensor) -> Self {
        Query {
            image,
            deadline: None,
        }
    }
}

/// What [`Remix::predict_batch`] decided for one [`Query`].
#[derive(Debug, Clone)]
pub struct Answer {
    /// The verdict itself.
    pub verdict: RemixVerdict,
    /// The prediction-stage triage signals; `None` on the unanimous fast
    /// path and for degraded answers, which never reach triage.
    pub signals: Option<TriageSignals>,
    /// The deadline had passed after the prediction sweep, so the verdict
    /// is the unweighted majority vote and no XAI ran.
    pub degraded: bool,
    /// The sweep budget lowered this query below its triage level.
    pub downgraded: bool,
}

impl Answer {
    /// An answer decided before triage: the fast path or the deadline
    /// fallback.
    fn untriaged(verdict: RemixVerdict, degraded: bool) -> Self {
        Answer {
            verdict,
            signals: None,
            degraded,
            downgraded: false,
        }
    }
}

/// The XAI work one [`Remix::predict_batch`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct XaiSpend {
    /// Wall time from the first XAI group's sweep to the last verdict it
    /// resolved (zero when no query ran XAI).
    pub elapsed: Duration,
    /// The sweep units those groups cost, summed over models and queries
    /// (see [`remix_xai::XaiBudget::sweep_units`]).
    pub sweep_units: u64,
}

/// The ReMIX meta-learner (paper §IV): XAI technique + diversity metric +
/// weight-generation parameters.
///
/// Built via [`Remix::builder`]. The paper's preferred configuration —
/// Smooth Gradients, Cosine Distance, α = 20 — is the default.
#[derive(Debug, Clone)]
pub struct Remix {
    explainer: Explainer,
    scheduler: Option<TriageScheduler>,
    metric: DiversityMetric,
    alpha: f32,
    sparseness_threshold: f32,
    majority_threshold: f32,
    keep_feature_matrices: bool,
    fast_path: bool,
    seed: u64,
    threads: usize,
}

impl Remix {
    /// Starts building a ReMIX instance.
    pub fn builder() -> RemixBuilder {
        RemixBuilder::default()
    }

    /// The configured XAI technique.
    pub fn technique(&self) -> XaiTechnique {
        self.explainer.technique
    }

    /// The configured diversity metric.
    pub fn metric(&self) -> DiversityMetric {
        self.metric
    }

    /// The configured explainer (technique + parameters at the full
    /// budget); [`Remix::predict_batch`] scales it to each query's level.
    pub fn explainer(&self) -> &Explainer {
        &self.explainer
    }

    /// Whether the unanimous fast path is enabled (see
    /// [`RemixBuilder::fast_path`]).
    pub fn fast_path_enabled(&self) -> bool {
        self.fast_path
    }

    /// The attached triage scheduler, if any (see
    /// [`RemixBuilder::scheduler`]).
    pub fn scheduler(&self) -> Option<&TriageScheduler> {
        self.scheduler.as_ref()
    }

    /// The deterministic RNG stream for one model's XAI pass.
    ///
    /// Keyed by the model's *name* (not its index), so the stream a model
    /// receives is invariant under ensemble permutation, and independent of
    /// every other model's stream — the prerequisite for running XAI in
    /// parallel, for verdicts that don't depend on model order, and for
    /// [`Remix::predict_batch`] to give every query in a batch the stream a
    /// batch of one would draw.
    pub fn xai_rng(&self, model_name: &str) -> StdRng {
        StdRng::seed_from_u64(splitmix64(self.seed ^ fnv1a64(model_name.as_bytes())))
    }

    /// Freezes an ensemble for steady-state serving: every model's weight
    /// matrices are prepacked once ([`TrainedEnsemble::freeze_for_inference`])
    /// and reused across every subsequent [`Remix::predict`] — both the
    /// prediction forwards and the XAI perturbation sweeps, which account for
    /// almost all GEMM work on a disagreement. Verdicts are bit-identical to
    /// the unfrozen ensemble; retraining drops the packs automatically, so a
    /// long-lived service re-freezes after any weight update.
    pub fn prepare_ensemble(&self, ensemble: &mut TrainedEnsemble) {
        ensemble.freeze_for_inference();
    }

    /// Runs the five-component ReMIX pipeline on one input: a batch of one
    /// through [`Remix::predict_batch`], with no deadline and no sweep
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is empty or the image does not match the
    /// models' input spec.
    pub fn predict(&self, ensemble: &mut TrainedEnsemble, image: &Tensor) -> RemixVerdict {
        let started = Instant::now();
        let mut verdict = None;
        self.predict_batch(ensemble, &[Query::new(image)], None, |_, answer| {
            // Per-verdict latency by kind. Only a batch of one measures it:
            // inside a larger batch a verdict also waits for its neighbours.
            let kind = match (answer.verdict.unanimous, answer.verdict.details.is_empty()) {
                (true, _) => "verdict_unanimous",
                (false, true) => "verdict_skip",
                (false, false) => "verdict_weighted",
            };
            remix_trace::record_duration(kind, started.elapsed());
            verdict = Some(answer.verdict);
        });
        verdict.expect("predict_batch answers every query")
    }

    /// Runs the five-component ReMIX pipeline on a batch of queries — the
    /// one implementation behind [`Remix::predict`] and the serving layer —
    /// and hands each query's [`Answer`] to `emit(index, answer)`, in this
    /// order:
    ///
    /// 1. After one `predict_proba_batch` sweep per model: unanimous queries
    ///    (fast path), then disagreements whose deadline has passed (the
    ///    unweighted majority vote, flagged `degraded`), in query order.
    /// 2. The scheduler (if any) assigns every other disagreement a level,
    ///    and [`plan_downgrades`] lowers the most confident ones until the
    ///    batch fits `sweep_budget`. Without a scheduler every disagreement
    ///    runs at [`XaiLevel::Full`] and the budget is ignored. Queries at
    ///    [`XaiLevel::Skip`] get the unweighted majority vote.
    /// 3. One group per remaining level (Light, Standard, Full), in query
    ///    order: per model, one [`Explainer::explain_many`] call covers the
    ///    group, each query drawing its own copy of the model's
    ///    [`Remix::xai_rng`] stream, and [`Remix::resolve_disagreement`]
    ///    turns each query's matrices into its verdict.
    ///
    /// The sweeps fan the models out over the `threads` setting. Every
    /// verdict is bit-identical to a batch of one, for any thread count,
    /// batch size or batch composition; its [`StageTimings`] carries the
    /// duration of each shared stage it went through. Returns the time and
    /// sweep units the XAI groups took, from which a caller can price the
    /// next `sweep_budget`.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is empty or an image does not match the
    /// models' input spec.
    pub fn predict_batch(
        &self,
        ensemble: &mut TrainedEnsemble,
        queries: &[Query<'_>],
        sweep_budget: Option<u64>,
        mut emit: impl FnMut(usize, Answer),
    ) -> XaiSpend {
        let mut spend = XaiSpend::default();
        if queries.is_empty() {
            return spend;
        }
        let threads = remix_parallel::resolve_threads(self.threads);
        remix_trace::add(Counter::Predictions, queries.len() as u64);
        let _predict_span = remix_trace::span("predict");
        // Each stage runs under a `StageSpan`, which measures wall time
        // whether or not tracing is enabled; `StageTimings` is the view of
        // exactly those measurements (`finish()` returns the same `Duration`
        // the span records), so the legacy struct and the span tree can never
        // disagree.
        let stage = remix_trace::stage_span("prediction");
        let images: Vec<Tensor> = queries.iter().map(|q| q.image.clone()).collect();
        let per_model =
            remix_parallel::map_mut_indexed(&mut ensemble.models, threads, |_, model| {
                model
                    .predict_proba_batch(&images)
                    .expect("image matches the models' input spec")
            });
        let outputs: Vec<Vec<ModelOutput>> = transpose(per_model, queries.len())
            .into_iter()
            .map(|probs| probs.into_iter().map(ModelOutput::from_probs).collect())
            .collect();
        let timings = StageTimings {
            prediction: stage.finish(),
            threads,
            ..StageTimings::default()
        };

        let now = Instant::now();
        // (query index, signals) of every disagreement that reaches triage.
        let mut triaged: Vec<(usize, TriageSignals)> = Vec::new();
        let mut assigned: Vec<XaiLevel> = Vec::new();
        for (k, (query, outs)) in queries.iter().zip(&outputs).enumerate() {
            // Fast path: when every model predicts the same label the
            // ensemble has no influence, so ReMIX outputs it directly (paper
            // §IV).
            let first = outs[0].pred;
            if self.fast_path && outs.iter().all(|o| o.pred == first) {
                remix_trace::incr(Counter::FastPathHits);
                let verdict = RemixVerdict {
                    prediction: Prediction::Decided(first),
                    unanimous: true,
                    details: Vec::new(),
                    xai_level: XaiLevel::Skip,
                    timings,
                };
                emit(k, Answer::untriaged(verdict, false));
                continue;
            }
            remix_trace::incr(Counter::Disagreements);
            if query.deadline.is_some_and(|deadline| now > deadline) {
                emit(k, Answer::untriaged(majority_verdict(outs, timings), true));
                continue;
            }
            // Triage: how much XAI does this disagreement deserve? Without a
            // scheduler every disagreement gets the full budget — the
            // historical path — and so does a scheduler pinned to `Full`
            // (`at_level(Full)` is the identity), which the bit-identity
            // suite enforces.
            let (level, signals) = match &self.scheduler {
                Some(scheduler) => scheduler.assess(outs),
                None => (XaiLevel::Full, TriageScheduler::signals(outs)),
            };
            triaged.push((k, signals));
            assigned.push(level);
        }

        // Pressure valve: levels only move *down*, so a downgraded verdict is
        // exactly what the scheduler would have produced at the lower level.
        let nmodels = ensemble.models.len() as u64;
        let mut levels = assigned.clone();
        if let (Some(_), Some(budget)) = (&self.scheduler, sweep_budget) {
            let errors: Vec<f32> = triaged.iter().map(|(_, s)| s.predicted_error).collect();
            plan_downgrades(
                &mut levels,
                &errors,
                |level| self.explainer.sweep_units_at(level) * nmodels,
                budget,
            );
        }
        let answer = |i: usize, verdict: RemixVerdict| Answer {
            verdict,
            signals: Some(triaged[i].1),
            degraded: false,
            downgraded: levels[i] != assigned[i],
        };

        // Skip: the triage said XAI won't change the outcome, so the
        // deterministic unweighted majority vote decides.
        for (i, &(k, _)) in triaged.iter().enumerate() {
            if levels[i] == XaiLevel::Skip {
                emit(k, answer(i, majority_verdict(&outputs[k], timings)));
            }
        }

        let xai_started = Instant::now();
        for level in [XaiLevel::Light, XaiLevel::Standard, XaiLevel::Full] {
            let group: Vec<usize> = (0..triaged.len()).filter(|&i| levels[i] == level).collect();
            if group.is_empty() {
                continue;
            }
            // (1) Feature Space Extraction, one independent RNG stream per
            // model and query.
            let explainer = self.explainer.at_level(level);
            let stage = remix_trace::stage_span("xai");
            let level_span = remix_trace::span(match level {
                XaiLevel::Light => "xai_light",
                XaiLevel::Standard => "xai_standard",
                _ => "xai_full",
            });
            let per_model =
                remix_parallel::map_mut_indexed(&mut ensemble.models, threads, |m, model| {
                    let items: Vec<(&Tensor, usize)> = group
                        .iter()
                        .map(|&i| {
                            let k = triaged[i].0;
                            (queries[k].image, outputs[k][m].pred)
                        })
                        .collect();
                    let mut rngs: Vec<StdRng> =
                        group.iter().map(|_| self.xai_rng(&model.name)).collect();
                    explainer.explain_many(model, &items, &mut rngs)
                });
            level_span.finish();
            let xai = stage.finish();
            spend.sweep_units +=
                group.len() as u64 * self.explainer.sweep_units_at(level) * nmodels;
            // (2)–(5) per query, through the shared resolution path.
            for (&i, matrices) in group.iter().zip(transpose(per_model, group.len())) {
                let k = triaged[i].0;
                let mut verdict = self.resolve_disagreement(ensemble, &outputs[k], &matrices);
                verdict.xai_level = level;
                verdict.timings.prediction = timings.prediction;
                verdict.timings.xai = xai;
                emit(k, answer(i, verdict));
            }
        }
        if spend.sweep_units > 0 {
            spend.elapsed = xai_started.elapsed();
        }
        spend
    }

    /// Runs pipeline stages (2)–(5) — diversity, sparseness, weighting,
    /// weighted vote — on already-computed model outputs and feature
    /// matrices, in the exact float-accumulation order of
    /// [`Remix::predict`].
    ///
    /// This is the verdict-resolution half of [`Remix::predict_batch`],
    /// public so a caller that computes the outputs and matrices itself can
    /// check them against the pipeline bit for bit. The returned timings
    /// cover only the `diversity` and `weighting` stages; `prediction` and
    /// `xai` are the caller's to fill.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` and `matrices` don't both have one entry per
    /// ensemble model, in ensemble order.
    pub fn resolve_disagreement(
        &self,
        ensemble: &TrainedEnsemble,
        outputs: &[ModelOutput],
        matrices: &[Tensor],
    ) -> RemixVerdict {
        assert_eq!(outputs.len(), ensemble.models.len(), "one output per model");
        assert_eq!(
            matrices.len(),
            ensemble.models.len(),
            "one matrix per model"
        );
        let threads = remix_parallel::resolve_threads(self.threads);
        let mut timings = StageTimings {
            threads,
            ..StageTimings::default()
        };
        let stage = remix_trace::stage_span("diversity");
        // (2) Feature-space Diversity: mean pairwise diversity per model.
        // Distances are computed in parallel but summed serially in the same
        // (i, j) order as the sequential double loop, keeping the float
        // accumulation — and thus the weights — bit-identical.
        let n = matrices.len();
        let mut diversity = vec![0.0f32; n];
        if n > 1 {
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .collect();
            let distances = remix_parallel::map_indexed(&pairs, threads, |_, &(i, j)| {
                self.metric.diversity(&matrices[i], &matrices[j])
            });
            for (&(i, j), &d) in pairs.iter().zip(&distances) {
                diversity[i] += d;
                diversity[j] += d;
            }
            for d in &mut diversity {
                *d /= (n - 1) as f32;
            }
        }
        timings.diversity = stage.finish();
        let stage = remix_trace::stage_span("weighting");
        // (3) Feature Sparseness, (4) Weight Generation (Eq. 5)
        let mut details = Vec::with_capacity(n);
        for ((model, out), (matrix, &delta)) in ensemble
            .models
            .iter()
            .zip(outputs)
            .zip(matrices.iter().zip(&diversity))
        {
            let sigma = sparseness_with_threshold(matrix, self.sparseness_threshold);
            let weight = out.confidence * delta * (self.alpha * sigma).tanh();
            details.push(ModelDetail {
                name: model.name.clone(),
                pred: out.pred,
                confidence: out.confidence,
                diversity: delta,
                sparseness: sigma,
                weight,
                feature_matrix: self.keep_feature_matrices.then(|| matrix.clone()),
            });
        }
        // (5) Weighted Majority Voting with the 50% threshold
        let total: f32 = details.iter().map(|d| d.weight).sum();
        let mut tally: std::collections::HashMap<usize, f32> = std::collections::HashMap::new();
        for d in &details {
            *tally.entry(d.pred).or_insert(0.0) += d.weight;
        }
        let prediction = tally
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map_or(Prediction::NoMajority, |(class, weight)| {
                if total > 0.0 && weight > self.majority_threshold * total {
                    Prediction::Decided(class)
                } else {
                    Prediction::NoMajority
                }
            });
        timings.weighting = stage.finish();
        RemixVerdict {
            prediction,
            unanimous: false,
            details,
            // The resolution math itself is level-agnostic; callers that ran
            // the XAI stage at a scaled budget overwrite this tag.
            xai_level: XaiLevel::Full,
            timings,
        }
    }
}

/// The deterministic unweighted majority vote: the verdict of a
/// disagreement that runs no XAI.
fn majority_verdict(outputs: &[ModelOutput], timings: StageTimings) -> RemixVerdict {
    RemixVerdict {
        prediction: majority_with_weights(
            outputs.iter().map(|o| (o.pred, 1.0)),
            outputs.len() as f32,
        ),
        unanimous: false,
        details: Vec::new(),
        xai_level: XaiLevel::Skip,
        timings,
    }
}

/// Turns per-model columns (one entry per query) into per-query rows in
/// ensemble order.
fn transpose<T>(columns: Vec<Vec<T>>, rows: usize) -> Vec<Vec<T>> {
    let mut columns: Vec<_> = columns.into_iter().map(Vec::into_iter).collect();
    (0..rows)
        .map(|_| {
            columns
                .iter_mut()
                .map(|column| column.next().expect("one entry per query"))
                .collect()
        })
        .collect()
}

impl Default for Remix {
    fn default() -> Self {
        Remix::builder().build()
    }
}

/// Builder for [`Remix`].
///
/// # Example
///
/// ```
/// use remix_core::Remix;
/// use remix_diversity::DiversityMetric;
/// use remix_xai::XaiTechnique;
///
/// let remix = Remix::builder()
///     .technique(XaiTechnique::Shap)
///     .metric(DiversityMetric::RSquared)
///     .alpha(10.0)
///     .build();
/// assert_eq!(remix.technique(), XaiTechnique::Shap);
/// ```
#[derive(Debug, Clone)]
pub struct RemixBuilder {
    technique: XaiTechnique,
    scheduler: Option<TriageScheduler>,
    explainer_config: ExplainerConfig,
    metric: DiversityMetric,
    alpha: f32,
    sparseness_threshold: f32,
    majority_threshold: f32,
    keep_feature_matrices: bool,
    fast_path: bool,
    seed: u64,
    threads: usize,
}

impl Default for RemixBuilder {
    fn default() -> Self {
        Self {
            technique: XaiTechnique::SmoothGrad,
            scheduler: None,
            explainer_config: ExplainerConfig::default(),
            metric: DiversityMetric::CosineDistance,
            alpha: 20.0,
            // The paper counts entries below 0.01 as zero. Our feature
            // matrices are min-max normalized with a higher noise floor than
            // the authors' full-scale saliency maps, so the equivalent
            // "near-zero" cut sits at 0.2 of the max (see DESIGN.md §3);
            // with it, tanh(20σ) saturates for focused maps and only
            // penalizes extremely dense ones, as intended.
            sparseness_threshold: 0.2,
            majority_threshold: 0.5,
            keep_feature_matrices: false,
            fast_path: true,
            seed: 0,
            threads: 0,
        }
    }
}

impl RemixBuilder {
    /// Sets the XAI technique (default: Smooth Gradients, per RQ3).
    pub fn technique(mut self, technique: XaiTechnique) -> Self {
        self.technique = technique;
        self
    }

    /// Sets the XAI technique parameters.
    pub fn explainer_config(mut self, config: ExplainerConfig) -> Self {
        self.explainer_config = config;
        self
    }

    /// Attaches a [`TriageScheduler`] that maps each disagreement to an
    /// [`XaiLevel`] from its prediction-stage signals (default: none — every
    /// disagreement runs the full budget, the historical behavior, which
    /// `TriageScheduler::pinned(XaiLevel::Full)` reproduces bit-identically).
    pub fn scheduler(mut self, scheduler: TriageScheduler) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets how many perturbed inputs each XAI technique pushes through the
    /// model per forward pass (default: 32; clamped to at least 1).
    ///
    /// Batching is a pure execution-strategy knob: every technique
    /// materializes its perturbations (and all RNG draws) up front, so the
    /// feature matrices — and therefore the verdict — are bit-identical for
    /// every batch size.
    pub fn xai_batch_size(mut self, batch_size: usize) -> Self {
        self.explainer_config.budget.batch_size = batch_size;
        self
    }

    /// Sets the diversity metric (default: Cosine Distance, per RQ4).
    pub fn metric(mut self, metric: DiversityMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the sparseness activation steepness α (default 20, so only
    /// extremely unfocused explanations are penalized).
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0`.
    pub fn alpha(mut self, alpha: f32) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// Sets the near-zero threshold for sparseness (default 0.2 of the
    /// normalized matrix maximum; the paper's 0.01 assumes unnormalized
    /// saliency scales).
    pub fn sparseness_threshold(mut self, threshold: f32) -> Self {
        self.sparseness_threshold = threshold;
        self
    }

    /// Sets the majority threshold (default 0.5: a class must carry more
    /// than half the total weight).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= threshold < 1.0`.
    pub fn majority_threshold(mut self, threshold: f32) -> Self {
        assert!((0.0..1.0).contains(&threshold));
        self.majority_threshold = threshold;
        self
    }

    /// Keeps each model's feature matrix in the verdict (for visualization;
    /// costs memory).
    pub fn keep_feature_matrices(mut self, keep: bool) -> Self {
        self.keep_feature_matrices = keep;
        self
    }

    /// Enables/disables the unanimous fast path (default on; the ablation
    /// benchmark turns it off).
    pub fn fast_path(mut self, enabled: bool) -> Self {
        self.fast_path = enabled;
        self
    }

    /// Seeds the stochastic XAI techniques (default 0; ReMIX predictions are
    /// deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the worker threads for the prediction and XAI stages
    /// (default `0` = all available cores, honoring `REMIX_THREADS`; `1`
    /// forces sequential execution). Verdicts are bit-identical for any
    /// value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Finalizes the ReMIX instance.
    pub fn build(self) -> Remix {
        Remix {
            explainer: Explainer::with_config(self.technique, self.explainer_config),
            scheduler: self.scheduler,
            metric: self.metric,
            alpha: self.alpha,
            sparseness_threshold: self.sparseness_threshold,
            majority_threshold: self.majority_threshold,
            keep_feature_matrices: self.keep_feature_matrices,
            fast_path: self.fast_path,
            seed: self.seed,
            threads: self.threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_data::SyntheticSpec;
    use remix_ensemble::train_zoo;
    use remix_nn::Arch;

    fn small_ensemble() -> (TrainedEnsemble, remix_data::Dataset) {
        let (train, test) = SyntheticSpec::mnist_like()
            .train_size(150)
            .test_size(30)
            .generate();
        let models = train_zoo(
            &[Arch::ConvNet, Arch::DeconvNet, Arch::MobileNet],
            &train,
            6,
            42,
        );
        (TrainedEnsemble::new(models), test)
    }

    #[test]
    fn fast_path_on_unanimity() {
        let (mut ens, test) = small_ensemble();
        // find an input all three agree on
        for (img, _) in test.iter() {
            let outs = ens.outputs(img);
            if outs.iter().all(|o| o.pred == outs[0].pred) {
                let verdict = Remix::builder().build().predict(&mut ens, img);
                assert!(verdict.unanimous);
                assert_eq!(verdict.prediction, Prediction::Decided(outs[0].pred));
                assert!(verdict.details.is_empty());
                assert_eq!(verdict.timings.xai.as_nanos(), 0);
                return;
            }
        }
        panic!("no unanimous test input found");
    }

    #[test]
    fn disagreement_produces_full_details() {
        let (mut ens, test) = small_ensemble();
        let remix = Remix::builder().keep_feature_matrices(true).build();
        for (img, _) in test.iter() {
            let outs = ens.outputs(img);
            if !outs.iter().all(|o| o.pred == outs[0].pred) {
                let verdict = remix.predict(&mut ens, img);
                assert!(!verdict.unanimous);
                assert_eq!(verdict.details.len(), 3);
                for d in &verdict.details {
                    assert!(d.weight >= 0.0, "weight {}", d.weight);
                    assert!((0.0..=1.0).contains(&d.sparseness));
                    assert!(d.diversity >= 0.0);
                    assert!(d.feature_matrix.is_some());
                }
                assert!(verdict.timings.xai.as_nanos() > 0);
                return;
            }
        }
        panic!("no disagreeing test input found");
    }

    #[test]
    fn weight_formula_matches_eq5() {
        let (mut ens, test) = small_ensemble();
        let alpha = 20.0f32;
        let remix = Remix::builder().alpha(alpha).build();
        for (img, _) in test.iter() {
            let outs = ens.outputs(img);
            if !outs.iter().all(|o| o.pred == outs[0].pred) {
                let verdict = remix.predict(&mut ens, img);
                for d in &verdict.details {
                    let expected = d.confidence * d.diversity * (alpha * d.sparseness).tanh();
                    assert!((d.weight - expected).abs() < 1e-5);
                }
                return;
            }
        }
        panic!("no disagreeing test input found");
    }

    #[test]
    fn predictions_are_deterministic_per_seed() {
        let (mut ens, test) = small_ensemble();
        let remix = Remix::builder().seed(5).build();
        let img = &test.images[0];
        let a = remix.predict(&mut ens, img).prediction;
        let b = remix.predict(&mut ens, img).prediction;
        assert_eq!(a, b);
    }

    #[test]
    fn disabling_fast_path_always_runs_xai() {
        let (mut ens, test) = small_ensemble();
        let remix = Remix::builder().fast_path(false).build();
        let verdict = remix.predict(&mut ens, &test.images[0]);
        assert!(!verdict.unanimous);
        assert_eq!(verdict.details.len(), 3);
    }

    #[test]
    fn builder_validates_parameters() {
        let r = Remix::builder()
            .technique(XaiTechnique::IntegratedGradients)
            .metric(DiversityMetric::Wasserstein)
            .alpha(5.0)
            .majority_threshold(0.4)
            .build();
        assert_eq!(r.technique(), XaiTechnique::IntegratedGradients);
        assert_eq!(r.metric(), DiversityMetric::Wasserstein);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_nonpositive_alpha() {
        Remix::builder().alpha(0.0);
    }

    /// Bitwise-compares the per-model evidence of two verdicts, matching
    /// details by model name so the ensembles may be permutations of each
    /// other.
    fn assert_details_bitwise_equal(a: &RemixVerdict, b: &RemixVerdict) {
        assert_eq!(a.details.len(), b.details.len());
        for d in &a.details {
            let other = b
                .details
                .iter()
                .find(|o| o.name == d.name)
                .unwrap_or_else(|| panic!("model {} missing from verdict", d.name));
            assert_eq!(d.pred, other.pred, "{}", d.name);
            assert_eq!(
                d.confidence.to_bits(),
                other.confidence.to_bits(),
                "{}",
                d.name
            );
            assert_eq!(
                d.diversity.to_bits(),
                other.diversity.to_bits(),
                "{}",
                d.name
            );
            assert_eq!(
                d.sparseness.to_bits(),
                other.sparseness.to_bits(),
                "{}",
                d.name
            );
            assert_eq!(d.weight.to_bits(), other.weight.to_bits(), "{}", d.name);
        }
    }

    #[test]
    fn verdicts_are_invariant_under_model_permutation() {
        // Regression test for the order-dependent XAI RNG: one shared stream
        // threaded through every model's explain() made each model's noise
        // depend on its position. Streams are now keyed by model name.
        let (mut ens, test) = small_ensemble();
        let remix = Remix::builder().fast_path(false).seed(7).build();
        let img = &test.images[0];
        let base = remix.predict(&mut ens, img);
        ens.models.rotate_left(1);
        let rotated = remix.predict(&mut ens, img);
        assert_eq!(base.prediction, rotated.prediction);
        assert_details_bitwise_equal(&base, &rotated);
    }

    #[test]
    fn full_pinned_scheduler_is_bit_identical_to_unscheduled_predict() {
        // The tentpole invariant: a scheduler pinned to `Full` must be
        // byte-equal to the historical `Remix::predict` on every input —
        // unanimous, decided, and no-majority alike.
        let (mut ens, test) = small_ensemble();
        let unscheduled = Remix::builder().seed(9).build();
        let pinned = Remix::builder()
            .seed(9)
            .scheduler(TriageScheduler::pinned(XaiLevel::Full))
            .build();
        let mut saw_disagreement = false;
        for (img, _) in test.iter().take(10) {
            let base = unscheduled.predict(&mut ens, img);
            let scheduled = pinned.predict(&mut ens, img);
            assert_eq!(base.prediction, scheduled.prediction);
            assert_eq!(base.unanimous, scheduled.unanimous);
            assert_eq!(base.xai_level, scheduled.xai_level);
            assert_details_bitwise_equal(&base, &scheduled);
            if !base.unanimous {
                saw_disagreement = true;
                assert_eq!(base.xai_level, XaiLevel::Full);
            }
        }
        assert!(saw_disagreement, "sweep never exercised the XAI path");
    }

    #[test]
    fn skip_scheduler_returns_the_plain_majority_vote() {
        let (mut ens, test) = small_ensemble();
        let skip = Remix::builder()
            .scheduler(TriageScheduler::pinned(XaiLevel::Skip))
            .build();
        for (img, _) in test.iter().take(10) {
            let outs = ens.outputs(img);
            let verdict = skip.predict(&mut ens, img);
            if verdict.unanimous {
                assert_eq!(verdict.xai_level, XaiLevel::Skip);
                continue;
            }
            let expected = remix_ensemble::majority_with_weights(
                outs.iter().map(|o| (o.pred, 1.0)),
                outs.len() as f32,
            );
            assert_eq!(verdict.prediction, expected);
            assert_eq!(verdict.xai_level, XaiLevel::Skip);
            assert!(verdict.details.is_empty(), "Skip must not run XAI");
            assert_eq!(verdict.timings.xai.as_nanos(), 0);
        }
    }

    #[test]
    fn adaptive_triage_is_deterministic_across_thread_counts() {
        // The triage signals accumulate in ensemble order regardless of how
        // the prediction stage was parallelized, so the assigned level — and
        // the verdict below it — must match for every thread count.
        let (mut ens, test) = small_ensemble();
        let build = |threads: usize| {
            Remix::builder()
                .seed(4)
                .threads(threads)
                .scheduler(TriageScheduler::adaptive())
                .build()
        };
        for (img, _) in test.iter().take(8) {
            let serial = build(1).predict(&mut ens, img);
            for threads in [2, 4] {
                let parallel = build(threads).predict(&mut ens, img);
                assert_eq!(serial.xai_level, parallel.xai_level);
                assert_eq!(serial.prediction, parallel.prediction);
                assert_details_bitwise_equal(&serial, &parallel);
            }
        }
    }

    #[test]
    fn scheduled_levels_scale_the_xai_stage_not_the_verdict_shape() {
        // A pinned Light scheduler still produces full per-model evidence —
        // just from a cheaper sweep.
        let (mut ens, test) = small_ensemble();
        let light = Remix::builder()
            .scheduler(TriageScheduler::pinned(XaiLevel::Light))
            .build();
        for (img, _) in test.iter().take(10) {
            let verdict = light.predict(&mut ens, img);
            if verdict.unanimous {
                continue;
            }
            assert_eq!(verdict.xai_level, XaiLevel::Light);
            assert_eq!(verdict.details.len(), 3);
            return;
        }
        panic!("no disagreeing test input found");
    }

    /// Two unanimous inputs among four disagreements, interleaved so the
    /// emit order differs from the query order.
    fn mixed_inputs(ens: &mut TrainedEnsemble, test: &remix_data::Dataset) -> Vec<Tensor> {
        let (unanimous, split): (Vec<&Tensor>, Vec<&Tensor>) =
            test.images.iter().partition(|img| {
                let outs = ens.outputs(img);
                outs.iter().all(|o| o.pred == outs[0].pred)
            });
        assert!(
            unanimous.len() >= 2 && split.len() >= 4,
            "retune the test ensemble"
        );
        [
            split[0],
            unanimous[0],
            split[1],
            split[2],
            unanimous[1],
            split[3],
        ]
        .map(Tensor::clone)
        .to_vec()
    }

    fn plain_vote(outs: &[ModelOutput]) -> Prediction {
        majority_with_weights(outs.iter().map(|o| (o.pred, 1.0)), outs.len() as f32)
    }

    #[test]
    fn predict_batch_answers_like_single_predicts_in_the_documented_order() {
        let (mut ens, test) = small_ensemble();
        let images = mixed_inputs(&mut ens, &test);
        let expired = 2; // a disagreement
        for pinned in [None, Some(XaiLevel::Light), Some(XaiLevel::Skip)] {
            let mut builder = Remix::builder().seed(8);
            if let Some(level) = pinned {
                builder = builder.scheduler(TriageScheduler::pinned(level));
            }
            let remix = builder.build();
            let past = Instant::now();
            let queries: Vec<Query> = (0..images.len())
                .map(|k| Query {
                    image: &images[k],
                    deadline: (k == expired).then_some(past),
                })
                .collect();
            let mut answers = Vec::new();
            let spend = remix.predict_batch(&mut ens, &queries, None, |k, a| answers.push((k, a)));

            // Fast path and deadline fallback first, then Skip, then one
            // group per XAI level, each in query order.
            let order: Vec<(usize, usize)> = answers
                .iter()
                .map(|(k, a)| {
                    let v = &a.verdict;
                    let phase = if v.unanimous || a.degraded {
                        0
                    } else {
                        1 + v.xai_level as usize
                    };
                    (phase, *k)
                })
                .collect();
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "{pinned:?}: {order:?}"
            );
            let mut seen: Vec<usize> = order.iter().map(|&(_, k)| k).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..images.len()).collect::<Vec<_>>());

            let mut xai_queries = 0;
            for (k, answer) in &answers {
                let outs = ens.outputs(&images[*k]);
                assert!(!answer.downgraded);
                assert_eq!(answer.degraded, *k == expired);
                if answer.degraded {
                    assert_eq!(answer.verdict.prediction, plain_vote(&outs));
                    assert_eq!(answer.verdict.xai_level, XaiLevel::Skip);
                    assert!(answer.verdict.details.is_empty() && answer.signals.is_none());
                    continue;
                }
                let single = remix.predict(&mut ens, &images[*k]);
                assert_eq!(answer.verdict.prediction, single.prediction);
                assert_eq!(answer.verdict.unanimous, single.unanimous);
                assert_eq!(answer.verdict.xai_level, single.xai_level);
                assert_details_bitwise_equal(&answer.verdict, &single);
                let signals = (!single.unanimous).then(|| TriageScheduler::signals(&outs));
                assert_eq!(answer.signals, signals);
                xai_queries += u64::from(!single.details.is_empty());
            }
            let level = pinned.unwrap_or(XaiLevel::Full);
            let units = xai_queries * remix.explainer().sweep_units_at(level) * 3;
            assert_eq!(spend.sweep_units, units);
            assert_eq!(spend.elapsed.is_zero(), units == 0);
        }
    }

    #[test]
    fn zero_sweep_budget_downgrades_every_disagreement_to_skip() {
        let (mut ens, test) = small_ensemble();
        let images = mixed_inputs(&mut ens, &test);
        let queries: Vec<Query> = images.iter().map(Query::new).collect();
        let light = Remix::builder()
            .scheduler(TriageScheduler::pinned(XaiLevel::Light))
            .build();
        let mut answers = Vec::new();
        let spend = light.predict_batch(&mut ens, &queries, Some(0), |k, a| answers.push((k, a)));
        assert_eq!(answers.len(), images.len());
        assert_eq!(spend, XaiSpend::default());
        for (k, answer) in &answers {
            let v = &answer.verdict;
            assert_eq!(v.xai_level, XaiLevel::Skip);
            assert_eq!(answer.downgraded, !v.unanimous);
            if !v.unanimous {
                assert_eq!(v.prediction, plain_vote(&ens.outputs(&images[*k])));
            }
        }
        // A budget one query short drops exactly one disagreement to Skip,
        // and Skip answers go out before the Light group.
        let per_query = light.explainer().sweep_units_at(XaiLevel::Light) * 3;
        let mut split = Vec::new();
        light.predict_batch(&mut ens, &queries, Some(3 * per_query), |_, a| {
            if !a.verdict.unanimous {
                split.push((a.verdict.xai_level, a.downgraded));
            }
        });
        let light_answer = (XaiLevel::Light, false);
        assert_eq!(
            split,
            [
                (XaiLevel::Skip, true),
                light_answer,
                light_answer,
                light_answer
            ]
        );
        // Without a scheduler the budget is ignored.
        let mut downgraded = 0;
        Remix::default().predict_batch(&mut ens, &queries, Some(0), |_, a| {
            downgraded += usize::from(a.downgraded);
        });
        assert_eq!(downgraded, 0);
    }

    #[test]
    fn parallel_predict_is_bit_identical_to_sequential() {
        let (mut ens, test) = small_ensemble();
        let img = &test.images[0];
        let sequential = Remix::builder()
            .fast_path(false)
            .seed(3)
            .threads(1)
            .build()
            .predict(&mut ens, img);
        assert_eq!(sequential.timings.threads, 1);
        for threads in [2, 4] {
            let parallel = Remix::builder()
                .fast_path(false)
                .seed(3)
                .threads(threads)
                .build()
                .predict(&mut ens, img);
            assert_eq!(parallel.timings.threads, threads);
            assert_eq!(sequential.prediction, parallel.prediction);
            assert_details_bitwise_equal(&sequential, &parallel);
        }
    }
}
