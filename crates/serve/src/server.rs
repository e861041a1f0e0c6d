//! The serving tier: configuration, the sharded engine backend, the model
//! registry wiring, and stats aggregation.
//!
//! The server hosts one or more **named model groups** (see [`NamedModel`]),
//! each a full sharded backend: N engine workers per group (default =
//! available parallelism), each owning a [`TrainedEnsemble`] replica, its
//! own bounded [`BatchQueue`], its own slice of the verdict cache, and its
//! own [`ServeStats`] atomics. A `/predict` carries an optional `model`
//! field that routes it to the matching group (the first group is the
//! default); within a group, requests route to the shard chosen by content
//! hash ([`ModelGroup::shard_of`]), so every cache slice is touched by
//! exactly one engine thread plus the front door, and identical inputs
//! always land on the same shard. `/stats` sums the per-shard atomics
//! across every group into one [`StatsSnapshot`] at read time.
//!
//! **Hot-swap** (`POST /models/<name>/swap`, registry-backed servers only):
//! the coordinator loads and integrity-checks the requested version, applies
//! it to the group's structural template, freezes one replica per shard
//! off-path, then deposits the replicas into the per-shard [`SwapSlot`]s and
//! flips the group's published artifact hash — the only on-path cost is one
//! atomic generation check per batch. In-flight batches drain on the old
//! version; anything popped after the deposit runs on the new one. Verdict
//! cache entries are keyed on `content ⊕ mix(artifact hash)`
//! ([`crate::cache::generation_key`]), so stale verdicts are structurally
//! unreachable after a swap rather than flushed — swapping back re-hits the
//! old generation's surviving entries.
//!
//! The front door is a nonblocking epoll readiness loop (see
//! [`crate::reactor`]) that drives [`route`]/[`enqueue`]; keep-alive
//! connections cost a slab entry, not a thread.

use crate::batcher::{BatchQueue, EngineReply, PendingRequest, PushError, Responder};
use crate::cache::{content_key, generation_key, VerdictCache};
use crate::drift::{DriftAction, DriftStatus, DriftTrigger, EngineDrift};
use crate::engine::{Engine, PendingSwap, SwapSlot};
use crate::http::HttpRequest;
use crate::protocol;
use remix_core::Remix;
use remix_drift::{DriftConfig, DriftDetector, DriftFeature};
use remix_ensemble::TrainedEnsemble;
use remix_registry::{Registry, RegistryError};
use remix_tensor::Tensor;
use remix_xai::XaiLevel;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Serving parameters. `Default` is tuned for an interactive service; the
/// load generator overrides what it measures.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Most requests coalesced into one engine micro-batch. `0` derives the
    /// cap from the ensemble's [`remix_xai::XaiBudget::batch_size`] — the
    /// XAI sweep width — so one micro-batch fills whole gradient sweeps.
    pub max_batch: usize,
    /// How long a forming batch waits for company before dispatching
    /// (the *time* half of the time-or-size trigger), measured from the
    /// oldest waiting request's arrival. Zero dispatches every request
    /// alone — the serial baseline.
    pub batch_window: Duration,
    /// Bound on queued requests *per shard*; beyond it, requests are shed
    /// with `429`.
    pub queue_capacity: usize,
    /// Default per-request deadline when the request doesn't carry
    /// `deadline_ms`. After it, a disagreement degrades to majority vote.
    pub default_deadline: Duration,
    /// Verdict-cache capacity in entries *per model group*, split across
    /// that group's engine shards (`0` disables the cache).
    pub cache_capacity: usize,
    /// Internal shard count of each engine shard's verdict-cache slice.
    pub cache_shards: usize,
    /// Engine shards *per model group* — workers that each own an ensemble
    /// replica, a queue, and a cache slice. `0` uses
    /// [`thread::available_parallelism`].
    pub shards: usize,
    /// Per-batch wall-clock allowance for the XAI stage. When nonzero and a
    /// triage scheduler is attached to the served [`Remix`], a batch whose
    /// predicted XAI cost exceeds the allowance has its most-confident
    /// requests downgraded one ladder rung at a time until it fits —
    /// a graceful continuum *before* the deadline cliff. Zero disables
    /// pressure downgrades.
    pub latency_budget: Duration,
    /// Streaming drift detection over the verdict stream, per engine shard
    /// (see [`remix_drift`]). `None` (the default) disables the detector
    /// entirely — nothing is folded and `GET /drift` reports it disabled.
    pub drift: Option<DriftConfig>,
    /// What a tripped drift alert does beyond being reported: observe only
    /// (default), or trigger the hot-swap coordinator toward a registry
    /// target. Ignored when `drift` is `None`.
    pub drift_action: DriftAction,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 0,
            batch_window: Duration::from_micros(500),
            queue_capacity: 256,
            default_deadline: Duration::from_millis(50),
            cache_capacity: 4096,
            cache_shards: 8,
            shards: 0,
            latency_budget: Duration::ZERO,
            drift: None,
            drift_action: DriftAction::Observe,
        }
    }
}

/// A named, versioned ensemble to serve — the unit [`Server::start_models`]
/// hosts. Usually produced by loading a registry artifact; a hand-built
/// ensemble can use version `"local"` and hash `0`.
pub struct NamedModel {
    /// Routing name (the `model` field of `/predict`, the path segment of
    /// `/models/<name>/swap`).
    pub name: String,
    /// Human-readable version string (semver for registry artifacts).
    pub version: String,
    /// Artifact integrity hash (the verdict-cache generation; `0` for
    /// local ensembles).
    pub hash: u64,
    /// The trained ensemble itself.
    pub ensemble: TrainedEnsemble,
}

/// Always-on request accounting for one engine shard (independent of
/// `remix-trace`, which is opt-in; `/stats` must work on an untraced
/// server). Shards count independently; [`StatsSnapshot`] is the sum.
#[derive(Default)]
pub struct ServeStats {
    /// Accepted `/predict` requests (shed requests included).
    pub requests: AtomicU64,
    /// Requests answered from the verdict cache.
    pub cache_hits: AtomicU64,
    /// Requests that missed the cache and ran inference.
    pub cache_misses: AtomicU64,
    /// Requests rejected with `429` because the queue was full.
    pub shed: AtomicU64,
    /// Requests resolved by the degraded majority-vote fallback.
    pub degraded: AtomicU64,
    /// Engine micro-batches executed.
    pub batches: AtomicU64,
    /// Requests carried by those micro-batches (mean occupancy =
    /// `batched_requests / batches`).
    pub batched_requests: AtomicU64,
    /// Verdicts produced at [`XaiLevel::Skip`]: the unanimous fast path and
    /// the scheduler's majority-vote admissions (degraded verdicts count in
    /// `degraded` only).
    pub xai_skip: AtomicU64,
    /// Verdicts produced at the quarter budget.
    pub xai_light: AtomicU64,
    /// Verdicts produced at the half budget.
    pub xai_standard: AtomicU64,
    /// Verdicts produced at the full budget (the only populated level when
    /// no scheduler is attached).
    pub xai_full: AtomicU64,
    /// Requests served below their scheduler-assigned level because the
    /// batch's XAI bill exceeded the latency budget.
    pub downgraded: AtomicU64,
}

impl ServeStats {
    pub(crate) fn bump_batch(&self, occupancy: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(occupancy as u64, Ordering::Relaxed);
    }

    pub(crate) fn bump_level(&self, level: XaiLevel) {
        let counter = match level {
            XaiLevel::Skip => &self.xai_skip,
            XaiLevel::Light => &self.xai_light,
            XaiLevel::Standard => &self.xai_standard,
            XaiLevel::Full => &self.xai_full,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One point-in-time view of the server's counters, summed across every
/// engine shard of every model group (the per-shard atomics are read with
/// relaxed ordering, so the snapshot is a sum of individually-consistent
/// counters, not a global atomic cut — fine for monitoring, which is all
/// `/stats` is for).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Accepted `/predict` requests (shed requests included).
    pub requests: u64,
    /// Requests answered from the verdict cache.
    pub cache_hits: u64,
    /// Requests that missed the cache and ran inference.
    pub cache_misses: u64,
    /// Requests rejected with `429` because a shard queue was full.
    pub shed: u64,
    /// Requests resolved by the degraded majority-vote fallback.
    pub degraded: u64,
    /// Engine micro-batches executed.
    pub batches: u64,
    /// Requests carried by those micro-batches.
    pub batched_requests: u64,
    /// Verdicts produced at [`XaiLevel::Skip`] (fast path + admissions).
    pub xai_skip: u64,
    /// Verdicts produced at the quarter budget.
    pub xai_light: u64,
    /// Verdicts produced at the half budget.
    pub xai_standard: u64,
    /// Verdicts produced at the full budget.
    pub xai_full: u64,
    /// Requests served below their assigned level under latency pressure.
    pub downgraded: u64,
    /// Verdicts currently held across all cache slices.
    pub cached_verdicts: u64,
    /// Number of engine shards serving (all groups).
    pub shards: u64,
    /// Drift alerts raised by the streaming detectors (all shards).
    pub drift_alerts: u64,
    /// Hot-swaps triggered by drift alerts (all groups).
    pub drift_swaps: u64,
}

impl StatsSnapshot {
    /// Every field of the snapshot, in the order `GET /stats` renders them.
    /// The docs-sync test uses this list to fail the build when a field is
    /// missing from the README's documented stats list.
    pub const FIELD_NAMES: [&'static str; 16] = [
        "requests",
        "cache_hits",
        "cache_misses",
        "shed",
        "degraded",
        "batches",
        "batched_requests",
        "xai_skip",
        "xai_light",
        "xai_standard",
        "xai_full",
        "downgraded",
        "cached_verdicts",
        "shards",
        "drift_alerts",
        "drift_swaps",
    ];

    fn body(&self) -> String {
        format!(
            "{{\"requests\":{},\"cache_hits\":{},\"cache_misses\":{},\"shed\":{},\"degraded\":{},\"batches\":{},\"batched_requests\":{},\"xai_skip\":{},\"xai_light\":{},\"xai_standard\":{},\"xai_full\":{},\"downgraded\":{},\"cached_verdicts\":{},\"shards\":{},\"drift_alerts\":{},\"drift_swaps\":{}}}",
            self.requests,
            self.cache_hits,
            self.cache_misses,
            self.shed,
            self.degraded,
            self.batches,
            self.batched_requests,
            self.xai_skip,
            self.xai_light,
            self.xai_standard,
            self.xai_full,
            self.downgraded,
            self.cached_verdicts,
            self.shards,
            self.drift_alerts,
            self.drift_swaps,
        )
    }
}

/// One engine shard's server-side handles (the engine thread owns the
/// ensemble replica itself).
pub(crate) struct Shard {
    pub queue: Arc<BatchQueue>,
    pub cache: Arc<VerdictCache>,
    pub stats: Arc<ServeStats>,
    /// Hot-swap mailbox shared with this shard's engine.
    pub swap: Arc<SwapSlot>,
    /// Published state of this shard's drift detector (`None` when drift
    /// detection is disabled).
    pub drift: Option<Arc<DriftStatus>>,
}

/// Mutable bookkeeping for one model group, updated under a lock by the
/// swap coordinator and read by `/models`.
pub(crate) struct GroupMeta {
    pub version: String,
    pub swaps: u64,
    /// Hot-swaps triggered by the drift coordinator (at most one per group
    /// per server lifetime).
    pub drift_swaps: u64,
    /// HTTP status of the drift-triggered swap, once it has run (`200` on
    /// promotion; a 4xx/5xx records a failed attempt — the trigger is not
    /// retried).
    pub drift_swap_status: Option<u16>,
}

/// One named model's complete sharded backend.
pub(crate) struct ModelGroup {
    pub name: String,
    pub shards: Vec<Shard>,
    pub input_len: usize,
    pub input_shape: [usize; 3],
    /// The published artifact hash — the verdict-cache generation the front
    /// door looks up under. Flipped (Release) as the last step of a swap.
    pub active_hash: AtomicU64,
    pub meta: Mutex<GroupMeta>,
    /// Unfrozen structural template the swap coordinator applies artifacts
    /// to; holding its lock serializes swaps on this group.
    pub template: Mutex<TrainedEnsemble>,
}

impl ModelGroup {
    /// The shard a content key routes to. The multiplier (the 64-bit golden
    /// ratio) mixes the key before the modulus so the pick is decorrelated
    /// from [`VerdictCache`]'s *internal* shard choice (which uses the high
    /// key bits directly) — otherwise every engine shard would hit only a
    /// fraction of its own cache slices. Routing uses the pure content key,
    /// not the generation key: an input stays on its shard across swaps.
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % self.shards.len() as u64) as usize
    }

    fn requests(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stats.requests.load(Ordering::Relaxed))
            .sum()
    }
}

/// State the reactor, the swap workers and the drift coordinator share.
pub(crate) struct Shared {
    pub groups: Vec<ModelGroup>,
    pub stopping: AtomicBool,
    /// The artifact store behind `/models/<name>/swap`; `None` for servers
    /// started from a local ensemble (swaps answer 409).
    pub registry: Option<Registry>,
    /// The pipeline configuration, needed to freeze swap replicas exactly
    /// like the startup path does.
    pub remix: Remix,
    default_deadline: Duration,
    /// Whether the per-shard drift detectors are running.
    drift_enabled: bool,
    /// The configured response to a tripped drift alert.
    drift_action: DriftAction,
}

impl Shared {
    fn group_index(&self, name: Option<&str>) -> Option<usize> {
        match name {
            None => Some(0),
            Some(name) => self.groups.iter().position(|g| g.name == name),
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let mut sum = StatsSnapshot::default();
        for group in &self.groups {
            sum.shards += group.shards.len() as u64;
            for shard in &group.shards {
                sum.requests += shard.stats.requests.load(Ordering::Relaxed);
                sum.cache_hits += shard.stats.cache_hits.load(Ordering::Relaxed);
                sum.cache_misses += shard.stats.cache_misses.load(Ordering::Relaxed);
                sum.shed += shard.stats.shed.load(Ordering::Relaxed);
                sum.degraded += shard.stats.degraded.load(Ordering::Relaxed);
                sum.batches += shard.stats.batches.load(Ordering::Relaxed);
                sum.batched_requests += shard.stats.batched_requests.load(Ordering::Relaxed);
                sum.xai_skip += shard.stats.xai_skip.load(Ordering::Relaxed);
                sum.xai_light += shard.stats.xai_light.load(Ordering::Relaxed);
                sum.xai_standard += shard.stats.xai_standard.load(Ordering::Relaxed);
                sum.xai_full += shard.stats.xai_full.load(Ordering::Relaxed);
                sum.downgraded += shard.stats.downgraded.load(Ordering::Relaxed);
                if let Some(drift) = &shard.drift {
                    sum.drift_alerts += drift.alerts.load(Ordering::Relaxed);
                }
                sum.cached_verdicts += shard.cache.len() as u64;
            }
            sum.drift_swaps += group
                .meta
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .drift_swaps;
        }
        sum
    }

    fn models_body(&self) -> String {
        let mut out = String::from("{\"models\":[");
        for (i, group) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let meta = group.meta.lock().unwrap_or_else(|e| e.into_inner());
            let drift_tripped = group.shards.iter().any(|s| {
                s.drift
                    .as_ref()
                    .is_some_and(|d| d.tripped_feature().is_some())
            });
            out.push_str(&format!(
                "{{\"name\":{},\"version\":{},\"hash\":\"{:016x}\",\"requests\":{},\"swaps\":{},\"shards\":{},\"drift_tripped\":{},\"drift_swaps\":{},\"drift_swap_status\":{}}}",
                protocol::json_string(&group.name),
                protocol::json_string(&meta.version),
                group.active_hash.load(Ordering::Acquire),
                group.requests(),
                meta.swaps,
                group.shards.len(),
                drift_tripped,
                meta.drift_swaps,
                meta.drift_swap_status
                    .map_or("null".to_string(), |s| s.to_string()),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders `GET /drift`: the configured action plus, per model group,
    /// the shard-aggregated alert state and the most recent trip's metadata.
    fn drift_body(&self) -> String {
        let mut out = format!(
            "{{\"enabled\":{},\"action\":{}",
            self.drift_enabled,
            protocol::json_string(self.drift_action.name()),
        );
        match &self.drift_action {
            DriftAction::Swap { target } => {
                out.push_str(&format!(",\"target\":{}", protocol::json_string(target)));
            }
            DriftAction::Observe => out.push_str(",\"target\":null"),
        }
        out.push_str(",\"models\":[");
        if self.drift_enabled {
            for (i, group) in self.groups.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let mut verdicts = 0u64;
                let mut alerts = 0u64;
                let mut resets = 0u64;
                let mut tripped: Option<DriftFeature> = None;
                // The most recent trip across the group's shards, picked by
                // verdict count at trip (shards count independently, so this
                // is a heuristic "latest", which is all monitoring needs).
                let mut last: Option<(DriftFeature, f32, f32, u64, u64)> = None;
                for shard in &group.shards {
                    let Some(status) = shard.drift.as_ref() else {
                        continue;
                    };
                    verdicts += status.verdicts.load(Ordering::Relaxed);
                    alerts += status.alerts.load(Ordering::Relaxed);
                    resets += status.resets.load(Ordering::Relaxed);
                    if tripped.is_none() {
                        tripped = status.tripped_feature();
                    }
                    let feature =
                        DriftFeature::from_id(status.last_feature.load(Ordering::Acquire));
                    if let Some(feature) = feature {
                        let at = status.last_trip_verdicts.load(Ordering::Relaxed);
                        if last.is_none_or(|(_, _, _, _, prev)| at > prev) {
                            last = Some((
                                feature,
                                f32::from_bits(status.last_magnitude.load(Ordering::Relaxed)),
                                f32::from_bits(status.last_threshold.load(Ordering::Relaxed)),
                                status.last_window.load(Ordering::Relaxed),
                                at,
                            ));
                        }
                    }
                }
                let meta = group.meta.lock().unwrap_or_else(|e| e.into_inner());
                out.push_str(&format!(
                    "{{\"name\":{},\"verdicts\":{},\"alerts\":{},\"resets\":{},\"tripped\":{},\"tripped_feature\":{}",
                    protocol::json_string(&group.name),
                    verdicts,
                    alerts,
                    resets,
                    tripped.is_some(),
                    tripped.map_or("null".to_string(), |f| protocol::json_string(f.name())),
                ));
                match last {
                    Some((feature, magnitude, threshold, window, at)) => out.push_str(&format!(
                        ",\"last_trip\":{{\"feature\":{},\"magnitude\":{},\"threshold\":{},\"window\":{},\"verdicts_at_trip\":{}}}",
                        protocol::json_string(feature.name()),
                        protocol::fmt_f32(magnitude),
                        protocol::fmt_f32(threshold),
                        window,
                        at,
                    )),
                    None => out.push_str(",\"last_trip\":null"),
                }
                out.push_str(&format!(
                    ",\"drift_swaps\":{},\"swap_status\":{}}}",
                    meta.drift_swaps,
                    meta.drift_swap_status
                        .map_or("null".to_string(), |s| s.to_string()),
                ));
            }
        }
        out.push_str("]}");
        out
    }
}

/// Where [`route`] sent a request: answered on the spot, prepared for an
/// engine shard, or a hot-swap to run off the reactor thread.
pub(crate) enum Routed {
    /// Status + body, ready to write.
    Immediate(u16, String),
    /// A `/predict` that missed the cache; push via [`enqueue`].
    Predict(PreparedPredict),
    /// A validated `/models/<name>/swap`; run [`perform_swap`] off the
    /// reactor thread.
    Swap(PreparedSwap),
}

/// A validated `/predict` bound for a shard queue.
pub(crate) struct PreparedPredict {
    pub started: Instant,
    group: usize,
    shard: usize,
    image: Tensor,
    key: u64,
    deadline: Instant,
    no_cache: bool,
}

/// A validated hot-swap request.
pub(crate) struct PreparedSwap {
    /// Index of the target group in `shared.groups`.
    pub group: usize,
    /// Requested version; `None` resolves to the registry's latest.
    pub version: Option<String>,
}

/// Routes one parsed request. `/predict` runs validation, group/shard
/// selection, and the cache lookup here (counted on the owning shard's
/// stats); cache misses come back as [`Routed::Predict`] for the front door
/// to enqueue, swaps as [`Routed::Swap`].
pub(crate) fn route(request: &HttpRequest, shared: &Shared) -> Routed {
    if let Some(name) = request
        .path
        .strip_prefix("/models/")
        .and_then(|rest| rest.strip_suffix("/swap"))
    {
        if request.method != "POST" {
            return Routed::Immediate(405, protocol::error_body("method not allowed"));
        }
        return prepare_swap(name, &request.body, shared);
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => prepare_predict(&request.body, shared),
        ("GET", "/healthz") => Routed::Immediate(200, "{\"status\":\"ok\"}".to_string()),
        ("GET", "/stats") => Routed::Immediate(200, shared.snapshot().body()),
        ("GET", "/models") => Routed::Immediate(200, shared.models_body()),
        ("GET", "/drift") => Routed::Immediate(200, shared.drift_body()),
        (_, "/predict" | "/healthz" | "/stats" | "/models" | "/drift") => {
            Routed::Immediate(405, protocol::error_body("method not allowed"))
        }
        _ => Routed::Immediate(404, protocol::error_body("no such endpoint")),
    }
}

fn prepare_swap(name: &str, body: &[u8], shared: &Shared) -> Routed {
    let version = match protocol::parse_swap(body) {
        Ok(version) => version,
        Err(message) => return Routed::Immediate(400, protocol::error_body(&message)),
    };
    let Some(group) = shared.group_index(Some(name)) else {
        return Routed::Immediate(
            404,
            protocol::error_body(&format!("no model named `{name}` is being served")),
        );
    };
    if shared.registry.is_none() {
        return Routed::Immediate(
            409,
            protocol::error_body("server was started without a registry; hot-swap is unavailable"),
        );
    }
    Routed::Swap(PreparedSwap { group, version })
}

fn prepare_predict(body: &[u8], shared: &Shared) -> Routed {
    let started = Instant::now();
    let request = match protocol::parse_predict(body) {
        Ok(request) => request,
        Err(message) => return Routed::Immediate(400, protocol::error_body(&message)),
    };
    let Some(group_index) = shared.group_index(request.model.as_deref()) else {
        return Routed::Immediate(
            404,
            protocol::error_body(&format!(
                "no model named `{}` is being served",
                request.model.as_deref().unwrap_or("")
            )),
        );
    };
    let group = &shared.groups[group_index];
    if request.image.len() != group.input_len {
        return Routed::Immediate(
            400,
            protocol::error_body(&format!(
                "`image` must have {} values for shape {:?}, got {}",
                group.input_len,
                group.input_shape,
                request.image.len()
            )),
        );
    }
    let key = content_key(&request.image);
    let shard_index = group.shard_of(key);
    let shard = &group.shards[shard_index];
    shard.stats.requests.fetch_add(1, Ordering::Relaxed);
    if shard.cache.enabled() && !request.no_cache {
        // Look up under the group's *published* generation: entries written
        // by a not-yet-swapped-out engine stay invisible the instant the
        // hash flips.
        let lookup = generation_key(key, group.active_hash.load(Ordering::Acquire));
        if let Some(fragment) = shard.cache.get(lookup, &request.image) {
            shard.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            let latency = started.elapsed();
            remix_trace::record_duration("serve_verdict_cached", latency);
            return Routed::Immediate(
                200,
                protocol::envelope(&fragment, true, latency.as_micros() as u64),
            );
        }
        shard.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    let deadline = started
        + request
            .deadline_ms
            .map_or(shared.default_deadline, Duration::from_millis);
    let image = Tensor::from_vec(request.image, &group.input_shape)
        .expect("length validated against the input shape");
    Routed::Predict(PreparedPredict {
        started,
        group: group_index,
        shard: shard_index,
        image,
        key,
        deadline,
        no_cache: request.no_cache,
    })
}

/// Pushes a prepared `/predict` onto its shard queue. A full queue sheds
/// (`429`, counted on the shard); a closed queue means shutdown (`503`).
pub(crate) fn enqueue(
    shared: &Shared,
    prepared: PreparedPredict,
    reply: Responder,
) -> Result<(), (u16, String)> {
    let shard = &shared.groups[prepared.group].shards[prepared.shard];
    let pending = PendingRequest {
        image: prepared.image,
        key: prepared.key,
        deadline: prepared.deadline,
        no_cache: prepared.no_cache,
        // Placeholder; push() stamps the authoritative arrival time.
        arrived: prepared.started,
        reply,
    };
    match shard.queue.push(pending) {
        Ok(()) => Ok(()),
        Err(PushError::Shed) => {
            shard.stats.shed.fetch_add(1, Ordering::Relaxed);
            Err((429, protocol::error_body("overloaded: queue full")))
        }
        Err(PushError::Closed) => Err((503, protocol::error_body("server is shutting down"))),
    }
}

/// Executes a validated hot-swap: loads and integrity-verifies the artifact,
/// applies it to the group's template, freezes one replica per shard
/// off-path, then deposits the replicas and flips the published hash. Runs
/// on a worker thread (a swap request) or the drift coordinator — never on
/// the reactor loop, because artifact load + freeze can take tens of
/// milliseconds.
///
/// Holding the group's template lock across the whole operation serializes
/// concurrent swaps of the same group.
pub(crate) fn perform_swap(shared: &Shared, swap: &PreparedSwap) -> (u16, String) {
    let Some(registry) = shared.registry.as_ref() else {
        return (
            409,
            protocol::error_body("server was started without a registry; hot-swap is unavailable"),
        );
    };
    let group = &shared.groups[swap.group];
    let loaded = match registry.load(&group.name, swap.version.as_deref()) {
        Ok(loaded) => loaded,
        Err(e @ (RegistryError::UnknownModel(_) | RegistryError::UnknownVersion { .. })) => {
            return (404, protocol::error_body(&e.to_string()));
        }
        Err(e @ (RegistryError::BadVersion(_) | RegistryError::BadName(_))) => {
            return (400, protocol::error_body(&e.to_string()));
        }
        Err(e) => return (409, protocol::error_body(&e.to_string())),
    };
    let spec = loaded.artifact.spec;
    if [spec.channels, spec.size, spec.size] != group.input_shape {
        return (
            409,
            protocol::error_body(&format!(
                "artifact input shape [{}, {}, {}] does not match the served shape {:?}",
                spec.channels, spec.size, spec.size, group.input_shape
            )),
        );
    }
    let mut template = group.template.lock().unwrap_or_else(|e| e.into_inner());

    // Off-path preparation: apply the artifact's weights to a copy of the
    // structural template, then freeze one replica per shard — all before
    // any engine sees anything.
    let prepare_started = Instant::now();
    let mut applied = template.clone();
    if let Err(e) = loaded.artifact.apply_to(&mut applied) {
        return (
            409,
            protocol::error_body(&format!(
                "artifact is incompatible with the served ensemble: {e}"
            )),
        );
    }
    let replicas: Vec<TrainedEnsemble> = group
        .shards
        .iter()
        .map(|_| {
            let mut replica = applied.clone();
            shared.remix.prepare_ensemble(&mut replica);
            replica
        })
        .collect();
    let prepare_us = prepare_started.elapsed().as_micros() as u64;

    // The flip: deposit every shard's replica and publish the new hash.
    // This window is the only stall a swap imposes on the serving path, and
    // it is a handful of mutex deposits plus atomic stores.
    let flip_started = Instant::now();
    for (shard, replica) in group.shards.iter().zip(replicas) {
        *shard.swap.pending.lock().unwrap_or_else(|e| e.into_inner()) = Some(PendingSwap {
            ensemble: replica,
            artifact_hash: loaded.hash,
        });
        shard.swap.generation.fetch_add(1, Ordering::Release);
    }
    group.active_hash.store(loaded.hash, Ordering::Release);
    let flip_us = flip_started.elapsed().as_micros() as u64;

    let to_version = loaded.version.to_string();
    let from_version = {
        let mut meta = group.meta.lock().unwrap_or_else(|e| e.into_inner());
        meta.swaps += 1;
        std::mem::replace(&mut meta.version, to_version.clone())
    };
    *template = applied;
    drop(template);
    (
        200,
        format!(
            "{{\"model\":{},\"from\":{},\"to\":{},\"hash\":\"{:016x}\",\"prepare_us\":{prepare_us},\"flip_us\":{flip_us}}}",
            protocol::json_string(&group.name),
            protocol::json_string(&from_version),
            protocol::json_string(&to_version),
            loaded.hash,
        ),
    )
}

/// The latency-histogram name for a completed verdict.
pub(crate) fn verdict_kind(reply: &EngineReply) -> &'static str {
    if reply.degraded {
        "serve_verdict_degraded"
    } else if reply.unanimous {
        "serve_verdict_unanimous"
    } else {
        "serve_verdict_full"
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops the
/// front door, drains the engine shards, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    front_thread: Option<JoinHandle<()>>,
    engine_threads: Vec<JoinHandle<()>>,
    completions: Arc<crate::reactor::Completions>,
}

impl Server {
    /// Starts serving a single locally-constructed `ensemble` under
    /// `remix`'s configuration, as the default group `"default"` (version
    /// `"local"`, hash `0`) with no registry — `/models/<name>/swap`
    /// answers 409.
    ///
    /// # Errors
    ///
    /// Returns the bind error if `config.addr` can't be bound, or resource
    /// errors from spawning the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is empty.
    pub fn start(
        ensemble: TrainedEnsemble,
        remix: Remix,
        config: ServeConfig,
    ) -> io::Result<Server> {
        Server::start_models(
            vec![NamedModel {
                name: "default".to_string(),
                version: "local".to_string(),
                hash: 0,
                ensemble,
            }],
            None,
            remix,
            config,
        )
    }

    /// Starts serving one or more named models concurrently, each with its
    /// own sharded backend. With a `registry` attached,
    /// `POST /models/<name>/swap` hot-swaps a group to any published
    /// version of its name.
    ///
    /// Each model's input spec defines its accepted `image` length; the
    /// first model is the default route for requests without a `model`
    /// field.
    ///
    /// # Errors
    ///
    /// Returns the bind error if `config.addr` can't be bound, or resource
    /// errors from spawning the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty, any ensemble is empty, or two models
    /// share a name.
    pub fn start_models(
        models: Vec<NamedModel>,
        registry: Option<Registry>,
        remix: Remix,
        config: ServeConfig,
    ) -> io::Result<Server> {
        assert!(!models.is_empty(), "cannot serve zero models");
        for model in &models {
            assert!(
                !model.ensemble.models.is_empty(),
                "cannot serve an empty ensemble (model `{}`)",
                model.name
            );
        }
        for (i, model) in models.iter().enumerate() {
            assert!(
                models[..i].iter().all(|m| m.name != model.name),
                "duplicate model name `{}`",
                model.name
            );
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let max_batch = if config.max_batch == 0 {
            remix.explainer().config.budget.effective_batch_size()
        } else {
            config.max_batch
        };
        let nshards = if config.shards == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.shards
        };
        // Split each group's cache budget across its shards (rounding up, so
        // a tiny budget still caches something everywhere; 0 stays disabled).
        let cache_per_shard = if config.cache_capacity == 0 {
            0
        } else {
            config.cache_capacity.div_ceil(nshards)
        };
        // With drift detection on and an auto-swap action configured, engines
        // nudge the drift coordinator thread through this channel on their
        // first alert; the coordinator exits when every engine (sender) is
        // gone at shutdown.
        let drift_channel: Option<(mpsc::Sender<usize>, mpsc::Receiver<usize>)> =
            match (&config.drift, &config.drift_action) {
                (Some(_), DriftAction::Swap { .. }) => Some(mpsc::channel()),
                _ => None,
            };
        let mut groups = Vec::with_capacity(models.len());
        let mut engine_threads = Vec::with_capacity(models.len() * nshards);
        for (group_index, model) in models.into_iter().enumerate() {
            let spec = model.ensemble.models[0].spec();
            let mut shards = Vec::with_capacity(nshards);
            for index in 0..nshards {
                let queue = Arc::new(BatchQueue::new(
                    config.queue_capacity,
                    max_batch,
                    config.batch_window,
                ));
                let cache = Arc::new(VerdictCache::new(cache_per_shard, config.cache_shards));
                let stats = Arc::new(ServeStats::default());
                let swap = Arc::new(SwapSlot::default());
                // Each shard owns a frozen replica: the weights are prepacked
                // once at startup and every request on this shard reuses the
                // packs (verdicts stay bit-identical to the unfrozen
                // ensemble).
                let mut replica = model.ensemble.clone();
                remix.prepare_ensemble(&mut replica);
                let drift_status = config.drift.map(|_| Arc::new(DriftStatus::default()));
                let engine_drift = config.drift.map(|drift_config| EngineDrift {
                    detector: DriftDetector::new(drift_config),
                    status: Arc::clone(drift_status.as_ref().expect("built together")),
                    trigger: drift_channel.as_ref().map(|(tx, _)| DriftTrigger {
                        group: group_index,
                        sender: tx.clone(),
                    }),
                });
                let engine = Engine {
                    remix: remix.clone(),
                    ensemble: replica,
                    cache: Arc::clone(&cache),
                    stats: Arc::clone(&stats),
                    latency_budget: config.latency_budget,
                    ns_per_unit: 0.0,
                    swap: Arc::clone(&swap),
                    artifact_hash: model.hash,
                    seen_generation: 0,
                    drift: engine_drift,
                };
                let engine_queue = Arc::clone(&queue);
                engine_threads.push(
                    thread::Builder::new()
                        .name(format!("remix-serve-engine-{}-{index}", model.name))
                        .spawn(move || engine.run(engine_queue))?,
                );
                shards.push(Shard {
                    queue,
                    cache,
                    stats,
                    swap,
                    drift: drift_status,
                });
            }
            groups.push(ModelGroup {
                name: model.name,
                shards,
                input_len: spec.channels * spec.size * spec.size,
                input_shape: [spec.channels, spec.size, spec.size],
                active_hash: AtomicU64::new(model.hash),
                meta: Mutex::new(GroupMeta {
                    version: model.version,
                    swaps: 0,
                    drift_swaps: 0,
                    drift_swap_status: None,
                }),
                template: Mutex::new(model.ensemble),
            });
        }
        let shared = Arc::new(Shared {
            groups,
            stopping: AtomicBool::new(false),
            registry,
            remix,
            default_deadline: config.default_deadline,
            drift_enabled: config.drift.is_some(),
            drift_action: config.drift_action.clone(),
        });

        // The drift coordinator: blocks on the trigger channel and runs the
        // ordinary swap path toward the configured target when the *target
        // group's* detector trips — entirely off the request path, exactly
        // once per group per server lifetime. It exits when the engines (the
        // senders) have all shut down.
        if let Some((tx, rx)) = drift_channel {
            drop(tx); // engines hold the only live senders
            let coordinator_shared = Arc::clone(&shared);
            let action = config.drift_action.clone();
            engine_threads.push(
                thread::Builder::new()
                    .name("remix-serve-drift".into())
                    .spawn(move || {
                        let Some((target_name, target_version)) = action
                            .target_parts()
                            .map(|(n, v)| (n.to_string(), v.map(str::to_string)))
                        else {
                            return;
                        };
                        while let Ok(group_index) = rx.recv() {
                            let group = &coordinator_shared.groups[group_index];
                            if group.name != target_name {
                                continue;
                            }
                            {
                                let meta = group.meta.lock().unwrap_or_else(|e| e.into_inner());
                                if meta.drift_swaps > 0 {
                                    continue;
                                }
                            }
                            let (status, _body) = perform_swap(
                                &coordinator_shared,
                                &PreparedSwap {
                                    group: group_index,
                                    version: target_version.clone(),
                                },
                            );
                            let mut meta = group.meta.lock().unwrap_or_else(|e| e.into_inner());
                            meta.drift_swaps += 1;
                            meta.drift_swap_status = Some(status);
                        }
                    })?,
            );
        }

        let (completions, waker_rx) = crate::reactor::Completions::pair()?;
        let completions = Arc::new(completions);
        let front_shared = Arc::clone(&shared);
        let front_completions = Arc::clone(&completions);
        let front_thread = thread::Builder::new()
            .name("remix-serve-reactor".into())
            .spawn(move || {
                crate::reactor::run(listener, front_shared, front_completions, waker_rx)
            })?;
        Ok(Server {
            addr,
            shared,
            front_thread: Some(front_thread),
            engine_threads,
            completions,
        })
    }

    /// The bound address (use this when the config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The always-on request counters, summed across shards of every group.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Stops accepting, drains in-flight requests, and joins the server
    /// threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the reactor through its waker pipe so it observes the stop
        // flag.
        self.completions.wake();
        if let Some(handle) = self.front_thread.take() {
            let _ = handle.join();
        }
        // Only after the front door is down: close the queues (no new pushes
        // can race in) and let each engine drain its shard.
        for group in &self.shared.groups {
            for shard in &group.shards {
                shard.queue.close();
            }
        }
        for handle in self.engine_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `FIELD_NAMES` is the contract the docs-sync test (and the README)
    /// verify against; this pins it to the actual rendered body so the two
    /// cannot drift apart silently.
    #[test]
    fn stats_body_renders_exactly_the_declared_fields() {
        let body = StatsSnapshot::default().body();
        let parsed: serde::Value = serde_json::from_str(&body).expect("body is valid JSON");
        let pairs = parsed.as_object().expect("body is a JSON object");
        let rendered: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            rendered,
            StatsSnapshot::FIELD_NAMES.to_vec(),
            "StatsSnapshot::FIELD_NAMES must list every rendered stats field in order"
        );
    }

    /// Docs-sync: the README must name every stats field the server renders.
    /// Adding a `StatsSnapshot` field without documenting it fails here.
    #[test]
    fn readme_documents_every_stats_field() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        for name in StatsSnapshot::FIELD_NAMES {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not document the stats field `{name}`"
            );
        }
    }
}
