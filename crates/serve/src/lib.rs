//! `remix-serve` — a deadline-aware inference service for trained ReMIX
//! ensembles.
//!
//! A zero-dependency, Linux-only TCP/HTTP-lite server (see `remix serve`):
//! the front door is a nonblocking epoll readiness loop (raw-syscall shims,
//! no `libc` crate) so keep-alive connections cost no threads, and the backend
//! is sharded into N engine workers (default = available parallelism), each
//! owning a [`TrainedEnsemble`](remix_ensemble::TrainedEnsemble) replica and
//! a shard-local slice of the verdict cache, with requests routed by
//! cache-key hash. The resilience levers (DESIGN.md §6h):
//!
//! * **Dynamic micro-batching** ([`ServeConfig::max_batch`],
//!   [`ServeConfig::batch_window`]) — concurrently arriving requests
//!   coalesce into shared `forward_batch`/XAI sweeps, time-or-size
//!   triggered. Verdicts stay bit-identical to [`remix_core::Remix::predict`]
//!   because batching only re-chunks work the pipeline is chunk-invariant
//!   over.
//! * **Verdict cache** ([`VerdictCache`]) — a sharded LRU keyed by input
//!   content hash; hits replay the stored reply byte-for-byte.
//! * **Deadline-aware degradation** — a per-request budget after which a
//!   disagreement falls back from ReMIX weighting to plain majority vote,
//!   tagged `"degraded":true` on the wire; plus a bounded queue that sheds
//!   excess load with `429` instead of queueing without bound.
//! * **Telemetry** — per-request/per-batch `remix-trace` spans,
//!   queue-depth and batch-occupancy histograms, and per-verdict latency
//!   histograms, all inert unless tracing is enabled; `/stats` serves the
//!   always-on counters, the only count of each serving event.
//! * **Streaming drift detection** (DESIGN.md §6k) — with
//!   [`ServeConfig::drift`] set, every shard folds per-verdict features
//!   (disagreement, margin, entropy, ω spread, XAI mix, degraded/downgraded
//!   flags) into a passive [`remix_drift::DriftDetector`]; alerts aggregate
//!   into `GET /drift` and the `drift_alerts`/`drift_swaps` stats counters,
//!   and [`DriftAction::Swap`] closes the loop by promoting a registry
//!   target through the hot-swap coordinator when an alert trips. Verdicts
//!   are bit-identical with the detector on or off.
//! * **Model registry & hot-swap** (DESIGN.md §6j) — the server can host
//!   multiple *named* model groups concurrently
//!   ([`Server::start_models`]); `/predict` routes by its optional `model`
//!   field, `GET /models` lists the groups, and with a
//!   [`remix_registry::Registry`] attached, `POST /models/<name>/swap`
//!   replaces a group's ensemble with any published version without
//!   dropping a request: replicas are loaded and frozen off-path, then
//!   adopted per-shard between batches. Verdict-cache entries are keyed on
//!   the artifact's integrity hash ([`cache::generation_key`]), so a swap
//!   makes stale verdicts structurally unreachable instead of flushing
//!   them.
//!
//! # Quickstart
//!
//! ```no_run
//! use remix_core::Remix;
//! use remix_ensemble::TrainedEnsemble;
//! use remix_serve::{Client, ServeConfig, Server};
//!
//! # fn demo(ensemble: TrainedEnsemble) -> std::io::Result<()> {
//! let server = Server::start(ensemble, Remix::default(), ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let reply = client.predict(&[0.5; 16], Some(50), false)?;
//! println!("class {:?} (degraded: {})", reply.prediction, reply.degraded);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

// The front door is an epoll loop over raw syscalls (`sys.rs`, Linux
// x86_64/aarch64).
#[cfg(not(target_os = "linux"))]
compile_error!("remix-serve supports Linux only: its front door is an epoll readiness loop");

mod batcher;
pub mod cache;
pub mod client;
mod drift;
mod engine;
pub mod http;
pub mod protocol;
mod reactor;
mod server;
mod sys;

pub use cache::{content_key, generation_key, VerdictCache};
pub use client::{Client, ClientReply};
pub use drift::DriftAction;
pub use protocol::{degraded_fragment, verdict_fragment, PredictRequest};
// Re-exported so configuring `ServeConfig::drift` needs no direct
// `remix-drift` dependency.
pub use remix_drift::{DriftAlert, DriftConfig, DriftFeature};
pub use server::{NamedModel, ServeConfig, Server, StatsSnapshot};
