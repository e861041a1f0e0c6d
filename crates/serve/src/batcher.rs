//! The dynamic micro-batcher: a bounded request queue with a time-or-size
//! dispatch trigger.
//!
//! Requests enqueue from the front door; each engine shard pops *batches*
//! from its own queue. A batch dispatches as soon as `max_batch` requests
//! are waiting (**size trigger**), or once `window` has elapsed since the
//! oldest waiting request arrived (**time trigger**). The window is anchored
//! at *arrival*, not at the moment the engine starts forming the batch: a
//! request that already waited out the window while the engine was busy with
//! the previous batch dispatches immediately instead of paying the window a
//! second time. So an idle service answers a lone request with at most
//! `window` of added latency, while a busy one coalesces whatever arrived.
//! The queue is bounded: when `capacity` requests are already waiting,
//! [`BatchQueue::push`] refuses and the server sheds the request with a 429
//! instead of letting latency grow without limit.

use crate::reactor::Completions;
use remix_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One request waiting for an engine shard.
pub(crate) struct PendingRequest {
    /// The validated `[C, H, W]` input.
    pub image: Tensor,
    /// Content hash of the input (cache insert key and shard route).
    pub key: u64,
    /// Absolute deadline; a disagreement still unresolved when the engine
    /// reaches the XAI stage after this instant degrades to majority vote.
    pub deadline: Instant,
    /// Whether the request opted out of the verdict cache.
    pub no_cache: bool,
    /// When the request entered the queue (stamped by [`BatchQueue::push`]);
    /// anchors the batch window to the oldest waiting request.
    pub arrived: Instant,
    /// Where the engine delivers the reply.
    pub reply: Responder,
}

/// The engine's verdict for one request, delivered through a [`Responder`].
#[derive(Clone)]
pub(crate) struct EngineReply {
    /// The verdict fragment (see `protocol`): rendered once by the engine,
    /// shared with the cache so replays are byte-identical. For a raw reply
    /// (see [`EngineReply::raw`]) this is the complete response body.
    pub fragment: Arc<str>,
    /// Whether this verdict came from the degraded majority-vote fallback.
    pub degraded: bool,
    /// Whether the unanimous fast path resolved it (no XAI run).
    pub unanimous: bool,
    /// `Some(status)` for a non-verdict completion (e.g. a hot-swap worker's
    /// result): the fragment is written verbatim as the body under this
    /// status, with no envelope and no verdict-latency histogram.
    pub raw_status: Option<u16>,
}

impl EngineReply {
    /// A verdict reply: the fragment gets the standard envelope.
    pub(crate) fn verdict(fragment: Arc<str>, degraded: bool, unanimous: bool) -> EngineReply {
        EngineReply {
            fragment,
            degraded,
            unanimous,
            raw_status: None,
        }
    }

    /// A raw reply: `body` is served verbatim under `status` (used by
    /// off-loop workers such as the hot-swap coordinator).
    pub(crate) fn raw(status: u16, body: String) -> EngineReply {
        EngineReply {
            fragment: Arc::from(body),
            degraded: false,
            unanimous: false,
            raw_status: Some(status),
        }
    }
}

/// How a reply travels back to the waiting connection: the readiness loop's
/// completion queue (the reply is parked there and the reactor is woken to
/// write it out).
pub(crate) struct Responder {
    /// Connection token the reactor resolves (slab index + generation;
    /// stale generations are dropped when the peer hung up mid-flight).
    pub token: u64,
    /// The reactor's completion queue + waker.
    pub completions: Arc<Completions>,
}

impl Responder {
    /// Delivers the engine's reply to the waiting connection.
    pub(crate) fn respond(&self, reply: EngineReply) {
        self.completions.push(self.token, reply);
    }
}

struct QueueState {
    waiting: VecDeque<PendingRequest>,
    closed: bool,
}

/// The bounded queue between the front door and one engine shard.
pub(crate) struct BatchQueue {
    state: Mutex<QueueState>,
    arrived: Condvar,
    capacity: usize,
    max_batch: usize,
    window: Duration,
}

/// Push rejection: the queue is at capacity (shed the request) or the
/// server is shutting down.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// Queue full — reply 429.
    Shed,
    /// Queue closed — the server is stopping.
    Closed,
}

impl BatchQueue {
    pub(crate) fn new(capacity: usize, max_batch: usize, window: Duration) -> Self {
        BatchQueue {
            state: Mutex::new(QueueState {
                waiting: VecDeque::new(),
                closed: false,
            }),
            arrived: Condvar::new(),
            capacity: capacity.max(1),
            max_batch: max_batch.max(1),
            window,
        }
    }

    pub(crate) fn push(&self, mut request: PendingRequest) -> Result<(), PushError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.waiting.len() >= self.capacity {
            return Err(PushError::Shed);
        }
        // Stamp arrival under the lock so queue order is arrival order and
        // the front of the queue is always the oldest waiter.
        request.arrived = Instant::now();
        state.waiting.push_back(request);
        // Wake the engine: it may be sleeping on an empty queue or waiting
        // out the batch window one request short of max_batch.
        self.arrived.notify_one();
        Ok(())
    }

    /// Pops the next micro-batch (engine thread only). Blocks while the
    /// queue is empty; once requests are waiting, waits until `max_batch`
    /// are waiting or until `window` has elapsed *since the oldest waiting
    /// request arrived* (not since this call started — a request that
    /// already aged past the window behind a long batch dispatches
    /// immediately), then drains up to `max_batch` requests. Returns `None`
    /// once the queue is closed *and* drained, so the engine finishes
    /// outstanding work before exiting.
    pub(crate) fn next_batch(&self) -> Option<Vec<PendingRequest>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !state.waiting.is_empty() {
                break;
            }
            if state.closed {
                return None;
            }
            state = self.arrived.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if !self.window.is_zero() {
            // Anchor at the oldest waiter. The front entry cannot change
            // while we hold or re-take this lock: pushes append at the back
            // and only this (per-shard) engine thread drains.
            let batch_deadline = state.waiting.front().expect("nonempty").arrived + self.window;
            while state.waiting.len() < self.max_batch && !state.closed {
                let left = batch_deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                let (next, timeout) = self
                    .arrived
                    .wait_timeout(state, left)
                    .unwrap_or_else(|e| e.into_inner());
                state = next;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        let take = state.waiting.len().min(self.max_batch);
        let depth = state.waiting.len();
        let batch: Vec<PendingRequest> = state.waiting.drain(..take).collect();
        drop(state);
        remix_trace::record_value("serve_queue_depth", depth as u64);
        remix_trace::record_value("serve_batch_occupancy", batch.len() as u64);
        Some(batch)
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`] and
    /// the engine drains what's left, replies, then exits.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        self.arrived.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn request() -> PendingRequest {
        PendingRequest {
            image: Tensor::zeros(&[1, 1, 1]),
            key: 0,
            deadline: Instant::now() + Duration::from_secs(1),
            no_cache: false,
            arrived: Instant::now(),
            reply: Responder {
                token: 0,
                completions: Arc::new(Completions::pair().expect("socket pair").0),
            },
        }
    }

    #[test]
    fn size_trigger_dispatches_a_full_batch_without_waiting() {
        let queue = BatchQueue::new(16, 4, Duration::from_secs(60));
        for _ in 0..8 {
            queue.push(request()).unwrap();
        }
        // 8 waiting ≥ max_batch=4: both pops must return immediately despite
        // the huge window, taking exactly max_batch each.
        let start = Instant::now();
        let batch = queue.next_batch().unwrap();
        assert_eq!(batch.len(), 4);
        let rest = queue.next_batch().unwrap();
        assert_eq!(rest.len(), 4);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn time_trigger_dispatches_a_partial_batch() {
        let queue = BatchQueue::new(16, 8, Duration::from_millis(20));
        queue.push(request()).unwrap();
        let batch = queue.next_batch().unwrap();
        assert_eq!(batch.len(), 1, "lone request dispatches after the window");
    }

    #[test]
    fn window_is_anchored_at_first_arrival_not_at_pop_time() {
        // Regression: the old engine computed the window deadline from
        // `Instant::now()` at pop time, so a request that had already waited
        // in the queue (behind a long batch, say) paid the full window a
        // second time. With the arrival anchor, a request older than the
        // window dispatches immediately.
        let window = Duration::from_millis(80);
        let queue = BatchQueue::new(16, 8, window);
        queue.push(request()).unwrap();
        thread::sleep(window + Duration::from_millis(20));
        let popped_at = Instant::now();
        let batch = queue.next_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert!(
            popped_at.elapsed() < window,
            "an already-aged request must not wait the window again (waited {:?})",
            popped_at.elapsed()
        );
        // And the stamp is the *push* instant: the batch's request has
        // genuinely aged past the window by the time it dispatches.
        assert!(batch[0].arrived.elapsed() >= window);
    }

    #[test]
    fn full_queue_sheds_and_closed_queue_rejects() {
        let queue = BatchQueue::new(2, 8, Duration::ZERO);
        queue.push(request()).unwrap();
        queue.push(request()).unwrap();
        assert_eq!(queue.push(request()).unwrap_err(), PushError::Shed);
        queue.close();
        assert_eq!(queue.push(request()).unwrap_err(), PushError::Closed);
        // Drain semantics: the two queued requests still come out...
        assert_eq!(queue.next_batch().unwrap().len(), 2);
        // ...and only then does the engine see the close.
        assert!(queue.next_batch().is_none());
    }

    #[test]
    fn engine_wakes_when_a_request_arrives() {
        let queue = Arc::new(BatchQueue::new(4, 2, Duration::from_millis(5)));
        let engine = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.next_batch().map(|b| b.len()))
        };
        thread::sleep(Duration::from_millis(30));
        queue.push(request()).unwrap();
        assert_eq!(engine.join().unwrap(), Some(1));
    }
}
