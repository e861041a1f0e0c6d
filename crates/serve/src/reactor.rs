//! The nonblocking front door: a single-threaded epoll readiness loop.
//!
//! One thread owns the listener, a waker pipe, and a slab of keep-alive
//! connections — so ten thousand idle connections cost ten thousand slab
//! entries, not ten thousand threads. Per connection the loop accumulates
//! bytes into a read buffer, feeds them to the incremental parser
//! ([`crate::http::try_parse_request`]), and routes complete requests
//! through [`route`]/[`enqueue`].
//!
//! **Engine handoff.** A `/predict` that reaches an engine shard parks the
//! connection: its token (slab index + generation, so a stale completion
//! for a recycled slot is dropped) goes into the [`Responder`], and the
//! engine thread pushes the reply onto the [`Completions`] queue, writing
//! one byte to the waker pipe to make epoll return. While parked, the
//! connection's `EPOLLIN` interest is dropped — requests on one connection
//! are strictly sequential (matching HTTP/1.1),
//! and a flooding client is back-pressured by its own unread socket instead
//! of growing a server-side buffer.
//!
//! **Interest management.** The loop is level-triggered: `EPOLLIN` is armed
//! exactly when the connection is ready for its next request, `EPOLLOUT`
//! only while a rendered response is partially written. Responses are
//! written optimistically first; the common case never touches `epoll_ctl`.
//!
//! **Shutdown.** [`Server::shutdown`](crate::Server::shutdown) sets the stop
//! flag and wakes the loop; idle connections close immediately, parked ones
//! survive until their engine reply is written (flushed in blocking mode,
//! shutdown being the one place a blocking write is acceptable), and the
//! loop exits once nothing is parked — only then does the server close the
//! shard queues.

use crate::batcher::{EngineReply, Responder};
use crate::http::{error_status, render_response, try_parse_request};
use crate::protocol;
use crate::server::{enqueue, perform_swap, route, verdict_kind, Routed, Shared};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Engine→reactor reply mailbox plus the waker that makes epoll notice it.
pub(crate) struct Completions {
    ready: Mutex<Vec<(u64, EngineReply)>>,
    waker: UnixStream,
}

impl Completions {
    /// Creates the mailbox and the read end of its waker pipe (which the
    /// reactor registers with epoll). Both ends are nonblocking: a full
    /// pipe means a wake-up byte is already pending, which is all a wake
    /// needs.
    pub(crate) fn pair() -> std::io::Result<(Completions, UnixStream)> {
        let (waker, waker_rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        Ok((
            Completions {
                ready: Mutex::new(Vec::new()),
                waker,
            },
            waker_rx,
        ))
    }

    /// Parks one engine reply for the reactor and wakes it (engine threads).
    pub(crate) fn push(&self, token: u64, reply: EngineReply) {
        self.ready
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((token, reply));
        self.wake();
    }

    /// Forces the epoll loop awake (used by [`push`](Completions::push) and
    /// by shutdown).
    pub(crate) fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }

    fn drain(&self) -> Vec<(u64, EngineReply)> {
        std::mem::take(&mut *self.ready.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    written: usize,
    /// Interest set currently registered with epoll.
    interest: u32,
    /// `Some(request start)` while an engine shard owes this connection a
    /// reply; new requests are not read until it arrives.
    awaiting: Option<Instant>,
    /// Close once `write_buf` drains (client sent `Connection: close`, a
    /// fatal parse error was answered, or the peer is gone).
    close_after_write: bool,
    /// The peer closed its write half; answer what's buffered, then close.
    peer_eof: bool,
    /// The socket errored/hung up while parked on the engine; the slot is
    /// kept only so the completion can be discarded against it.
    dead: bool,
}

struct Slot {
    generation: u32,
    conn: Option<Conn>,
}

fn token_for(index: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | index as u64
}

/// Runs the readiness loop until shutdown (the `remix-serve-reactor`
/// thread's body). Returns early only if the epoll instance itself cannot
/// be created or seeded — there is no meaningful recovery from that.
pub(crate) fn run(
    listener: TcpListener,
    shared: Arc<Shared>,
    completions: Arc<Completions>,
    waker_rx: UnixStream,
) {
    let epoll = match Epoll::new() {
        Ok(epoll) => epoll,
        Err(_) => return,
    };
    if listener.set_nonblocking(true).is_err()
        || epoll
            .add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
            .is_err()
        || epoll
            .add(waker_rx.as_raw_fd(), EPOLLIN, WAKER_TOKEN)
            .is_err()
    {
        return;
    }
    Reactor {
        epoll,
        listener,
        waker_rx,
        shared,
        completions,
        slots: Vec::new(),
        free: Vec::new(),
    }
    .event_loop();
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    waker_rx: UnixStream,
    shared: Arc<Shared>,
    completions: Arc<Completions>,
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl Reactor {
    fn event_loop(&mut self) {
        let mut events = [EpollEvent::default(); 64];
        loop {
            if self.shared.stopping.load(Ordering::SeqCst) && self.drain_for_shutdown() {
                return;
            }
            let fired = match self.epoll.wait(&mut events, -1) {
                Ok(n) => n,
                Err(_) => return,
            };
            for event in &events[..fired] {
                // Copy out of the (packed) event before taking references.
                let (flags, token) = (event.events, event.data);
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.waker_ready(),
                    token => self.conn_ready(token, flags),
                }
            }
        }
    }

    /// Stop-flag cleanup: closes every connection not owed an engine reply
    /// (flushing pending bytes in blocking mode), and reports whether the
    /// loop can exit (no connection still parked).
    fn drain_for_shutdown(&mut self) -> bool {
        let mut parked = false;
        for index in 0..self.slots.len() {
            let Some(conn) = self.slots[index].conn.as_ref() else {
                continue;
            };
            if conn.awaiting.is_some() {
                parked = true;
                continue;
            }
            let mut conn = self.slots[index].conn.take().expect("checked above");
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.free.push(index);
            if !conn.dead && conn.written < conn.write_buf.len() {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.write_all(&conn.write_buf[conn.written..]);
            }
        }
        !parked
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => return,
            };
            if self.shared.stopping.load(Ordering::SeqCst) {
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let index = self.free.pop().unwrap_or_else(|| {
                self.slots.push(Slot {
                    generation: 0,
                    conn: None,
                });
                self.slots.len() - 1
            });
            let slot = &mut self.slots[index];
            slot.generation = slot.generation.wrapping_add(1);
            let interest = EPOLLIN | EPOLLRDHUP;
            if self
                .epoll
                .add(
                    stream.as_raw_fd(),
                    interest,
                    token_for(index, slot.generation),
                )
                .is_err()
            {
                self.free.push(index);
                continue;
            }
            slot.conn = Some(Conn {
                stream,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                written: 0,
                interest,
                awaiting: None,
                close_after_write: false,
                peer_eof: false,
                dead: false,
            });
        }
    }

    fn waker_ready(&mut self) {
        let mut sink = [0u8; 256];
        while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}
        for (token, reply) in self.completions.drain() {
            self.complete(token, reply);
        }
    }

    /// Applies one engine reply to its (still live, same-generation)
    /// connection: render the envelope, queue the response, resume parsing.
    fn complete(&mut self, token: u64, reply: EngineReply) {
        let index = (token & u32::MAX as u64) as usize;
        let generation = (token >> 32) as u32;
        let Some(slot) = self.slots.get_mut(index) else {
            return;
        };
        if slot.generation != generation {
            return;
        }
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        let Some(started) = conn.awaiting.take() else {
            return;
        };
        if conn.dead {
            // The peer hung up while the engine worked; the verdict has
            // nowhere to go.
            self.release(index);
            return;
        }
        let response = match reply.raw_status {
            // A raw completion (hot-swap worker): the fragment already is
            // the body, and it's not a verdict, so no envelope and no
            // verdict-latency histogram.
            Some(status) => render_response(status, &reply.fragment, conn.close_after_write),
            None => {
                let latency = started.elapsed();
                remix_trace::record_duration(verdict_kind(&reply), latency);
                let body = protocol::envelope(&reply.fragment, false, latency.as_micros() as u64);
                render_response(200, &body, conn.close_after_write)
            }
        };
        conn.write_buf.extend_from_slice(&response);
        self.advance(index);
    }

    fn conn_ready(&mut self, token: u64, flags: u32) {
        let index = (token & u32::MAX as u64) as usize;
        let generation = (token >> 32) as u32;
        let Some(slot) = self.slots.get_mut(index) else {
            return;
        };
        if slot.generation != generation {
            return;
        }
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        if conn.dead {
            return;
        }
        if flags & (EPOLLERR | EPOLLHUP) != 0 {
            if conn.awaiting.is_some() {
                // Keep the slot so the engine completion has something to be
                // matched (and dropped) against, but deregister the fd —
                // level-triggered HUP would otherwise spin the loop.
                conn.dead = true;
                let _ = self.epoll.delete(conn.stream.as_raw_fd());
            } else {
                self.release(index);
            }
            return;
        }
        if flags & EPOLLOUT != 0 {
            self.flush(index);
        }
        if flags & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.read_ready(index);
        }
    }

    fn read_ready(&mut self, index: usize) {
        let mut failed = false;
        {
            let Some(conn) = self.slots[index].conn.as_mut() else {
                return;
            };
            if conn.awaiting.is_some() || conn.close_after_write || conn.peer_eof {
                return;
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.release(index);
            return;
        }
        self.advance(index);
    }

    /// Parses and dispatches every complete buffered request, then flushes.
    /// Stops early when a `/predict` parks the connection on an engine shard
    /// or a `Connection: close` / parse error ends the conversation.
    fn advance(&mut self, index: usize) {
        loop {
            let Slot { generation, conn } = &mut self.slots[index];
            let Some(conn) = conn.as_mut() else {
                return;
            };
            if conn.awaiting.is_some() || conn.close_after_write {
                break;
            }
            match try_parse_request(&conn.read_buf) {
                Ok(None) => {
                    if conn.peer_eof {
                        // Nothing more can complete a partial request.
                        conn.close_after_write = true;
                    }
                    break;
                }
                Ok(Some((request, consumed))) => {
                    conn.read_buf.drain(..consumed);
                    if request.close {
                        conn.close_after_write = true;
                    }
                    match route(&request, &self.shared) {
                        Routed::Immediate(status, body) => {
                            let response = render_response(status, &body, conn.close_after_write);
                            conn.write_buf.extend_from_slice(&response);
                        }
                        Routed::Predict(prepared) => {
                            let started = prepared.started;
                            let responder = Responder {
                                token: token_for(index, *generation),
                                completions: Arc::clone(&self.completions),
                            };
                            match enqueue(&self.shared, prepared, responder) {
                                Ok(()) => conn.awaiting = Some(started),
                                Err((status, body)) => {
                                    let response =
                                        render_response(status, &body, conn.close_after_write);
                                    conn.write_buf.extend_from_slice(&response);
                                }
                            }
                        }
                        Routed::Swap(prepared) => {
                            // A swap loads + freezes an ensemble — far too
                            // slow for the readiness loop. Park the
                            // connection and run it on a short-lived worker
                            // that answers through the completion queue.
                            let token = token_for(index, *generation);
                            let shared = Arc::clone(&self.shared);
                            let completions = Arc::clone(&self.completions);
                            let worker = std::thread::Builder::new()
                                .name("remix-serve-swap".into())
                                .spawn(move || {
                                    let (status, body) = perform_swap(&shared, &prepared);
                                    completions.push(token, EngineReply::raw(status, body));
                                });
                            match worker {
                                Ok(_) => conn.awaiting = Some(Instant::now()),
                                Err(_) => {
                                    let response = render_response(
                                        500,
                                        &protocol::error_body("could not spawn swap worker"),
                                        conn.close_after_write,
                                    );
                                    conn.write_buf.extend_from_slice(&response);
                                }
                            }
                        }
                    }
                }
                Err(e) => {
                    let status = error_status(&e);
                    let response =
                        render_response(status, &protocol::error_body(&e.to_string()), true);
                    conn.write_buf.extend_from_slice(&response);
                    conn.close_after_write = true;
                    conn.read_buf.clear();
                    break;
                }
            }
        }
        self.flush(index);
    }

    /// Writes as much of `write_buf` as the socket accepts, closes the
    /// connection when a close was promised and everything is out, and
    /// re-arms interest for whatever remains.
    fn flush(&mut self, index: usize) {
        let mut failed = false;
        let mut done_and_closing = false;
        {
            let Some(conn) = self.slots[index].conn.as_mut() else {
                return;
            };
            while conn.written < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if !failed && conn.written == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.written = 0;
                done_and_closing = conn.close_after_write && conn.awaiting.is_none();
            }
        }
        if failed || done_and_closing {
            self.release(index);
            return;
        }
        self.update_interest(index);
    }

    fn update_interest(&mut self, index: usize) {
        let Slot { generation, conn } = &mut self.slots[index];
        let Some(conn) = conn.as_mut() else {
            return;
        };
        let mut want = 0;
        if conn.awaiting.is_none() && !conn.close_after_write && !conn.peer_eof {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.written < conn.write_buf.len() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            let token = token_for(index, *generation);
            conn.interest = want;
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_err()
            {
                self.release(index);
            }
        }
    }

    /// Drops a connection and recycles its slab slot (the generation bump on
    /// reuse invalidates any in-flight token).
    fn release(&mut self, index: usize) {
        if let Some(conn) = self.slots[index].conn.take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.free.push(index);
        }
    }
}
