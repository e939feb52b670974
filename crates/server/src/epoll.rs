//! Readiness-driven connection transport: nonblocking sockets on
//! `epoll`, sharded across event loops.
//!
//! The design (DESIGN.md §11) keeps the hermetic zero-dependency rule:
//! std already links libc, so the syscalls std does not expose —
//! `epoll_create1`/`epoll_ctl`/`epoll_wait`, and `listen` to raise the
//! backlog of std's listener — are bound directly with `extern "C"` in
//! the private `sys` module, the only place in the crate allowed to use
//! `unsafe`.
//!
//! One listener serves every shard. Shard 0 registers it in its own
//! epoll and deals the accepted sockets round-robin: it keeps its own
//! share and pushes each other shard's into that shard's inbox.
//!
//! Each shard owns one epoll instance and drives its connections
//! through a per-connection state machine:
//!
//! ```text
//!          ┌────────────────────────────────────────────┐
//!          v                                            │
//!   Reading (accumulate bytes, parse)                   │
//!      │ complete request                               │
//!      ├─── cheap handler ──────────────┐               │
//!      │                                v               │
//!      └─── MC-heavy handler ──> Handling (worker pool) │
//!                                       │ response      │
//!                                       v               │
//!                         Writing (head + shared body) ─┘ keep-alive
//!                                       │ close / cap / error
//!                                       v
//!                                    closed
//! ```
//!
//! Cheap handlers (cache hits, registry reads, metrics) run inline on
//! the shard; only handlers that may run Monte-Carlo transport are
//! queued to the worker pool, whose completions return to the owning
//! shard through a mutex inbox plus a wake socket. The loop never
//! blocks on a socket or a computation.

use crate::handlers::AppState;
use crate::http::{self, RequestParser, Response};
use crate::{router, ConnLimits};
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raw Linux bindings. The only module in the crate allowed `unsafe`;
/// everything it exports is a safe wrapper that owns its invariants.
mod sys {
    #![allow(unsafe_code)]

    use std::io;
    use std::os::fd::{AsFd, AsRawFd, FromRawFd, OwnedFd};

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`. Packed on x86-64 — the kernel ABI has no
    /// padding between `events` and `data` there.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        events: u32,
        data: u64,
    }

    impl EpollEvent {
        pub fn zeroed() -> Self {
            Self { events: 0, data: 0 }
        }

        /// Ready-event mask (copied out: the struct may be packed).
        pub fn events(&self) -> u32 {
            self.events
        }

        /// The token registered with the fd.
        pub fn token(&self) -> u64 {
            self.data
        }
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Creates a close-on-exec epoll instance.
    pub fn epoll_create() -> io::Result<OwnedFd> {
        // SAFETY: no pointers; the kernel allocates and returns an fd.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` was just opened and nothing else owns it.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// Adds or modifies interest in `fd` on `epfd`.
    pub fn epoll_control(
        epfd: &impl AsFd,
        op: i32,
        fd: &impl AsFd,
        events: u32,
        token: u64,
    ) -> io::Result<()> {
        let (epfd, fd) = (epfd.as_fd().as_raw_fd(), fd.as_fd().as_raw_fd());
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` outlives the call; both fds are open for it.
        cvt(unsafe { epoll_ctl(epfd, op, fd, &mut event) }).map(|_| ())
    }

    /// Waits for readiness events, returning how many were filled in.
    pub fn epoll_wait_events(
        epfd: &impl AsFd,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        let epfd = epfd.as_fd().as_raw_fd();
        // SAFETY: the kernel writes at most `events.len()` entries into
        // the buffer we own for the duration of the call.
        let n =
            cvt(unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) })?;
        Ok(n as usize)
    }

    /// Sets the backlog of a socket that is already listening: on Linux
    /// a second `listen` only updates it.
    pub fn set_backlog(socket: &impl AsFd, backlog: i32) -> io::Result<()> {
        // SAFETY: no pointers; `socket` is open for the call.
        cvt(unsafe { listen(socket.as_fd().as_raw_fd(), backlog) }).map(|_| ())
    }
}

use sys::{EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Token reserved for shard 0's listener.
const TOKEN_LISTENER: u64 = 0;
/// Token reserved for the shard's wake socket.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Pending-connection backlog of the listener; std's `TcpListener::bind`
/// listens with 128.
const BACKLOG: i32 = 1024;

/// Soft cap on bytes buffered per connection while parsing: one maximal
/// request (1 MiB body + 8 KiB headers) plus room for pipelined heads.
const READ_SOFT_CAP: usize = http::MAX_BODY_BYTES + 2 * http::MAX_HEADER_BYTES;

/// Raises the backlog of the server's listener, bound by std, to
/// [`BACKLOG`].
pub(crate) fn raise_backlog(listener: &TcpListener) -> std::io::Result<()> {
    sys::set_backlog(listener, BACKLOG)
}

/// An owned epoll instance.
#[derive(Debug)]
struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> std::io::Result<Self> {
        Ok(Self {
            fd: sys::epoll_create()?,
        })
    }

    fn add(&self, fd: &impl AsFd, events: u32, token: u64) -> std::io::Result<()> {
        sys::epoll_control(&self.fd, sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: &impl AsFd, events: u32, token: u64) -> std::io::Result<()> {
        sys::epoll_control(&self.fd, sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> usize {
        // EINTR and friends: treat as a timeout tick.
        sys::epoll_wait_events(&self.fd, events, timeout_ms).unwrap_or_default()
    }
}

/// A nonblocking socket pair that workers, shard 0's deal and shutdown
/// write to in order to interrupt a shard's `epoll_wait`.
#[derive(Debug)]
struct Wake {
    rx: UnixStream,
    tx: UnixStream,
}

impl Wake {
    fn new() -> std::io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Self { rx, tx })
    }

    /// Best effort: a full buffer means a wakeup is already pending.
    fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// A request parked on the worker pool.
#[derive(Debug)]
struct Job {
    shard: usize,
    token: u64,
    request: http::Request,
}

/// The MC-handler queue shared by all shards and workers.
#[derive(Debug, Default)]
struct JobQueue {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

/// Per-shard mailbox: worker completions and the accepted sockets shard
/// 0 deals to this shard.
#[derive(Debug)]
struct Inbox {
    wake: Wake,
    completions: Mutex<Vec<(u64, Response)>>,
    injected: Mutex<VecDeque<TcpStream>>,
}

#[derive(Debug)]
struct Shared {
    state: Arc<AppState>,
    shutdown: AtomicBool,
    limits: ConnLimits,
    max_queue: usize,
    jobs: JobQueue,
    inboxes: Vec<Inbox>,
}

/// What `spawn` needs from the server front-end.
#[derive(Debug)]
pub(crate) struct EpollConfig {
    pub listener: TcpListener,
    pub state: Arc<AppState>,
    pub shards: usize,
    pub workers: usize,
    pub max_queue: usize,
    pub limits: ConnLimits,
}

/// The running epoll transport: shard loops and worker pool.
#[derive(Debug)]
pub struct EpollHandle {
    shared: Arc<Shared>,
    shards: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EpollHandle {
    pub(crate) fn join(self) {
        for shard in self.shards {
            let _ = shard.join();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    pub(crate) fn stop(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for inbox in &self.shared.inboxes {
            inbox.wake.wake();
        }
        {
            // Take the lock so a worker parked between the flag check and
            // the wait cannot miss the broadcast.
            let _guard = self.shared.jobs.queue.lock().expect("job queue poisoned");
            self.shared.jobs.ready.notify_all();
        }
        self.join();
    }
}

/// Starts the shard loops, shard 0 holding the listener, and the worker
/// pool.
pub(crate) fn spawn(config: EpollConfig) -> EpollHandle {
    let shard_count = config.shards.max(1);
    let inboxes: Vec<Inbox> = (0..shard_count)
        .map(|_| Inbox {
            wake: Wake::new().expect("wake socket pair"),
            completions: Mutex::new(Vec::new()),
            injected: Mutex::new(VecDeque::new()),
        })
        .collect();
    let shared = Arc::new(Shared {
        state: config.state,
        shutdown: AtomicBool::new(false),
        limits: config.limits,
        max_queue: config.max_queue,
        jobs: JobQueue::default(),
        inboxes,
    });

    let mut listener = Some(config.listener);
    let shards: Vec<JoinHandle<()>> = (0..shard_count)
        .map(|i| {
            let shared = Arc::clone(&shared);
            // The first shard takes the listener; the rest get `None`.
            let listener = listener.take();
            std::thread::Builder::new()
                .name(format!("tn-server-shard-{i}"))
                .spawn(move || shard_loop(i, listener, &shared))
                .expect("spawn shard thread")
        })
        .collect();

    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("tn-server-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect();

    EpollHandle {
        shared,
        shards,
        workers,
    }
}

/// Worker-pool loop: runs MC-heavy handlers and posts the response back
/// to the owning shard.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.jobs.queue.lock().expect("job queue poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.jobs.ready.wait(queue).expect("job queue poisoned");
            }
        };
        shared.state.metrics.worker_busy();
        let response = router::handle(&shared.state, &job.request);
        shared.state.metrics.worker_idle();
        shared.inboxes[job.shard]
            .completions
            .lock()
            .expect("completion inbox poisoned")
            .push((job.token, response));
        shared.inboxes[job.shard].wake.wake();
    }
}

/// Connection state-machine phase (§11 diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accumulating request bytes in the resumable parser.
    Reading,
    /// A request is parked on the worker pool; socket reads are paused
    /// (natural backpressure on pipelining clients).
    Handling,
    /// Draining the staged head and shared body as the socket accepts
    /// them.
    Writing,
}

/// One nonblocking connection owned by a shard.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    token: u64,
    parser: RequestParser,
    phase: Phase,
    /// Staged response head: status line, headers (per response) and,
    /// for a chunked body, its framed payload.
    head: Vec<u8>,
    /// The full body, shared with the response cache; `None` for
    /// chunked responses.
    body: Option<Arc<str>>,
    /// Bytes of `head` then `body` already written.
    out_pos: usize,
    keep_after_write: bool,
    /// Keep-alive decision carried across the Handling phase.
    pending_keep: bool,
    served: u64,
    last_activity: Instant,
    interest: u32,
    peer_closed: bool,
}

/// Verdict of driving a connection's state machine.
enum Drive {
    Keep,
    Close,
}

struct Ctx<'a> {
    ep: &'a Epoll,
    shared: &'a Shared,
    shard: usize,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Self {
        Self {
            stream,
            token,
            parser: RequestParser::new(),
            phase: Phase::Reading,
            head: Vec::new(),
            body: None,
            out_pos: 0,
            keep_after_write: false,
            pending_keep: false,
            served: 0,
            last_activity: Instant::now(),
            interest: EPOLLIN | EPOLLRDHUP,
            peer_closed: false,
        }
    }

    /// Stages a response for the Writing phase: only the head is built
    /// here; the body stays the shared allocation.
    fn stage(&mut self, response: &Response, keep: bool) {
        (self.head, self.body) = response.head_and_body(keep);
        self.out_pos = 0;
        self.keep_after_write = keep;
        self.phase = Phase::Writing;
    }

    /// Reads everything the socket has (level-triggered, so stopping at
    /// the soft cap is safe — readiness stays asserted). Returns `false`
    /// when the connection is dead.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.parser.buffered() >= READ_SOFT_CAP {
                return true;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    return true;
                }
                Ok(n) => {
                    self.parser.push(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Re-arms epoll interest to match the current phase.
    fn update_interest(&mut self, ep: &Epoll) {
        // Once the peer half-closed, level-triggered EPOLLRDHUP would
        // re-fire forever; drop it from the mask.
        let rdhup = if self.peer_closed { 0 } else { EPOLLRDHUP };
        let desired = match self.phase {
            Phase::Reading => EPOLLIN | rdhup,
            Phase::Writing => EPOLLOUT | rdhup,
            Phase::Handling => rdhup,
        };
        if desired != self.interest && ep.modify(&self.stream, desired, self.token).is_ok() {
            self.interest = desired;
        }
    }
}

/// Writes `head` then `body`, starting `*pos` bytes into the pair, for as
/// long as `w` accepts bytes. While head bytes remain, both parts go out
/// in one vectored write. Returns `Ok(true)` once everything is written
/// and `Ok(false)` when `w` would block; `*pos` then records where to
/// resume. Interrupted writes are retried.
fn write_staged<W: Write>(
    w: &mut W,
    head: &[u8],
    body: &[u8],
    pos: &mut usize,
) -> std::io::Result<bool> {
    while *pos < head.len() + body.len() {
        let written = match head.get(*pos..) {
            Some(rest) if !rest.is_empty() => {
                w.write_vectored(&[IoSlice::new(rest), IoSlice::new(body)])
            }
            _ => w.write(&body[*pos - head.len()..]),
        };
        match written {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Whether a worker-pool job would be shed right now.
fn pool_saturated(shared: &Shared) -> bool {
    shared.state.metrics.workers_busy() >= shared.state.metrics.workers_total()
        && shared.jobs.queue.lock().expect("job queue poisoned").len() >= shared.max_queue
}

/// Drives a connection as far as it can go without blocking: parse any
/// complete requests (pipelined ones run back-to-back), dispatch
/// handlers, flush output. Non-recursive by construction.
fn pump(conn: &mut Conn, ctx: &Ctx) -> Drive {
    loop {
        match conn.phase {
            Phase::Handling => break,
            Phase::Reading => match conn.parser.try_next() {
                Err(http::HttpError::Malformed(why)) => {
                    conn.stage(&Response::error(400, why), false);
                }
                Err(http::HttpError::TooLarge(why)) => {
                    conn.stage(&Response::error(413, why), false);
                }
                Ok(Some(request)) => {
                    conn.last_activity = Instant::now();
                    if !request.keep_alive && !conn.parser.is_empty() {
                        // Close requested *and* bytes past the declared
                        // body: an overlong body, not pipelining.
                        conn.stage(
                            &Response::error(
                                400,
                                "request body longer than declared Content-Length",
                            ),
                            false,
                        );
                        continue;
                    }
                    let capped = !ctx.shared.limits.allows_another(conn.served + 1);
                    if request.keep_alive && !conn.peer_closed && capped {
                        ctx.shared.state.metrics.conn_cap_closed();
                    }
                    let keep = request.keep_alive && !conn.peer_closed && !capped;
                    if router::wants_worker(&ctx.shared.state, &request) {
                        if pool_saturated(ctx.shared) {
                            ctx.shared.state.metrics.overload();
                            tn_obs::warn("request_shed", &[("token", conn.token.into())]);
                            conn.stage(&Response::overload(), false);
                        } else {
                            conn.pending_keep = keep;
                            conn.phase = Phase::Handling;
                            ctx.shared
                                .jobs
                                .queue
                                .lock()
                                .expect("job queue poisoned")
                                .push_back(Job {
                                    shard: ctx.shard,
                                    token: conn.token,
                                    request,
                                });
                            ctx.shared.jobs.ready.notify_one();
                        }
                    } else {
                        let response = router::handle(&ctx.shared.state, &request);
                        conn.stage(&response, keep);
                    }
                }
                Ok(None) => {
                    if conn.peer_closed {
                        if conn.parser.is_empty() {
                            return Drive::Close;
                        }
                        conn.stage(&Response::error(400, conn.parser.eof_error()), false);
                        continue;
                    }
                    break; // need more bytes
                }
            },
            Phase::Writing => {
                let body = conn.body.as_deref().unwrap_or_default().as_bytes();
                match write_staged(&mut conn.stream, &conn.head, body, &mut conn.out_pos) {
                    Ok(true) => {}
                    Ok(false) => {
                        conn.update_interest(ctx.ep);
                        return Drive::Keep;
                    }
                    Err(_) => return Drive::Close,
                }
                conn.served += 1;
                conn.last_activity = Instant::now();
                if !conn.keep_after_write {
                    return Drive::Close;
                }
                conn.head.clear();
                conn.body = None;
                conn.out_pos = 0;
                conn.phase = Phase::Reading;
            }
        }
    }
    conn.update_interest(ctx.ep);
    Drive::Keep
}

/// Handles a readiness event for one connection.
fn drive_event(conn: &mut Conn, events: u32, ctx: &Ctx) -> Drive {
    if events & (EPOLLERR | EPOLLHUP) != 0 {
        return Drive::Close;
    }
    if events & EPOLLRDHUP != 0 {
        conn.peer_closed = true;
    }
    if events & (EPOLLIN | EPOLLRDHUP) != 0 && conn.phase == Phase::Reading && !conn.fill() {
        return Drive::Close;
    }
    pump(conn, ctx)
}

/// One shard: an epoll instance driving its accepted connections.
fn shard_loop(shard: usize, listener: Option<TcpListener>, shared: &Shared) {
    let ep = match Epoll::new() {
        Ok(ep) => ep,
        Err(e) => {
            tn_obs::warn("epoll_create_failed", &[("error", format!("{e}").into())]);
            return;
        }
    };
    if let Some(listener) = &listener {
        if listener.set_nonblocking(true).is_err()
            || ep.add(listener, EPOLLIN, TOKEN_LISTENER).is_err()
        {
            tn_obs::warn("shard_listener_register_failed", &[("shard", shard.into())]);
        }
    }
    let inbox = &shared.inboxes[shard];
    if ep.add(&inbox.wake.rx, EPOLLIN, TOKEN_WAKE).is_err() {
        tn_obs::warn("shard_wake_register_failed", &[("shard", shard.into())]);
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    // Connections shard 0 has accepted, counting those it dealt away.
    let mut accepted = 0usize;
    let mut events = vec![EpollEvent::zeroed(); 256];
    // Sweep idle connections at a fraction of the idle timeout so short
    // test timeouts still expire promptly.
    let sweep_every = (shared.limits.idle_timeout / 4)
        .clamp(Duration::from_millis(5), Duration::from_millis(250));
    let wait_ms = sweep_every.as_millis().max(1) as i32;
    let mut last_sweep = Instant::now();

    while !shared.shutdown.load(Ordering::SeqCst) {
        let n = ep.wait(&mut events, wait_ms);

        // Worker completions for this shard.
        let done: Vec<(u64, Response)> = {
            let mut completions = inbox.completions.lock().expect("completion inbox poisoned");
            std::mem::take(&mut *completions)
        };
        for (token, response) in done {
            let Some(conn) = conns.get_mut(&token) else {
                continue; // connection died while the worker ran
            };
            if conn.phase == Phase::Handling {
                let keep = conn.pending_keep;
                conn.stage(&response, keep);
            }
            let ctx = Ctx {
                ep: &ep,
                shared,
                shard,
            };
            if let Drive::Close = pump(conns.get_mut(&token).expect("conn present"), &ctx) {
                close_conn(&mut conns, token, shared);
            }
        }

        // Sockets shard 0 dealt to this shard.
        loop {
            let stream = inbox
                .injected
                .lock()
                .expect("inject queue poisoned")
                .pop_front();
            let Some(stream) = stream else { break };
            register_conn(stream, &ep, &mut conns, &mut next_token, shared);
        }

        for event in &events[..n] {
            let (ready, token) = (event.events(), event.token());
            match token {
                TOKEN_LISTENER => {
                    if let Some(listener) = &listener {
                        accept_ready(
                            listener,
                            &mut accepted,
                            &ep,
                            &mut conns,
                            &mut next_token,
                            shared,
                        );
                    }
                }
                TOKEN_WAKE => inbox.wake.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let ctx = Ctx {
                        ep: &ep,
                        shared,
                        shard,
                    };
                    if let Drive::Close = drive_event(conn, ready, &ctx) {
                        close_conn(&mut conns, token, shared);
                    }
                }
            }
        }

        if last_sweep.elapsed() >= sweep_every {
            last_sweep = Instant::now();
            sweep_idle(&ep, &mut conns, shared, shard);
        }
    }

    for (_, conn) in conns.drain() {
        shared.state.metrics.conn_close(conn.served);
    }
}

/// Shard 0's accept: deals every pending connection round-robin over the
/// shards, `accepted` counting the deals. Shard 0 registers its own
/// share; each other share goes into its shard's inbox, with a wake.
fn accept_ready(
    listener: &TcpListener,
    accepted: &mut usize,
    ep: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &Shared,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let shard = *accepted % shared.inboxes.len();
                *accepted = accepted.wrapping_add(1);
                if shard == 0 {
                    register_conn(stream, ep, conns, next_token, shared);
                } else {
                    let inbox = &shared.inboxes[shard];
                    inbox
                        .injected
                        .lock()
                        .expect("inject queue poisoned")
                        .push_back(stream);
                    inbox.wake.wake();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

fn register_conn(
    stream: TcpStream,
    ep: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &Shared,
) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    stream.set_nodelay(true).ok();
    let token = *next_token;
    *next_token += 1;
    if ep.add(&stream, EPOLLIN | EPOLLRDHUP, token).is_err() {
        return;
    }
    shared.state.metrics.connection();
    shared.state.metrics.conn_open();
    let conn = Conn::new(stream, token);
    conns.insert(token, conn);
    // The socket may already carry a full request (common with
    // keep-alive clients reconnecting under load); readiness will fire,
    // no need to speculate here.
}

fn close_conn(conns: &mut HashMap<u64, Conn>, token: u64, shared: &Shared) {
    if let Some(conn) = conns.remove(&token) {
        // Dropping the TcpStream closes the fd, which detaches it from
        // the epoll set; no explicit EPOLL_CTL_DEL needed.
        shared.state.metrics.conn_close(conn.served);
    }
}

/// Expires idle and stuck connections: idle-between-requests closes
/// cleanly, a stall mid-request is answered 400, a peer that stops
/// draining its response is dropped after the I/O timeout.
fn sweep_idle(ep: &Epoll, conns: &mut HashMap<u64, Conn>, shared: &Shared, shard: usize) {
    let now = Instant::now();
    let mut idle_expired: Vec<u64> = Vec::new();
    let mut write_stuck: Vec<u64> = Vec::new();
    let mut stalled: Vec<u64> = Vec::new();
    for (token, conn) in conns.iter() {
        let idle = now.duration_since(conn.last_activity);
        match conn.phase {
            Phase::Reading if idle > shared.limits.idle_timeout => {
                if conn.parser.is_empty() {
                    idle_expired.push(*token);
                } else {
                    stalled.push(*token);
                }
            }
            Phase::Writing if idle > http::IO_TIMEOUT => write_stuck.push(*token),
            _ => {}
        }
    }
    for token in idle_expired {
        // A clean keep-alive reap, not an I/O failure: the teardown
        // cause shows up in `tn_conn_idle_closed_total`.
        shared.state.metrics.conn_idle_closed();
        close_conn(conns, token, shared);
    }
    for token in write_stuck {
        close_conn(conns, token, shared);
    }
    for token in stalled {
        let Some(conn) = conns.get_mut(&token) else {
            continue;
        };
        let why = conn.parser.stall_error();
        conn.stage(&Response::error(400, why), false);
        let ctx = Ctx { ep, shared, shard };
        if let Drive::Close = pump(conn, &ctx) {
            close_conn(conns, token, shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// A socket stand-in that accepts 1–7 bytes per call and fails some
    /// calls with `WouldBlock` or `Interrupted` in between.
    #[derive(Default)]
    struct Trickle {
        wire: Vec<u8>,
        calls: usize,
    }

    impl Trickle {
        /// How many bytes this call accepts, or the error it fails with.
        fn room(&mut self) -> io::Result<usize> {
            self.calls += 1;
            match self.calls % 5 {
                1 => Err(io::ErrorKind::WouldBlock.into()),
                3 => Err(io::ErrorKind::Interrupted.into()),
                _ => Ok(1 + self.calls % 7),
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.room()?.min(buf.len());
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut room = self.room()?;
            let mut n = 0;
            for buf in bufs {
                let take = room.min(buf.len());
                self.wire.extend_from_slice(&buf[..take]);
                (n, room) = (n + take, room - take);
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn staged_writes_resume_to_the_exact_wire_bytes() {
        let large: String = (0..600_000u32)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let records = format!("{{\"a\":1}}\n\n{}\n", "b".repeat(70));
        let responses = [
            Response::json(200, String::new()),
            Response::json(200, "x".to_string()),
            Response::json(200, large),
            Response::chunked(200, "application/x-ndjson", records),
        ];
        for response in responses {
            let response = response.with_header("x-request-id", "00ff00ff00ff00ff");
            for keep in [true, false] {
                let (head, body) = response.head_and_body(keep);
                let body = body.as_deref().unwrap_or_default().as_bytes();
                let mut socket = Trickle::default();
                let (mut pos, mut blocked) = (0, 0);
                while !write_staged(&mut socket, &head, body, &mut pos).expect("no hard error") {
                    blocked += 1;
                    assert!(blocked <= head.len() + body.len(), "no progress at {pos}");
                }
                assert!(blocked > 0, "the writer blocked at least once");
                assert_eq!(pos, head.len() + body.len());
                assert!(
                    socket.wire == response.to_bytes(keep),
                    "{}-byte body, keep {keep}: wire bytes differ from to_bytes",
                    response.body_len()
                );
            }
        }
    }

    #[test]
    fn a_socket_that_takes_nothing_is_an_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut pos = 0;
        let err = write_staged(&mut Full, b"head", b"body", &mut pos).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(pos, 0);
    }
}
