//! Simulation-as-a-service: the `facilec serve` job daemon.
//!
//! The paper's pitch is that a compiled, memoizing simulator makes
//! re-simulation cheap enough to run constantly. This module turns the
//! batch driver into a long-running service so its amortized artifacts —
//! one [`Arc<CompiledStep>`], one frozen warm snapshot shared
//! copy-on-write (PR 9) — serve many clients over a TCP socket instead
//! of one job file. The workspace builds fully offline, so the protocol
//! is hand-rolled: length-prefixed JSON frames (see `docs/SERVING.md`).
//!
//! # Frame format
//!
//! Every message, both directions, is one frame:
//!
//! ```text
//! <body-length as ASCII decimal>\n<body bytes>
//! ```
//!
//! The body is one JSON object. Requests carry an `op` — `ping`,
//! `stats`, `sim`, `shutdown` — and responses echo `"ok":true/false`
//! plus the client-chosen job `id` where one applies. A `sim` job is
//! answered with an `accepted` frame, optional `epoch` heartbeats
//! (PR 8's timeline slicing), and finally one `result` or `error`
//! frame.
//!
//! # Hardening
//!
//! The daemon survives what batch never had to:
//!
//! * **Malformed frames** — an unparsable length header is `bad_frame`
//!   and closes the connection (the stream cannot resync); a
//!   well-framed body that is not a valid request is `bad_request` and
//!   the connection stays usable.
//! * **Queue overflow** — the job queue is bounded; a full queue
//!   rejects with a structured `queue_full` error immediately, never
//!   blocking the accept loop (honest backpressure).
//! * **Mid-job disconnects** — result and heartbeat writes to a dead
//!   client are dropped, the job completes, the worker moves on.
//! * **Panicking jobs** — the worker wraps each job in
//!   `catch_unwind`, exactly like the batch pool, and answers with a
//!   `job_panicked` error frame.
//! * **Graceful drain** — `shutdown` (or [`ShutdownTrigger`], wired to
//!   SIGTERM in `facilec serve`) stops the accept loop, closes the
//!   queue, lets the workers finish every queued job and deliver its
//!   result, then severs connections.

use crate::hosts::initial_args;
use crate::job::{execute, shielded, BatchJob, JobOutcome, ProfileSource, Sections};
use crate::{CompiledStep, EpochRecord, SimError, SimOptions};
use facile_obs::json::{escape_into, parse, Value};
use facile_obs::ServeCounters;
use facile_runtime::CachePolicy;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted frame body, in bytes. Assembly programs are small;
/// anything past this is a confused or hostile client.
pub const MAX_FRAME: usize = 4 << 20;

/// Largest accepted length header (digits before the newline).
const HEADER_MAX: usize = 10;

/// How often the accept loop polls its shutdown flag between
/// non-blocking accepts.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Why reading one frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// The length header was not a decimal length (stream cannot
    /// resync past this; close the connection).
    BadHeader(String),
    /// The declared body length exceeds [`MAX_FRAME`].
    TooBig(usize),
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::BadHeader(h) => write!(f, "bad frame header {h:?}"),
            FrameError::TooBig(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

/// Writes one length-prefixed frame and flushes it.
///
/// # Errors
///
/// Propagates the transport error; the caller decides whether the
/// connection is dead.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    // One write call per frame keeps concurrent writers (workers
    // sharing a connection) from interleaving header and body.
    let mut msg = Vec::with_capacity(body.len() + HEADER_MAX + 1);
    msg.extend_from_slice(body.len().to_string().as_bytes());
    msg.push(b'\n');
    msg.extend_from_slice(body.as_bytes());
    w.write_all(&msg)?;
    w.flush()
}

/// Reads one length-prefixed frame body.
///
/// # Errors
///
/// [`FrameError::Eof`] on a clean close before any header byte;
/// [`FrameError::BadHeader`] when the header is not a plain decimal
/// length (including an oversized header and a header interrupted by
/// EOF); [`FrameError::TooBig`] / [`FrameError::Io`] as named.
pub fn read_frame(r: &mut impl BufRead) -> Result<String, FrameError> {
    let mut header = Vec::with_capacity(HEADER_MAX + 1);
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if header.is_empty() => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::BadHeader(
                    String::from_utf8_lossy(&header).into_owned(),
                ))
            }
            Ok(_) => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
        if byte[0] == b'\n' {
            break;
        }
        header.push(byte[0]);
        if header.len() > HEADER_MAX {
            return Err(FrameError::BadHeader(
                String::from_utf8_lossy(&header).into_owned(),
            ));
        }
    }
    let text = String::from_utf8_lossy(&header).into_owned();
    let len: usize = match text.trim_end_matches('\r').parse() {
        Ok(n) => n,
        Err(_) => return Err(FrameError::BadHeader(text)),
    };
    if len > MAX_FRAME {
        return Err(FrameError::TooBig(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(FrameError::Io)?;
    String::from_utf8(body).map_err(|_| FrameError::BadHeader("non-utf8 body".to_owned()))
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Daemon configuration; everything a `facilec serve` flag can set.
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (the chosen
    /// address is [`Server::addr`]).
    pub addr: String,
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Bounded job-queue depth; a push past this rejects with
    /// `queue_full`.
    pub queue_cap: usize,
    /// Epoch interval (steps) for heartbeats and requested timelines.
    pub epoch_steps: u64,
    /// Which shipped micro-architecture the compiled step models —
    /// `functional`, `inorder` or `ooo` — selecting the initial `main`
    /// arguments for every job.
    pub arch: String,
    /// Default engine options; a job's `options` object overrides
    /// field-wise.
    pub options: SimOptions,
    /// Source text, for jobs that request a profile document.
    pub source: Option<ProfileSource>,
    /// A warm snapshot every lane starts from, shared copy-on-write
    /// exactly as in batch mode (validated per lane; mismatches run
    /// cold).
    pub warm: Option<Arc<facile_vm::snapshot::LoadedSnapshot>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 0,
            queue_cap: 64,
            epoch_steps: facile_obs::DEFAULT_EPOCH_STEPS,
            arch: "functional".to_owned(),
            options: SimOptions::default(),
            source: None,
            warm: None,
        }
    }
}

// ---------------------------------------------------------------------
// Internals: connection writer, job queue, shared state
// ---------------------------------------------------------------------

/// The write half of one client connection, shared between the reader
/// thread (acks, errors) and every worker that picked up one of its
/// jobs (heartbeats, results). A failed write marks the connection
/// dead; later frames to it are dropped silently — a disconnected
/// client must not wedge a worker.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter {
            stream: Mutex::new(stream),
            alive: AtomicBool::new(true),
        }
    }

    /// Sends one frame; `false` when the client is (or just became)
    /// unreachable.
    fn send(&self, body: &str) -> bool {
        if !self.alive.load(Ordering::Acquire) {
            return false;
        }
        let mut s = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        if write_frame(&mut *s, body).is_err() {
            self.alive.store(false, Ordering::Release);
            return false;
        }
        true
    }

    /// Runs `push` with the write half locked and, when it succeeds,
    /// sends `ack` before unlocking — so a fast worker cannot deliver a
    /// job's result ahead of its `accepted` frame.
    fn ack_after<E>(&self, push: impl FnOnce() -> Result<(), E>, ack: &str) -> Result<(), E> {
        let mut s = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        push()?;
        if self.alive.load(Ordering::Acquire) && write_frame(&mut *s, ack).is_err() {
            self.alive.store(false, Ordering::Release);
        }
        Ok(())
    }

    /// Severs the connection in both directions, unblocking its reader.
    fn sever(&self) {
        self.alive.store(false, Ordering::Release);
        let s = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
}

/// One accepted simulation job, parked until a worker picks it up.
struct QueuedJob {
    id: u64,
    job: BatchJob,
    /// The documents the client asked to have embedded in the result
    /// frame.
    want: Sections,
    heartbeat: bool,
    conn: Arc<ConnWriter>,
}

/// Why a job could not be queued.
enum PushError {
    /// The queue is at capacity — honest backpressure, reject now.
    Full,
    /// The daemon is draining; no new work.
    Closed,
}

struct QueueInner {
    jobs: VecDeque<QueuedJob>,
    closed: bool,
    peak: u64,
}

/// Bounded MPMC job queue: readers push (failing fast on overflow),
/// workers block on pop until a job arrives or the queue closes empty.
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
                peak: 0,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn push(&self, job: QueuedJob) -> Result<(), PushError> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.closed {
            return Err(PushError::Closed);
        }
        if q.jobs.len() >= self.cap {
            return Err(PushError::Full);
        }
        q.jobs.push_back(job);
        q.peak = q.peak.max(q.jobs.len() as u64);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available; `None` once the queue is
    /// closed **and** drained — the drain-then-exit contract.
    fn pop(&self) -> Option<QueuedJob> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }

    fn peak(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).peak
    }
}

/// Everything the accept loop, reader threads, and workers share.
struct Shared {
    step: Arc<CompiledStep>,
    queue: JobQueue,
    counters: Mutex<ServeCounters>,
    shutdown: AtomicBool,
    conns: Mutex<Vec<Arc<ConnWriter>>>,
    epoch_steps: u64,
    arch: String,
    options: SimOptions,
    source: Option<Arc<ProfileSource>>,
    warm: Option<Arc<facile_vm::snapshot::LoadedSnapshot>>,
}

impl Shared {
    fn new(step: Arc<CompiledStep>, config: ServeConfig) -> Shared {
        Shared {
            step,
            queue: JobQueue::new(config.queue_cap),
            counters: Mutex::new(ServeCounters::default()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            epoch_steps: config.epoch_steps.max(1),
            arch: config.arch,
            options: config.options,
            source: config.source.map(Arc::new),
            warm: config.warm,
        }
    }

    fn count(&self, f: impl FnOnce(&mut ServeCounters)) {
        f(&mut self.counters.lock().unwrap_or_else(|e| e.into_inner()));
    }

    fn stats(&self) -> ServeCounters {
        let mut c = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        c.queue_peak = self.queue.peak();
        c
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// A handle that requests a graceful drain from another thread —
/// `facilec serve` hands one to its SIGTERM watcher.
#[derive(Clone)]
pub struct ShutdownTrigger(Arc<Shared>);

impl ShutdownTrigger {
    /// Requests drain-then-exit; idempotent.
    pub fn trigger(&self) {
        self.0.shutdown.store(true, Ordering::Release);
    }
}

/// A running job daemon. Constructed bound and serving; consumed by
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns
    /// immediately; the daemon serves until `shutdown` is requested.
    ///
    /// # Errors
    ///
    /// Only transport setup can fail: bind or the non-blocking switch.
    pub fn start(step: Arc<CompiledStep>, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            config.threads
        };
        let shared = Arc::new(Shared::new(step, config));

        let workers = (0..threads)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    while let Some(q) = shared.queue.pop() {
                        run_job(&shared, q);
                    }
                })
            })
            .collect();

        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable handle that requests shutdown from anywhere.
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger(self.shared.clone())
    }

    /// Whether a drain has been requested (by a `shutdown` frame or a
    /// trigger).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until shutdown is requested, drains the queue — every
    /// already-accepted job runs and its result frame is delivered —
    /// then severs connections and returns the lifetime counters.
    pub fn join(mut self) -> ServeCounters {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Past this point no reader can enqueue (pushes fail Closed →
        // `shutting_down` error frames), but queued jobs still run.
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Results are all delivered; now unblock the reader threads.
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for c in &conns {
            c.sever();
        }
        self.shared.stats()
    }
}

/// The accept loop: non-blocking accepts with a shutdown poll between
/// them, so a drain request is honored within [`ACCEPT_POLL`] even
/// with no client traffic.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.count(|c| c.connections += 1);
                let _ = stream.set_nonblocking(false);
                let writer = match stream.try_clone() {
                    Ok(w) => Arc::new(ConnWriter::new(w)),
                    Err(_) => continue,
                };
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(writer.clone());
                let shared = shared.clone();
                std::thread::spawn(move || serve_conn(stream, &writer, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// One connection's reader: parse frames, answer control ops inline,
/// queue `sim` jobs. Returns (ending the thread) on EOF, an
/// unrecoverable frame error, or a severed stream.
fn serve_conn(stream: TcpStream, writer: &Arc<ConnWriter>, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(stream);
    loop {
        let body = match read_frame(&mut reader) {
            Ok(b) => b,
            Err(FrameError::Eof) => {
                writer.alive.store(false, Ordering::Release);
                return;
            }
            Err(e @ (FrameError::BadHeader(_) | FrameError::TooBig(_))) => {
                // The stream cannot resync after a bad header: answer
                // once, then close.
                shared.count(|c| c.bad_frames += 1);
                writer.send(&error_frame(None, "bad_frame", &e.to_string()));
                writer.sever();
                return;
            }
            Err(FrameError::Io(_)) => {
                writer.alive.store(false, Ordering::Release);
                return;
            }
        };
        let req = match parse(&body) {
            Ok(v) => v,
            Err(e) => {
                // Well-framed garbage: report it, keep the connection.
                shared.count(|c| c.bad_requests += 1);
                writer.send(&error_frame(None, "bad_request", &e.to_string()));
                continue;
            }
        };
        let id = match uint(&req, "id") {
            Ok(id) => id,
            Err(e) => {
                shared.count(|c| c.bad_requests += 1);
                writer.send(&error_frame(None, "bad_request", &e));
                continue;
            }
        };
        match req.get("op").and_then(Value::as_str) {
            Some("ping") => {
                writer.send("{\"ok\":true,\"op\":\"pong\"}");
            }
            Some("stats") => {
                let mut s = String::from("{\"ok\":true,\"op\":\"stats\",\"serve\":");
                s.push_str(&shared.stats().to_json());
                s.push('}');
                writer.send(&s);
            }
            Some("shutdown") => {
                writer.send("{\"ok\":true,\"op\":\"shutdown\"}");
                shared.shutdown.store(true, Ordering::Release);
            }
            Some("sim") => handle_sim(&req, id, writer, shared),
            _ => {
                shared.count(|c| c.bad_requests += 1);
                writer.send(&error_frame(id, "bad_request", "missing or unknown `op`"));
            }
        }
    }
}

/// Parses and queues one `sim` request, answering `accepted` or a
/// structured rejection.
fn handle_sim(req: &Value, id: Option<u64>, writer: &Arc<ConnWriter>, shared: &Arc<Shared>) {
    let id = id.unwrap_or(0);
    let (job, want, heartbeat) = match decode_sim(req, id, shared) {
        Ok(decoded) => decoded,
        Err((code, message)) => {
            shared.count(|c| c.bad_requests += 1);
            writer.send(&error_frame(Some(id), code, &message));
            return;
        }
    };
    let queued = QueuedJob {
        id,
        job,
        want,
        heartbeat,
        conn: writer.clone(),
    };
    let ack = format!("{{\"ok\":true,\"op\":\"accepted\",\"id\":{id}}}");
    let pushed = writer.ack_after(
        || {
            shared.queue.push(queued)?;
            shared.count(|c| c.accepted += 1);
            Ok(())
        },
        &ack,
    );
    match pushed {
        Ok(()) => {}
        Err(PushError::Full) => {
            shared.count(|c| c.rejected += 1);
            writer.send(&error_frame(
                Some(id),
                "queue_full",
                "job queue is at capacity; retry later",
            ));
        }
        Err(PushError::Closed) => {
            writer.send(&error_frame(
                Some(id),
                "shutting_down",
                "daemon is draining; no new jobs",
            ));
        }
    }
}

/// The optional member `key` of `obj` decoded by `as_t`: absent is
/// `None`, a present value of the wrong type is an error — never a
/// silent default or coercion.
fn field<'a, T>(
    obj: &'a Value,
    key: &str,
    want: &str,
    as_t: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<Option<T>, String> {
    obj.get(key)
        .map(|v| as_t(v).ok_or_else(|| format!("`{key}` must be {want}")))
        .transpose()
}

fn uint(obj: &Value, key: &str) -> Result<Option<u64>, String> {
    field(obj, key, "a non-negative integer", Value::as_u64)
}

fn flag(obj: &Value, key: &str) -> Result<Option<bool>, String> {
    field(obj, key, "true or false", |v| match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    })
}

/// Decodes a `sim` request into its job, the wanted sections and
/// whether it asked for heartbeats; an `Err` carries the error code and
/// message of the rejection frame.
fn decode_sim(
    req: &Value,
    id: u64,
    shared: &Shared,
) -> Result<(BatchJob, Sections, bool), (&'static str, String)> {
    let bad = |message: String| ("bad_request", message);
    let asm = field(req, "asm", "a string", Value::as_str)
        .map_err(bad)?
        .ok_or_else(|| bad("`sim` requires `asm`".to_owned()))?;
    let image = facile_isa::assemble_image(asm, 0x1_0000, vec![])
        .map_err(|e| ("asm_error", e.to_string()))?;
    let label = field(req, "label", "a string", Value::as_str)
        .map_err(bad)?
        .map_or_else(|| format!("serve-job{id}"), str::to_owned);
    let max_steps = uint(req, "max_steps")
        .map_err(bad)?
        .unwrap_or(u64::MAX >> 1)
        .min(u64::MAX >> 1);
    let mut options = shared.options;
    if let Some(o) = req.get("options") {
        if !matches!(o, Value::Obj(_)) {
            return Err(bad("`options` must be an object".to_owned()));
        }
        if let Some(b) = flag(o, "memoize").map_err(bad)? {
            options.memoize = b;
        }
        if let Some(n) = uint(o, "cache_capacity").map_err(bad)? {
            options.cache_capacity = Some(n);
        }
        match field(o, "cache_policy", "`clear` or `generational`", Value::as_str).map_err(bad)? {
            Some("clear") => options.cache_policy = CachePolicy::Clear,
            Some("generational") => options.cache_policy = CachePolicy::Generational,
            Some(other) => return Err(bad(format!("unknown cache_policy `{other}`"))),
            None => {}
        }
    }
    let names = field(req, "want", "an array", Value::as_arr)
        .map_err(bad)?
        .unwrap_or_default()
        .iter()
        .map(|w| w.as_str().ok_or_else(|| bad("`want` entries must be strings".to_owned())))
        .collect::<Result<Vec<&str>, _>>()?;
    let want =
        Sections::from_names(names, shared.source.as_ref(), shared.epoch_steps).map_err(bad)?;
    let heartbeat = flag(req, "heartbeat").map_err(bad)?.unwrap_or(false);
    let job = BatchJob {
        label,
        args: initial_args::for_arch(&shared.arch, image.entry),
        image,
        options,
        max_steps,
    };
    Ok((job, want, heartbeat))
}

/// Runs one queued job on a worker: the job pipeline every batch lane
/// runs, under the same panic shield, streaming heartbeats, then one
/// result or error frame. The job attaches only the recorders its
/// wanted documents (and heartbeats) need.
fn run_job(shared: &Arc<Shared>, q: QueuedJob) {
    let QueuedJob {
        id,
        job,
        want,
        heartbeat,
        conn,
    } = q;
    let mut sections = want.clone();
    if heartbeat {
        sections.timeline = Some(shared.epoch_steps);
    }
    let epoch_cb = |epoch: u64, rec: &EpochRecord| {
        let frame = format!(
            "{{\"ok\":true,\"op\":\"epoch\",\"id\":{id},\"epoch\":{epoch},\
             \"steps\":{},\"insns\":{},\"misses\":{},\"fast_fraction\":{:.6}}}",
            rec.steps(),
            rec.insns(),
            rec.misses,
            rec.fast_fraction(),
        );
        if conn.send(&frame) {
            shared.count(|c| c.heartbeats += 1);
        }
    };
    let cb: crate::job::EpochCallback<'_> = if heartbeat { Some(&epoch_cb) } else { None };
    let label = job.label.clone();
    let outcome = shielded(&label, || {
        execute(&shared.step, job, &sections, shared.warm.as_deref(), cb)
    });
    match outcome {
        Ok(mut o) => {
            // A heartbeat-only job records a timeline too; embed it only
            // when it was asked for.
            if want.timeline.is_none() {
                o.doc.timeline = None;
            }
            shared.count(|c| c.completed += 1);
            if !conn.send(&result_frame(id, &o, &want)) {
                shared.count(|c| c.disconnects += 1);
            }
        }
        Err(e) => {
            shared.count(|c| c.failed += 1);
            let code = match &e {
                SimError::Panic(_) => "job_panicked",
                _ => "sim_error",
            };
            if !conn.send(&error_frame(Some(id), code, &e.to_string())) {
                shared.count(|c| c.disconnects += 1);
            }
        }
    }
}

/// Renders one result frame: the scalar outcome (digest as a hex
/// string — JSON numbers are lossy past 2^53), plus the job's run
/// document under `obs` when any section was requested.
fn result_frame(id: u64, o: &JobOutcome, want: &Sections) -> String {
    let d = &o.doc;
    let mut s = String::with_capacity(256);
    let _ = write!(s, "{{\"ok\":true,\"op\":\"result\",\"id\":{id},\"label\":");
    escape_into(&mut s, &d.label);
    let _ = write!(
        s,
        ",\"halt\":{},\"steps\":{},\"wall_ns\":{},\"digest\":\"{:016x}\",\
         \"insns\":{},\"cycles\":{},\"misses\":{},\"fast_fraction\":{:.6},\"out\":[",
        match o.halt {
            Some(h) => format!("\"{h:?}\""),
            None => "null".to_owned(),
        },
        o.steps,
        d.wall_ns,
        o.digest,
        d.sim.insns,
        d.sim.cycles,
        d.sim.misses,
        d.sim.fast_forwarded_fraction(),
    );
    for (i, v) in o.out.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // Decimal strings, same reason the digest is hex: `out` values
        // use the full 64-bit range and JSON numbers are lossy there.
        let _ = write!(s, "\"{v}\"");
    }
    s.push(']');
    if !want.is_empty() {
        s.push_str(",\"obs\":");
        s.push_str(&d.to_json());
    }
    s.push('}');
    s
}

/// Renders one structured error frame.
fn error_frame(id: Option<u64>, code: &str, message: &str) -> String {
    let mut s = String::with_capacity(64 + message.len());
    s.push_str("{\"ok\":false,\"op\":\"error\",\"error\":\"");
    s.push_str(code);
    s.push('"');
    if let Some(id) = id {
        let _ = write!(s, ",\"id\":{id}");
    }
    s.push_str(",\"message\":");
    escape_into(&mut s, message);
    s.push('}');
    s
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking protocol client: one connection, framed requests and
/// responses. The integration tests and the `sim_serve` load generator
/// speak through this; external clients only need the frame format.
pub struct ServeClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Transport errors from connect or stream cloning.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient { stream, reader })
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send(&mut self, body: &str) -> io::Result<()> {
        write_frame(&mut self.stream, body)
    }

    /// Receives one frame body, verbatim.
    ///
    /// # Errors
    ///
    /// Frame errors become `io::Error` (`UnexpectedEof` for a closed
    /// stream, `InvalidData` for framing violations).
    pub fn recv_raw(&mut self) -> io::Result<String> {
        read_frame(&mut self.reader).map_err(|e| match e {
            FrameError::Eof => io::Error::new(io::ErrorKind::UnexpectedEof, "closed"),
            FrameError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })
    }

    /// Receives and parses one frame.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` when the daemon sent
    /// something that is not JSON (it never does).
    pub fn recv(&mut self) -> io::Result<Value> {
        let body = self.recv_raw()?;
        parse(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends one frame and receives the next one — the control-op
    /// round-trip (`ping`, `stats`, `shutdown`).
    ///
    /// # Errors
    ///
    /// As [`ServeClient::send`] / [`ServeClient::recv`].
    pub fn request(&mut self, body: &str) -> io::Result<Value> {
        self.send(body)?;
        self.recv()
    }

    /// Submits one simulation job (already-rendered request body) and
    /// blocks until its `result`/`error` frame, skipping `accepted`
    /// acks and `epoch` heartbeats.
    ///
    /// # Errors
    ///
    /// Transport errors; a structured daemon-side failure is the `Ok`
    /// value (`"ok": false` in the frame), not an `Err`.
    pub fn submit_and_wait(&mut self, body: &str) -> io::Result<Value> {
        self.send(body)?;
        loop {
            let frame = self.recv()?;
            match frame.get("op").and_then(Value::as_str) {
                Some("accepted" | "epoch") => continue,
                _ => return Ok(frame),
            }
        }
    }
}

/// Renders a `sim` request body for [`ServeClient::submit_and_wait`].
pub fn sim_request(id: u64, label: &str, asm: &str, want: &[&str], heartbeat: bool) -> String {
    let mut s = String::with_capacity(asm.len() + 128);
    let _ = write!(s, "{{\"op\":\"sim\",\"id\":{id},\"label\":");
    escape_into(&mut s, label);
    s.push_str(",\"asm\":");
    escape_into(&mut s, asm);
    if !want.is_empty() {
        s.push_str(",\"want\":[");
        for (i, w) in want.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{w}\"");
        }
        s.push(']');
    }
    if heartbeat {
        s.push_str(",\"heartbeat\":true");
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, CompilerOptions};

    const LOOP_ASM: &str = "addi r1, r0, 50\n\
         addi r2, r0, 0\n\
         loop: add r2, r2, r1\n\
         addi r1, r1, -1\n\
         bne r1, r0, loop\n\
         out r2\n\
         halt\n";

    fn server() -> Server {
        let src = crate::sims::functional_source();
        let step = Arc::new(compile_source(&src, &CompilerOptions::default()).unwrap());
        Server::start(
            step,
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
        )
        .expect("binds an ephemeral port")
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\"}").unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap(), "{\"op\":\"ping\"}");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    }

    #[test]
    fn bad_headers_are_structured_errors() {
        let mut r = io::BufReader::new(&b"xyz\n{}"[..]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadHeader(_))));
        let huge = format!("{}\n", MAX_FRAME + 1);
        let mut r = io::BufReader::new(huge.as_bytes());
        assert!(matches!(read_frame(&mut r), Err(FrameError::TooBig(_))));
    }

    #[test]
    fn ping_job_stats_shutdown_round_trip() {
        let server = server();
        let addr = server.addr();
        let mut c = ServeClient::connect(addr).expect("connects");
        let pong = c.request("{\"op\":\"ping\"}").expect("pong");
        assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));

        let result = c
            .submit_and_wait(&sim_request(7, "t", LOOP_ASM, &["metrics"], false))
            .expect("result frame");
        assert_eq!(result.get("op").and_then(Value::as_str), Some("result"));
        assert_eq!(result.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(result.get("halt").and_then(Value::as_str), Some("Explicit"));
        assert_eq!(
            result.get("out").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        let digest = result.get("digest").and_then(Value::as_str).unwrap();
        assert_eq!(digest.len(), 16, "16 hex digits");
        let doc = result.get("obs").expect("requested document is embedded");
        let doc = facile_obs::RunDoc::from_value(doc).expect("embedded document parses");
        assert!(doc.metrics.is_some() && doc.timeline.is_none(), "exactly the wanted sections");

        let stats = c.request("{\"op\":\"stats\"}").expect("stats");
        let serve = ServeCounters::from_value(stats.get("serve").expect("serve object"));
        assert_eq!(serve.completed, 1);
        assert_eq!(serve.connections, 1);

        let ack = c.request("{\"op\":\"shutdown\"}").expect("ack");
        assert_eq!(ack.get("op").and_then(Value::as_str), Some("shutdown"));
        let final_counters = server.join();
        assert_eq!(final_counters.completed, 1);
        assert_eq!(final_counters.failed, 0);
    }

    #[test]
    fn garbage_body_keeps_the_connection_usable() {
        let server = server();
        let mut c = ServeClient::connect(server.addr()).expect("connects");
        let err = c.request("this is not json").expect("error frame");
        assert_eq!(err.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            err.get("error").and_then(Value::as_str),
            Some("bad_request")
        );
        // Same connection still serves.
        let pong = c.request("{\"op\":\"ping\"}").expect("pong after error");
        assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));
        server.shutdown_trigger().trigger();
        server.join();
    }

    #[test]
    fn bad_asm_is_a_structured_error() {
        let server = server();
        let mut c = ServeClient::connect(server.addr()).expect("connects");
        let err = c
            .submit_and_wait(&sim_request(1, "bad", "not an instruction\n", &[], false))
            .expect("error frame");
        assert_eq!(err.get("error").and_then(Value::as_str), Some("asm_error"));
        assert_eq!(err.get("id").and_then(Value::as_u64), Some(1));
        // A retired section name is an unknown section, answered on the
        // same connection.
        let err = c
            .submit_and_wait(&sim_request(2, "retired", LOOP_ASM, &["hot"], false))
            .expect("error frame");
        assert_eq!(err.get("error").and_then(Value::as_str), Some("bad_request"));
        assert_eq!(err.get("id").and_then(Value::as_u64), Some(2));
        let message = err.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains("unknown section `hot`"), "{message}");
        let pong = c.request("{\"op\":\"ping\"}").expect("pong after error");
        assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));
        server.shutdown_trigger().trigger();
        server.join();
    }

    #[test]
    fn heartbeats_stream_closed_epochs() {
        let src = crate::sims::functional_source();
        let step = Arc::new(compile_source(&src, &CompilerOptions::default()).unwrap());
        let server = Server::start(
            step,
            ServeConfig {
                threads: 1,
                epoch_steps: 16,
                ..ServeConfig::default()
            },
        )
        .expect("binds");
        let mut c = ServeClient::connect(server.addr()).expect("connects");
        c.send(&sim_request(3, "hb", LOOP_ASM, &[], true)).unwrap();
        let mut epochs = Vec::new();
        let result = loop {
            let frame = c.recv().expect("frame");
            match frame.get("op").and_then(Value::as_str) {
                Some("accepted") => {}
                Some("epoch") => {
                    epochs.push(frame.get("epoch").and_then(Value::as_u64).unwrap());
                }
                _ => break frame,
            }
        };
        assert_eq!(result.get("op").and_then(Value::as_str), Some("result"));
        assert!(!epochs.is_empty(), "a 16-step epoch over a 50-iteration loop closes epochs");
        let in_order = epochs.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(in_order, "heartbeats arrive in epoch order: {epochs:?}");
        assert_eq!(epochs[0], 0, "heartbeats start at epoch 0");
        server.shutdown_trigger().trigger();
        let counters = server.join();
        assert_eq!(counters.heartbeats, epochs.len() as u64);
    }

    /// A frame nested deeper than the JSON parser's cap is an ordinary
    /// `bad_request`, not a stack overflow that aborts the daemon; the
    /// same server then completes a normal job.
    #[test]
    fn deeply_nested_frame_is_a_bad_request() {
        let server = server();
        let mut c = ServeClient::connect(server.addr()).expect("connects");
        let err = c.request(&"[".repeat(200_000)).expect("error frame");
        assert_eq!(err.get("error").and_then(Value::as_str), Some("bad_request"));
        assert!(
            err.get("message").and_then(Value::as_str).unwrap().contains("nesting too deep"),
            "{err:?}"
        );
        let result = c
            .submit_and_wait(&sim_request(2, "after", LOOP_ASM, &[], false))
            .expect("result frame");
        assert_eq!(result.get("op").and_then(Value::as_str), Some("result"));
        server.shutdown_trigger().trigger();
        assert_eq!(server.join().completed, 1);
    }

    /// Ill-typed numeric fields are rejected, never coerced: a negative
    /// step budget must not run a 0-step job that reports success, nor a
    /// negative capacity become capacity 0.
    #[test]
    fn ill_typed_numeric_fields_are_bad_requests() {
        let server = server();
        let mut c = ServeClient::connect(server.addr()).expect("connects");
        let asm = json_string(LOOP_ASM);
        for (extra, field) in [
            ("\"max_steps\":-1", "max_steps"),
            ("\"options\":{\"cache_capacity\":-5}", "cache_capacity"),
            ("\"max_steps\":2.5", "max_steps"),
            ("\"options\":{\"memoize\":\"on\"}", "memoize"),
        ] {
            let body = format!("{{\"op\":\"sim\",\"id\":4,\"asm\":{asm},{extra}}}");
            let err = c.submit_and_wait(&body).expect("error frame");
            assert_eq!(err.get("error").and_then(Value::as_str), Some("bad_request"), "{extra}");
            let message = err.get("message").and_then(Value::as_str).unwrap();
            assert!(message.contains(field), "{extra}: {message}");
        }
        let err = c.request("{\"op\":\"ping\",\"id\":-3}").expect("error frame");
        assert_eq!(err.get("error").and_then(Value::as_str), Some("bad_request"));
        // Options the daemon does not know are ignored, whatever their
        // type — among them the retired `supertrace` pair.
        let body = format!(
            "{{\"op\":\"sim\",\"id\":5,\"asm\":{asm},\
             \"options\":{{\"supertrace\":\"on\",\"supertrace_threshold\":-8}}}}"
        );
        let result = c.submit_and_wait(&body).expect("result frame");
        assert_eq!(result.get("op").and_then(Value::as_str), Some("result"), "{result:?}");
        server.shutdown_trigger().trigger();
        let counters = server.join();
        assert_eq!((counters.accepted, counters.bad_requests), (1, 5));
    }

    /// SplitMix64, inlined so the request fuzz needs no dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// JSON values a mutated field takes: other types, and numbers that
    /// are negative, fractional or too large for their field.
    const VALUES: &[&str] = &[
        "-1",
        "0",
        "0.5",
        "-0.0",
        "2.5e3",
        "1e300",
        "-1e300",
        "18446744073709551615",
        "18446744073709551616",
        "9007199254740993",
        "true",
        "false",
        "null",
        "\"\"",
        "\"8\"",
        "\"\\u0000\u{e9}\"",
        "[]",
        "[1]",
        "{}",
        "{\"memoize\":1}",
    ];

    /// `want` entries: every section, the retired `hot`, and unknown or
    /// ill-typed names.
    const WANTS: &[&str] = &[
        "\"metrics\"",
        "\"profile\"",
        "\"hot\"",
        "\"timeline\"",
        "\"bogus\"",
        "\"\"",
        "\"Metrics\"",
        "1",
        "null",
        "[\"metrics\"]",
    ];

    /// Replacements for an asm operand: integer extremes, broken memory
    /// operands, stray separators and labels.
    const OPERANDS: &[&str] = &[
        "-9223372036854775808",
        "9223372036854775808",
        "0x",
        "r32",
        "8(r1",
        ")(",
        "",
        ":",
        "loop:",
        "nowhere",
    ];

    /// Object members: key, and value as JSON text.
    type Members = Vec<(&'static str, String)>;

    /// A valid `sim` request's fields and its `options` object's.
    fn valid_request() -> (Members, Members) {
        let fields = vec![
            ("id", "7".to_owned()),
            ("label", "\"fuzz\"".to_owned()),
            ("asm", json_string(LOOP_ASM)),
            ("max_steps", "1000".to_owned()),
            ("want", "[\"metrics\",\"timeline\"]".to_owned()),
            ("heartbeat", "false".to_owned()),
        ];
        let options = vec![
            ("memoize", "true".to_owned()),
            ("cache_capacity", "4096".to_owned()),
            ("cache_policy", "\"generational\"".to_owned()),
        ];
        (fields, options)
    }

    fn json_string(text: &str) -> String {
        let mut s = String::new();
        escape_into(&mut s, text);
        s
    }

    /// Applies one mutation to a line of `asm`.
    fn mutate_asm(rng: &mut SplitMix, asm: &str) -> String {
        let mut lines: Vec<String> = asm.lines().map(str::to_owned).collect();
        let at = rng.below(lines.len());
        match rng.below(4) {
            0 => {
                let line = &lines[at];
                let keep = line.rfind([',', ' ']).map_or(0, |i| i + 1);
                lines[at] = format!("{}{}", &line[..keep], rng.pick(OPERANDS));
            }
            1 => {
                let cut = rng.below(lines[at].len() + 1);
                lines[at].truncate(cut);
            }
            2 => {
                lines.remove(at);
            }
            _ => {
                let line = lines[at].clone();
                lines.insert(at, line);
            }
        }
        lines.join("\n")
    }

    /// A valid `sim` request with one to three mutations applied, as
    /// request text.
    fn mutated_request(rng: &mut SplitMix) -> String {
        let (mut fields, mut options) = valid_request();
        let mut asm = LOOP_ASM.to_owned();
        let mut options_text = None;
        for _ in 0..1 + rng.below(3) {
            match rng.below(8) {
                0 => {
                    let at = rng.below(fields.len());
                    fields[at].1 = rng.pick(VALUES).to_owned();
                }
                1 => {
                    let at = rng.below(options.len());
                    options[at].1 = rng.pick(VALUES).to_owned();
                }
                2 => {
                    fields.remove(rng.below(fields.len()));
                }
                3 => {
                    options.remove(rng.below(options.len()));
                }
                4 => {
                    let want: Vec<&str> = (0..rng.below(4)).map(|_| rng.pick(WANTS)).collect();
                    if let Some(f) = fields.iter_mut().find(|f| f.0 == "want") {
                        f.1 = format!("[{}]", want.join(","));
                    }
                }
                5 => {
                    asm = mutate_asm(rng, &asm);
                    if let Some(f) = fields.iter_mut().find(|f| f.0 == "asm") {
                        f.1 = json_string(&asm);
                    }
                }
                6 => {
                    let policy = rng.pick(&["\"clear\"", "\"lru\"", "\"\""]);
                    if let Some(o) = options.iter_mut().find(|o| o.0 == "cache_policy") {
                        o.1 = policy.to_owned();
                    }
                }
                _ => options_text = Some(rng.pick(VALUES)),
            }
        }
        render(&fields, &options, options_text)
    }

    /// The request body of `fields` and `options` (or, instead of the
    /// options object, `options_text`).
    fn render(
        fields: &[(&str, String)],
        options: &[(&str, String)],
        options_text: Option<&str>,
    ) -> String {
        let mut body = String::from("{\"op\":\"sim\"");
        for (key, value) in fields {
            let _ = write!(body, ",\"{key}\":{value}");
        }
        body.push_str(",\"options\":");
        match options_text {
            Some(text) => body.push_str(text),
            None => {
                let opts: Vec<String> = (options.iter())
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                let _ = write!(body, "{{{}}}", opts.join(","));
            }
        }
        body.push('}');
        body
    }

    /// What the daemon answers a well-framed request body with, up to
    /// queueing: its rejection code, or `job` for a decoded job.
    fn answer(shared: &Shared, body: &str) -> &'static str {
        let Ok(req) = parse(body) else {
            return "bad_request";
        };
        let Ok(id) = uint(&req, "id") else {
            return "bad_request";
        };
        match decode_sim(&req, id.unwrap_or(0), shared) {
            Ok(_) => "job",
            Err((code, _)) => code,
        }
    }

    /// Hostile-input fuzz of `sim` request decoding past the JSON
    /// parser: 2,000 seeded mutations of valid request bodies — field
    /// types, numbers, `want` names, the asm — must each end as a
    /// `bad_request`, an `asm_error` or a valid job, never a panic.
    #[test]
    fn mutated_sim_requests_decode_to_structured_outcomes() {
        let src = crate::sims::functional_source();
        let step = Arc::new(compile_source(&src, &CompilerOptions::default()).unwrap());
        let shared = Shared::new(step, ServeConfig::default());
        let (fields, options) = valid_request();
        assert_eq!(answer(&shared, &render(&fields, &options, None)), "job");
        let mut rng = SplitMix(0x5e7e_f022);
        let (mut bad, mut asm, mut jobs, mut panics) = (0, 0, 0, 0);
        for case in 0..2000 {
            let body = mutated_request(&mut rng);
            match std::panic::catch_unwind(|| answer(&shared, &body)) {
                Ok("bad_request") => bad += 1,
                Ok("asm_error") => asm += 1,
                Ok("job") => jobs += 1,
                Ok(other) => panic!("case {case}: unexpected outcome `{other}`: {body}"),
                Err(_) => {
                    panics += 1;
                    eprintln!("case {case} panicked: {body}");
                }
            }
        }
        println!(
            "serve fuzz: 2000 cases, {bad} bad_request, {asm} asm_error, {jobs} jobs, \
             {panics} panics"
        );
        assert_eq!(panics, 0);
        assert!(bad > 0 && asm > 0 && jobs > 0, "{bad} / {asm} / {jobs}");
    }
}
