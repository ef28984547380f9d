//! The daemon itself: acceptor, connection framing, worker pool, and
//! the live `/metrics` endpoint.
//!
//! One thread accepts, one lightweight thread per connection frames and
//! parses, and a fixed pool of solver workers drains the bounded
//! admission queue. The split keeps slow readers from occupying solver
//! capacity: a connection only touches the queue once its frame parsed
//! and validated.

use crate::cache::LruCache;
use crate::config::ServeConfig;
use crate::protocol::{self, codes, Op, Request};
use crate::queue::{Admitted, BoundedQueue, PushError};
use lubt_core::{
    solution_to_json, BatchSolver, DelayBounds, EbfSolver, LubtBuilder, LubtError, SolverBackend,
    WarmLubtSession,
};
use lubt_data::Instance;
use lubt_obs::fsio::LineLog;
use lubt_obs::json::{json_escape, parse_limited};
use lubt_obs::{AggregateTrace, Recorder, SpanGuard, SpanTree, TraceRecorder};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Job {
    request: Request,
    reply: mpsc::Sender<String>,
    /// Time the connection thread spent framing + parsing this request.
    parse_ns: u64,
    /// When the request entered the admission queue.
    admitted: Instant,
    /// Queue depth observed at admission (before this request's push).
    queue_depth: usize,
}

struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<Job>,
    cache: Mutex<LruCache<String>>,
    sessions: Mutex<LruCache<WarmLubtSession>>,
    metrics: Mutex<AggregateTrace>,
    /// Server-wide span tree: every request's profiling spans merged by
    /// name. Shape is deterministic for a given request multiset
    /// (DESIGN.md §16); durations are wall-clock and exempt.
    spans: Mutex<SpanTree>,
    /// JSON-lines access log, line-buffered appends (`None` = disabled).
    access_log: Option<LineLog>,
    started: Instant,
    stopping: AtomicBool,
    stopped: Mutex<bool>,
    stop_cv: Condvar,
    /// Requests admitted but not yet written back; drained before
    /// `wait` returns so a process exit cannot cut a response short.
    inflight: AtomicUsize,
    /// Workers currently executing a request. Idle workers' cores are
    /// donated to the active solve's separation oracle (DESIGN.md §9) —
    /// donation never changes response bytes, only wall-clock.
    busy: AtomicUsize,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.queue.close();
        *self.stopped.lock().expect("stop flag poisoned") = true;
        self.stop_cv.notify_all();
    }

    /// Folds service-layer bookkeeping counters (connection errors,
    /// scrapes) into the aggregate without counting a solve.
    fn record_bookkeeping(&self, fill: impl FnOnce(&TraceRecorder)) {
        let rec = TraceRecorder::new();
        fill(&rec);
        let mut agg = AggregateTrace::new();
        agg.fold(&rec.snapshot());
        agg.solves = 0;
        self.merge_metrics(&agg);
    }

    fn merge_metrics(&self, agg: &AggregateTrace) {
        self.metrics.lock().expect("metrics poisoned").merge(agg);
    }
}

/// A running daemon. Start with [`Server::start`]; stop with
/// [`Server::shutdown`] (drains every admitted request) or hand the
/// thread over with [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns.
    ///
    /// # Errors
    ///
    /// Any socket-level failure binding `config.addr`.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        // Non-blocking accept so the acceptor can observe shutdown
        // without a wake-up connection.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let worker_count = config.effective_workers();
        let access_log = match &config.access_log {
            Some(path) => Some(LineLog::append_to(path)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_depth),
            cache: Mutex::new(LruCache::new(config.cache_entries)),
            sessions: Mutex::new(LruCache::new(config.session_entries)),
            metrics: Mutex::new(AggregateTrace::new()),
            spans: Mutex::new(SpanTree::new()),
            access_log,
            started: Instant::now(),
            stopping: AtomicBool::new(false),
            stopped: Mutex::new(false),
            stop_cv: Condvar::new(),
            inflight: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            config,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current Prometheus exposition, exactly what `/metrics`
    /// serves.
    pub fn metrics_prometheus(&self) -> String {
        self.shared
            .metrics
            .lock()
            .expect("metrics poisoned")
            .to_prometheus()
    }

    /// The server-wide profiling span tree: every answered request's
    /// spans merged by name. Durations vary run to run; the *shape*
    /// (paths, hit counts, child order) is a pure function of the
    /// request multiset, independent of worker count (DESIGN.md §16).
    pub fn span_tree(&self) -> SpanTree {
        self.shared.spans.lock().expect("spans poisoned").clone()
    }

    /// `"path hits"` DFS lines of [`Server::span_tree`] — the byte
    /// payload the worker-count determinism check compares.
    pub fn span_shape(&self) -> String {
        self.shared
            .spans
            .lock()
            .expect("spans poisoned")
            .shape_text()
    }

    /// Triggers graceful shutdown without blocking (what the wire
    /// `shutdown` op calls). Pair with [`Server::wait`] or
    /// [`Server::shutdown`] to join.
    pub fn signal_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Graceful shutdown: stops accepting, drains every admitted
    /// request, joins the workers.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    /// Blocks until some peer (or [`Server::signal_shutdown`]) begins
    /// shutdown, then drains and joins. This is the `lubt serve` main
    /// loop.
    pub fn wait(mut self) {
        let mut stopped = self.shared.stopped.lock().expect("stop flag poisoned");
        while !*stopped {
            stopped = self
                .shared
                .stop_cv
                .wait(stopped)
                .expect("stop flag poisoned");
        }
        drop(stopped);
        self.join_all();
    }

    fn join_all(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Workers have answered every admitted request; give the
        // connection threads a bounded window to flush those responses
        // onto their sockets before we return (and the process
        // possibly exits).
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stopping.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &shared);
                });
            }
            Err(_) => {
                // WouldBlock (idle) and transient accept errors both
                // just poll again; the flag bounds the loop.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

enum Frame {
    Eof,
    Oversized,
    Line(Vec<u8>),
}

/// Reads one newline-terminated frame, enforcing the byte cap *during*
/// the read — an oversized frame is detected after `cap + 1` bytes, not
/// after buffering the whole flood.
fn read_frame(reader: &mut BufReader<TcpStream>, cap: usize) -> std::io::Result<Frame> {
    let mut buf = Vec::new();
    let n = (&mut *reader)
        .take(cap as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() != Some(&b'\n') && buf.len() > cap {
        return Ok(Frame::Oversized);
    }
    while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
        buf.pop();
    }
    Ok(Frame::Line(buf))
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    // Accepted sockets inherit the listener's non-blocking flag on some
    // platforms; connection threads want plain blocking reads.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    if reader.fill_buf()?.starts_with(b"GET ") {
        return serve_metrics(&mut reader, &mut writer, shared);
    }
    loop {
        match read_frame(&mut reader, shared.config.max_request_bytes)? {
            Frame::Eof => return Ok(()),
            Frame::Oversized => {
                shared.record_bookkeeping(|rec| rec.incr("serve.oversized", 1));
                let msg = format!(
                    "request exceeds the {}-byte frame cap; closing (stream can no longer be framed)",
                    shared.config.max_request_bytes
                );
                writeln!(
                    writer,
                    "{}",
                    protocol::error_response("", codes::OVERSIZED, &msg)
                )?;
                return Ok(());
            }
            Frame::Line(bytes) => {
                if bytes.is_empty() {
                    continue; // blank keep-alive lines are fine
                }
                let response = handle_line(&bytes, shared);
                writeln!(writer, "{response}")?;
                writer.flush()?;
            }
        }
    }
}

/// Parses, validates and dispatches one frame, returning the response
/// line (without its trailing newline).
fn handle_line(bytes: &[u8], shared: &Arc<Shared>) -> String {
    let parse_start = Instant::now();
    let text = match std::str::from_utf8(bytes) {
        Ok(t) => t,
        Err(e) => {
            shared.record_bookkeeping(|rec| rec.incr("serve.bad_requests", 1));
            return protocol::error_response(
                "",
                codes::BAD_REQUEST,
                &format!("request is not valid UTF-8: {e}"),
            );
        }
    };
    let doc = match parse_limited(text, shared.config.max_request_bytes) {
        Ok(doc) => doc,
        Err(e) => {
            shared.record_bookkeeping(|rec| rec.incr("serve.bad_requests", 1));
            return protocol::error_response(
                "",
                codes::BAD_REQUEST,
                &format!("invalid JSON at byte {}: {}", e.offset, e.message),
            );
        }
    };
    // Best-effort id echo for validation failures.
    let echo_id = doc
        .get("id")
        .and_then(|v| v.as_str())
        .unwrap_or("")
        .to_string();
    let request = match protocol::parse_request(&doc) {
        Ok(r) => r,
        Err(e) => {
            shared.record_bookkeeping(|rec| rec.incr("serve.bad_requests", 1));
            return protocol::error_response(&echo_id, e.code, &e.message);
        }
    };
    match request.op {
        Op::Ping => {
            shared.record_bookkeeping(|rec| rec.incr("serve.pings", 1));
            protocol::ok_ping(&request.id)
        }
        Op::Shutdown => {
            if !shared.config.allow_shutdown {
                shared.record_bookkeeping(|rec| rec.incr("serve.forbidden", 1));
                protocol::error_response(
                    &request.id,
                    codes::FORBIDDEN,
                    "shutdown over the wire is disabled; start with --allow-shutdown to permit it",
                )
            } else {
                shared.record_bookkeeping(|rec| rec.incr("serve.shutdowns", 1));
                let ack = protocol::ok_shutdown(&request.id);
                shared.begin_shutdown();
                ack
            }
        }
        Op::Solve | Op::Audit | Op::Lint | Op::Batch => {
            let parse_ns = saturating_ns(parse_start.elapsed().as_nanos());
            enqueue_and_wait(request, parse_ns, shared)
        }
    }
}

fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

fn enqueue_and_wait(request: Request, parse_ns: u64, shared: &Arc<Shared>) -> String {
    let id = request.id.clone();
    let deadline = request
        .deadline_ms
        .or(shared.config.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let priority = request.priority;
    let (reply_tx, reply_rx) = mpsc::channel();
    shared.inflight.fetch_add(1, Ordering::SeqCst);
    let queue_depth = shared.queue.len();
    let pushed = shared.queue.push(
        priority,
        deadline,
        Job {
            request,
            reply: reply_tx,
            parse_ns,
            admitted: Instant::now(),
            queue_depth,
        },
    );
    let response = match pushed {
        Ok(()) => reply_rx.recv().unwrap_or_else(|_| {
            protocol::error_response(
                &id,
                codes::SOLVER_ERROR,
                "worker terminated before answering",
            )
        }),
        Err(PushError::Full) => {
            shared.record_bookkeeping(|rec| rec.incr("serve.queue_full", 1));
            protocol::error_response(
                &id,
                codes::QUEUE_FULL,
                &format!(
                    "admission queue is at its {}-request capacity; retry later",
                    shared.config.queue_depth
                ),
            )
        }
        Err(PushError::Closed) => protocol::error_response(
            &id,
            codes::SHUTTING_DOWN,
            "daemon is draining; no new work is admitted",
        ),
    };
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    response
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(entry) = shared.queue.pop() {
        let Admitted {
            deadline,
            item: job,
            ..
        } = entry;
        let rec = Arc::new(TraceRecorder::with_event_cap(shared.config.trace_event_cap));
        let mut extra = AggregateTrace::new();
        let mut cold_solves = 0u64;
        let mut cache_outcome = "none";
        let queue_wait_ns = saturating_ns(job.admitted.elapsed().as_nanos());
        shared.busy.fetch_add(1, Ordering::Relaxed);
        let response = {
            // The request span roots this request's profile and times it
            // (`time.serve.request`); the solve's own spans ("solve",
            // "embed") nest under it because the pipeline runs on this
            // thread with this recorder.
            let _request_span = SpanGuard::enter(&*rec, "request");
            rec.span_record("parse", 1, job.parse_ns);
            rec.span_record("queue_wait", 1, queue_wait_ns);
            rec.incr("serve.requests", 1);
            if deadline.is_some_and(|d| Instant::now() >= d) {
                rec.incr("serve.deadline_expired", 1);
                protocol::error_response(
                    &job.request.id,
                    codes::DEADLINE_EXPIRED,
                    "deadline passed before a worker picked the request up",
                )
            } else {
                execute(
                    &job.request,
                    shared,
                    &rec,
                    &mut extra,
                    &mut cold_solves,
                    &mut cache_outcome,
                )
            }
        };
        shared.busy.fetch_sub(1, Ordering::Relaxed);
        let snapshot = rec.snapshot();
        let mut agg = AggregateTrace::new();
        agg.fold(&snapshot);
        // `fold` counts traces; report actual LP pipelines run instead.
        agg.solves = cold_solves;
        agg.merge(&extra);
        shared.merge_metrics(&agg);
        shared
            .spans
            .lock()
            .expect("spans poisoned")
            .merge(&snapshot.spans);
        if let Some(log) = &shared.access_log {
            let _ = log.write_line(&access_line(
                &job,
                &response,
                cache_outcome,
                queue_wait_ns,
                snapshot.timing_ns("time.serve.request"),
            ));
        }
        let _ = job.reply.send(response);
    }
}

fn backend_name(backend: SolverBackend) -> &'static str {
    match backend {
        SolverBackend::Simplex => "simplex",
        SolverBackend::InteriorPoint => "ipm",
        SolverBackend::Revised => "revised",
        SolverBackend::Dp => "dp",
    }
}

/// Status for the access log, recovered from the response envelope: the
/// first `"status"` key is always the envelope's own (the head precedes
/// any embedded payload), and error envelopes carry their wire code.
fn response_status(response: &str) -> &str {
    match response.split_once("\"status\":\"") {
        Some((_, rest)) if rest.starts_with("error") => rest
            .split_once("\"code\":\"")
            .and_then(|(_, r)| r.split('"').next())
            .unwrap_or("error"),
        _ => "ok",
    }
}

/// One JSON access-log line (without its newline). `bytes` counts the
/// response as written on the wire, newline included.
fn access_line(
    job: &Job,
    response: &str,
    cache: &str,
    queue_wait_ns: u64,
    solve_ns: u64,
) -> String {
    format!(
        "{{\"id\":\"{}\",\"op\":\"{}\",\"backend\":\"{}\",\"queue_depth\":{},\"cache\":\"{}\",\"queue_wait_ns\":{},\"solve_ns\":{},\"status\":\"{}\",\"bytes\":{}}}",
        json_escape(&job.request.id),
        job.request.op.name(),
        backend_name(job.request.backend),
        job.queue_depth,
        cache,
        queue_wait_ns,
        solve_ns,
        response_status(response),
        response.len() + 1,
    )
}

/// Builds the solve pipeline for one instance of `req` with `threads`
/// separation-oracle workers. Bounds come through the checked constructor:
/// wire input must never be able to panic a worker.
fn builder_for(req: &Request, inst: &Instance, threads: usize) -> Result<LubtBuilder, LubtError> {
    let (lo, up) = req.window_for(inst);
    let bounds = DelayBounds::from_pairs(vec![(lo, up); inst.sinks.len()])?;
    let mut builder = LubtBuilder::new(inst.sinks.clone())
        .bounds(bounds)
        .backend(req.backend)
        .threads(threads.max(1));
    if let Some(src) = inst.source {
        builder = builder.source(src);
    }
    Ok(builder)
}

/// How many cores the *other* (currently idle) workers can lend this
/// worker's separation oracle. `busy` includes the caller, so a lone
/// active worker on a `W`-worker daemon gets `W - 1` donated threads.
fn donated_threads(shared: &Shared) -> usize {
    let workers = shared.config.effective_workers();
    let busy = shared.busy.load(Ordering::Relaxed).clamp(1, workers);
    workers - busy
}

/// Resolves the separation-oracle width for one request (its LP solves
/// stay serial) and records the donation under the scheduling-exempt
/// `pool.` prefix.
fn assist_width(shared: &Shared, rec: &TraceRecorder) -> usize {
    let donated = donated_threads(shared);
    if donated > 0 {
        rec.incr("pool.assist.donated", donated as u64);
    }
    1 + donated
}

fn execute(
    req: &Request,
    shared: &Arc<Shared>,
    rec: &Arc<TraceRecorder>,
    extra: &mut AggregateTrace,
    cold_solves: &mut u64,
    cache_outcome: &mut &'static str,
) -> String {
    match req.op {
        Op::Lint => run_lint(req, rec),
        Op::Solve => {
            match solve_one(
                req,
                &req.instances[0],
                shared,
                rec,
                cold_solves,
                cache_outcome,
            ) {
                Ok(payload) => protocol::ok_solution(&req.id, Op::Solve, &payload),
                Err(e) => solver_error(req, &e, rec),
            }
        }
        Op::Audit => {
            // Audits always run the pipeline (the certificate promise
            // forbids cached answers), so the outcome is always cold.
            *cache_outcome = "cold";
            run_audit(req, shared, rec, cold_solves)
        }
        Op::Batch => {
            *cache_outcome = "mixed";
            run_batch(req, shared, rec, extra, cold_solves)
        }
        // Ping and shutdown are answered inline by the connection
        // thread and never reach the queue.
        Op::Ping | Op::Shutdown => {
            protocol::error_response(&req.id, codes::BAD_REQUEST, "op is not queueable")
        }
    }
}

fn solver_error(req: &Request, e: &LubtError, rec: &Arc<TraceRecorder>) -> String {
    rec.incr("serve.solver_errors", 1);
    protocol::error_response(&req.id, protocol::error_code_for(e), &e.to_string())
}

/// The three-tier solve: result cache, warm session pool, cold solve.
/// Every tier yields byte-identical payloads (DESIGN.md §15) — the
/// cache stores exact bytes, and a warm replay re-derives the exact
/// solution the cold solve produced.
fn solve_one(
    req: &Request,
    inst: &Instance,
    shared: &Arc<Shared>,
    rec: &Arc<TraceRecorder>,
    cold_solves: &mut u64,
    cache_outcome: &mut &'static str,
) -> Result<String, LubtError> {
    *cache_outcome = "cold";
    let key = req.cache_key(inst);
    if shared.config.cache_entries > 0 {
        let _span = SpanGuard::enter(&**rec, "cache_lookup");
        let mut cache = shared.cache.lock().expect("cache poisoned");
        if let Some(hit) = cache.get(&key) {
            rec.incr("serve.cache_hits", 1);
            *cache_outcome = "cached";
            return Ok(hit.clone());
        }
    }
    if shared.config.session_entries > 0 {
        let checkout = shared
            .sessions
            .lock()
            .expect("sessions poisoned")
            .take(&key);
        if let Some(mut warm) = checkout {
            let warm_span = SpanGuard::enter(&**rec, "warm_resolve");
            let resolved = warm.resolve();
            drop(warm_span);
            match resolved {
                Ok(solution) => {
                    rec.incr("serve.warm_hits", 1);
                    *cache_outcome = "warm";
                    let serialize_span = SpanGuard::enter(&**rec, "serialize");
                    let payload = protocol::single_line(&solution_to_json(&solution));
                    drop(serialize_span);
                    shared
                        .sessions
                        .lock()
                        .expect("sessions poisoned")
                        .insert(&key, warm);
                    if shared.config.cache_entries > 0 {
                        shared
                            .cache
                            .lock()
                            .expect("cache poisoned")
                            .insert(&key, payload.clone());
                    }
                    return Ok(payload);
                }
                Err(_) => {
                    // A session that stopped resolving is dropped; the
                    // cold path below answers authoritatively.
                    rec.incr("serve.warm_failures", 1);
                }
            }
        }
    }
    let builder = builder_for(req, inst, assist_width(shared, rec))?;
    let (solution, warm) = builder.solve_retaining_recorded(Arc::clone(rec) as Arc<dyn Recorder>)?;
    *cold_solves += 1;
    rec.incr("serve.cold_solves", 1);
    let serialize_span = SpanGuard::enter(&**rec, "serialize");
    let payload = protocol::single_line(&solution_to_json(&solution));
    drop(serialize_span);
    if shared.config.cache_entries > 0 {
        shared
            .cache
            .lock()
            .expect("cache poisoned")
            .insert(&key, payload.clone());
    }
    if shared.config.session_entries > 0 {
        if let Some(w) = warm {
            shared
                .sessions
                .lock()
                .expect("sessions poisoned")
                .insert(&key, w);
        }
    }
    Ok(payload)
}

/// Audited solves bypass both cache tiers: `audit` promises exact
/// certificate verification on *this* request, which a cached or
/// replayed answer would silently skip.
fn run_audit(
    req: &Request,
    shared: &Arc<Shared>,
    rec: &Arc<TraceRecorder>,
    cold_solves: &mut u64,
) -> String {
    let outcome = builder_for(req, &req.instances[0], assist_width(shared, rec))
        .map(|b| b.audit(true))
        .and_then(|builder| builder.solve_retaining_recorded(Arc::clone(rec) as Arc<dyn Recorder>));
    match outcome {
        Ok((solution, _)) => {
            *cold_solves += 1;
            rec.incr("serve.audited_solves", 1);
            let payload = protocol::single_line(&solution_to_json(&solution));
            protocol::ok_solution(&req.id, Op::Audit, &payload)
        }
        Err(e) => solver_error(req, &e, rec),
    }
}

fn run_lint(req: &Request, rec: &Arc<TraceRecorder>) -> String {
    let inst = &req.instances[0];
    let (lo, up) = req.window_for(inst);
    let outcome = DelayBounds::from_pairs(vec![(lo, up); inst.sinks.len()]).and_then(|bounds| {
        let mut builder = LubtBuilder::new(inst.sinks.clone()).bounds(bounds);
        if let Some(src) = inst.source {
            builder = builder.source(src);
        }
        builder.build()
    });
    match outcome {
        Ok(problem) => {
            rec.incr("serve.lints", 1);
            let diags = problem.lint();
            let deny = diags.iter().any(lubt_lint::Diagnostic::is_deny);
            let payload = protocol::single_line(&lubt_lint::diagnostics_to_json(&diags));
            protocol::ok_lint(&req.id, deny, &payload)
        }
        Err(e) => solver_error(req, &e, rec),
    }
}

/// The batch path: cache-hitting instances answer from stored bytes;
/// the rest go through [`BatchSolver`] (single-threaded inside this
/// worker — the daemon's parallelism budget is spent across workers).
/// Batch results are bit-identical to standalone solves, so the two
/// sources can share one cache.
fn run_batch(
    req: &Request,
    shared: &Arc<Shared>,
    rec: &Arc<TraceRecorder>,
    extra: &mut AggregateTrace,
    cold_solves: &mut u64,
) -> String {
    let mut parts: Vec<Option<String>> = vec![None; req.instances.len()];
    let mut cold = Vec::new();
    let mut cold_slots = Vec::new();
    for (i, inst) in req.instances.iter().enumerate() {
        let key = req.cache_key(inst);
        if shared.config.cache_entries > 0 {
            let mut cache = shared.cache.lock().expect("cache poisoned");
            if let Some(hit) = cache.get(&key) {
                rec.incr("serve.cache_hits", 1);
                parts[i] = Some(protocol::batch_part_ok(hit));
                continue;
            }
        }
        // Batch keeps one thread per instance: its parallelism budget is
        // already spent across the daemon's workers.
        match builder_for(req, inst, 1).and_then(|b| b.build()) {
            Ok(problem) => {
                cold.push(problem);
                cold_slots.push(i);
            }
            Err(e) => {
                rec.incr("serve.solver_errors", 1);
                parts[i] = Some(protocol::batch_part_err(
                    protocol::error_code_for(&e),
                    &e.to_string(),
                ));
            }
        }
    }
    if !cold.is_empty() {
        let solver = EbfSolver::new().with_backend(req.backend);
        let (results, trace) = BatchSolver::new()
            .with_threads(1)
            .with_solver(solver)
            .with_event_cap(shared.config.trace_event_cap)
            .solve_all_traced(&cold);
        let solved = results.iter().filter(|r| r.is_ok()).count() as u64;
        *cold_solves += solved;
        rec.incr("serve.batch_instances", cold.len() as u64);
        let mut batch_agg = AggregateTrace::new();
        batch_agg.fold(&trace);
        batch_agg.solves = 0; // the worker already counts them
        extra.merge(&batch_agg);
        for (&slot, result) in cold_slots.iter().zip(results) {
            match result {
                Ok(solution) => {
                    let payload = protocol::single_line(&solution_to_json(&solution));
                    if shared.config.cache_entries > 0 {
                        let key = req.cache_key(&req.instances[slot]);
                        shared
                            .cache
                            .lock()
                            .expect("cache poisoned")
                            .insert(&key, payload.clone());
                    }
                    parts[slot] = Some(protocol::batch_part_ok(&payload));
                }
                Err(e) => {
                    rec.incr("serve.solver_errors", 1);
                    parts[slot] = Some(protocol::batch_part_err(
                        protocol::error_code_for(&e),
                        &e.to_string(),
                    ));
                }
            }
        }
    }
    let parts: Vec<String> = parts
        .into_iter()
        .map(|p| p.expect("every batch slot is filled"))
        .collect();
    protocol::ok_batch(&req.id, &parts)
}

/// Plain-HTTP `/metrics`: enough of HTTP/1.0 for curl and Prometheus
/// to scrape, nothing more. Headers are read with the same byte
/// discipline as frames (bounded, never buffered unboundedly).
fn serve_metrics(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    let mut request_line = String::new();
    (&mut *reader).take(4096).read_line(&mut request_line)?;
    // Drain headers up to a hard cap so a hostile scraper cannot feed
    // us headers forever; past the cap we just answer.
    let mut header_budget: u64 = 16 * 1024;
    loop {
        let mut line = String::new();
        let n = (&mut *reader)
            .take(header_budget.min(4096))
            .read_line(&mut line)?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        header_budget = header_budget.saturating_sub(n as u64);
        if header_budget == 0 {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = if path == "/metrics" || path == "/" {
        shared.record_bookkeeping(|rec| rec.incr("serve.metrics_scrapes", 1));
        (
            "200 OK",
            shared
                .metrics
                .lock()
                .expect("metrics poisoned")
                .to_prometheus(),
        )
    } else if path == "/healthz" {
        // Liveness/readiness: 200 while accepting, 503 once draining.
        shared.record_bookkeeping(|rec| rec.incr("serve.health_checks", 1));
        let draining = shared.stopping.load(Ordering::SeqCst);
        let body = format!(
            "{{\"status\":\"{}\",\"uptime_seconds\":{},\"queue_depth\":{},\"cache_entries\":{}}}\n",
            if draining { "draining" } else { "accepting" },
            shared.started.elapsed().as_secs(),
            shared.queue.len(),
            shared.cache.lock().expect("cache poisoned").len(),
        );
        (
            if draining {
                "503 Service Unavailable"
            } else {
                "200 OK"
            },
            body,
        )
    } else {
        (
            "404 Not Found",
            "only /metrics and /healthz live here\n".to_string(),
        )
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}
