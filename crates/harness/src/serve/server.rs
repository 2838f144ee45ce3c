//! The `dol serve` endpoint: accept loop, connection handling, and job
//! execution against the persistent [`Scheduler`].
//!
//! One request per connection. `Ping`, `Cancel` and `Shutdown` are
//! answered inline by the connection thread; `Sweep`, `Run` and `Replay`
//! are submitted to the scheduler. The client gets `Accepted {job}` as
//! soon as the job is queued (so the id can cancel it while it waits),
//! then the job streams `Output`/`Bench`… → `Done` down the same
//! connection as each driver completes. If the queue is full or the
//! server is draining the connection thread answers with a typed
//! rejection instead — explicit backpressure, never an unbounded buffer.
//!
//! A client that disconnects mid-job only kills its own job: the next
//! write fails, the job returns, and the worker moves on. Socket read
//! and write timeouts bound how long a silent or stalled peer can hold a
//! connection thread or worker.

use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::ops;
use super::protocol::{
    self, BenchRecord, DoneSummary, Pong, Request, Response, RpcError, SweepRequest, WireError,
    VERSION,
};
use super::scheduler::{CancelToken, JobId, Scheduler};
use crate::experiments;
use crate::sweep;

/// Default bounded queue depth (jobs beyond this are rejected `Busy`).
pub const DEFAULT_QUEUE_CAP: usize = 16;

/// How long a connection may sit silent before its thread gives up.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Accept-loop poll interval while waiting for connections or shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Server configuration.
pub struct ServeOptions {
    /// Socket path (created on start, removed on stop).
    pub socket: PathBuf,
    /// Worker threads; `None` resolves `DOL_JOBS` / auto-detect through
    /// [`sweep::resolve_jobs`] — the same resolution every other layer
    /// uses.
    pub workers: Option<usize>,
    /// Job-queue capacity.
    pub queue_cap: usize,
}

impl ServeOptions {
    /// Options for `socket` with default workers and queue depth.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeOptions {
            socket: socket.into(),
            workers: None,
            queue_cap: DEFAULT_QUEUE_CAP,
        }
    }
}

struct Shared {
    sched: Scheduler,
    stop: AtomicBool,
    workers: usize,
    queue_cap: usize,
}

/// A running `dol serve` instance. Dropping it (or calling
/// [`Server::join`] after a `Shutdown` request) tears everything down:
/// intake stops, queued and running jobs drain, the socket file is
/// removed.
pub struct Server {
    socket: PathBuf,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the socket and starts the accept loop and worker pool.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        // A stale socket file from a dead server would fail the bind.
        if opts.socket.exists() {
            std::fs::remove_file(&opts.socket)?;
        }
        let listener = UnixListener::bind(&opts.socket)?;
        listener.set_nonblocking(true)?;
        let workers = sweep::resolve_jobs(opts.workers)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let shared = Arc::new(Shared {
            sched: Scheduler::new(workers, opts.queue_cap),
            stop: AtomicBool::new(false),
            workers,
            queue_cap: opts.queue_cap,
        });
        let accept_shared = Arc::clone(&shared);
        let socket = opts.socket.clone();
        let accept = std::thread::Builder::new()
            .name("dol-serve-accept".into())
            .spawn(move || accept_loop(listener, &socket, &accept_shared))?;
        Ok(Server {
            socket: opts.socket,
            shared,
            accept: Some(accept),
        })
    }

    /// The socket path the server is listening on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Resolved worker-thread count.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Blocks until the server stops (a `Shutdown` request, or
    /// [`Server::stop`] from another thread).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.sched.shutdown();
        let _ = std::fs::remove_file(&self.socket);
    }

    /// Requests shutdown: stops intake, drains jobs. Returns once the
    /// accept loop has exited.
    pub fn stop(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.sched.shutdown();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn accept_loop(listener: UnixListener, _socket: &Path, shared: &Arc<Shared>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                conns.retain(|h| !h.is_finished());
                if let Ok(h) = std::thread::Builder::new()
                    .name("dol-serve-conn".into())
                    .spawn(move || handle_connection(stream, &shared))
                {
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Connection threads answer inline requests quickly; job streams are
    // owned by scheduler workers, which `Server` drains separately.
    for h in conns {
        let _ = h.join();
    }
}

fn handle_connection(stream: UnixStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    // Greet first so the client can validate the peer before parsing
    // anything else; errors from here on are best-effort reports.
    if protocol::write_hello(&mut writer).is_err() || writer.flush().is_err() {
        return;
    }
    let request = match protocol::read_hello(&mut reader)
        .and_then(|()| protocol::read_request(&mut reader))
    {
        Ok(req) => req,
        Err(e) => {
            send_error(&mut writer, &e);
            return;
        }
    };
    match request {
        Request::Ping => {
            let stats = shared.sched.stats();
            let pong = Response::Pong(Pong {
                version: VERSION,
                workers: shared.workers as u32,
                queue_cap: shared.queue_cap as u32,
                queued: stats.queued as u32,
                active: stats.active as u32,
                jobs_done: stats.done,
            });
            let _ = protocol::send_response(&mut writer, &pong);
            let _ = writer.flush();
        }
        Request::Cancel { job } => {
            if shared.sched.cancel(job) {
                let _ = protocol::send_response(
                    &mut writer,
                    &Response::Done(DoneSummary {
                        deviations: 0,
                        sim_insts: 0,
                    }),
                );
            } else {
                send_error(&mut writer, &RpcError::App(format!("no such job {job}")));
            }
            let _ = writer.flush();
        }
        Request::Shutdown => {
            // Stop intake first (the accept loop exits; the scheduler
            // rejects new jobs once draining), then wait for in-flight
            // jobs so the reply means "fully drained".
            shared.stop.store(true, Ordering::SeqCst);
            shared.sched.drain();
            let _ = protocol::send_response(
                &mut writer,
                &Response::Done(DoneSummary {
                    deviations: 0,
                    sim_insts: 0,
                }),
            );
            let _ = writer.flush();
        }
        Request::Sweep(_) | Request::Run(_) | Request::Replay(_) => {
            submit_job(request, writer, shared);
        }
    }
}

/// Queues a job-producing request. The connection thread sends
/// `Accepted {job}` at *queue* time (so the id is immediately usable
/// with `Cancel`, even while the job waits), then hands the writer to
/// the job through a channel — exactly one side holds it at any moment,
/// so acceptance and job frames can never interleave. On rejection the
/// connection thread reports the typed error instead.
fn submit_job(request: Request, mut writer: BufWriter<UnixStream>, shared: &Arc<Shared>) {
    let (writer_tx, writer_rx) = std::sync::mpsc::channel::<BufWriter<UnixStream>>();
    let submitted = shared.sched.submit(Box::new(move |id, token| {
        // The sender is dropped without sending if the client vanished
        // before the Accepted frame went out; nothing to do then.
        let Ok(mut w) = writer_rx.recv() else { return };
        // A write failure below means the client is gone; abandon the
        // job quietly — the worker is already free for the next one.
        let _ = run_job(&mut w, id, token, &request);
    }));
    match submitted {
        Ok(id) => {
            if protocol::send_response(&mut writer, &Response::Accepted { job: id }).is_ok()
                && writer.flush().is_ok()
            {
                let _ = writer_tx.send(writer);
            }
        }
        Err(reject) => {
            send_error(&mut writer, &RpcError::Rejected(reject));
        }
    }
}

fn send_error(w: &mut BufWriter<UnixStream>, e: &RpcError) {
    let _ = protocol::send_response(w, &Response::Error(WireError::from_error(e)));
    let _ = w.flush();
}

/// Executes one accepted job, streaming frames as results materialize.
fn run_job(
    w: &mut BufWriter<UnixStream>,
    _id: JobId,
    token: &CancelToken,
    request: &Request,
) -> Result<(), RpcError> {
    if token.cancelled() {
        protocol::send_response(
            w,
            &Response::Error(WireError::from_error(&RpcError::Cancelled)),
        )?;
        return w.flush().map_err(RpcError::Io);
    }
    match request {
        Request::Sweep(req) => run_sweep_job(w, req, token),
        Request::Run(req) => {
            let before = dol_cpu::telemetry::simulated_instructions();
            let result = ops::render_run(&req.workload, &req.config, req.insts, req.seed);
            finish_inline(w, result, before)
        }
        Request::Replay(req) => {
            let before = dol_cpu::telemetry::simulated_instructions();
            let result = ops::render_replay(&req.path, &req.config);
            finish_inline(w, result, before)
        }
        // Inline requests never reach the scheduler.
        _ => Err(RpcError::Corrupt("non-job request queued".into())),
    }
}

/// Streams a single-output job's result (`Run`/`Replay`). `before` is
/// the simulated-instruction counter from just before the work ran, so
/// `Done.sim_insts == 0` means the request was served from warm caches.
fn finish_inline(
    w: &mut BufWriter<UnixStream>,
    result: Result<String, String>,
    before: u64,
) -> Result<(), RpcError> {
    match result {
        Ok(text) => {
            protocol::send_response(w, &Response::Output(text.into_bytes()))?;
            protocol::send_response(
                w,
                &Response::Done(DoneSummary {
                    deviations: 0,
                    sim_insts: dol_cpu::telemetry::simulated_instructions() - before,
                }),
            )?;
        }
        Err(msg) => {
            protocol::send_response(
                w,
                &Response::Error(WireError::from_error(&RpcError::App(msg))),
            )?;
        }
    }
    w.flush().map_err(RpcError::Io)
}

/// Runs every figure/table driver under the request's plan, streaming
/// each rendered report (and, when asked, its timing record) as it
/// completes — exactly the stdout a `run_all` with the same plan prints.
fn run_sweep_job(
    w: &mut BufWriter<UnixStream>,
    req: &SweepRequest,
    token: &CancelToken,
) -> Result<(), RpcError> {
    let plan = req.plan();
    let job_before = dol_cpu::telemetry::simulated_instructions();
    let mut deviations: u64 = 0;
    for (id, run) in experiments::drivers() {
        if token.cancelled() {
            protocol::send_response(
                w,
                &Response::Error(WireError::from_error(&RpcError::Cancelled)),
            )?;
            return w.flush().map_err(RpcError::Io);
        }
        let before = dol_cpu::telemetry::simulated_instructions();
        let phases_before = crate::phase::totals();
        let t0 = Instant::now();
        let report = run(&plan);
        let wall_s = t0.elapsed().as_secs_f64();
        let sim_insts = dol_cpu::telemetry::simulated_instructions() - before;
        deviations += report.deviations() as u64;
        let rendered = crate::phase::timed(crate::phase::Phase::Render, || {
            format!("{}\n", report.render())
        });
        protocol::send_response(w, &Response::Output(rendered.into_bytes()))?;
        if req.bench {
            protocol::send_response(
                w,
                &Response::Bench(BenchRecord {
                    id: id.to_string(),
                    wall_s,
                    sim_insts,
                    cached: sim_insts == 0,
                    phases: crate::phase::totals().since(&phases_before),
                }),
            )?;
        }
        // Flush per driver: the client sees results incrementally.
        w.flush()?;
    }
    protocol::send_response(
        w,
        &Response::Output(format!("total shape-check deviations: {deviations}\n").into_bytes()),
    )?;
    protocol::send_response(
        w,
        &Response::Done(DoneSummary {
            deviations,
            sim_insts: dol_cpu::telemetry::simulated_instructions() - job_before,
        }),
    )?;
    w.flush().map_err(RpcError::Io)
}
