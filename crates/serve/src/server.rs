//! The serving loop: accept, admit, parse, submit, respond.
//!
//! Request lifecycle (one connection thread per accepted socket, one
//! supervised job per admitted prediction):
//!
//! ```text
//! accept ── over max_connections? ──► 503 + Retry-After (shed, no thread)
//!   │
//!   ▼ connection thread (socket read/write timeouts armed)
//! read_request ── slow-loris timeout? ──► 408 (no job was ever submitted)
//!   │
//!   ▼ route
//! /v1/predict ──► Engine::submit_with(deadline from X-Deadline-Ms)
//!   │                 │ queue full ──► 503 + Retry-After (typed Overloaded)
//!   │                 ▼ worker
//!   │             PredictJob::run — decode, hop-cache, forward, head
//!   │                 │ deadline hit between hops ──► 504
//!   │                 │ malformed input ──► 400/422 (typed, no panic)
//!   ▼                 ▼
//! write_response (Connection: close)
//! ```
//!
//! The accept thread blocks in `accept` — no poll, no timer — and the only
//! socket I/O it does itself, the shed path's lingering close, has one total
//! deadline. A slow client therefore occupies only its connection thread and
//! is cut off by the socket timeout; engine worker slots are spent exclusively
//! on fully-read, admitted requests. Fault sites (`hoga_jobs::ServeSite`) are
//! claimed at the exact production code points they model — see
//! `docs/SERVING.md` for the table.

use crate::cache::{CacheStats, HopCache};
use crate::http::{self, HttpError, Limits, Request, Response};
use crate::registry::{ModelRegistry, ReloadError};
use hoga_circuit::{adjacency, features};
use hoga_core::hopfeat::hop_stack;
use hoga_core::infer::Precision;
use hoga_datasets::io::{decode_aig, structural_hash};
use hoga_datasets::openabcd::RECIPE_ENCODING_WIDTH;
use hoga_jobs::{
    Engine, EngineConfig, FaultInjector, FaultKind, Job, JobContext, JobError, JobFaultPlan,
    RetryPolicy, ServeSite, SubmitOptions,
};
use hoga_synth::Recipe;
use hoga_tensor::{active_backend, available_threads, Matrix};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning. `Default` gives a loopback server on an OS-chosen port
/// with conservative robustness limits; only `checkpoint` must be set.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for a free port.
    pub addr: String,
    /// Initial checkpoint (CRC-verified at startup; refusal is fatal).
    pub checkpoint: PathBuf,
    /// Hop count `K`; must match the checkpoint's training configuration.
    pub num_hops: usize,
    /// Engine worker threads (prediction parallelism).
    pub workers: usize,
    /// Bounded engine queue; overflow is shed with 503.
    pub queue_capacity: usize,
    /// Concurrent connection cap; overflow is shed with 503 pre-parse.
    pub max_connections: usize,
    /// Socket read timeout (slow-loris cutoff), milliseconds.
    pub read_timeout_ms: u64,
    /// Socket write timeout, milliseconds.
    pub write_timeout_ms: u64,
    /// Default per-request deadline when `X-Deadline-Ms` is absent;
    /// 0 means no deadline.
    pub default_deadline_ms: u64,
    /// Hop-cache budget in bytes (0 degrades to recompute-on-miss).
    pub cache_bytes: usize,
    /// Request body cap in bytes.
    pub max_body_bytes: usize,
    /// Serve-site fault plan (chaos injection; each site fires once).
    pub serve_faults: JobFaultPlan,
    /// Engine-site fault plan armed for the *first* prediction only.
    pub job_faults: JobFaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            checkpoint: PathBuf::new(),
            num_hops: 5,
            workers: 2,
            queue_capacity: 16,
            max_connections: 64,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            default_deadline_ms: 10_000,
            cache_bytes: 64 << 20,
            max_body_bytes: 8 << 20,
            serve_faults: JobFaultPlan::none(),
            job_faults: JobFaultPlan::none(),
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum StartError {
    /// The initial checkpoint was refused (corrupt, mismatched, or failed
    /// its canary).
    Model(ReloadError),
    /// Socket or thread setup failed.
    Io(std::io::Error),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Model(e) => write!(f, "refusing to start: {e}"),
            Self::Io(e) => write!(f, "cannot start server: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// Request counters (monotonic since start), exposed at `GET /stats`.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    predictions: AtomicU64,
    shed: AtomicU64,
    client_timeouts: AtomicU64,
    deadline_exceeded: AtomicU64,
    bad_requests: AtomicU64,
    failures: AtomicU64,
}

/// Shared server state; connection threads and jobs hold `Arc`s.
struct ServeState {
    registry: ModelRegistry,
    cache: HopCache,
    engine: Engine,
    counters: Counters,
    serve_faults: FaultInjector,
    /// One-shot engine-fault plan: the first prediction takes it.
    job_faults: Mutex<Option<JobFaultPlan>>,
    limits: Limits,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    active_connections: AtomicUsize,
    max_connections: usize,
}

/// A running server. Dropping the handle leaves the accept thread running
/// (detached); call [`ServerHandle::shutdown`] for an orderly stop.
pub struct Server;

/// Handle to a started server: its bound address plus shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    state: Arc<ServeState>,
}

impl Server {
    /// Loads the model (refusing corrupt artifacts — a server never starts
    /// on a checkpoint it would reject at reload time), binds the listener,
    /// and spawns the accept loop.
    ///
    /// # Errors
    ///
    /// [`StartError::Model`] on checkpoint refusal, [`StartError::Io`] on
    /// bind/spawn failure.
    pub fn start(config: ServerConfig) -> Result<ServerHandle, StartError> {
        let addr = config.addr.clone();
        let state = Arc::new(ServeState::new(config)?);
        let listener = TcpListener::bind(&addr).map_err(StartError::Io)?;
        let addr = listener.local_addr().map_err(StartError::Io)?;

        let stop = Arc::new(AtomicBool::new(false));
        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state, &accept_stop))
            .map_err(StartError::Io)?;

        Ok(ServerHandle { addr, stop, accept_thread: Some(accept_thread), state })
    }
}

impl ServeState {
    /// The model, engine and counters of a server: everything but its
    /// listener.
    fn new(config: ServerConfig) -> Result<Self, StartError> {
        let serve_faults = FaultInjector::new(&config.serve_faults);
        // Startup loads with an unarmed injector: CorruptCheckpoint and
        // StallReload model *hot-reload* faults, and arming them must not
        // sabotage the initial load (which refuses corrupt artifacts via
        // the same CRC path with no injection needed).
        let startup_faults = FaultInjector::new(&JobFaultPlan::none());
        let registry = ModelRegistry::open(&config.checkpoint, config.num_hops, &startup_faults)
            .map_err(StartError::Model)?;
        let engine = Engine::start(EngineConfig {
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            // Serving retries nothing: a failed prediction is a typed
            // client error, and a transient fault should surface, not
            // silently triple the latency.
            retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            deadline_ms: config.default_deadline_ms,
            seed: 0x5E12E,
        })
        .map_err(StartError::Io)?;
        Ok(Self {
            registry,
            cache: HopCache::new(config.cache_bytes),
            engine,
            counters: Counters::default(),
            serve_faults,
            job_faults: Mutex::new(Some(config.job_faults)),
            limits: Limits { max_body_bytes: config.max_body_bytes, ..Limits::default() },
            read_timeout_ms: config.read_timeout_ms,
            write_timeout_ms: config.write_timeout_ms,
            active_connections: AtomicUsize::new(0),
            max_connections: config.max_connections.max(1),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `GET /stats` JSON, for in-process assertions.
    // analyze: allow(dead-public-api) — handle surface behind GET /stats; exercised in-crate
    pub fn stats_json(&self) -> String {
        stats_json(&self.state)
    }

    /// Cache counters, for in-process assertions.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// Stops accepting, then drains and joins the engine. Connection
    /// threads already past accept finish their single request.
    ///
    /// The accept thread sleeps in `accept`, so after raising `stop` this
    /// wakes it with one bounded connection to its own address (a wildcard
    /// bind is reached over loopback of the same family). If even that
    /// cannot connect, the thread is left detached rather than joined: it
    /// exits at its next wake-up and `shutdown` stays bounded.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        match wake.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        let woken = TcpStream::connect_timeout(&wake, Duration::from_millis(500)).is_ok();
        if let Some(t) = self.accept_thread.take().filter(|_| woken) {
            let _ = t.join();
        }
        // The engine drains on drop of the last state Arc.
    }
}

/// Accept loop: blocks in `accept`, so an idle server is asleep and a
/// connection is admitted the moment it arrives. Whatever `accept` returns
/// once `stop` is set — the shutdown wake — is dropped unadmitted: never
/// counted, never given a thread, never shed. Returning drops the listener.
fn accept_loop(listener: &TcpListener, state: &Arc<ServeState>, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => admit(stream, state),
            // Out of descriptors and the like: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Connection admission: shed above `max_connections` *before* spawning a
/// thread, so a connection flood cannot exhaust threads.
fn admit(mut stream: TcpStream, state: &Arc<ServeState>) {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    let active = state.active_connections.fetch_add(1, Ordering::SeqCst);
    if active >= state.max_connections {
        state.active_connections.fetch_sub(1, Ordering::SeqCst);
        state.counters.shed.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(state.write_timeout_ms)));
        let _ = http::write_response(&mut stream, &Response::overloaded("connection limit"));
        // The request was never read; see `linger_close`.
        linger_close(&mut stream);
        return;
    }
    let conn_state = Arc::clone(state);
    let spawned = std::thread::Builder::new()
        .name("serve-conn".into())
        .spawn(move || {
            serve_connection(stream, &conn_state);
            conn_state.active_connections.fetch_sub(1, Ordering::SeqCst);
        })
        .is_ok();
    if !spawned {
        state.active_connections.fetch_sub(1, Ordering::SeqCst);
        state.counters.failures.fetch_add(1, Ordering::Relaxed);
    }
}

/// One connection: arm timeouts, read, route, respond, close.
fn serve_connection(mut stream: TcpStream, state: &Arc<ServeState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(state.read_timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(state.write_timeout_ms)));

    let request = read_with_faults(&mut stream, state);
    let fully_read = request.is_ok();
    let Some(response) = respond(request, state) else { return };
    let _ = http::write_response(&mut stream, &response);
    if !fully_read {
        linger_close(&mut stream);
    }
}

/// The answer to one read: the routed response, a typed error status, or
/// nothing when no client is left to answer.
fn respond(request: Result<Request, HttpError>, state: &Arc<ServeState>) -> Option<Response> {
    Some(match request {
        Ok(req) => route(req, state),
        Err(HttpError::Timeout) => {
            state.counters.client_timeouts.fetch_add(1, Ordering::Relaxed);
            Response::error(408, "request read timed out")
        }
        Err(HttpError::Closed | HttpError::Io(_)) => return None,
        Err(HttpError::TooLarge(what)) => Response::error(413, what),
        Err(HttpError::Bad(why)) => {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            Response::error(400, &why)
        }
    })
}

/// Lingering close for responses written *before* the request was fully
/// read (408/413/shed): closing with unread bytes in the receive buffer
/// makes the kernel send RST, destroying the response in flight. Drain —
/// briefly and boundedly — so the client sees the typed error, not a
/// connection reset. Never used on the success path (no latency cost).
///
/// The bound is one wall-clock deadline for the whole drain, not a timeout
/// per read: the shed path runs on the accept thread, and a client that
/// dribbles a byte inside every read timeout must not hold it.
fn linger_close(stream: &mut TcpStream) {
    use std::io::Read;
    let deadline = Instant::now() + Duration::from_millis(50);
    let mut sink = [0u8; 4096];
    loop {
        // Past the deadline `left` is zero, a timeout the socket API refuses.
        let left = deadline.saturating_duration_since(Instant::now());
        if stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Request read with the `SlowClient` fault site: a claimed stall models a
/// client that dribbles bytes. At or beyond the read timeout it becomes
/// the exact `Timeout` the socket would produce — proving the 408 path and
/// that a slow client never reaches the engine.
fn read_with_faults(stream: &mut TcpStream, state: &ServeState) -> Result<Request, HttpError> {
    if let Some(FaultKind::Stall { millis }) = state.serve_faults.claim_serve(ServeSite::SlowClient)
    {
        let mut left = millis;
        while left > 0 {
            let slice = left.min(10);
            std::thread::sleep(Duration::from_millis(slice));
            left -= slice;
        }
        if millis >= state.read_timeout_ms {
            return Err(HttpError::Timeout);
        }
    }
    http::read_request(stream, &state.limits)
}

/// Routes one parsed request.
fn route(request: Request, state: &Arc<ServeState>) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}"),
        ("GET", "/stats") => Response::json(200, stats_json(state)),
        ("POST", "/v1/predict") => predict(request, state),
        ("POST", "/admin/reload") => reload(&request, state),
        ("GET" | "POST", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// `POST /admin/reload`: hot-swap to the checkpoint named by
/// `X-Checkpoint`. Typed refusals map to distinct status codes; the old
/// model serves throughout.
fn reload(request: &Request, state: &ServeState) -> Response {
    let mut named = request.headers.iter().filter(|(n, _)| n == "x-checkpoint");
    let Some((_, path)) = named.next() else {
        return Response::error(400, "missing X-Checkpoint header");
    };
    if named.any(|(_, other)| other != path) {
        return Response::error(400, "conflicting X-Checkpoint headers");
    }
    match state.registry.reload(std::path::Path::new(path), &state.serve_faults) {
        Ok(epoch) => Response::json(200, format!("{{\"reloaded\":true,\"epoch\":{epoch}}}")),
        Err(ReloadError::Busy) => Response::error(409, &ReloadError::Busy.to_string()),
        Err(e @ ReloadError::Io { .. }) => Response::error(400, &e.to_string()),
        Err(e) => Response::error(422, &e.to_string()),
    }
}

/// `POST /v1/predict`: body is an encoded AIG, headers carry the recipe,
/// precision, and optional deadline. The job runs on the bounded engine.
fn predict(request: Request, state: &Arc<ServeState>) -> Response {
    let Some(recipe) = request.header("x-recipe").map(str::to_string) else {
        return Response::error(400, "missing X-Recipe header");
    };
    let precision = match request.header("x-precision").unwrap_or("exact") {
        "exact" => Precision::Exact,
        "fast" => Precision::Fast,
        "int8" => Precision::Int8,
        other => return Response::error(400, &format!("unknown precision {other:?}")),
    };
    let deadline_ms = match request.header("x-deadline-ms") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => return Response::error(400, &format!("bad X-Deadline-Ms: {v:?}")),
        },
    };
    let mut body = request.body;
    if state.serve_faults.claim_serve(ServeSite::CorruptFrame).is_some() {
        // Flip one payload byte: the CRC-checked AIG decode in the job
        // must refuse the frame exactly like real in-flight corruption.
        if let Some(b) = body.get_mut(8) {
            *b ^= 0xFF;
        }
    }
    let job = PredictJob { body, recipe, precision, state: Arc::clone(state) };
    // Scoped so the one-shot plan's guard is released before the blocking
    // `wait` below.
    let faults = {
        let mut slot = state.job_faults.lock().unwrap_or_else(PoisonError::into_inner);
        slot.take().unwrap_or_else(JobFaultPlan::none)
    };
    let opts = SubmitOptions { deadline_ms };
    let handle = match state.engine.submit_with(job, faults, opts) {
        Ok(h) => h,
        Err(overloaded) => {
            state.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Response::overloaded(&overloaded.to_string());
        }
    };
    match handle.wait() {
        Ok(response) => response,
        Err(JobError::DeadlineExceeded { budget_ms }) => {
            state.counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            Response::error(504, &format!("deadline exceeded (budget {budget_ms} ms)"))
        }
        Err(JobError::Cancelled) => Response::error(500, "request cancelled"),
        Err(e) => {
            state.counters.failures.fetch_add(1, Ordering::Relaxed);
            Response::error(500, &e.to_string())
        }
    }
}

/// The supervised prediction job. Client mistakes (bad AIG, bad recipe,
/// shape mismatch) return as 4xx `Response`s — job success with a typed
/// refusal body. Only supervision outcomes (deadline, cancellation, an
/// injected engine fault) surface as `JobError`.
struct PredictJob {
    body: Vec<u8>,
    recipe: String,
    precision: Precision,
    state: Arc<ServeState>,
}

impl Job for PredictJob {
    type Output = Response;

    fn name(&self) -> String {
        "predict".into()
    }

    fn run(&mut self, ctx: &JobContext) -> Result<Response, JobError> {
        let aig = match decode_aig(&self.body[..]) {
            Ok(aig) => aig,
            Err(e) => {
                self.state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                return Ok(Response::error(400, &format!("refused AIG frame: {e}")));
            }
        };
        let recipe: Recipe = match self.recipe.parse() {
            Ok(r) => r,
            Err(e) => {
                self.state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                return Ok(Response::error(400, &format!("bad recipe: {e}")));
            }
        };

        let num_hops = self.state.registry.num_hops();
        let hash = structural_hash(&aig);
        let (stack, cache_hit) = match self.state.cache.get(hash, num_hops) {
            Some(stack) => (stack, true),
            None => {
                let stack = Arc::new(compute_hop_stack(&aig, num_hops, ctx)?);
                self.state.cache.insert(hash, num_hops, Arc::clone(&stack));
                (stack, false)
            }
        };

        ctx.check_interrupt()?;
        let bundle = self.state.registry.current();
        let output = match self.precision {
            Precision::Int8 => bundle.model.try_infer_int8(&bundle.plan, &stack, aig.num_nodes()),
            p => bundle.model.try_infer(&stack, aig.num_nodes(), p),
        };
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                self.state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                return Ok(Response::error(422, &format!("inference refused: {e}")));
            }
        };

        ctx.check_interrupt()?;
        // Every node of the circuit is pooled, as evaluation pools a design;
        // there is one at least, since every AIG has its constant node.
        let encoded = recipe.encode(RECIPE_ENCODING_WIDTH);
        let extra = Matrix::from_vec(1, encoded.len(), encoded);
        let score = match bundle.head.score(&bundle.model.params, &output.representations, &extra) {
            Ok(s) => s,
            Err(e) => {
                self.state.counters.failures.fetch_add(1, Ordering::Relaxed);
                return Ok(Response::error(500, &format!("head inference failed: {e}")));
            }
        };
        let ratio = score.as_slice().first().copied().unwrap_or(f32::NAN);
        self.state.counters.predictions.fetch_add(1, Ordering::Relaxed);
        Ok(Response::json(
            200,
            format!(
                "{{\"ratio\":{ratio},\"ratio_bits\":\"{:08x}\",\"epoch\":{},\"nodes\":{},\"cache\":\"{}\"}}",
                ratio.to_bits(),
                bundle.epoch(),
                aig.num_nodes(),
                if cache_hit { "hit" } else { "miss" }
            ),
        ))
    }
}

/// Hop features computed level by level with a deadline/cancel check
/// between hops — a large circuit cannot overrun its budget by more than
/// one sparse matmul. Runs outside the cache lock.
fn compute_hop_stack(
    aig: &hoga_circuit::Aig,
    num_hops: usize,
    ctx: &JobContext,
) -> Result<Matrix, JobError> {
    let adj = adjacency::normalized_symmetric(aig);
    let feats = features::node_features(aig);
    let mut hops = Vec::with_capacity(num_hops + 1);
    hops.push(feats);
    for _ in 0..num_hops {
        ctx.check_interrupt()?;
        if let Some(prev) = hops.last() {
            hops.push(adj.spmm(prev));
        }
    }
    let nodes: Vec<usize> = (0..aig.num_nodes()).collect();
    Ok(hop_stack(&hops, &nodes))
}

/// The `GET /stats` payload: the request counters, plus the kernel backend
/// and thread count this process resolved to (the CPU picks them, so the
/// process has to say what it picked).
fn stats_json(state: &ServeState) -> String {
    let c = &state.counters;
    let cache = state.cache.stats();
    let (reloads, reload_failures) = state.registry.reload_counts();
    format!(
        concat!(
            "{{\"requests\":{},\"predictions\":{},\"shed\":{},\"client_timeouts\":{},",
            "\"deadline_exceeded\":{},\"bad_requests\":{},\"failures\":{},",
            "\"reloads\":{},\"reload_failures\":{},",
            "\"backend\":\"{}\",\"kernel_threads\":{},",
            "\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"rejected\":{},",
            "\"bytes\":{},\"entries\":{}}}}}"
        ),
        c.requests.load(Ordering::Relaxed),
        c.predictions.load(Ordering::Relaxed),
        c.shed.load(Ordering::Relaxed),
        c.client_timeouts.load(Ordering::Relaxed),
        c.deadline_exceeded.load(Ordering::Relaxed),
        c.bad_requests.load(Ordering::Relaxed),
        c.failures.load(Ordering::Relaxed),
        reloads,
        reload_failures,
        active_backend(),
        available_threads(),
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.rejected,
        cache.bytes,
        cache.entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_core::heads::GraphRegressor;
    use hoga_core::model::{HogaConfig, HogaModel};
    use hoga_datasets::io::{save_checkpoint, Checkpoint};
    use rand::Rng;
    use std::path::Path;

    /// A checkpoint the registry accepts at `K = 3`: HOGA and its QoR head.
    fn write_checkpoint(path: &Path, seed: u64, epoch: u64) {
        let mut model = HogaModel::new(&HogaConfig::new(7, 8, 3), seed);
        let _head =
            GraphRegressor::new(&mut model.params, 8 + RECIPE_ENCODING_WIDTH, 8, seed ^ 0xD);
        let ck = Checkpoint { epoch, seed, lr_scale: 1.0, params: model.params, opt_state: vec![] };
        save_checkpoint(path, &ck).expect("write checkpoint");
    }

    /// The reload fuzz's files: two intact checkpoints at epochs 2 and 3,
    /// one whose bytes fail the CRC (the registry quarantines it, so it is
    /// rewritten whenever it is gone) and a path with nothing behind it.
    struct Files {
        intact: [(String, u64); 2],
        corrupt: String,
        missing: String,
    }

    impl Files {
        fn restore_corrupt(&self) {
            let path = Path::new(&self.corrupt);
            if !path.exists() {
                write_checkpoint(path, 13, 4);
                let mut bytes = std::fs::read(path).expect("read checkpoint");
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x5A;
                std::fs::write(path, bytes).expect("corrupt checkpoint");
            }
        }
    }

    /// A reload request in its wire form: a method and path near
    /// `POST /admin/reload`, zero to two `X-Checkpoint` fields naming an
    /// intact, corrupt or missing checkpoint, or carrying a NUL, an
    /// oversize, a non-UTF-8 or an empty value, and a body whose declared
    /// length is right, short or long; then, in three cases of ten, `http`'s
    /// head mutator.
    fn reload_request(rng: &mut impl Rng, files: &Files) -> Vec<u8> {
        let pick = |rng: &mut dyn rand::RngCore, options: &[&str]| {
            options[rng.gen_range(0..options.len())].to_string()
        };
        let method = pick(rng, &["POST", "POST", "POST", "POST", "GET", "PUT", "post"]);
        let target =
            pick(rng, &["/admin/reload", "/admin/reload", "/admin/reload", "/admin/reloa"]);
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: localhost\r\n").into_bytes();
        let value = |rng: &mut dyn rand::RngCore| -> Vec<u8> {
            let intact = &files.intact[rng.gen_range(0..2)].0;
            match rng.gen_range(0..10) {
                0..=3 => intact.clone().into_bytes(),
                4 => files.corrupt.clone().into_bytes(),
                5 => files.missing.clone().into_bytes(),
                6 => intact.replacen('/', "/\0", 1).into_bytes(),
                7 => format!("{intact}{}", "/x".repeat(rng.gen_range(200..5_000))).into_bytes(),
                8 => [intact.as_bytes(), &[0xFF, 0xC3]].concat(),
                _ => Vec::new(),
            }
        };
        let fields = [0, 1, 1, 1, 2][rng.gen_range(0..5)];
        let first = value(rng);
        for i in 0..fields {
            let value = if i == 1 && rng.gen_bool(0.5) { value(rng) } else { first.clone() };
            let name = ["X-Checkpoint", "x-checkpoint"][rng.gen_range(0..2)];
            head.extend_from_slice(format!("{name}: ").as_bytes());
            head.extend_from_slice(&value);
            head.extend_from_slice(b"\r\n");
        }
        let body_len = rng.gen_range(0..40usize);
        let declared = body_len as i64 + [0, 0, 0, 0, -1, 1][rng.gen_range(0..6)];
        if declared > 0 {
            head.extend_from_slice(format!("Content-Length: {declared}\r\n").as_bytes());
        }
        head.extend_from_slice(b"Accept: */*");
        if rng.gen_bool(0.3) {
            http::tests::mutate(rng, &mut head);
        }
        head.extend_from_slice(b"\r\n\r\n");
        head.extend((0..body_len).map(|_| rng.gen::<u8>()));
        head
    }

    /// The epoch a parsed request must leave behind, read independently of
    /// `route` and `reload`: an intact checkpoint's when the request is
    /// `POST /admin/reload` and every `X-Checkpoint` field names that one
    /// file, and otherwise none.
    fn reloads_to(request: &Request, files: &Files) -> Option<u64> {
        if (request.method.as_str(), request.path.as_str()) != ("POST", "/admin/reload") {
            return None;
        }
        let named: Vec<&str> = request
            .headers
            .iter()
            .filter(|(n, _)| n == "x-checkpoint")
            .map(|(_, v)| v.as_str())
            .collect();
        let path = named.first().filter(|p| named.iter().all(|q| q == *p))?;
        files.intact.iter().find(|(file, _)| file == path).map(|&(_, epoch)| epoch)
    }

    /// 2 000 mutated `/admin/reload` requests through the server's own read
    /// and answer path (`read_request`, then `respond`), against a registry
    /// over a temp dir. Every request gets a status or a typed read error,
    /// none panics, and the model epoch moves only for an intact
    /// checkpoint at the one path the request names.
    #[test]
    fn mutated_reload_requests_answer_typed_and_reload_only_intact_checkpoints() {
        let dir = std::env::temp_dir().join(format!("hoga-serve-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let at = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let files = Files {
            intact: [(at("a.bin"), 2), (at("b.bin"), 3)],
            corrupt: at("corrupt.bin"),
            missing: at("missing.bin"),
        };
        write_checkpoint(Path::new(&at("start.bin")), 10, 1);
        write_checkpoint(Path::new(&files.intact[0].0), 11, 2);
        write_checkpoint(Path::new(&files.intact[1].0), 12, 3);
        let config = ServerConfig {
            checkpoint: at("start.bin").into(),
            num_hops: 3,
            workers: 1,
            queue_capacity: 2,
            ..ServerConfig::default()
        };
        let state = Arc::new(ServeState::new(config).expect("the start checkpoint loads"));
        let reloads = AtomicUsize::new(0);
        hoga_check::cases(2_000, |rng| {
            files.restore_corrupt();
            let before = state.registry.current().epoch();
            let bytes = reload_request(rng, &files);
            let request = http::read_request(&mut bytes.as_slice(), &state.limits);
            let want = request.as_ref().ok().and_then(|r| reloads_to(r, &files));
            let text = String::from_utf8_lossy(&bytes[..bytes.len().min(300)]).into_owned();
            let status = respond(request, &state).map(|r| r.status);
            let after = state.registry.current().epoch();
            match want {
                Some(epoch) => {
                    reloads.fetch_add(1, Ordering::Relaxed);
                    assert_eq!((status, after), (Some(200), epoch), "{text:?}");
                }
                None => {
                    assert_ne!(status, Some(200), "{text:?} answered 200 without a reload");
                    assert_eq!(after, before, "{text:?} moved the epoch");
                }
            }
        });
        let reloads = reloads.into_inner();
        assert!(reloads > 50, "only {reloads} of 2 000 cases reloaded an intact checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
