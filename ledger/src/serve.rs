//! `serve_sweep` and `serve_unique`: the real server, in process, driven
//! over loopback HTTP by closed-loop clients (a synthesis tool waits for
//! its answer before it asks again).
//!
//! * sweep — eight resident ≈600-node designs, a never-repeated recipe per
//!   request: everything circuit-only is shareable, the hop cache is read.
//! * unique — a never-reused ≈120-node design per request against a 512 KiB
//!   cache: nothing is shareable, every request misses, inserts and (once
//!   the cache is full) evicts; the fixed request path is the largest share.

use crate::common::{
    end_to_end, infer_macs, median_secs, out_dir, repeat_setup, Args, Measured, Outcome,
};
use crate::inputs::{mix, random_aig};
use crate::json;
use crate::span::Tracer;
use crate::stats::{median, percentile};
use hoga_circuit::features::NODE_FEATURE_DIM;
use hoga_circuit::{adjacency, features};
use hoga_core::heads::GraphRegressor;
use hoga_core::hopfeat::hop_stack;
use hoga_core::infer::Precision;
use hoga_core::model::{HogaConfig, HogaModel};
use hoga_datasets::io::{decode_aig, encode_aig, save_checkpoint, structural_hash, Checkpoint};
use hoga_datasets::openabcd::RECIPE_ENCODING_WIDTH;
use hoga_jobs::{Engine, EngineConfig, Job, JobContext, JobError, JobFaultPlan, RetryPolicy};
use hoga_serve::{CacheStats, HopCache, HttpClient, Server, ServerConfig, ServerHandle};
use hoga_synth::{random_recipe, Recipe};
use hoga_tensor::{CsrMatrix, Matrix};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sweep,
    Unique,
}

/// Closed-loop client threads; fixed (not read from the machine) so the
/// offered load is the same everywhere. Equals `nproc` on the 2-core box.
const CLIENTS: u64 = 2;
/// Request streams: the measured clients use `0..CLIENTS`; the warm-up
/// clients, the trace loop and the sweep's cache fill have their own, so
/// none of them ever repeats a measured request.
const WARM_STREAM: u64 = CLIENTS;
const TRACE_STREAM: u64 = 2 * CLIENTS;
const FILL_STREAM: u64 = 2 * CLIENTS + 1;

const HOPS: usize = 5;
const HIDDEN: usize = 64;
const SWEEP_CIRCUITS: u64 = 8;
const SWEEP_NODES: usize = 600;
const UNIQUE_NODES: usize = 120;
/// Holds 26 hop stacks of 120 nodes, so the warm-up fills it and every
/// timed insert evicts.
const UNIQUE_CACHE_BYTES: usize = 512 << 10;
const RECIPE_STEPS: usize = 20;
/// Counted warm-up per client, after the sweep's eight cache-filling
/// requests; 64 in all, which also fills the unique workload's cache.
const WARMUP_PER_CLIENT: u64 = 32;
/// Responses per client compared bit for bit against the replica.
const CHECKED_PER_CLIENT: usize = 32;
/// Replica iterations on the trace thread before spans are kept.
const TRACE_WARMUP: u64 = 50;

struct Request {
    body: Vec<u8>,
    recipe: String,
}

struct Fixture {
    kind: Kind,
    seed: u64,
    handle: ServerHandle,
    client: HttpClient,
    replica: Replica,
    /// The sweep's resident designs, encoded once.
    bodies: Vec<Vec<u8>>,
    checkpoint: PathBuf,
}

impl Fixture {
    /// The request at `counter` of `stream`; a pure function of the seed.
    fn request(&self, stream: u64, counter: u64) -> Request {
        let recipe = random_recipe(RECIPE_STEPS, mix(self.seed, stream, counter)).to_string();
        match self.kind {
            Kind::Sweep => {
                let circuit = ((counter + stream) % SWEEP_CIRCUITS) as usize;
                Request { body: self.bodies[circuit].clone(), recipe }
            }
            Kind::Unique => {
                let aig = random_aig(UNIQUE_NODES, mix(!self.seed, stream, counter));
                Request { body: encode_aig(&aig).to_vec(), recipe }
            }
        }
    }

    fn expect_hit(&self) -> bool {
        self.kind == Kind::Sweep
    }

    fn nodes_per_request(&self) -> usize {
        match self.kind {
            Kind::Sweep => SWEEP_NODES,
            Kind::Unique => UNIQUE_NODES,
        }
    }

    /// One `/v1/predict` round trip, checked for status and cache outcome;
    /// returns the answer's `ratio_bits`.
    fn send(&self, request: &Request, expect_hit: bool) -> Result<u32, String> {
        let response = self
            .client
            .post("/v1/predict", &[("X-Recipe", request.recipe.as_str())], &request.body)
            .map_err(|e| e.to_string())?;
        if response.status != 200 {
            return Err(format!("status {}: {}", response.status, response.text()));
        }
        let doc = json::parse(&response.text())?;
        let ratio_bits = doc
            .get("ratio_bits")
            .and_then(json::Value::as_str)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or("response has no ratio_bits")?;
        let cache = doc.get("cache").and_then(json::Value::as_str).unwrap_or("");
        if cache != if expect_hit { "hit" } else { "miss" } {
            return Err(format!("cache field {cache:?}, expected hit = {expect_hit}"));
        }
        Ok(ratio_bits)
    }

    fn teardown(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_file(&self.checkpoint);
    }
}

/// Checkpoint write, `Server::start` (load, CRC, canary), input generation
/// and the counted warm-up.
fn setup(kind: Kind, seed: u64) -> Result<Fixture, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let checkpoint = out_dir().join(format!("serve-{}.ckpt", std::process::id()));
    let mut model = HogaModel::new(&HogaConfig::new(NODE_FEATURE_DIM, HIDDEN, HOPS), seed);
    let head =
        GraphRegressor::new(&mut model.params, HIDDEN + RECIPE_ENCODING_WIDTH, HIDDEN, seed ^ 0xD);
    let saved = Checkpoint {
        epoch: 1,
        seed,
        lr_scale: 1.0,
        params: model.params.clone(),
        opt_state: Vec::new(),
    };
    save_checkpoint(&checkpoint, &saved).map_err(|e| e.to_string())?;

    let mut config = ServerConfig { checkpoint: checkpoint.clone(), ..ServerConfig::default() };
    if kind == Kind::Unique {
        config.cache_bytes = UNIQUE_CACHE_BYTES;
    }
    let replica_cache = HopCache::new(config.cache_bytes);
    let handle = Server::start(config).map_err(|e| e.to_string())?;
    let client = HttpClient::new(handle.addr(), Duration::from_secs(30));
    let bodies = match kind {
        Kind::Sweep => (0..SWEEP_CIRCUITS)
            .map(|i| encode_aig(&random_aig(SWEEP_NODES, mix(seed, 0xC1C, i))).to_vec())
            .collect(),
        Kind::Unique => Vec::new(),
    };
    let fixture = Fixture {
        kind,
        seed,
        handle,
        client,
        replica: Replica { model, head, cache: replica_cache },
        bodies,
        checkpoint,
    };

    // The sweep's designs enter the cache one by one (misses); after that
    // the warm-up is the measured phase in small: the same clients, counted.
    for counter in 0..fixture.bodies.len() as u64 {
        fixture
            .send(&fixture.request(FILL_STREAM, counter), false)
            .map_err(|e| format!("cache fill {counter}: {e}"))?;
    }
    let (logs, _) = drive(&fixture, WARM_STREAM, Until::Sent(WARMUP_PER_CLIENT));
    match logs.iter().flat_map(|log| &log.failures).next() {
        Some(failure) => Err(format!("warm-up {failure}")),
        None => Ok(fixture),
    }
}

/// When a client stops sending.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Sent(u64),
}

#[derive(Default)]
struct ClientLog {
    stream: u64,
    latencies_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    /// `(counter, ratio_bits)` of the first responses, for the replica check.
    checked: Vec<(u64, u32)>,
}

/// The closed loop: `CLIENTS` threads, each sending its own stream
/// (`first_stream + i`) back to back until `until`. Returns the per-client
/// logs and the wall time.
fn drive(fixture: &Fixture, first_stream: u64, until: Until) -> (Vec<ClientLog>, f64) {
    let barrier = Barrier::new(CLIENTS as usize + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (first_stream..first_stream + CLIENTS)
            .map(|stream| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = ClientLog { stream, ..ClientLog::default() };
                    barrier.wait();
                    let start = Instant::now();
                    let mut counter = 0u64;
                    while match until {
                        Until::Elapsed(budget) => start.elapsed() < budget,
                        Until::Sent(count) => counter < count,
                    } {
                        // Input generation stays outside the latency sample.
                        let request = fixture.request(stream, counter);
                        log.attempted += 1;
                        let sent = Instant::now();
                        match fixture.send(&request, fixture.expect_hit()) {
                            Ok(ratio_bits) => {
                                log.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                                if log.checked.len() < CHECKED_PER_CLIENT {
                                    log.checked.push((counter, ratio_bits));
                                }
                            }
                            Err(why) => log.failures.push(format!("request {counter}: {why}")),
                        }
                        counter += 1;
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs = workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect();
        (logs, start.elapsed().as_secs_f64())
    })
}

/// Folds the client logs into the outcome and checks the sampled answers
/// against the replica. Returns the latencies of the successful requests.
fn account(fixture: &Fixture, logs: &[ClientLog], outcome: &mut Outcome) -> Vec<f64> {
    let mut latencies = Vec::new();
    let mut scratch = Tracer::off();
    for log in logs {
        let stream = log.stream;
        outcome.attempted += log.attempted;
        outcome.failed += log.failures.len() as u64;
        for failure in &log.failures {
            outcome.error(format!("client {stream} {failure}"));
        }
        latencies.extend_from_slice(&log.latencies_ms);
        for &(counter, served_bits) in &log.checked {
            let request = fixture.request(stream, counter);
            match fixture.replica.predict(&request, &mut scratch, 0) {
                Ok(replica) if replica.ratio_bits == served_bits => {}
                Ok(replica) => {
                    outcome.failed += 1;
                    outcome.error(format!(
                        "client {stream} request {counter}: served ratio_bits {served_bits:08x}, \
                         replica {:08x}",
                        replica.ratio_bits
                    ));
                }
                Err(why) => {
                    outcome.failed += 1;
                    outcome.error(format!("client {stream} request {counter}: replica {why}"));
                }
            }
        }
    }
    latencies
}

fn cache_delta(before: CacheStats, after: CacheStats) -> (u64, u64, u64) {
    (after.hits - before.hits, after.misses - before.misses, after.evictions - before.evictions)
}

/// The workload's shape, proven from the server's own counts.
fn check_cache_shape(kind: Kind, hits: u64, misses: u64, evictions: u64, outcome: &mut Outcome) {
    match kind {
        Kind::Sweep => outcome.check(misses == 0, || {
            format!("serve_sweep saw {misses} cache misses in the measured phase")
        }),
        Kind::Unique => outcome.check(hits == 0 && evictions > 0, || {
            format!("serve_unique saw {hits} cache hits and {evictions} evictions")
        }),
    }
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let (fixture, setup_s) = repeat_setup(|| setup(kind, args.seed), Fixture::teardown)?;
    let mut outcome = Outcome::default();
    let before = fixture.handle.cache_stats();
    let (logs, wall_s) = drive(&fixture, 0, Until::Elapsed(Duration::from_secs_f64(args.seconds)));
    let (hits, misses, evictions) = cache_delta(before, fixture.handle.cache_stats());
    check_cache_shape(kind, hits, misses, evictions, &mut outcome);
    let latencies_ms = account(&fixture, &logs, &mut outcome);
    outcome.notes.push(format!("cache: {hits} hits, {misses} misses, {evictions} evictions"));
    end_to_end(&mut outcome, &Measured { setup_s, latencies_ms, wall_s });
    fixture.teardown();
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// The replica: `PredictJob::run` rebuilt from the same public calls in the
// same order, so each can be timed from outside the product. Its answers are
// compared bit for bit with the server's, which is what keeps it honest.
// ---------------------------------------------------------------------------

struct Replica {
    model: HogaModel,
    head: GraphRegressor,
    cache: HopCache,
}

struct ReplicaAnswer {
    ratio_bits: u32,
    /// Non-zeros of the adjacency the request built (0 on a cache hit).
    spmm_nnz: usize,
}

impl Replica {
    fn predict(
        &self,
        request: &Request,
        tracer: &mut Tracer,
        id: u64,
    ) -> Result<ReplicaAnswer, String> {
        let root = tracer.begin("serve.replica", None, id);
        let parent = Some(root);
        let aig = tracer
            .time("datasets.decode_aig", parent, id, || decode_aig(&request.body[..]))
            .map_err(|e| e.to_string())?;
        let recipe: Recipe = tracer
            .time("synth.recipe", parent, id, || request.recipe.parse())
            .map_err(|e: hoga_synth::recipe::ParseRecipeError| e.to_string())?;
        let hash = tracer.time("datasets.structural_hash", parent, id, || structural_hash(&aig));
        let cached = tracer.time("serve.cache_get", parent, id, || self.cache.get(hash, HOPS));
        let mut spmm_nnz = 0;
        let stack = match cached {
            Some(stack) => stack,
            None => {
                let adj: CsrMatrix = tracer.time("circuit.adjacency", parent, id, || {
                    adjacency::normalized_symmetric(&aig)
                });
                spmm_nnz = adj.nnz();
                let feats =
                    tracer.time("circuit.features", parent, id, || features::node_features(&aig));
                let mut hops = vec![feats];
                for _ in 0..HOPS {
                    let next = tracer.time("tensor.spmm", parent, id, || {
                        adj.spmm(hops.last().expect("seeded with the raw features"))
                    });
                    hops.push(next);
                }
                let nodes: Vec<usize> = (0..aig.num_nodes()).collect();
                let stack = Arc::new(
                    tracer.time("hoga.hop_stack", parent, id, || hop_stack(&hops, &nodes)),
                );
                tracer.time("serve.cache_insert", parent, id, || {
                    self.cache.insert(hash, HOPS, Arc::clone(&stack));
                });
                stack
            }
        };
        let output = tracer
            .time("hoga.infer", parent, id, || {
                self.model.try_infer(&stack, aig.num_nodes(), Precision::Exact)
            })
            .map_err(|e| e.to_string())?;
        let score = tracer
            .time("hoga.head", parent, id, || {
                let pooled = mean_pool(&output.representations);
                let mut row = pooled.into_vec();
                row.extend_from_slice(&recipe.encode(RECIPE_ENCODING_WIDTH));
                let row = Matrix::from_vec(1, row.len(), row);
                self.head.infer(&self.model.params, &row)
            })
            .map_err(|e| e.to_string())?;
        tracer.end(root);
        let ratio = score.as_slice().first().copied().unwrap_or(f32::NAN);
        Ok(ReplicaAnswer { ratio_bits: ratio.to_bits(), spmm_nnz })
    }
}

/// The server's mean pooling (private there): sum rows in order, then
/// multiply by the reciprocal.
fn mean_pool(representations: &Matrix) -> Matrix {
    let (rows, cols) = representations.shape();
    let mut pooled = Matrix::zeros(1, cols);
    for r in 0..rows {
        for (acc, v) in pooled.as_mut_slice().iter_mut().zip(representations.row(r)) {
            *acc += v;
        }
    }
    if rows > 0 {
        let inv = 1.0 / rows as f32;
        pooled.map_inplace(|v| v * inv);
    }
    pooled
}

struct NoopJob;

impl Job for NoopJob {
    type Output = ();

    fn name(&self) -> String {
        "noop".into()
    }

    fn run(&mut self, _ctx: &JobContext) -> Result<(), JobError> {
        Ok(())
    }
}

/// Stages of the replica in request order, as `(span name, metric name)`.
const STAGES: [(&str, &str); 11] = [
    ("datasets.decode_aig", "datasets.decode_aig_us"),
    ("synth.recipe", "synth.recipe_us"),
    ("datasets.structural_hash", "datasets.structural_hash_us"),
    ("serve.cache_get", "serve.cache_get_us"),
    ("circuit.adjacency", "circuit.adjacency_us"),
    ("circuit.features", "circuit.features_us"),
    ("tensor.spmm", "tensor.spmm_us"),
    ("hoga.hop_stack", "hoga.hop_stack_us"),
    ("serve.cache_insert", "serve.cache_insert_us"),
    ("hoga.infer", "hoga.infer_us"),
    ("hoga.head", "hoga.head_us"),
];

struct TraceLog {
    tracer: Tracer,
    attempted: u64,
    failures: Vec<String>,
    spmm_nnz: Vec<f64>,
}

/// The traced loop: one real round trip, one `/healthz`, one empty engine
/// job and one replica pass per iteration.
fn trace_loop(fixture: &Fixture, engine: &Engine, budget: Duration) -> TraceLog {
    let mut log = TraceLog {
        tracer: Tracer::new(),
        attempted: 0,
        failures: Vec::new(),
        spmm_nnz: Vec::new(),
    };
    let mut scratch = Tracer::off();
    for counter in 0..TRACE_WARMUP {
        let request = fixture.request(TRACE_STREAM, counter);
        // The server must see what the replica sees, or the sweep's caches
        // and the unique workload's eviction state drift apart.
        let served = fixture.send(&request, fixture.expect_hit());
        let replayed = fixture.replica.predict(&request, &mut scratch, 0);
        if let (Err(why), _) | (_, Err(why)) = (served.map(|_| ()), replayed.map(|_| ())) {
            log.failures.push(format!("trace warm-up {counter}: {why}"));
        }
    }
    let start = Instant::now();
    let mut counter = TRACE_WARMUP;
    while start.elapsed() < budget {
        let request = fixture.request(TRACE_STREAM, counter);
        log.attempted += 1;
        let tracer = &mut log.tracer;
        let served = tracer.time("serve.roundtrip", None, counter, || {
            fixture.send(&request, fixture.expect_hit())
        });
        let health = tracer.time("serve.healthz", None, counter, || fixture.client.get("/healthz"));
        let noop = tracer.time("jobs.noop", None, counter, || {
            engine.submit(NoopJob, JobFaultPlan::none()).map(|handle| handle.wait())
        });
        let replayed = fixture.replica.predict(&request, tracer, counter);
        match (served, replayed) {
            (Ok(s), Ok(r)) if s == r.ratio_bits => log.spmm_nnz.push(r.spmm_nnz as f64),
            (Ok(s), Ok(r)) => log.failures.push(format!(
                "trace request {counter}: served {s:08x}, replica {:08x}",
                r.ratio_bits
            )),
            (Err(why), _) | (_, Err(why)) => {
                log.failures.push(format!("trace request {counter}: {why}"));
            }
        }
        if !matches!(health, Ok(ref r) if r.status == 200) {
            log.failures.push(format!("trace request {counter}: /healthz failed"));
        }
        if !matches!(noop, Ok(Ok(()))) {
            log.failures.push(format!("trace request {counter}: empty job failed"));
        }
        counter += 1;
    }
    log
}

/// Per-call floor of the threaded kernels: `spmm` and `matmul` on an
/// 8-row input, where the arithmetic is negligible and what remains is the
/// cost of entering the kernel (scoped thread spawn and join included).
/// Mean of the two medians, in microseconds.
pub fn call_floor_us() -> f64 {
    let diagonal: Vec<(usize, usize, f32)> = (0..8).map(|i| (i, i, 1.0)).collect();
    let adj = CsrMatrix::from_coo(8, 8, &diagonal);
    let x = Matrix::full(8, NODE_FEATURE_DIM, 1.0);
    let a = Matrix::full(8, HIDDEN, 1.0);
    let w = Matrix::full(HIDDEN, HIDDEN, 0.5);
    let spmm = median_secs(200, || adj.spmm(std::hint::black_box(&x)));
    let matmul = median_secs(200, || a.matmul(std::hint::black_box(&w)));
    (spmm + matmul) / 2.0 * 1e6
}

pub fn trace(kind: Kind, args: &Args) -> Result<(Outcome, Tracer), String> {
    let fixture = setup(kind, args.seed)?;
    let mut outcome = Outcome::default();
    let half = Duration::from_secs_f64(args.seconds / 2.0);

    // First half: the untraced load, for the counts and the percentiles
    // that only the real client mix shows.
    let before = fixture.handle.cache_stats();
    let (logs, _) = drive(&fixture, 0, Until::Elapsed(half));
    let (hits, misses, evictions) = cache_delta(before, fixture.handle.cache_stats());
    check_cache_shape(kind, hits, misses, evictions, &mut outcome);
    let latencies_ms = account(&fixture, &logs, &mut outcome);
    let load_p50_us = percentile(&latencies_ms, 50.0) * 1e3;
    outcome.set("serve.p50_ms", load_p50_us / 1e3);
    outcome.set("serve.p90_ms", percentile(&latencies_ms, 90.0));
    outcome.set("serve.p99_ms", percentile(&latencies_ms, 99.0));
    outcome.set("serve.cache_hit_ratio", hits as f64 / ((hits + misses) as f64).max(1.0));
    outcome.set("serve.cache_evictions", evictions as f64);

    // Second half: one client, each round trip paired with a replica pass.
    let engine = Engine::start(EngineConfig {
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        ..EngineConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let log = trace_loop(&fixture, &engine, half);
    engine.shutdown();
    outcome.attempted += log.attempted;
    outcome.failed += log.failures.len() as u64;
    for failure in &log.failures {
        outcome.error(failure.clone());
    }

    let medians = log.tracer.median_us();
    let med = |name: &str| medians.get(name).copied().unwrap_or(0.0);
    let roundtrip = med("serve.roundtrip");
    outcome.set("serve.roundtrip_us", roundtrip);
    outcome.set("serve.healthz_us", med("serve.healthz"));
    outcome.set("jobs.noop_us", med("jobs.noop"));
    let mut staged = 0.0;
    for (span, metric) in STAGES {
        outcome.set(metric, med(span));
        staged += med(span);
    }
    // Paired per request, so a slow moment hits both sides of the difference.
    let per_request = log.tracer.per_request_us();
    let empty = Default::default();
    let replica_by_request = per_request.get("serve.replica").unwrap_or(&empty);
    let residuals: Vec<f64> = per_request
        .get("serve.roundtrip")
        .unwrap_or(&empty)
        .iter()
        .filter_map(|(id, rt)| replica_by_request.get(id).map(|replica| rt - replica))
        .collect();
    let unattributed = median(&residuals);
    outcome.set("serve.unattributed_us", unattributed);
    outcome.set("tensor.spmm_nnz", median(&log.spmm_nnz));
    let macs = infer_macs(fixture.nodes_per_request(), NODE_FEATURE_DIM, HIDDEN, HOPS);
    outcome.set("hoga.infer_mmacs", macs / 1e6);
    outcome.set("tensor.call_floor_us", call_floor_us());

    // The report: stage shares of the round trip, and the checks the issue
    // asks to be shown (reported, not asserted: later changes move them).
    let healthz = med("serve.healthz");
    let replica_total = med("serve.replica");
    outcome.notes.push(format!(
        "round trip {roundtrip:.1} us (1 client) = stages {staged:.1} + unattributed \
         {unattributed:.1} (sum off by {:+.1} %)",
        100.0 * (staged + unattributed - roundtrip) / roundtrip.max(1e-9)
    ));
    for (span, _) in STAGES {
        outcome.notes.push(format!(
            "  {span:<26} {:>10.1} us {:>5.1} %",
            med(span),
            100.0 * med(span) / roundtrip.max(1e-9)
        ));
    }
    outcome.notes.push(format!(
        "  {:<26} {unattributed:>10.1} us {:>5.1} %  (healthz {healthz:.1} us, bound 2x: {})",
        "serve.unattributed",
        100.0 * unattributed / roundtrip.max(1e-9),
        if (0.0..=2.0 * healthz).contains(&unattributed) { "inside" } else { "OUTSIDE" }
    ));
    outcome.notes.push(format!(
        "replica pass {replica_total:.1} us = {:.2} x the 2-client untraced p50 \
         ({load_p50_us:.1} us); healthz = {:.2} x that p50",
        replica_total / load_p50_us.max(1e-9),
        healthz / load_p50_us.max(1e-9)
    ));
    outcome.traced_s = args.seconds / 2.0;
    fixture.teardown();
    Ok((outcome, log.tracer))
}
