//! In-process chaos suite: every `ServeSite` fault fires at its claimed
//! production code point and the server survives with typed degradation —
//! plus the robustness invariants that need no injection (admission
//! control, deadlines, byte-identical replies, real slow-loris sockets).

use hoga_core::heads::GraphRegressor;
use hoga_core::model::{HogaConfig, HogaModel};
use hoga_datasets::io::{encode_aig, save_checkpoint, Checkpoint};
use hoga_datasets::openabcd::RECIPE_ENCODING_WIDTH;
use hoga_jobs::{FaultKind, FaultSite, JobFaultPlan, ServeSite};
use hoga_serve::{HttpClient, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const HOPS: usize = 3;
const HIDDEN: usize = 8;
const INPUT_DIM: usize = 7; // NODE_FEATURE_DIM

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hoga-serve-chaos-{}-{name}", std::process::id()));
    p
}

fn write_checkpoint(path: &std::path::Path, seed: u64, epoch: u64) {
    let mut model = HogaModel::new(&HogaConfig::new(INPUT_DIM, HIDDEN, HOPS), seed);
    let _head =
        GraphRegressor::new(&mut model.params, HIDDEN + RECIPE_ENCODING_WIDTH, HIDDEN, seed ^ 0xD);
    let ck = Checkpoint {
        epoch,
        seed,
        lr_scale: 1.0,
        params: model.params.clone(),
        opt_state: Vec::new(),
    };
    save_checkpoint(path, &ck).expect("write checkpoint");
}

/// A small but non-trivial circuit body for /v1/predict.
fn circuit_body() -> Vec<u8> {
    let mut g = hoga_circuit::Aig::new(5);
    let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
    let (d, e) = (g.pi_lit(3), g.pi_lit(4));
    let x = g.xor(a, b);
    let m = g.maj(b, c, d);
    let t = g.and(x, !m);
    let u = g.or(t, e);
    let v = g.xor(u, c);
    g.add_po(v);
    g.add_po(!t);
    encode_aig(&g).to_vec()
}

/// A second, structurally different circuit (different cache key).
fn other_circuit_body() -> Vec<u8> {
    let mut g = hoga_circuit::Aig::new(3);
    let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
    let x = g.and(a, b);
    let y = g.or(x, !c);
    g.add_po(y);
    encode_aig(&g).to_vec()
}

struct Running {
    handle: ServerHandle,
    client: HttpClient,
    checkpoint: PathBuf,
}

fn start(name: &str, tweak: impl FnOnce(&mut ServerConfig)) -> Running {
    let checkpoint = scratch(&format!("{name}.bin"));
    write_checkpoint(&checkpoint, 0xA5, 1);
    let mut config =
        ServerConfig { checkpoint: checkpoint.clone(), num_hops: HOPS, ..ServerConfig::default() };
    tweak(&mut config);
    let handle = Server::start(config).expect("server starts on a clean checkpoint");
    let client = HttpClient::new(handle.addr(), Duration::from_secs(10));
    Running { handle, client, checkpoint }
}

impl Running {
    fn predict(&self, body: &[u8], extra: &[(&str, &str)]) -> (u16, String) {
        let mut headers = vec![("X-Recipe", "b; rw; rf; b; rw -z; rf -z")];
        headers.extend_from_slice(extra);
        let r = self.client.post("/v1/predict", &headers, body).expect("predict round-trip");
        (r.status, r.text())
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_file(&self.checkpoint);
    }
}

#[test]
fn healthz_and_repeated_predictions_are_byte_identical() {
    let s = start("identical", |_| {});
    let health = s.client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);

    let body = circuit_body();
    let (status, first) = s.predict(&body, &[]);
    assert_eq!(status, 200, "body: {first}");
    assert!(first.contains("\"ratio_bits\":\""), "body: {first}");
    assert!(first.contains("\"cache\":\"miss\""), "first query computes: {first}");

    let (status, second) = s.predict(&body, &[]);
    assert_eq!(status, 200);
    assert!(second.contains("\"cache\":\"hit\""), "second query hits: {second}");
    // Byte-identity modulo the cache marker: the scored payload (ratio,
    // bits, epoch, nodes) must match exactly.
    let strip = |t: &str| t.replace("\"cache\":\"hit\"", "").replace("\"cache\":\"miss\"", "");
    assert_eq!(strip(&first), strip(&second), "repeated query must be byte-identical");

    let stats = s.handle.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    s.stop();
}

#[test]
fn precision_paths_all_answer_and_int8_differs_gracefully() {
    let s = start("precision", |_| {});
    let body = circuit_body();
    for precision in ["exact", "fast", "int8"] {
        let (status, text) = s.predict(&body, &[("X-Precision", precision)]);
        assert_eq!(status, 200, "{precision}: {text}");
    }
    let (status, text) = s.predict(&body, &[("X-Precision", "float128")]);
    assert_eq!(status, 400, "unknown precision is typed: {text}");
    s.stop();
}

#[test]
fn malformed_inputs_get_typed_4xx_not_panics() {
    let s = start("malformed", |c| c.max_body_bytes = 4096);
    // Garbage body → the CRC-checked AIG decode refuses it.
    let (status, text) = s.predict(b"definitely not an AIG frame", &[]);
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("refused AIG frame"), "{text}");
    // Bad recipe.
    let r = s
        .client
        .post("/v1/predict", &[("X-Recipe", "b; explode; rw")], &circuit_body())
        .expect("round-trip");
    assert_eq!(r.status, 400, "{}", r.text());
    // Missing recipe header.
    let r = s.client.post("/v1/predict", &[], &circuit_body()).expect("round-trip");
    assert_eq!(r.status, 400);
    // Unknown route and method.
    assert_eq!(s.client.get("/nope").expect("round-trip").status, 404);
    // Oversized body is refused before it is read.
    let r = s.client.post("/v1/predict", &[("X-Recipe", "b")], &vec![0u8; 8192]);
    assert_eq!(r.expect("round-trip").status, 413);
    // Bad deadline header.
    let (status, _) = s.predict(&circuit_body(), &[("X-Deadline-Ms", "soon")]);
    assert_eq!(status, 400);
    s.stop();
}

#[test]
fn corrupt_frame_fault_fires_once_and_is_survived() {
    let s = start("corrupt-frame", |c| {
        c.serve_faults = JobFaultPlan::none()
            .inject(FaultSite::Serve(ServeSite::CorruptFrame), FaultKind::Corrupt);
    });
    let body = circuit_body();
    let (status, text) = s.predict(&body, &[]);
    assert_eq!(status, 400, "corrupted frame must be refused: {text}");
    assert!(text.contains("refused AIG frame"), "{text}");
    // The site claims once; the next identical request is served.
    let (status, text) = s.predict(&body, &[]);
    assert_eq!(status, 200, "server survives the injected corruption: {text}");
    s.stop();
}

#[test]
fn slow_client_fault_times_out_while_a_concurrent_predict_succeeds() {
    let s = start("slow-client", |c| {
        c.read_timeout_ms = 150;
        c.serve_faults = JobFaultPlan::none()
            .inject(FaultSite::Serve(ServeSite::SlowClient), FaultKind::Stall { millis: 150 });
    });
    // First connection claims the SlowClient stall (>= read timeout → 408).
    let slow_client = s.client;
    let slow = std::thread::spawn(move || {
        slow_client.post("/v1/predict", &[("X-Recipe", "b; rw")], &circuit_body())
    });
    // Meanwhile a healthy request is admitted and served: the stalled
    // connection occupies only its connection thread, not a worker slot.
    std::thread::sleep(Duration::from_millis(30));
    let (status, text) = s.predict(&other_circuit_body(), &[]);
    assert_eq!(status, 200, "healthy request during the stall: {text}");
    let r = slow.join().expect("slow thread").expect("slow round-trip");
    assert_eq!(r.status, 408, "stalled read is a typed timeout: {}", r.text());
    s.stop();
}

#[test]
fn real_slow_loris_socket_hits_the_read_timeout() {
    let s = start("loris", |c| c.read_timeout_ms = 100);
    // A genuinely misbehaving client: half the request, then a pause
    // longer than the read timeout. The server must cut it off (408 if
    // the timeout fired mid-read; an IO error if the socket was closed).
    let body = circuit_body();
    let mut wire = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: x\r\nX-Recipe: b\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(&body);
    // An Err is equally fine: the server closed the socket on timeout.
    if let Ok(r) = s.client.send_raw(&wire, Some((wire.len() / 2, Duration::from_millis(400)))) {
        assert_eq!(r.status, 408, "{}", r.text());
    }
    // The server is still healthy afterwards.
    let (status, _) = s.predict(&body, &[]);
    assert_eq!(status, 200);
    s.stop();
}

#[test]
fn overload_sheds_with_503_retry_after_and_recovers() {
    let s = start("overload", |c| {
        c.workers = 1;
        c.queue_capacity = 1;
        // The first admitted prediction stalls on the worker for 600 ms,
        // so the queue (capacity 1) fills and later submissions shed.
        c.job_faults = JobFaultPlan::none()
            .inject(FaultSite::Attempt { attempt: 1 }, FaultKind::Stall { millis: 600 });
    });
    let body = circuit_body();
    let occupier_client = s.client;
    let occupier_body = body.clone();
    let occupier = std::thread::spawn(move || {
        occupier_client.post("/v1/predict", &[("X-Recipe", "b; rw")], &occupier_body)
    });
    std::thread::sleep(Duration::from_millis(100));

    // Saturate: one request queues, the rest must shed with Retry-After.
    let mut shed = 0;
    let mut responses = Vec::new();
    for _ in 0..6 {
        let client = s.client;
        let b = body.clone();
        responses.push(std::thread::spawn(move || {
            client.post("/v1/predict", &[("X-Recipe", "b; rw")], &b)
        }));
    }
    for t in responses {
        let r = t.join().expect("spam thread").expect("round-trip");
        if r.status == 503 {
            shed += 1;
            assert_eq!(r.header("retry-after"), Some("1"), "503 carries Retry-After");
        }
    }
    assert!(shed >= 1, "at least one request must shed under overload");

    let r = occupier.join().expect("occupier").expect("round-trip");
    assert_eq!(r.status, 200, "the stalled job still completes: {}", r.text());
    // Recovery: once the stall drains, new requests are admitted again.
    let (status, text) = s.predict(&body, &[]);
    assert_eq!(status, 200, "server recovers after shedding: {text}");
    s.stop();
}

#[test]
fn request_deadline_propagates_to_a_504() {
    let s = start("deadline", |c| {
        // Stall the first prediction beyond its own deadline; the engine's
        // cancellable sleep observes the expiry.
        c.job_faults = JobFaultPlan::none()
            .inject(FaultSite::Attempt { attempt: 1 }, FaultKind::Stall { millis: 2_000 });
    });
    let (status, text) = s.predict(&circuit_body(), &[("X-Deadline-Ms", "120")]);
    assert_eq!(status, 504, "expired deadline is a typed 504: {text}");
    assert!(text.contains("deadline exceeded"), "{text}");
    // The next request (no fault left) serves normally.
    let (status, _) = s.predict(&circuit_body(), &[]);
    assert_eq!(status, 200);
    s.stop();
}

#[test]
fn corrupt_checkpoint_reload_is_refused_quarantined_and_old_model_serves() {
    let s = start("reload-corrupt", |c| {
        c.serve_faults = JobFaultPlan::none()
            .inject(FaultSite::Serve(ServeSite::CorruptCheckpoint), FaultKind::Corrupt);
    });
    let body = circuit_body();
    let (status, before) = s.predict(&body, &[]);
    assert_eq!(status, 200);
    assert!(before.contains("\"epoch\":1"), "{before}");

    // Reload target: a *copy*, so the injected corruption quarantines the
    // copy and the serving checkpoint stays usable.
    let copy = scratch("reload-corrupt-copy.bin");
    write_checkpoint(&copy, 0xB7, 9);
    let copy_text = copy.display().to_string();
    let r = s
        .client
        .post("/admin/reload", &[("X-Checkpoint", &copy_text)], &[])
        .expect("reload round-trip");
    assert_eq!(r.status, 422, "corrupt artifact is refused: {}", r.text());
    assert!(r.text().contains("refused"), "{}", r.text());
    let quarantined = PathBuf::from(format!("{copy_text}.quarantined"));
    assert!(quarantined.exists(), "refused artifact is quarantined");

    // Old model serves on, byte-identically.
    let (status, after) = s.predict(&body, &[]);
    assert_eq!(status, 200);
    assert!(after.contains("\"epoch\":1"), "old model keeps serving: {after}");

    // A clean artifact reloads (the fault site already claimed once).
    write_checkpoint(&copy, 0xB7, 9);
    let r = s
        .client
        .post("/admin/reload", &[("X-Checkpoint", &copy_text)], &[])
        .expect("reload round-trip");
    assert_eq!(r.status, 200, "{}", r.text());
    let (status, text) = s.predict(&body, &[]);
    assert_eq!(status, 200);
    assert!(text.contains("\"epoch\":9"), "new model after clean reload: {text}");

    let _ = std::fs::remove_file(&copy);
    let _ = std::fs::remove_file(&quarantined);
    s.stop();
}

#[test]
fn stalled_reload_never_blocks_serving_and_concurrent_reload_is_busy() {
    let s = start("reload-stall", |c| {
        c.serve_faults = JobFaultPlan::none()
            .inject(FaultSite::Serve(ServeSite::StallReload), FaultKind::Stall { millis: 500 });
    });
    let next = scratch("reload-stall-next.bin");
    write_checkpoint(&next, 0xC1, 5);
    let next_text = next.display().to_string();

    let reload_client = s.client;
    let reload_path = next_text.clone();
    let reloader = std::thread::spawn(move || {
        reload_client.post("/admin/reload", &[("X-Checkpoint", &reload_path)], &[])
    });
    std::thread::sleep(Duration::from_millis(150));

    // Mid-stall: predictions are served by the old model without waiting.
    let t0 = std::time::Instant::now();
    let (status, text) = s.predict(&circuit_body(), &[]);
    assert_eq!(status, 200);
    assert!(text.contains("\"epoch\":1"), "old model during stalled reload: {text}");
    assert!(t0.elapsed() < Duration::from_millis(300), "predict must not wait for the reload");

    // Mid-stall: a second reload is refused as busy, not queued.
    let r = s
        .client
        .post("/admin/reload", &[("X-Checkpoint", &next_text)], &[])
        .expect("busy round-trip");
    assert_eq!(r.status, 409, "concurrent reload is Busy: {}", r.text());

    let r = reloader.join().expect("reloader").expect("reload round-trip");
    assert_eq!(r.status, 200, "{}", r.text());
    let (status, text) = s.predict(&circuit_body(), &[]);
    assert_eq!(status, 200);
    assert!(text.contains("\"epoch\":5"), "swap lands after the stall: {text}");

    let _ = std::fs::remove_file(&next);
    s.stop();
}

#[test]
fn cache_eviction_under_memory_pressure_degrades_to_recompute() {
    // Budget below one hop stack: every insert is rejected, every query
    // recomputes, and nothing ever OOMs or fails.
    let s = start("cache-pressure", |c| c.cache_bytes = 64);
    let body = circuit_body();
    for _ in 0..3 {
        let (status, text) = s.predict(&body, &[]);
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("\"cache\":\"miss\""), "rejected cache degrades: {text}");
    }
    let stats = s.handle.cache_stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.bytes, 0, "a rejecting cache holds no memory");
    s.stop();
}

#[test]
fn stats_endpoint_reports_the_counters() {
    let s = start("stats", |_| {});
    let (status, _) = s.predict(&circuit_body(), &[]);
    assert_eq!(status, 200);
    let r = s.client.get("/stats").expect("stats");
    assert_eq!(r.status, 200);
    let text = r.text();
    assert!(text.contains("\"predictions\":1"), "{text}");
    assert!(text.contains("\"cache\":{"), "{text}");
    assert!(text.contains("\"reloads\":0"), "{text}");
    // The CPU picks the backend, so the process reports what it picked.
    let backend = format!("\"backend\":\"{}\"", hoga_tensor::active_backend());
    assert!(text.contains(&backend), "{text}");
    let threads = format!("\"kernel_threads\":{}", hoga_tensor::available_threads());
    assert!(text.contains(&threads), "{text}");
    s.stop();
}

#[test]
fn connection_cap_sheds_pre_parse_with_retry_after() {
    let s = start("conn-cap", |c| {
        c.max_connections = 1;
        c.read_timeout_ms = 400;
        // Hold the only connection slot with an injected slow client.
        c.serve_faults = JobFaultPlan::none()
            .inject(FaultSite::Serve(ServeSite::SlowClient), FaultKind::Stall { millis: 300 });
    });
    let holder_client = s.client;
    let holder = std::thread::spawn(move || {
        holder_client.post("/v1/predict", &[("X-Recipe", "b")], &circuit_body())
    });
    std::thread::sleep(Duration::from_millis(80));
    let r = s.client.get("/healthz").expect("over-cap round-trip");
    assert_eq!(r.status, 503, "connection over the cap sheds: {}", r.text());
    assert_eq!(r.header("retry-after"), Some("1"));
    let _ = holder.join().expect("holder");
    // Slot free again: served.
    let r = s.client.get("/healthz").expect("healthz");
    assert_eq!(r.status, 200);
    s.stop();
}

#[test]
fn dribbling_shed_client_cannot_hold_the_accept_loop() {
    let s = start("dribble", |c| {
        c.max_connections = 1;
        c.read_timeout_ms = 10_000;
    });
    // The only slot goes to a connection that sends nothing and stays open;
    // connections are accepted in arrival order, so the next one is shed.
    let holder = TcpStream::connect(s.handle.addr()).expect("holder connects");
    let mut dribbler = TcpStream::connect(s.handle.addr()).expect("dribbler connects");
    dribbler.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let (mut seen, mut chunk) = (Vec::new(), [0u8; 512]);
    while !seen.ends_with(b"\"}") {
        let n = dribbler.read(&mut chunk).expect("the shed response arrives");
        assert!(n > 0, "closed before the 503: {:?}", String::from_utf8_lossy(&seen));
        seen.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8_lossy(&seen);
    assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
    assert!(text.contains("Retry-After: 1\r\n") && text.contains("connection limit"), "{text}");

    // Shed and answered, the client neither closes nor goes quiet: a byte
    // inside every per-read linger timeout, for 1.5 s.
    let dribbling = std::thread::spawn(move || {
        let until = Instant::now() + Duration::from_millis(1500);
        while Instant::now() < until {
            let _ = dribbler.write_all(b"x"); // a reset, once the server hangs up, is fine
            std::thread::sleep(Duration::from_millis(40));
        }
    });
    // Free the slot. The accept loop must already be back in `accept`: the
    // lingering close it ran for the dribbler is bounded in total.
    drop(holder);
    let released = Instant::now();
    loop {
        let r = s.client.get("/healthz").expect("healthz round-trip");
        let waited = released.elapsed();
        assert!(waited < Duration::from_millis(500), "accept loop held for {waited:?}");
        if r.status == 200 {
            break;
        }
        assert_eq!(r.status, 503, "only a not-yet-released slot may refuse: {}", r.text());
    }
    dribbling.join().expect("dribbler");
    s.stop();
}
