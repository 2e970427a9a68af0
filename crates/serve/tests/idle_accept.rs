//! An idle server is asleep: the accept thread blocks in `accept` (no poll,
//! no timer), and `shutdown` still returns promptly because it wakes the
//! thread with a connection to its own address — a wildcard bind included.
//!
//! A binary of its own, so the process has exactly one `serve-accept` thread
//! to find under `/proc/self/task`.
#![cfg(target_os = "linux")]

use hoga_circuit::features::NODE_FEATURE_DIM;
use hoga_core::heads::GraphRegressor;
use hoga_core::model::{HogaConfig, HogaModel};
use hoga_datasets::io::{save_checkpoint, Checkpoint};
use hoga_datasets::openabcd::RECIPE_ENCODING_WIDTH;
use hoga_serve::{HttpClient, Server, ServerConfig};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

const HOPS: usize = 3;
const HIDDEN: usize = 8;

fn write_checkpoint(path: &Path) {
    let mut model = HogaModel::new(&HogaConfig::new(NODE_FEATURE_DIM, HIDDEN, HOPS), 0xA5);
    let _head = GraphRegressor::new(&mut model.params, HIDDEN + RECIPE_ENCODING_WIDTH, HIDDEN, 0xD);
    let ck = Checkpoint {
        epoch: 1,
        seed: 0xA5,
        lr_scale: 1.0,
        params: model.params.clone(),
        opt_state: Vec::new(),
    };
    save_checkpoint(path, &ck).expect("write checkpoint");
}

/// `(state, voluntary_ctxt_switches)` of every thread of this process whose
/// `comm` is `serve-accept`.
fn accept_threads() -> Vec<(String, u64)> {
    let mut found = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        // A thread may exit between the listing and the read.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        if comm.trim() != "serve-accept" {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).expect("thread status");
        let field = |name: &str| {
            let line = status.lines().find(|l| l.starts_with(name)).expect("status field");
            line[name.len()..].trim().to_string()
        };
        let switches = field("voluntary_ctxt_switches:").parse().expect("a count");
        found.push((field("State:"), switches));
    }
    found
}

/// The one accept thread's wake-up count, read once it is asleep (a thread
/// just spawned has yet to name itself, let alone reach `accept`).
fn wakeups_once_asleep() -> u64 {
    let give_up = Instant::now() + Duration::from_secs(5);
    loop {
        let threads = accept_threads();
        assert!(threads.len() <= 1, "more than one accept thread: {threads:?}");
        if let Some((_, switches)) = threads.iter().find(|(state, _)| state.starts_with('S')) {
            return *switches;
        }
        assert!(Instant::now() < give_up, "no sleeping accept thread: {threads:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Serves one `/healthz`, shuts down inside a second, and leaves neither a
/// listener nor an accept thread behind.
fn serve_once_then_shut_down(handle: hoga_serve::ServerHandle) {
    let port = handle.addr().port();
    let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
    let health = HttpClient::new(loopback, Duration::from_secs(10)).get("/healthz");
    assert_eq!(health.expect("healthz round-trip").status, 200);

    let started = Instant::now();
    handle.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown of an idle server took {took:?}");
    // Joined, not detached; its `/proc` entry may outlive the join by a moment.
    while !accept_threads().is_empty() {
        assert!(started.elapsed() < Duration::from_secs(1), "the accept thread is still there");
        std::thread::sleep(Duration::from_millis(5));
    }
    let refused = TcpStream::connect_timeout(&loopback, Duration::from_secs(1))
        .expect_err("the listener is gone, so the port refuses");
    assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
}

#[test]
fn accept_thread_sleeps_while_idle_and_shutdown_wakes_it() {
    let checkpoint =
        std::env::temp_dir().join(format!("hoga-serve-idle-{}.bin", std::process::id()));
    write_checkpoint(&checkpoint);
    let config = |addr: &str| ServerConfig {
        addr: addr.into(),
        checkpoint: checkpoint.clone(),
        num_hops: HOPS,
        ..ServerConfig::default()
    };

    let handle = Server::start(config("127.0.0.1:0")).expect("server starts");
    let before = wakeups_once_asleep();
    std::thread::sleep(Duration::from_millis(200));
    let after = wakeups_once_asleep();
    assert_eq!(after, before, "the accept thread woke {} times with no traffic", after - before);
    serve_once_then_shut_down(handle);

    // A wildcard bind cannot be connected to as written; the wake goes to
    // loopback of the same family.
    let wildcard = Server::start(config("0.0.0.0:0")).expect("wildcard server starts");
    assert!(wildcard.addr().ip().is_unspecified());
    serve_once_then_shut_down(wildcard);
    let _ = std::fs::remove_file(&checkpoint);
}
