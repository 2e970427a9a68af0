//! `train_reasoning_parallel` runs each shard's kernels on the shard's own
//! worker. It used to get there by pinning the process-global kernel thread
//! count to 1 and restoring "the previous count" on the way out, which an
//! error return could skip and two overlapping runs could interleave into a
//! permanent 1. The scope is thread-local now: whatever the trainer does,
//! and however many run at once, the process-wide count is never written.
//!
//! A file of its own: the thread count is process state, so nothing else
//! may set it in this binary while it is asserted (the two tests below share
//! a lock).

use hoga_datasets::gamora::{
    build_reasoning_graph, MultiplierKind, ReasoningConfig, ReasoningGraph,
};
use hoga_eval::fault::TrainError;
use hoga_eval::parallel_train::train_reasoning_parallel;
use hoga_eval::trainer::TrainConfig;
use hoga_tensor::{available_threads, set_threads};
use std::sync::{Barrier, Mutex, PoisonError};

static THREADS: Mutex<()> = Mutex::new(());

fn tiny_graph() -> ReasoningGraph {
    build_reasoning_graph(
        MultiplierKind::Csa,
        4,
        &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 3, label_k: 3 },
    )
}

fn tiny_cfg() -> TrainConfig {
    TrainConfig { hidden_dim: 8, epochs: 2, batch_nodes: 64, ..TrainConfig::default() }
}

#[test]
fn kernel_thread_count_survives_failed_and_successful_runs() {
    let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    let (graph, cfg) = (tiny_graph(), tiny_cfg());
    // A count the trainer would never pick itself, so a leaked `1` shows.
    set_threads(3);

    let unwritable = std::env::temp_dir().join("hoga-no-such-dir").join("ck.bin");
    let failing = TrainConfig { checkpoint_to: Some(unwritable), ..cfg.clone() };
    match train_reasoning_parallel(&graph, &failing, 2) {
        Err(TrainError::Checkpoint(_)) => {}
        Err(other) => panic!("expected a checkpoint write error, got {other:?}"),
        Ok(_) => panic!("a checkpoint into a missing directory cannot succeed"),
    }
    assert_eq!(available_threads(), 3, "error return left the kernel thread override behind");

    train_reasoning_parallel(&graph, &cfg, 2).expect("2 workers");
    assert_eq!(available_threads(), 3, "successful run changed the kernel thread count");
    set_threads(0);
}

/// Two trainings overlapping on two threads — the interleaving
/// enter(prev=N) → enter(prev=1) → drop(N) → drop(1) that left every later
/// kernel in the process single-threaded — and an unrelated thread that
/// reads the count while they run.
#[test]
fn overlapping_parallel_trainings_leave_the_thread_count_alone() {
    let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    let (graph, cfg) = (tiny_graph(), tiny_cfg());
    set_threads(3);
    // Released together, so the two runs overlap for their whole length.
    let entered = Barrier::new(3);
    let losses: Vec<u32> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    entered.wait();
                    let (_, _, stats) =
                        train_reasoning_parallel(&graph, &cfg, 2).expect("2 workers");
                    stats.train.final_loss.to_bits()
                })
            })
            .collect();
        entered.wait();
        assert_eq!(available_threads(), 3, "a bystander thread saw the trainers' pin");
        runs.into_iter().map(|run| run.join().expect("training thread")).collect()
    });
    assert_eq!(available_threads(), 3, "overlapping trainings changed the kernel thread count");
    assert_eq!(losses[0], losses[1], "where kernels run must never change what they compute");
    set_threads(0);
}
