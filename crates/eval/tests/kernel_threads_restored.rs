//! `train_reasoning_parallel` pins the process-global kernel thread count to
//! 1 while its workers run; it must put the previous count back on every
//! way out, or each later kernel in the process (a retried job attempt, the
//! next CLI stage) silently runs single-threaded.
//!
//! One test function in a file of its own: the thread count is process
//! state, so nothing else may train in this binary while it is asserted.

use hoga_datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};
use hoga_eval::fault::TrainError;
use hoga_eval::parallel_train::train_reasoning_parallel;
use hoga_eval::trainer::TrainConfig;
use hoga_tensor::{available_threads, set_threads};

#[test]
fn kernel_thread_count_survives_failed_and_successful_runs() {
    let graph = build_reasoning_graph(
        MultiplierKind::Csa,
        4,
        &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 3, label_k: 3 },
    );
    let cfg = TrainConfig { hidden_dim: 8, epochs: 2, batch_nodes: 64, ..TrainConfig::default() };
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
