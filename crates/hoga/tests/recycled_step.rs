//! One full HOGA training step — hop stack, gated self-attention, readout,
//! classifier, weighted cross-entropy, backward — on storage recycled from
//! `hoga_tensor::recycle`'s lent list: every bit of the loss and of every
//! gradient equals a run on fresh storage, whether the list was seeded with
//! NaN-filled buffers or with what earlier steps (a partial minibatch among
//! them) left behind.

use hoga_autograd::Tape;
use hoga_core::heads::NodeClassifier;
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_tensor::recycle::{give_back, Pool};
use hoga_tensor::{Init, Matrix};

const HOPS: usize = 8;
const INPUT: usize = 8;
const HIDDEN: usize = 16;
const CLASSES: usize = 4;
/// `BATCH · (HOPS + 1) · HIDDEN` = 73 728 floats a node value.
const BATCH: usize = 512;

fn isolated<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(|| Pool::default().run(f)).join().expect("scenario panicked")
}

/// Loss bits and `(parameter, gradient bits)` of one step over `batch`
/// nodes.
fn step_bits(aggregator: Aggregator, batch: usize) -> (u32, Vec<(usize, Vec<u32>)>) {
    let cfg = HogaConfig::new(INPUT, HIDDEN, HOPS).with_aggregator(aggregator);
    let mut model = HogaModel::new(&cfg, 7);
    let cls = NodeClassifier::new(&mut model.params, HIDDEN, CLASSES, 9);
    let stack = Init::SmallUniform.matrix(batch * (HOPS + 1), INPUT, 11).scale(5.0);
    let labels: Vec<usize> = (0..batch).map(|i| (i * 7) % CLASSES).collect();

    let mut tape = Tape::new();
    let out = model.forward(&mut tape, &stack, batch);
    let logits = cls.logits(&mut tape, &model.params, out.representations);
    let loss = tape.cross_entropy_weighted(logits, &labels, &[1.0, 2.0, 0.5, 1.5]);
    assert!(tape.value(out.representations).is_finite());
    let loss_bits = tape.value(loss)[(0, 0)].to_bits();
    let grads = tape.backward(loss);
    let grad_bits = grads
        .iter()
        .map(|(id, g)| {
            assert!(g.is_finite(), "a gradient picked up stale data");
            (id.index(), g.as_slice().iter().map(|v| v.to_bits()).collect())
        })
        .collect();
    (loss_bits, grad_bits)
}

#[test]
fn a_full_step_on_recycled_storage_is_bitwise_a_step_on_fresh_storage() {
    for aggregator in [Aggregator::GatedSelfAttention, Aggregator::GateOnly, Aggregator::Sum] {
        let clean_full = isolated(move || step_bits(aggregator, BATCH));
        let clean_partial = isolated(move || step_bits(aggregator, BATCH / 3));
        let recycled = isolated(move || {
            // Every size class of the step, and sizes between them.
            for rows in [BATCH, BATCH * HOPS, BATCH * (HOPS + 1), 2 * BATCH * HOPS + 1] {
                for _ in 0..8 {
                    give_back(Matrix::full(rows, HIDDEN, f32::NAN));
                }
            }
            // Full, full, partial (it borrows the full-size buffers), full.
            [BATCH, BATCH, BATCH / 3, BATCH].map(|batch| step_bits(aggregator, batch))
        });
        assert!(!clean_full.1.is_empty());
        for (i, got) in recycled.iter().enumerate() {
            let want = if i == 2 { &clean_partial } else { &clean_full };
            assert_eq!(want, got, "{aggregator:?}, step {i}");
        }
    }
}
