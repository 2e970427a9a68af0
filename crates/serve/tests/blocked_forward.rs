//! The server's forward is a loop over node blocks inside one parallel
//! region (`hoga_core::infer`); a prediction must still be, bit for bit, the
//! training pipeline's answer — hop features, tape forward, mean pool,
//! regression head — for a circuit that spans several blocks and ends in a
//! ragged one, whatever the kernel thread count.
//!
//! A binary of its own: it sets the process-wide thread count, which
//! `chaos.rs` reads back from `/stats`.

use hoga_autograd::Tape;
use hoga_circuit::{adjacency, features, Aig};
use hoga_core::heads::GraphRegressor;
use hoga_core::hopfeat::{hop_features, hop_stack};
use hoga_core::model::{HogaConfig, HogaModel};
use hoga_datasets::io::{decode_aig, encode_aig, save_checkpoint, Checkpoint};
use hoga_datasets::openabcd::RECIPE_ENCODING_WIDTH;
use hoga_serve::{HttpClient, Server, ServerConfig};
use hoga_synth::Recipe;
use hoga_tensor::{set_threads, Matrix};
use std::time::Duration;

/// The paper's shapes, at which a block is 32 nodes (pinned by
/// `hoga_core::infer`'s `block_size_is_a_function_of_the_shapes_alone`).
const HOPS: usize = 8;
const HIDDEN: usize = 64;
const BLOCK: usize = 32;
const RECIPE: &str = "b; rw; rf; b; rw -z; rf -z";

/// A ripple of full adders over two 12-bit operands: a little over a
/// hundred nodes.
fn adder_chain() -> Aig {
    let mut g = Aig::new(24);
    let mut carry = g.pi_lit(0);
    for bit in 0..12 {
        let (a, b) = (g.pi_lit(bit), g.pi_lit(12 + bit));
        let half = g.xor(a, b);
        let sum = g.xor(half, carry);
        carry = g.maj(a, b, carry);
        g.add_po(sum);
    }
    g.add_po(carry);
    g
}

/// What training computes for this circuit and recipe: the tape forward
/// over every node, mean-pooled, through the head.
fn trained_ratio_bits(model: &HogaModel, head: &GraphRegressor, aig: &Aig) -> u32 {
    let n = aig.num_nodes();
    let adj = adjacency::normalized_symmetric(aig);
    let hops = hop_features(&adj, &features::node_features(aig), HOPS);
    let stack = hop_stack(&hops, &(0..n).collect::<Vec<_>>());
    let recipe: Recipe = RECIPE.parse().expect("recipe parses");
    let encoded = recipe.encode(RECIPE_ENCODING_WIDTH);
    let extra = Matrix::from_vec(1, encoded.len(), encoded);
    let mut tape = Tape::new();
    let reps = model.forward(&mut tape, &stack, n).representations;
    let score = head.predict_with_extra(&mut tape, &model.params, reps, vec![(0, n)], &extra);
    tape.value(score).as_slice()[0].to_bits()
}

#[test]
fn multi_block_prediction_is_the_tape_forward_at_any_thread_count() {
    let mut model =
        HogaModel::new(&HogaConfig::new(features::NODE_FEATURE_DIM, HIDDEN, HOPS), 0xB10C);
    let head = GraphRegressor::new(&mut model.params, HIDDEN + RECIPE_ENCODING_WIDTH, HIDDEN, 0xD);
    let checkpoint =
        std::env::temp_dir().join(format!("hoga-serve-blocked-{}.bin", std::process::id()));
    let ck = Checkpoint {
        epoch: 1,
        seed: 0xB10C,
        lr_scale: 1.0,
        params: model.params.clone(),
        opt_state: Vec::new(),
    };
    save_checkpoint(&checkpoint, &ck).expect("write checkpoint");

    let body = encode_aig(&adder_chain()).to_vec();
    let aig = decode_aig(&body[..]).expect("own frame decodes");
    let n = aig.num_nodes();
    assert!(
        n > 3 * BLOCK && !n.is_multiple_of(BLOCK),
        "{n} nodes: want > 3 blocks and a ragged tail"
    );
    let want = format!("\"ratio_bits\":\"{:08x}\"", trained_ratio_bits(&model, &head, &aig));

    let config =
        ServerConfig { checkpoint: checkpoint.clone(), num_hops: HOPS, ..ServerConfig::default() };
    let handle = Server::start(config).expect("server starts on a clean checkpoint");
    let client = HttpClient::new(handle.addr(), Duration::from_secs(10));
    // Inline on one thread, then on however many workers this machine has
    // (the second request also comes from the hop cache).
    for threads in [1, 0] {
        set_threads(threads);
        let r = client.post("/v1/predict", &[("X-Recipe", RECIPE)], &body).expect("round-trip");
        let text = r.text();
        assert_eq!(r.status, 200, "{text}");
        assert!(text.contains(&format!("\"nodes\":{n}")), "{text}");
        assert!(text.contains(&want), "set_threads({threads}): served {text}, trained {want}");
    }
    handle.shutdown();
    let _ = std::fs::remove_file(&checkpoint);
}
