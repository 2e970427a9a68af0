//! The four batch workloads: the paper's "scalable" claim on graphs many
//! times a request's size, where kernels run at shapes large enough to
//! thread, with the hop precompute and each of the three numeric paths
//! getting its own number.
//!
//! All four run on the 32-bit CSA multiplier (≈38 k nodes, 60× a request):
//!
//! * `batch_hopfeat` — adjacency + node features + K = 8 SpMM over the
//!   whole graph.
//! * `batch_infer_exact|int8|fast` — hop-stack gather plus one tape-free
//!   forward per 1024-node chunk.

use crate::common::{
    end_to_end, infer_macs, median_secs, proc_status_mib, repeat_setup, Args, Measured, Outcome,
};
use crate::span::Tracer;
use crate::stats::median;
use crate::train::{timed_ms, trace_graph_build, BUILD_IDS};
use hoga_autograd::Tape;
use hoga_circuit::{adjacency, features};
use hoga_core::hopfeat::{hop_features, hop_stack};
use hoga_core::infer::{InferOutput, Int8Plan, Precision};
use hoga_core::model::{HogaConfig, HogaModel};
use hoga_datasets::gamora::{
    build_reasoning_graph, MultiplierKind, ReasoningConfig, ReasoningGraph,
};
use hoga_tensor::{
    layernorm_forward, qmatmul, softmax_rows, Init, Matrix, QuantizedMatrix, QuantizedWeights,
};
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hopfeat,
    Exact,
    Int8,
    Fast,
}

const WIDTH: usize = 32;
const HIDDEN: usize = 64;
/// Nodes per inference operation.
const CHUNK: usize = 1024;
/// The product's documented exact-vs-fast agreement (`docs/SERVING.md`, the
/// canary contract): largest absolute deviation of a representation.
const FAST_TOLERANCE: f32 = 1e-3;
/// Model-level int8 bound of `crates/hoga/tests/infer_differential.rs`:
/// the largest deviation from exact, as a share of the largest exact value.
const INT8_TOLERANCE: f32 = 0.15;
/// Multiplier widths of the size sweep (1.6 k to 162 k nodes).
const SCALE_WIDTHS: [usize; 4] = [8, 16, 32, 64];

struct Fixture {
    graph: ReasoningGraph,
    model: HogaModel,
    plan: Int8Plan,
}

/// Graph build (multiplier, tech mapping, labels, hop features), seeded
/// model, int8 plan, and one warm-up operation.
fn setup(kind: Kind, seed: u64) -> Result<Fixture, String> {
    let config = ReasoningConfig::default();
    let graph = build_reasoning_graph(MultiplierKind::Csa, WIDTH, &config);
    let model =
        HogaModel::new(&HogaConfig::new(graph.features.cols(), HIDDEN, config.num_hops), seed);
    let plan = model.int8_plan();
    let fixture = Fixture { graph, model, plan };
    fixture.operation(kind, 0, &mut Tracer::off()).map_err(|e| format!("warm-up: {e}"))?;
    Ok(fixture)
}

impl Fixture {
    fn num_hops(&self) -> usize {
        self.graph.hops.len() - 1
    }

    /// Node ids of chunk `index`: consecutive, wrapping around the graph.
    fn chunk(&self, index: u64) -> Vec<usize> {
        let n = self.graph.aig.num_nodes();
        let first = (index as usize * CHUNK) % n;
        (0..CHUNK).map(|j| (first + j) % n).collect()
    }

    fn infer(&self, kind: Kind, stack: &Matrix) -> Result<InferOutput, String> {
        match kind {
            Kind::Exact => self.model.try_infer(stack, CHUNK, Precision::Exact),
            Kind::Fast => self.model.try_infer(stack, CHUNK, Precision::Fast),
            Kind::Int8 => self.model.try_infer_int8(&self.plan, stack, CHUNK),
            Kind::Hopfeat => unreachable!("batch_hopfeat runs no inference"),
        }
        .map_err(|e| e.to_string())
    }

    /// One operation under spans; returns whether its output has the
    /// expected shape.
    fn operation(&self, kind: Kind, index: u64, tracer: &mut Tracer) -> Result<(), String> {
        if kind == Kind::Hopfeat {
            let root = tracer.begin("batch.hopfeat", None, index);
            let parent = Some(root);
            let aig = &self.graph.aig;
            let adj = tracer
                .time("circuit.adjacency", parent, index, || adjacency::normalized_symmetric(aig));
            let feats =
                tracer.time("circuit.features", parent, index, || features::node_features(aig));
            // `hop_features` itself, unrolled so each SpMM gets its span.
            let mut hops = vec![feats];
            for _ in 0..self.num_hops() {
                let next = tracer.time("tensor.spmm", parent, index, || {
                    adj.spmm(hops.last().expect("seeded with the raw features"))
                });
                hops.push(next);
            }
            tracer.end(root);
            let last = black_box(hops).pop().expect("K + 1 hop matrices");
            return (last.shape() == self.graph.features.shape())
                .then_some(())
                .ok_or_else(|| format!("hop matrix of shape {:?}", last.shape()));
        }
        let root = tracer.begin("batch.chunk", None, index);
        let nodes = self.chunk(index);
        let stack = tracer
            .time("hoga.hop_stack", Some(root), index, || hop_stack(&self.graph.hops, &nodes));
        let output = tracer.time("hoga.infer", Some(root), index, || self.infer(kind, &stack));
        tracer.end(root);
        let output = black_box(output)?;
        (output.representations.shape() == (CHUNK, HIDDEN))
            .then_some(())
            .ok_or_else(|| format!("representations of shape {:?}", output.representations.shape()))
    }

    /// Output checks, outside the measured phase.
    fn verify(&self, kind: Kind, outcome: &mut Outcome) {
        if kind == Kind::Hopfeat {
            let g = &self.graph;
            let again = hop_features(&g.adj, &g.features, self.num_hops());
            for (k, (built, fresh)) in g.hops.iter().zip(&again).enumerate() {
                outcome.check(built.as_slice() == fresh.as_slice(), || {
                    format!("hop {k}: recomputed features differ bitwise from the built graph's")
                });
            }
            // Each hop against an explicit neighbour sum over the one before.
            for (k, pair) in g.hops.windows(2).enumerate() {
                let mut summed = Matrix::zeros(pair[0].rows(), pair[0].cols());
                for r in 0..g.adj.rows() {
                    for (c, weight) in g.adj.row_entries(r) {
                        for (acc, v) in summed.row_mut(r).iter_mut().zip(pair[0].row(c)) {
                            *acc += weight * v;
                        }
                    }
                }
                let drift = summed.max_abs_diff(&pair[1]);
                outcome.check(drift <= 1e-4, || {
                    format!("hop {}: SpMM drifts {drift} from the neighbour sum", k + 1)
                });
            }
            return;
        }
        let nodes = self.chunk(0);
        let stack = hop_stack(&self.graph.hops, &nodes);
        let mut tape = Tape::new();
        let trained = self.model.forward(&mut tape, &stack, CHUNK);
        let oracle = tape.value(trained.representations);
        let got = match self.infer(kind, &stack) {
            Ok(output) => output.representations,
            Err(why) => return outcome.error(format!("chunk 0: {why}")),
        };
        let drift = oracle.max_abs_diff(&got);
        match kind {
            Kind::Exact => outcome.check(oracle.as_slice() == got.as_slice(), || {
                format!("exact inference differs from the tape forward (max |diff| {drift})")
            }),
            Kind::Fast => outcome.check(drift <= FAST_TOLERANCE, || {
                format!("fast inference drifts {drift} > {FAST_TOLERANCE} from exact")
            }),
            Kind::Int8 => {
                let bound = INT8_TOLERANCE * oracle.max_abs();
                outcome.check(drift <= bound, || {
                    format!("int8 inference drifts {drift} > {bound} from exact")
                });
            }
            Kind::Hopfeat => {}
        }
    }
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let (fixture, setup_s) = repeat_setup(|| setup(kind, args.seed), drop)?;
    let mut outcome = Outcome::default();
    let mut latencies_ms = Vec::new();
    let mut tracer = Tracer::off();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let began = Instant::now();
        let result = fixture.operation(kind, outcome.attempted, &mut tracer);
        let elapsed = began.elapsed();
        outcome.attempted += 1;
        match result {
            Ok(()) => latencies_ms.push(elapsed.as_secs_f64() * 1e3),
            Err(why) => {
                outcome.failed += 1;
                outcome.error(format!("operation {}: {why}", outcome.attempted));
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    fixture.verify(kind, &mut outcome);
    end_to_end(&mut outcome, &Measured { setup_s, latencies_ms, wall_s });
    Ok(outcome)
}

/// The dense kernels at the model's own shapes for one chunk: `(CHUNK·(K+1))
/// × d` activations against `d × d` weights, and `CHUNK` blocks of
/// `(K+1) × d` for the per-node attention product.
fn kernel_shapes(hops: usize, outcome: &mut Outcome) {
    let k1 = hops + 1;
    let rows = CHUNK * k1;
    let a = Init::SmallUniform.matrix(rows, HIDDEN, 1);
    let w = Init::SmallUniform.matrix(HIDDEN, HIDDEN, 2);
    let b = Init::SmallUniform.matrix(rows, HIDDEN, 3);
    let logits = Init::SmallUniform.matrix(rows, k1, 4);
    let (gamma, beta) = (vec![1.0f32; HIDDEN], vec![0.0f32; HIDDEN]);
    let dense_gmacs = (rows * HIDDEN * HIDDEN) as f64 / 1e9;
    outcome.set("tensor.matmul_gmacs", dense_gmacs / median_secs(9, || a.matmul(&w)));
    outcome.set("tensor.matmul_fast_gmacs", dense_gmacs / median_secs(9, || a.matmul_fast(&w)));
    let qw = QuantizedWeights::quantize(&w);
    let qa = QuantizedMatrix::quantize(&a);
    outcome.set("tensor.qmatmul_gmacs", dense_gmacs / median_secs(9, || qmatmul(&qa, &qw)));
    outcome.set("tensor.quantize_us", median_secs(9, || QuantizedMatrix::quantize(&a)) * 1e6);
    let attention_gmacs = (CHUNK * k1 * k1 * HIDDEN) as f64 / 1e9;
    outcome.set(
        "tensor.batched_nt_gmacs",
        attention_gmacs / median_secs(9, || a.batched_matmul_nt(&b, CHUNK)),
    );
    outcome.set("tensor.softmax_us", median_secs(9, || softmax_rows(&logits)) * 1e6);
    outcome
        .set("tensor.layernorm_us", median_secs(9, || layernorm_forward(&a, &gamma, &beta)) * 1e6);
}

/// Size sweep: hop precompute and one chunk of exact inference per node
/// (median of three passes), and the resident peak, as the multiplier grows
/// 100-fold; it answers whether cost per node or memory bends with size.
fn scale_sweep(seed: u64, tracer: &mut Tracer, outcome: &mut Outcome) {
    let config = ReasoningConfig::default();
    for (i, width) in SCALE_WIDTHS.into_iter().enumerate() {
        // After the ids the graph-build spans use.
        let id = BUILD_IDS + 16 + i as u64;
        let graph = build_reasoning_graph(MultiplierKind::Csa, width, &config);
        let n = graph.aig.num_nodes();
        let model =
            HogaModel::new(&HogaConfig::new(graph.features.cols(), HIDDEN, config.num_hops), seed);
        let nodes: Vec<usize> = (0..CHUNK).map(|j| (n / 2 + j) % n).collect();
        let (mut hopfeat_ms, mut infer_ms) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            timed_ms(tracer, "scale.hopfeat", None, id, &mut hopfeat_ms, || {
                let adj = adjacency::normalized_symmetric(&graph.aig);
                let feats = features::node_features(&graph.aig);
                black_box(hop_features(&adj, &feats, config.num_hops));
            });
            let inferred = timed_ms(tracer, "scale.infer", None, id, &mut infer_ms, || {
                let stack = hop_stack(&graph.hops, &nodes);
                black_box(model.try_infer(&stack, CHUNK, Precision::Exact))
            });
            if let Err(why) = inferred {
                outcome.error(format!("scale sweep width {width}: {why}"));
            }
        }
        let (hopfeat_us, infer_us) = (median(&hopfeat_ms) * 1e3, median(&infer_ms) * 1e3);
        outcome.set(&format!("scale.w{width}.hopfeat_us_per_node"), hopfeat_us / n as f64);
        outcome.set(&format!("scale.w{width}.infer_us_per_node"), infer_us / CHUNK as f64);
        outcome.set(&format!("scale.w{width}.rss_mb"), proc_status_mib("VmHWM:"));
        outcome.notes.push(format!("  scale: width {width:>2} = {n:>6} nodes"));
    }
}

pub fn trace(kind: Kind, args: &Args) -> Result<(Outcome, Tracer), String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    trace_graph_build(WIDTH, &mut tracer, &mut outcome);
    let fixture = setup(kind, args.seed)?;

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        if let Err(why) = fixture.operation(kind, outcome.attempted, &mut tracer) {
            outcome.failed += 1;
            outcome.error(format!("operation {}: {why}", outcome.attempted));
        }
        outcome.attempted += 1;
    }
    outcome.traced_s = start.elapsed().as_secs_f64();
    fixture.verify(kind, &mut outcome);

    let medians = tracer.median_us();
    let med = |name: &str| medians.get(name).copied().unwrap_or(0.0);
    if kind == Kind::Hopfeat {
        let nnz = fixture.graph.adj.nnz() as f64;
        outcome.set("circuit.adjacency_us", med("circuit.adjacency"));
        outcome.set("circuit.features_us", med("circuit.features"));
        outcome.set("tensor.spmm_us", med("tensor.spmm"));
        outcome.set("tensor.spmm_nnz", nnz);
        // Non-zeros visited per second across the K products of one pass.
        outcome.set(
            "tensor.spmm_mnnz_s",
            nnz * fixture.num_hops() as f64 / med("tensor.spmm").max(1e-9),
        );
        scale_sweep(args.seed, &mut tracer, &mut outcome);
    } else {
        outcome.set("hoga.hop_stack_us", med("hoga.hop_stack"));
        outcome.set("hoga.infer_us", med("hoga.infer"));
        let macs = infer_macs(CHUNK, fixture.graph.features.cols(), HIDDEN, fixture.num_hops());
        outcome.set("hoga.infer_mmacs", macs / 1e6);
        outcome.notes.push(format!(
            "forward: {:.2} GMACs/s ({:.1} MMACs computed from shapes, median {:.1} us)",
            macs / 1e3 / med("hoga.infer").max(1e-9),
            macs / 1e6,
            med("hoga.infer")
        ));
        kernel_shapes(fixture.num_hops(), &mut outcome);
    }
    Ok((outcome, tracer))
}
