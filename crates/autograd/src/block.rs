//! A batch's backward as a loop over node blocks: where a block sits in its
//! batch ([`NodeBlock`]), what its sweep hands back ([`BlockGrads`]), and
//! the reduction that finishes the batch's gradients in the whole-batch
//! sweep's order ([`BlockFold`]).

use crate::params::ParamId;
use crate::tape::{accumulate, Gradients};
use hoga_tensor::recycle::give_back;
use hoga_tensor::{readout_alpha_grad_chunk, Matrix, TnFold};
use std::collections::BTreeMap;
use std::ops::Range;

#[cfg(doc)]
use crate::Tape;

/// Block `index` of a `batch`-node batch cut into runs of `size` nodes,
/// the last run possibly shorter: where a block's rows sit among the
/// batch's, for [`Tape::backward_block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBlock {
    /// Position of the block among the batch's blocks.
    pub index: usize,
    /// Nodes per block (the last block may hold fewer).
    pub size: usize,
    /// Nodes in the batch.
    pub batch: usize,
}

impl NodeBlock {
    /// The blocks of a `batch`-node batch in runs of `size` nodes, in order.
    pub fn cover(batch: usize, size: usize) -> impl Iterator<Item = NodeBlock> {
        let size = size.max(1);
        (0..batch.div_ceil(size)).map(move |index| NodeBlock { index, size, batch })
    }

    /// `values`, `width` of them per node in node order, cut into `blocks`'
    /// runs: the disjoint outputs of a loop over blocks.
    pub fn runs<'v, T>(blocks: &[Self], mut values: &'v mut [T], width: usize) -> Vec<&'v mut [T]> {
        let mut cut = |block: &Self| {
            let (run, rest) = std::mem::take(&mut values).split_at_mut(block.nodes().len() * width);
            values = rest;
            run
        };
        blocks.iter().map(&mut cut).collect()
    }

    /// The block's nodes, as positions in the batch.
    pub fn nodes(&self) -> Range<usize> {
        let first = self.index * self.size;
        first..(first + self.size).min(self.batch)
    }

    /// Rows per node of a value with `rows` rows over this block.
    fn rows_per_node(&self, rows: usize) -> usize {
        let nodes = self.nodes().len();
        assert!(
            rows.checked_rem(nodes) == Some(0),
            "a value of {rows} rows over {nodes} nodes is not node-wise"
        );
        rows.checked_div(nodes).unwrap_or(0)
    }
}

/// One block's part of a parameter's sum over the batch's rows.
pub(crate) enum RowSum {
    /// The block's chunk partial of the batch's `aᵀ · gy` (`Gemm::TN`).
    Chunk(Matrix),
    /// The block's rows of both `aᵀ · gy` operands, and the batch's rows.
    Tn(Matrix, Matrix, usize),
    /// The block's rows of a column sum.
    Cols(Matrix),
}

impl RowSum {
    /// `lhsᵀ · gy` over `block`'s rows: the block's chunk partial of the
    /// batch's `aᵀ · gy` when the block is one of its chunks, the rows of
    /// both operands otherwise.
    pub(crate) fn matmul(lhs: &Matrix, gy: Matrix, block: NodeBlock) -> Self {
        let per_node = block.rows_per_node(gy.rows());
        let (run, total) = (block.size * per_node, block.batch * per_node);
        match lhs.matmul_tn_chunk(&gy, run, block.index, total) {
            Some(partial) => {
                give_back(gy);
                RowSum::Chunk(partial)
            }
            None => RowSum::Tn(lhs.clone(), gy, total),
        }
    }

    /// `α`'s part of Eq. 10's readout over the block's hop stack `h`, with
    /// the logits' gradient `dlogits`: what [`RowSum::matmul`] hands back
    /// for the gathered concat `[Ĥ₀ ‖ Ĥₖ]` and the flattened `dlogits`,
    /// read from `h` in place as a chunk partial, and with the concat built
    /// only when its rows must be handed back.
    pub(crate) fn readout(h: &Matrix, dlogits: Matrix, k1: usize, block: NodeBlock) -> Self {
        match readout_alpha_grad_chunk(h, &dlogits, k1, block.size, block.index, block.batch) {
            Some(partial) => {
                give_back(dlogits);
                RowSum::Chunk(partial)
            }
            None => {
                let (k, d) = (k1 - 1, h.cols());
                let rows = dlogits.len();
                let concat = Matrix::from_fn(rows, 2 * d, |r, c| match c.checked_sub(d) {
                    None => h[((r / k) * k1, c)],
                    Some(c) => h[((r / k) * k1 + r % k + 1, c)],
                });
                RowSum::Tn(concat, Matrix::from_vec(rows, 1, dlogits.into_vec()), block.batch * k)
            }
        }
    }

    fn is_finite(&self) -> bool {
        match self {
            RowSum::Chunk(m) | RowSum::Cols(m) => m.is_finite(),
            RowSum::Tn(a, g, _) => a.is_finite() && g.is_finite(),
        }
    }

    /// Scales the sum this part contributes by `s`.
    fn scale(&mut self, s: f32) {
        match self {
            RowSum::Chunk(m) | RowSum::Cols(m) | RowSum::Tn(_, m, _) => m.map_inplace(|x| x * s),
        }
    }
}

/// A parameter's sum over the batch's rows, folded block by block: a
/// matmul weight's chunk partials added into zeros in ascending order, the
/// unbatched `aᵀ · gy`'s own reduction; its rows folded into that
/// product's chunk chains ([`TnFold`]); a column sum's one chain per column
/// from zero, row after row, block after block.
enum Fold {
    Chunks(Matrix),
    Tn(TnFold),
    Cols(Matrix),
}

impl Fold {
    fn new(part: &RowSum) -> Self {
        match part {
            RowSum::Chunk(m) => Fold::Chunks(Matrix::zeros(m.rows(), m.cols())),
            RowSum::Tn(a, g, total) => Fold::Tn(TnFold::new(a.cols(), g.cols(), *total)),
            RowSum::Cols(rows) => Fold::Cols(Matrix::zeros(1, rows.cols())),
        }
    }

    fn push(&mut self, part: RowSum) {
        match (self, part) {
            (Fold::Chunks(sum), RowSum::Chunk(partial)) => sum.axpy(1.0, &partial),
            (Fold::Tn(fold), RowSum::Tn(a, g, _)) => fold.push(&a, &g),
            (Fold::Cols(sum), RowSum::Cols(rows)) => {
                for r in 0..rows.rows() {
                    for (s, &x) in sum.as_mut_slice().iter_mut().zip(rows.row(r)) {
                        *s += x;
                    }
                }
            }
            _ => panic!("the blocks of a batch reduce a parameter one way"),
        }
    }

    fn finish(self) -> Matrix {
        match self {
            Fold::Chunks(sum) | Fold::Cols(sum) => sum,
            Fold::Tn(fold) => fold.finish(),
        }
    }
}

/// A block's part of parameter `id`'s gradient, for the tape node `node`
/// that receives it in the whole-batch sweep.
pub(crate) struct ParamSum {
    pub(crate) node: usize,
    pub(crate) id: ParamId,
    pub(crate) part: RowSum,
}

/// What [`Tape::backward_block`] hands back: every parameter's part of the
/// batch's gradient from one block, in the order the whole-batch sweep
/// sums them.
pub struct BlockGrads {
    pub(crate) sums: Vec<ParamSum>,
}

impl BlockGrads {
    /// How many parameter gradients this block handed back as chunk
    /// partials (the others as rows).
    pub fn chunk_partials(&self) -> usize {
        self.sums.iter().filter(|sum| matches!(sum.part, RowSum::Chunk(_))).count()
    }

    /// Whether every part is finite.
    pub fn is_finite(&self) -> bool {
        self.sums.iter().all(|sum| sum.part.is_finite())
    }

    /// Scales this block's share of every parameter gradient by `s`.
    pub fn scale(&mut self, s: f32) {
        self.sums.iter_mut().for_each(|sum| sum.part.scale(s));
    }
}

/// A batch's gradients, folded from its blocks' parts as they are handed
/// over in block order, so that a step holds no block's rows past its
/// turn. Each parameter receives its sums in the order the whole-batch
/// sweep adds them, so every bit is [`Tape::backward`]'s on the whole batch.
#[derive(Default)]
pub struct BlockFold {
    sums: Vec<(usize, ParamId, Fold)>,
}

impl BlockFold {
    /// Folds in the next block's parts.
    ///
    /// # Panics
    ///
    /// Panics if the blocks did not record the same tape.
    pub fn push(&mut self, block: BlockGrads) {
        if self.sums.is_empty() {
            self.sums = block.sums.iter().map(|s| (s.node, s.id, Fold::new(&s.part))).collect();
        }
        assert_eq!(self.sums.len(), block.sums.len(), "the blocks of a batch record one tape");
        for ((node, id, fold), sum) in self.sums.iter_mut().zip(block.sums) {
            assert!((*node, *id) == (sum.node, sum.id), "the blocks of a batch record one tape");
            fold.push(sum.part);
        }
    }

    /// The batch's gradients.
    pub fn finish(self) -> Gradients {
        // Per receiving node, in the whole-batch sweep's arrival order.
        let mut slots: BTreeMap<usize, (ParamId, Option<Matrix>)> = BTreeMap::new();
        for (node, id, fold) in self.sums {
            accumulate(&mut slots.entry(node).or_insert((id, None)).1, fold.finish());
        }
        // The whole-batch sweep reaches parameter nodes last to first.
        let mut out = Gradients::new();
        for (id, grad) in slots.into_values().rev() {
            if let Some(grad) = grad {
                out.add(id, grad);
            }
        }
        out
    }
}
