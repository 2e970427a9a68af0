//! The first-order optimizer: Adam (the paper's choice, §IV-A).

use crate::{Gradients, ParamSet};
use hoga_tensor::Matrix;
use std::error::Error;
use std::fmt;

/// Error returned when restoring serialized optimizer state fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError(String);

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "optimizer state error: {}", self.0)
    }
}

impl Error for StateError {}

fn serr(msg: impl Into<String>) -> StateError {
    StateError(msg.into())
}

/// Common interface for parameter-update rules.
pub trait Optimizer {
    /// Applies one update step of `grads` to `params`.
    fn step(&mut self, params: &mut ParamSet, grads: &Gradients);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Serializes the *complete* internal state — hyperparameters, step
    /// count, and moment estimates — so a checkpoint can resume training
    /// bitwise-identically. A restored optimizer continues exactly where
    /// the serialized one stopped (same bias correction, same moments).
    fn state_bytes(&self) -> Vec<u8>;

    /// Restores state produced by [`Optimizer::state_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] if the bytes were produced by a different
    /// optimizer type or are truncated/corrupt.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), StateError>;
}

// --- tiny self-describing binary codec for optimizer state ----------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_slots(out: &mut Vec<u8>, slots: &[Option<Matrix>]) {
    put_u64(out, slots.len() as u64);
    for slot in slots {
        match slot {
            None => out.push(0),
            Some(m) => {
                out.push(1);
                put_u64(out, m.rows() as u64);
                put_u64(out, m.cols() as u64);
                for &v in m.as_slice() {
                    put_f32(out, v);
                }
            }
        }
    }
}

struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StateError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| serr(format!("truncated state reading {what}")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, StateError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, StateError> {
        let b = self.take(8, what)?;
        // analyze: allow(panic-reachability) — take(8) returned exactly 8 bytes
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f32(&mut self, what: &str) -> Result<f32, StateError> {
        let b = self.take(4, what)?;
        // analyze: allow(panic-reachability) — take(4) returned exactly 4 bytes
        Ok(f32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn slots(&mut self) -> Result<Vec<Option<Matrix>>, StateError> {
        let n = self.u64("slot count")? as usize;
        let mut out = Vec::new();
        for k in 0..n {
            match self.u8("slot flag")? {
                0 => out.push(None),
                1 => {
                    let rows = self.u64("slot rows")? as usize;
                    let cols = self.u64("slot cols")? as usize;
                    let len = rows
                        .checked_mul(cols)
                        .and_then(|l| l.checked_mul(4))
                        .ok_or_else(|| serr(format!("slot {k} shape overflow")))?;
                    let raw = self.take(len, "slot payload")?;
                    let data: Vec<f32> = raw
                        .chunks_exact(4)
                        // analyze: allow(panic-reachability) — chunks_exact(4) yields 4-byte chunks
                        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                        .collect();
                    let m = Matrix::try_from_vec(rows, cols, data)
                        .map_err(|e| serr(format!("slot {k}: {e}")))?;
                    out.push(Some(m));
                }
                f => return Err(serr(format!("bad slot flag {f}"))),
            }
        }
        Ok(out)
    }

    fn finish(&self) -> Result<(), StateError> {
        if self.pos != self.buf.len() {
            Err(serr(format!("{} trailing bytes", self.buf.len() - self.pos)))
        } else {
            Ok(())
        }
    }
}

/// Adam (Kingma & Ba), the optimizer used for all HOGA experiments
/// (learning rate 1e-4 in the paper).
///
/// # Examples
///
/// ```
/// use hoga_autograd::optim::{Adam, Optimizer};
///
/// let mut opt = Adam::new(1e-4);
/// assert_eq!(opt.learning_rate(), 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default
    /// `(β1, β2, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adds decoupled (AdamW-style) weight decay.
    // analyze: allow(dead-public-api) — decoupled weight decay is part of the optimizer's public configuration surface; exercised by the unit tests
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    fn slot(store: &mut Vec<Option<Matrix>>, idx: usize, shape: (usize, usize)) -> &mut Matrix {
        if store.len() <= idx {
            store.resize(idx + 1, None);
        }
        store[idx].get_or_insert_with(|| Matrix::zeros(shape.0, shape.1))
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads.iter() {
            let shape = params.value(id).shape();
            debug_assert_eq!(g.shape(), shape, "gradient shape mismatch for {}", params.name(id));
            let m = Self::slot(&mut self.m, id.index(), shape);
            for (mv, &gv) in m.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
            }
            let m_snapshot: Vec<f32> = m.as_slice().to_vec();
            let v = Self::slot(&mut self.v, id.index(), shape);
            for (vv, &gv) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            }
            let value = params.value_mut(id);
            let wd = self.weight_decay * self.lr;
            for ((pv, &mv), &vv) in
                value.as_mut_slice().iter_mut().zip(&m_snapshot).zip(v.as_slice())
            {
                let mhat = mv / bc1; // analyze: allow(panic-reachability) — f32 division cannot panic
                let vhat = vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps) + wd * *pv;
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"ADM1");
        put_f32(&mut out, self.lr);
        put_f32(&mut out, self.beta1);
        put_f32(&mut out, self.beta2);
        put_f32(&mut out, self.eps);
        put_f32(&mut out, self.weight_decay);
        put_u64(&mut out, self.t);
        put_slots(&mut out, &self.m);
        put_slots(&mut out, &self.v);
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        if r.take(4, "tag")? != b"ADM1" {
            return Err(serr("not Adam state"));
        }
        let lr = r.f32("lr")?;
        let beta1 = r.f32("beta1")?;
        let beta2 = r.f32("beta2")?;
        let eps = r.f32("eps")?;
        let weight_decay = r.f32("weight_decay")?;
        let t = r.u64("step count")?;
        let m = r.slots()?;
        let v = r.slots()?;
        r.finish()?;
        *self = Self { lr, beta1, beta2, eps, weight_decay, t, m, v };
        Ok(())
    }
}

/// Learning-rate schedules, applied per epoch via [`LrSchedule::lr_at`].
///
/// # Examples
///
/// ```
/// use hoga_autograd::optim::LrSchedule;
///
/// let cosine = LrSchedule::Cosine { base: 1e-3, total_epochs: 100 };
/// assert!(cosine.lr_at(0) > cosine.lr_at(50));
/// assert!(cosine.lr_at(50) > cosine.lr_at(99));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant(f32),
    /// Multiply by `gamma` every `step_epochs`.
    Step {
        /// Initial learning rate.
        base: f32,
        /// Epochs between decays.
        step_epochs: usize,
        /// Multiplicative decay factor.
        gamma: f32,
    },
    /// Half-cosine decay from `base` to ~0 over `total_epochs`.
    Cosine {
        /// Initial learning rate.
        base: f32,
        /// Horizon of the decay.
        total_epochs: usize,
    },
}

impl LrSchedule {
    /// The learning rate for `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::Step { base, step_epochs, gamma } => {
                base * gamma.powi((epoch / step_epochs.max(1)) as i32)
            }
            LrSchedule::Cosine { base, total_epochs } => {
                let t = (epoch as f32 / total_epochs.max(1) as f32).min(1.0);
                base * 0.5 * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }

    /// Applies this schedule to an optimizer at the start of `epoch`.
    pub fn apply(&self, opt: &mut dyn Optimizer, epoch: usize) {
        opt.set_learning_rate(self.lr_at(epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParamId, Tape};
    use hoga_tensor::Matrix;

    /// Minimizing f(w) = mean((w - 3)^2) should converge to w = 3.
    fn converges_to_three(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::full(1, 1, 0.0));
        let target = Matrix::full(1, 1, 3.0);
        for _ in 0..steps {
            let mut tape = Tape::new();
            let wv = tape.param(&params, w);
            let loss = tape.mse_loss(wv, &target);
            let grads = tape.backward(loss);
            opt.step(&mut params, &grads);
        }
        params.value(w)[(0, 0)]
    }

    #[test]
    fn adam_converges() {
        let mut opt = Adam::new(0.1);
        let w = converges_to_three(&mut opt, 300);
        assert!((w - 3.0).abs() < 1e-2, "adam ended at {w}");
    }

    #[test]
    fn adam_weight_decay_shrinks_unused_direction() {
        // With decay and zero gradient signal the weight should not move
        // (decay only applies on steps where the param has a gradient);
        // with a gradient it should converge below the no-decay fixpoint.
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::full(1, 1, 0.0));
        let target = Matrix::full(1, 1, 3.0);
        let mut opt = Adam::new(0.1).with_weight_decay(0.5);
        for _ in 0..400 {
            let mut tape = Tape::new();
            let wv = tape.param(&params, w);
            let loss = tape.mse_loss(wv, &target);
            let grads = tape.backward(loss);
            opt.step(&mut params, &grads);
        }
        let wv = params.value(w)[(0, 0)];
        assert!(wv > 1.0 && wv < 3.0, "decayed adam ended at {wv}");
    }

    #[test]
    fn learning_rate_is_settable() {
        let mut opt = Adam::new(1e-3);
        opt.set_learning_rate(5e-4);
        assert_eq!(opt.learning_rate(), 5e-4);
    }

    #[test]
    fn step_schedule_decays_in_plateaus() {
        let s = LrSchedule::Step { base: 1.0, step_epochs: 10, gamma: 0.1 };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(9), 1.0);
        assert!((s.lr_at(10) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(25) - 0.01).abs() < 1e-7);
    }

    #[test]
    fn cosine_schedule_is_monotone_decreasing() {
        let s = LrSchedule::Cosine { base: 1e-2, total_epochs: 50 };
        let mut prev = f32::MAX;
        for e in 0..50 {
            let lr = s.lr_at(e);
            assert!(lr <= prev);
            prev = lr;
        }
        assert!(s.lr_at(49) < 1e-3);
        // Beyond the horizon it clamps at ~0 rather than oscillating.
        assert!(s.lr_at(200) <= s.lr_at(49) + 1e-9);
    }

    #[test]
    fn schedule_applies_to_optimizer() {
        let mut opt = Adam::new(1.0);
        let s = LrSchedule::Constant(0.25);
        s.apply(&mut opt, 3);
        assert_eq!(opt.learning_rate(), 0.25);
    }

    /// Runs `steps` optimization steps of f(w) = mse(w, target) and returns
    /// the (params, opt) pair mid-descent.
    fn partly_trained(opt: &mut dyn Optimizer, steps: usize) -> (ParamSet, ParamId) {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::from_fn(2, 2, |r, c| (r + 2 * c) as f32));
        let target = Matrix::full(2, 2, 3.0);
        for _ in 0..steps {
            let mut tape = Tape::new();
            let wv = tape.param(&params, w);
            let loss = tape.mse_loss(wv, &target);
            let grads = tape.backward(loss);
            opt.step(&mut params, &grads);
        }
        (params, w)
    }

    fn one_more_step(params: &mut ParamSet, w: ParamId, opt: &mut dyn Optimizer) {
        let target = Matrix::full(2, 2, 3.0);
        let mut tape = Tape::new();
        let wv = tape.param(params, w);
        let loss = tape.mse_loss(wv, &target);
        let grads = tape.backward(loss);
        opt.step(params, &grads);
    }

    #[test]
    fn adam_state_roundtrip_is_bitwise_identical() {
        let mut opt = Adam::new(0.05).with_weight_decay(0.01);
        let (params, w) = partly_trained(&mut opt, 7);
        let state = opt.state_bytes();

        // Restore into a fresh optimizer with different hyperparameters;
        // both must take the exact same next step.
        let mut restored = Adam::new(123.0);
        restored.restore_state(&state).expect("restore");
        let mut a = params.clone();
        let mut b = params.clone();
        one_more_step(&mut a, w, &mut opt);
        one_more_step(&mut b, w, &mut restored);
        assert_eq!(a.value(w).as_slice(), b.value(w).as_slice());
        assert_eq!(restored.learning_rate(), 0.05);
    }

    #[test]
    fn restore_rejects_wrong_or_corrupt_state() {
        let mut adam = Adam::new(0.1);
        // State tagged for another optimizer type fails.
        assert!(adam.restore_state(b"SGD1\0\0\0\0").is_err());
        // Truncation fails.
        let (_, _) = partly_trained(&mut adam, 3);
        let state = adam.state_bytes();
        for cut in [0, 3, 10, state.len() - 1] {
            assert!(adam.clone().restore_state(&state[..cut]).is_err(), "cut {cut} accepted");
        }
        // Trailing garbage fails.
        let mut long = state.clone();
        long.push(0);
        assert!(adam.clone().restore_state(&long).is_err());
        // Arbitrary garbage fails.
        assert!(adam.restore_state(b"garbage bytes here").is_err());
    }
}
