//! Trainable parameter storage, shared by all models in the workspace.

use hoga_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Opaque handle identifying one parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The index of this parameter within its [`ParamSet`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named collection of trainable parameters.
///
/// Parameters live *outside* any [`Tape`](crate::Tape): a tape snapshots the
/// value when [`Tape::param`](crate::Tape::param) is called and routes
/// gradients back through the returned [`ParamId`]. This separation is what
/// makes the thread-based data-parallel trainer simple — workers share a
/// read-only `&ParamSet` and produce independent
/// [`Gradients`](crate::Gradients).
///
/// # Examples
///
/// ```
/// use hoga_autograd::ParamSet;
/// use hoga_tensor::{Init, Matrix};
///
/// let mut params = ParamSet::new();
/// let w = params.add("encoder.w", Init::XavierUniform.matrix(4, 4, 0));
/// assert_eq!(params.name(w), "encoder.w");
/// assert_eq!(params.value(w).shape(), (4, 4));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParamSet {
    names: Vec<String>,
    values: Vec<Matrix>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.names.push(name.into());
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrows the value of parameter `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutably borrows the value of parameter `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// The registered name of parameter `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.names
            .iter()
            .zip(&self.values)
            .enumerate()
            .map(|(i, (n, v))| (ParamId(i), n.as_str(), v))
    }

    /// Looks a parameter up by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Global L2 norm over all parameters (useful for monitoring).
    pub fn global_norm(&self) -> f32 {
        self.values
            .iter()
            .map(|v| {
                let n = v.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_tensor::Init;

    #[test]
    fn add_and_lookup() {
        let mut p = ParamSet::new();
        let a = p.add("a", Matrix::zeros(2, 3));
        let b = p.add("b", Matrix::identity(2));
        assert_eq!(p.len(), 2);
        assert_eq!(p.find("b"), Some(b));
        assert_eq!(p.find("missing"), None);
        assert_eq!(p.value(a).shape(), (2, 3));
        assert_eq!(p.name(b), "b");
    }

    #[test]
    fn iter_yields_in_insertion_order() {
        let mut p = ParamSet::new();
        p.add("first", Matrix::zeros(1, 1));
        p.add("second", Matrix::zeros(1, 1));
        let names: Vec<_> = p.iter().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn global_norm_combines_params() {
        let mut p = ParamSet::new();
        p.add("a", Matrix::full(1, 1, 3.0));
        p.add("b", Matrix::full(1, 1, 4.0));
        assert!((p.global_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn value_mut_updates_in_place() {
        let mut p = ParamSet::new();
        let id = p.add("w", Init::Zeros.matrix(2, 2, 0));
        p.value_mut(id).map_inplace(|_| 1.5);
        assert_eq!(p.value(id).sum(), 6.0);
    }
}
