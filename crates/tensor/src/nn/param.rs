//! Trainable parameters and their per-step binding to a tape.
//!
//! A [`Param`] owns its value across steps. Each training step builds a fresh
//! [`Step`]; the first time a parameter is used on a given step it is
//! inserted as a leaf of the step's tape and the resulting [`Var`] is
//! recorded in the step, so a parameter used by several sub-graphs (e.g. the
//! item-embedding table shared between two augmented views) accumulates all
//! its gradients in one place.
//!
//! The bindings belong to the step, keyed by an id each parameter draws once
//! at construction, so any number of live steps may bind the same `&model`
//! at once and each keeps its own one-var-per-parameter accumulation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::tape::{Gradients, Tape, Var};
use crate::tensor::Tensor;

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(0);

/// A training step's tape plus the tape leaf each parameter is bound to.
pub struct Step {
    /// The autograd tape for this step.
    pub tape: Tape,
    bindings: HashMap<u64, Var>,
}

impl Step {
    /// Starts a new step with an empty tape.
    pub fn new() -> Self {
        Step { tape: Tape::new(), bindings: HashMap::new() }
    }
}

impl Default for Step {
    fn default() -> Self {
        Self::new()
    }
}

/// A named trainable tensor.
pub struct Param {
    name: String,
    value: Tensor,
    /// Process-unique key of this parameter's binding in a [`Step`].
    id: u64,
}

impl Param {
    /// Creates a parameter with a diagnostic name (also the optimizer-state
    /// key, so names must be unique within one model).
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Param { name: name.into(), value, id: NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed) }
    }

    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access for optimizers and custom initialisation, between
    /// steps: a step that already bound this parameter keeps the old value.
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// Number of scalar entries.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Binds this parameter to the step's tape, inserting it as a leaf on
    /// first use and reusing the same var afterwards.
    pub fn var(&self, step: &mut Step) -> Var {
        let Step { tape, bindings } = step;
        *bindings.entry(self.id).or_insert_with(|| tape.leaf(self.value.clone()))
    }

    /// The gradient this parameter received on `step`, if it was used and
    /// influenced the loss.
    pub fn grad<'g>(&self, step: &Step, grads: &'g Gradients) -> Option<&'g Tensor> {
        step.bindings.get(&self.id).and_then(|&var| grads.get(var))
    }
}

/// Anything that exposes trainable parameters.
///
/// `visit`/`visit_mut` walk parameters in a stable order; composite modules
/// forward to their children.
pub trait HasParams {
    /// Visits every parameter immutably.
    fn visit(&self, f: &mut dyn FnMut(&Param));
    /// Visits every parameter mutably (optimizer updates).
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Total number of trainable scalars.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| n += p.len());
        n
    }

    /// Collects parameter names in visit order (diagnostics, tests).
    fn param_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.visit(&mut |p| names.push(p.name().to_string()));
        names
    }
}

impl HasParams for Param {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(self);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_is_reused_within_a_step() {
        let p = Param::new("w", Tensor::ones([2]));
        let mut step = Step::new();
        let v1 = p.var(&mut step);
        let v2 = p.var(&mut step);
        assert_eq!(v1, v2);
        assert_eq!(step.tape.len(), 1);
    }

    #[test]
    fn binding_refreshes_across_steps() {
        let p = Param::new("w", Tensor::ones([2]));
        let mut s1 = Step::new();
        let v1 = p.var(&mut s1);
        let mut s2 = Step::new();
        let v2 = p.var(&mut s2);
        assert_eq!(v1, v2); // both are var 0 of their tapes…
        assert_eq!(s2.tape.len(), 1); // …but freshly inserted, not reused
    }

    #[test]
    fn shared_use_accumulates_gradients() {
        let p = Param::new("w", Tensor::from_vec([2], vec![1.0, 2.0]));
        let mut step = Step::new();
        let v = p.var(&mut step);
        let a = step.tape.scale(v, 2.0);
        let b = step.tape.scale(v, 3.0);
        let c = step.tape.add(a, b);
        let s = step.tape.sum_all(c);
        let grads = step.tape.backward(s);
        assert_eq!(p.grad(&step, &grads).unwrap().data(), &[5.0, 5.0]);
    }

    #[test]
    fn interleaved_steps_keep_independent_bindings() {
        // Seventeen steps bind one shared parameter at once; no step's
        // binding may clobber or evict another's.
        let p = Param::new("w", Tensor::from_vec([1], vec![2.0]));
        let mut steps: Vec<Step> = (0..17).map(|_| Step::new()).collect();
        let vars: Vec<Var> = steps.iter_mut().map(|s| p.var(s)).collect();
        for (i, (step, v)) in steps.iter_mut().zip(vars).enumerate() {
            let a = step.tape.scale(v, i as f32 + 1.0);
            let loss = step.tape.sum_all(a);
            let grads = step.tape.backward(loss);
            assert_eq!(p.grad(step, &grads).unwrap().data(), &[i as f32 + 1.0], "step {i}");
        }
    }

    #[test]
    fn num_params_counts_scalars() {
        let p = Param::new("w", Tensor::zeros([3, 4]));
        assert_eq!(p.num_params(), 12);
        assert_eq!(p.param_names(), vec!["w".to_string()]);
    }
}
