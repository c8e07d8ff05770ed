//! Trainable parameters and their per-step binding to a tape.
//!
//! A [`Param`] owns its value across steps. Each training step builds a fresh
//! [`Tape`]; the first time a parameter is used on a given tape it is
//! inserted as a leaf and the resulting [`Var`] is cached, so a parameter
//! used by several sub-graphs (e.g. the item-embedding table shared between
//! two augmented views) accumulates all its gradients in one place.
//!
//! The binding cache holds one entry **per live tape**, behind a mutex, so
//! several steps may bind the same `&model` at once (interleaved on one
//! thread or on different threads) and each keeps its one-var-per-tape
//! accumulation invariant without clobbering the others' bindings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::tape::{Gradients, Tape, Var};
use crate::tensor::Tensor;

static TAPE_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Tapes carry a process-unique epoch so cached bindings can detect a stale
/// tape. Generated once per [`TapeId::fresh`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TapeId(u64);

impl TapeId {
    /// A new process-unique id.
    pub fn fresh() -> Self {
        TapeId(TAPE_EPOCH.fetch_add(1, Ordering::Relaxed))
    }
}

/// A training step's tape plus its identity, used to bind parameters.
pub struct Step {
    /// The autograd tape for this step.
    pub tape: Tape,
    id: TapeId,
}

impl Step {
    /// Starts a new step with an empty tape.
    pub fn new() -> Self {
        Step { tape: Tape::new(), id: TapeId::fresh() }
    }
}

impl Default for Step {
    fn default() -> Self {
        Self::new()
    }
}

/// How many per-tape bindings a parameter keeps before evicting the
/// oldest: the most steps that may bind one parameter at the same time.
const MAX_BINDINGS: usize = 16;

/// A named trainable tensor.
pub struct Param {
    name: String,
    value: Tensor,
    binding: Mutex<Vec<(TapeId, Var)>>,
}

impl Param {
    /// Creates a parameter with a diagnostic name (also the optimizer-state
    /// key, so names must be unique within one model).
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Param { name: name.into(), value, binding: Mutex::new(Vec::new()) }
    }

    fn bindings(&self) -> std::sync::MutexGuard<'_, Vec<(TapeId, Var)>> {
        self.binding.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access for optimizers and custom initialisation.
    pub fn value_mut(&mut self) -> &mut Tensor {
        self.bindings().clear(); // any recorded binding now refers to old data
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
    /// first use and reusing the same var afterwards. Safe to call from
    /// several threads with *different* steps (each tape gets its own
    /// binding entry); a single `Step` is still single-threaded by `&mut`.
    pub fn var(&self, step: &mut Step) -> Var {
        let mut b = self.bindings();
        if let Some(&(_, var)) = b.iter().find(|(id, _)| *id == step.id) {
            return var;
        }
        let var = step.tape.leaf(self.value.clone());
        if b.len() >= MAX_BINDINGS {
            b.remove(0);
        }
        b.push((step.id, var));
        var
    }

    /// The gradient this parameter received on `step`, if it was used and
    /// influenced the loss.
    pub fn grad<'g>(&self, step: &Step, grads: &'g Gradients) -> Option<&'g Tensor> {
        let b = self.bindings();
        b.iter().find(|(id, _)| *id == step.id).and_then(|&(_, var)| grads.get(var))
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
    fn mutating_value_invalidates_binding() {
        let mut p = Param::new("w", Tensor::ones([1]));
        let mut step = Step::new();
        let _ = p.var(&mut step);
        p.value_mut().data_mut()[0] = 9.0;
        // binding cleared → re-binding picks up the new value
        let v = p.var(&mut step);
        assert_eq!(step.tape.value(v).item(), 9.0);
    }

    #[test]
    fn interleaved_steps_keep_independent_bindings() {
        // Two steps bind one shared parameter at once; one step's binding
        // must not clobber the other's.
        let p = Param::new("w", Tensor::from_vec([1], vec![2.0]));
        let mut s1 = Step::new();
        let mut s2 = Step::new();
        let v1 = p.var(&mut s1);
        let v2 = p.var(&mut s2);
        let a1 = s1.tape.scale(v1, 3.0);
        let l1 = s1.tape.sum_all(a1);
        let g1 = s1.tape.backward(l1);
        let a2 = s2.tape.scale(v2, 5.0);
        let l2 = s2.tape.sum_all(a2);
        let g2 = s2.tape.backward(l2);
        assert_eq!(p.grad(&s1, &g1).unwrap().data(), &[3.0]);
        assert_eq!(p.grad(&s2, &g2).unwrap().data(), &[5.0]);
    }

    #[test]
    fn num_params_counts_scalars() {
        let p = Param::new("w", Tensor::zeros([3, 4]));
        assert_eq!(p.num_params(), 12);
        assert_eq!(p.param_names(), vec!["w".to_string()]);
    }
}
