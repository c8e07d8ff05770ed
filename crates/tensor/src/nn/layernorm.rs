//! Layer normalisation with learnable gain and shift.

use crate::nn::param::{HasParams, Param, Step};
use crate::tape::Var;
use crate::tensor::Tensor;

/// `y = gamma ∘ (x - μ)/σ + beta` over the trailing dimension.
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
}

impl LayerNorm {
    /// Gain initialised to 1, shift to 0, `eps = 1e-8` (the value used by
    /// the reference SASRec implementation).
    pub fn new(name: &str, d: usize) -> Self {
        LayerNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones([d])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([d])),
            eps: 1e-8,
        }
    }

    /// Applies the layer on the step's tape.
    pub fn forward(&self, step: &mut Step, x: Var) -> Var {
        let g = self.gamma.var(step);
        let b = self.beta.var(step);
        step.tape.layernorm(x, g, b, self.eps)
    }
}

impl HasParams for LayerNorm {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_give_standardised_rows() {
        let ln = LayerNorm::new("ln", 4);
        let mut step = Step::new();
        let x = step.tape.leaf(Tensor::from_vec([1, 4], vec![2.0, 4.0, 6.0, 8.0]));
        let y = ln.forward(&mut step, x);
        let v = step.tape.value(y);
        let mean: f32 = v.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn gain_and_shift_apply() {
        let mut ln = LayerNorm::new("ln", 2);
        ln.visit_mut(&mut |p| {
            if p.name().ends_with("gamma") {
                p.value_mut().data_mut().fill(2.0);
            } else {
                p.value_mut().data_mut().fill(10.0);
            }
        });
        let mut step = Step::new();
        let x = step.tape.leaf(Tensor::from_vec([1, 2], vec![-1.0, 1.0]));
        let y = ln.forward(&mut step, x);
        let v = step.tape.value(y);
        // normalised x is (-1, 1); scaled by 2 and shifted by 10 → (8, 12)
        assert!((v.at(0) - 8.0).abs() < 1e-4);
        assert!((v.at(1) - 12.0).abs() < 1e-4);
    }

    #[test]
    fn both_params_receive_gradients() {
        let ln = LayerNorm::new("ln", 3);
        let mut step = Step::new();
        let x = step.tape.leaf(Tensor::from_vec([2, 3], vec![1.0, 5.0, 2.0, -1.0, 0.5, 3.0]));
        let y = ln.forward(&mut step, x);
        let s = step.tape.sum_all(y);
        let grads = step.tape.backward(s);
        ln.visit(&mut |p| assert!(p.grad(&step, &grads).is_some()));
        assert_eq!(ln.num_params(), 6);
    }
}
