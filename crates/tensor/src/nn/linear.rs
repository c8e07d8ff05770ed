//! Fully-connected layer.

use crate::init::{self, TensorRng};
use crate::nn::param::{HasParams, Param, Step};
use crate::tape::Var;
use crate::tensor::Tensor;

/// `y = x · W (+ b)` applied to the trailing dimension of any input shaped
/// `[..., d_in]`.
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
    d_in: usize,
    d_out: usize,
}

impl Linear {
    /// Xavier-initialised linear layer with bias.
    pub fn new(name: &str, d_in: usize, d_out: usize, rng: &mut TensorRng) -> Self {
        Self::with_options(name, d_in, d_out, true, rng)
    }

    /// Linear layer with configurable bias; weights are Xavier-uniform,
    /// bias starts at zero.
    pub fn with_options(
        name: &str,
        d_in: usize,
        d_out: usize,
        bias: bool,
        rng: &mut TensorRng,
    ) -> Self {
        Linear {
            weight: Param::new(format!("{name}.weight"), init::xavier_uniform(d_in, d_out, rng)),
            bias: bias.then(|| Param::new(format!("{name}.bias"), Tensor::zeros([d_out]))),
            d_in,
            d_out,
        }
    }

    /// Input feature dimension.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output feature dimension.
    pub fn d_out(&self) -> usize {
        self.d_out
    }

    /// Applies the layer on the step's tape.
    pub fn forward(&self, step: &mut Step, x: Var) -> Var {
        let w = self.weight.var(step);
        let b = self.bias.as_ref().map(|b| b.var(step));
        step.tape.linear(x, w, b)
    }
}

impl HasParams for Linear {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        if let Some(b) = &self.bias {
            f(b);
        }
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;

    #[test]
    fn forward_shape_and_bias() {
        let mut r = rng(40);
        let lin = Linear::new("l", 3, 2, &mut r);
        let mut step = Step::new();
        let x = step.tape.leaf(Tensor::zeros([4, 3]));
        let y = lin.forward(&mut step, x);
        assert_eq!(step.tape.value(y).shape().dims(), &[4, 2]);
        // zero input → bias (zero-initialised) → zero output
        assert_eq!(step.tape.value(y).data(), &[0.0; 8]);
    }

    #[test]
    fn rank3_inputs_are_flattened() {
        let mut r = rng(41);
        let lin = Linear::new("l", 4, 6, &mut r);
        let mut step = Step::new();
        let x = step.tape.leaf(Tensor::ones([2, 5, 4]));
        let y = lin.forward(&mut step, x);
        assert_eq!(step.tape.value(y).shape().dims(), &[2, 5, 6]);
    }

    #[test]
    fn gradients_reach_weight_and_bias() {
        let mut r = rng(42);
        let lin = Linear::new("l", 3, 2, &mut r);
        let mut step = Step::new();
        let x = step.tape.leaf(Tensor::ones([1, 3]));
        let y = lin.forward(&mut step, x);
        let s = step.tape.sum_all(y);
        let grads = step.tape.backward(s);
        let mut n = 0;
        lin.visit(&mut |p| {
            assert!(p.grad(&step, &grads).is_some(), "missing grad for {}", p.name());
            n += 1;
        });
        assert_eq!(n, 2);
    }

    #[test]
    fn no_bias_variant_has_one_param() {
        let mut r = rng(43);
        let lin = Linear::with_options("l", 3, 3, false, &mut r);
        assert_eq!(lin.param_names(), vec!["l.weight".to_string()]);
        assert_eq!(lin.num_params(), 9);
    }
}
