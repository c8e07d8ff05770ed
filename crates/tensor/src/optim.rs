//! The optimiser: Adam with optional linear learning-rate decay and global
//! gradient clipping.
//!
//! The paper optimises both stages with Adam (`lr = 0.001`, `β₁ = 0.9`,
//! `β₂ = 0.999`, linear decay) — those are the defaults here.

use std::collections::HashMap;

use crate::dynamics::{group_of, GroupStat, OptimStepStats};
use crate::nn::param::{HasParams, Param, Step};
use crate::tape::Gradients;
use crate::tensor::Tensor;

/// Learning-rate schedule applied multiplicatively on top of the base rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Linear decay from 1× at step 0 to `min_factor`× at `total_steps`
    /// (clamped afterwards).
    LinearDecay {
        /// Step count over which the rate decays.
        total_steps: u64,
        /// Floor expressed as a fraction of the base rate.
        min_factor: f32,
    },
}

impl LrSchedule {
    fn factor(&self, t: u64) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::LinearDecay { total_steps, min_factor } => {
                if total_steps == 0 {
                    return min_factor;
                }
                let progress = (t as f32 / total_steps as f32).min(1.0);
                (1.0 - progress).max(min_factor)
            }
        }
    }
}

/// Adam configuration.
#[derive(Clone, Debug)]
pub struct AdamConfig {
    /// Base learning rate (paper: 0.001).
    pub lr: f32,
    /// First-moment decay (paper: 0.9).
    pub beta1: f32,
    /// Second-moment decay (paper: 0.999).
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled L2 weight decay (0 disables; the paper does not use it).
    pub weight_decay: f32,
    /// Global-norm gradient clipping (None disables).
    pub clip_norm: Option<f32>,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            clip_norm: Some(5.0),
            schedule: LrSchedule::Constant,
        }
    }
}

/// Adam optimiser with per-parameter moment state keyed by parameter name.
pub struct Adam {
    cfg: AdamConfig,
    t: u64,
    state: HashMap<String, Moments>,
}

struct Moments {
    m: Tensor,
    v: Tensor,
}

impl Adam {
    /// Creates an optimiser with the given configuration.
    pub fn new(cfg: AdamConfig) -> Self {
        Adam { cfg, t: 0, state: HashMap::new() }
    }

    /// Paper defaults (`lr = 1e-3`, β = (0.9, 0.999)).
    pub fn paper_default() -> Self {
        Self::new(AdamConfig::default())
    }

    /// Number of update steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.t
    }

    /// The learning rate that the *next* step will use.
    pub fn current_lr(&self) -> f32 {
        self.cfg.lr * self.cfg.schedule.factor(self.t)
    }

    /// Applies one update to every parameter of `model` that received a
    /// gradient on `step`. Parameters without gradients (unused this step)
    /// are left untouched and their moments are not advanced.
    pub fn step<M: HasParams + ?Sized>(&mut self, model: &mut M, step: &Step, grads: &Gradients) {
        self.step_inner(model, step, grads, None);
    }

    /// [`Adam::step`] plus training-dynamics collection: per-parameter-group
    /// gradient/update/parameter L2 norms accumulated in f64 beside the
    /// unchanged f32 update arithmetic. The applied update is bit-identical
    /// to [`Adam::step`] — the golden-fixture suite pins this.
    pub fn step_with_stats<M: HasParams + ?Sized>(
        &mut self,
        model: &mut M,
        step: &Step,
        grads: &Gradients,
    ) -> OptimStepStats {
        let mut stats = OptimStepStats::default();
        self.step_inner(model, step, grads, Some(&mut stats));
        stats
    }

    fn step_inner<M: HasParams + ?Sized>(
        &mut self,
        model: &mut M,
        step: &Step,
        grads: &Gradients,
        mut stats: Option<&mut OptimStepStats>,
    ) {
        let _span = seqrec_obs::span!("optim");
        let clip_scale = self.clip_scale(model, step, grads);
        let lr = self.current_lr();
        self.t += 1;
        let bc1 = 1.0 - self.cfg.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.cfg.beta2.powi(self.t as i32);
        let cfg = self.cfg.clone();
        let state = &mut self.state;
        if let Some(s) = stats.as_deref_mut() {
            s.step = self.t;
            s.lr = lr;
            s.clip_scale = clip_scale;
        }

        model.visit_mut(&mut |p: &mut Param| {
            let Some(grad) = p.grad(step, grads) else { return };
            let grad = grad.clone();
            let entry = state.entry(p.name().to_string()).or_insert_with(|| Moments {
                m: Tensor::zeros(grad.shape().clone()),
                v: Tensor::zeros(grad.shape().clone()),
            });
            assert_eq!(
                entry.m.shape(),
                grad.shape(),
                "parameter {} changed shape between steps",
                p.name()
            );
            let group = stats.as_deref_mut().map(|s| {
                let label = group_of(p.name());
                match s.groups.last_mut() {
                    Some(last) if last.group == label => {}
                    _ => s
                        .groups
                        .push(GroupStat { group: label.to_string(), ..GroupStat::default() }),
                }
                s.groups.last_mut().expect("group pushed above")
            });
            let (mut grad_sq, mut update_sq, mut param_sq) = (0.0f64, 0.0f64, 0.0f64);
            let value = p.value_mut();
            let (md, vd) = (entry.m.data_mut(), entry.v.data_mut());
            for (((w, &g0), m), v) in
                value.data_mut().iter_mut().zip(grad.data()).zip(md.iter_mut()).zip(vd.iter_mut())
            {
                let mut g = g0 * clip_scale;
                if cfg.weight_decay > 0.0 {
                    g += cfg.weight_decay * *w;
                }
                *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
                *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                let delta = lr * m_hat / (v_hat.sqrt() + cfg.eps);
                *w -= delta;
                grad_sq += f64::from(g0) * f64::from(g0);
                update_sq += f64::from(delta) * f64::from(delta);
                param_sq += f64::from(*w) * f64::from(*w);
            }
            if let Some(gstat) = group {
                gstat.params += value.len();
                gstat.grad_sq += grad_sq;
                gstat.update_sq += update_sq;
                gstat.param_sq += param_sq;
            }
        });
    }

    fn clip_scale<M: HasParams + ?Sized>(&self, model: &M, step: &Step, grads: &Gradients) -> f32 {
        let Some(max_norm) = self.cfg.clip_norm else { return 1.0 };
        let mut sq = 0.0f64;
        model.visit(&mut |p: &Param| {
            if let Some(g) = p.grad(step, grads) {
                let n = g.norm() as f64;
                sq += n * n;
            }
        });
        let norm = sq.sqrt() as f32;
        if norm > max_norm {
            max_norm / norm
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise (w - 3)² with Adam; it should get close to 3 quickly.
    #[test]
    fn adam_minimises_a_quadratic() {
        let mut p = Param::new("w", Tensor::scalar(0.0));
        let mut adam = Adam::new(AdamConfig { lr: 0.1, ..AdamConfig::default() });
        for _ in 0..200 {
            let mut step = Step::new();
            let w = p.var(&mut step);
            let c = step.tape.leaf(Tensor::scalar(3.0));
            let diff = step.tape.sub(w, c);
            let sq = step.tape.mul(diff, diff);
            let loss = step.tape.sum_all(sq);
            let grads = step.tape.backward(loss);
            adam.step(&mut p, &step, &grads);
        }
        assert!((p.value().item() - 3.0).abs() < 1e-2, "w = {}", p.value().item());
    }

    #[test]
    fn linear_decay_schedule() {
        let s = LrSchedule::LinearDecay { total_steps: 10, min_factor: 0.1 };
        assert_eq!(s.factor(0), 1.0);
        assert!((s.factor(5) - 0.5).abs() < 1e-6);
        assert_eq!(s.factor(100), 0.1);
        assert_eq!(LrSchedule::Constant.factor(1_000), 1.0);
    }

    #[test]
    fn clipping_caps_the_global_norm() {
        // One huge gradient: with clip_norm = 1 the applied update must be
        // much smaller than without.
        let run = |clip: Option<f32>| {
            let mut p = Param::new("w", Tensor::scalar(0.0));
            let mut adam =
                Adam::new(AdamConfig { lr: 1.0, clip_norm: clip, ..AdamConfig::default() });
            let mut step = Step::new();
            let w = p.var(&mut step);
            let big = step.tape.scale(w, 1e6);
            let c = step.tape.leaf(Tensor::scalar(1e6));
            let shifted = step.tape.add(big, c);
            let loss = step.tape.sum_all(shifted);
            let grads = step.tape.backward(loss);
            adam.step(&mut p, &step, &grads);
            p.value().item().abs()
        };
        // Adam normalises by the gradient magnitude, so both updates are
        // finite; clipped must not exceed unclipped and both ≈ lr.
        assert!(run(Some(1.0)) <= run(None) + 1e-6);
    }

    #[test]
    fn unused_params_are_untouched() {
        struct Two {
            a: Param,
            b: Param,
        }
        impl HasParams for Two {
            fn visit(&self, f: &mut dyn FnMut(&Param)) {
                f(&self.a);
                f(&self.b);
            }
            fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
                f(&mut self.a);
                f(&mut self.b);
            }
        }
        let mut m = Two {
            a: Param::new("a", Tensor::scalar(1.0)),
            b: Param::new("b", Tensor::scalar(1.0)),
        };
        let mut adam = Adam::paper_default();
        let mut step = Step::new();
        let a = m.a.var(&mut step);
        let sq = step.tape.mul(a, a);
        let loss = step.tape.sum_all(sq);
        let grads = step.tape.backward(loss);
        adam.step(&mut m, &step, &grads);
        assert!(m.a.value().item() < 1.0);
        assert_eq!(m.b.value().item(), 1.0);
    }

    #[test]
    fn weight_decay_shrinks_unused_directions() {
        let mut p = Param::new("w", Tensor::scalar(5.0));
        let mut adam =
            Adam::new(AdamConfig { lr: 0.1, weight_decay: 0.5, ..AdamConfig::default() });
        for _ in 0..50 {
            let mut step = Step::new();
            let w = p.var(&mut step);
            let zero = step.tape.scale(w, 0.0);
            let loss = step.tape.sum_all(zero);
            // gradient through `scale(…, 0)` is zero, but weight decay still
            // applies because the parameter received a (zero) gradient.
            let grads = step.tape.backward(loss);
            adam.step(&mut p, &step, &grads);
        }
        assert!(p.value().item() < 5.0);
    }
}
