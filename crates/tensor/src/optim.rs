//! Optimizers operating on [`Param`] (a value + accumulated gradient pair).
//!
//! Pipeline-parallel training keeps each parameter on exactly one device and
//! steps it locally at the end of the iteration, so the optimizer interface
//! is deliberately simple: accumulate gradients during backward passes, then
//! call [`Optimizer::step`] once per parameter.

use crate::{Result, Tensor, TensorError};

/// A trainable parameter: the value tensor plus an accumulated gradient of
/// the same shape and (for Adam) first/second moment estimates.
#[derive(Debug, Clone)]
pub struct Param {
    value: Tensor,
    grad: Tensor,
    /// Adam's `(m, v)`, allocated by the first [`Adam`] step: until then
    /// both are zero and take no memory, so a parameter that is never
    /// stepped (a serving shard) holds only its value and gradient.
    moments: Option<(Tensor, Tensor)>,
}

impl Param {
    /// Wraps an initialized value tensor into a parameter with zeroed
    /// gradient and (not yet allocated) zero moments.
    pub fn new(value: Tensor) -> Self {
        let (r, c) = value.shape();
        Param {
            value,
            grad: Tensor::zeros(r, c),
            moments: None,
        }
    }

    /// The current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access to the value (used when loading checkpoints / shards).
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Mutable access to the accumulated gradient (used by data-parallel
    /// gradient synchronization before the optimizer step).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        &mut self.grad
    }

    /// Accumulates `g` into the gradient buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `g` has a different shape.
    pub fn accumulate(&mut self, g: &Tensor) -> Result<()> {
        self.grad.add_assign(g)
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// The Adam moment estimates `(m, v)` (for checkpointing), or `None`
    /// before the first Adam step, while both are still all zero.
    pub fn moments(&self) -> Option<(&Tensor, &Tensor)> {
        self.moments.as_ref().map(|(m, v)| (m, v))
    }

    /// Reconstructs a parameter from checkpointed state (zeroed gradient).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the moments do not match
    /// the value's shape.
    pub fn from_state(value: Tensor, m: Tensor, v: Tensor) -> Result<Self> {
        if m.shape() != value.shape() || v.shape() != value.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "param_from_state",
                lhs: value.shape(),
                rhs: m.shape(),
            });
        }
        let (r, c) = value.shape();
        Ok(Param {
            value,
            grad: Tensor::zeros(r, c),
            moments: Some((m, v)),
        })
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A first-order optimizer that updates one parameter at a time.
pub trait Optimizer {
    /// Applies one update using the parameter's accumulated gradient, then
    /// clears the gradient.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying tensor arithmetic (which
    /// indicate a bug in the caller's parameter bookkeeping).
    fn step(&mut self, param: &mut Param) -> Result<()>;

    /// Marks the end of an optimization step across all parameters
    /// (advances time-dependent state such as Adam's bias correction).
    fn next_iteration(&mut self);
}

/// Plain stochastic gradient descent: `w ← w − lr · g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, param: &mut Param) -> Result<()> {
        if param.value.shape() != param.grad.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "sgd_step",
                lhs: param.value.shape(),
                rhs: param.grad.shape(),
            });
        }
        let lr = self.lr;
        for (w, g) in param.value.data_mut().iter_mut().zip(param.grad.data()) {
            *w -= lr * g;
        }
        param.zero_grad();
        Ok(())
    }

    fn next_iteration(&mut self) {}
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
}

impl Adam {
    /// Creates Adam with the given learning rate and default
    /// `(β1, β2, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 1,
        }
    }

    /// Overrides the exponential decay rates.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// The current bias-correction timestep (for checkpointing).
    pub fn timestep(&self) -> i32 {
        self.t
    }

    /// Restores the bias-correction timestep from a checkpoint.
    pub fn set_timestep(&mut self, t: i32) {
        self.t = t.max(1);
    }
}

impl Optimizer for Adam {
    fn step(&mut self, param: &mut Param) -> Result<()> {
        let Param {
            value,
            grad,
            moments,
        } = param;
        if value.shape() != grad.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "adam_step",
                lhs: value.shape(),
                rhs: grad.shape(),
            });
        }
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t);
        let bc2 = 1.0 - b2.powi(self.t);
        let lr = self.lr;
        let eps = self.eps;
        let (m, v) = moments.get_or_insert_with(|| {
            let (r, c) = value.shape();
            (Tensor::zeros(r, c), Tensor::zeros(r, c))
        });
        for (((w, g), m), v) in value
            .data_mut()
            .iter_mut()
            .zip(grad.data())
            .zip(m.data_mut())
            .zip(v.data_mut())
        {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *w -= lr * m_hat / (v_hat.sqrt() + eps);
        }
        grad.fill_zero();
        Ok(())
    }

    fn next_iteration(&mut self) {
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Param) -> Tensor {
        // d/dw of 0.5 * (w - 3)^2 elementwise.
        p.value().map(|w| w - 3.0)
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut p = Param::new(Tensor::zeros(2, 2));
        let mut opt = Sgd::new(0.5);
        for _ in 0..50 {
            let g = quadratic_grad(&p);
            p.accumulate(&g).unwrap();
            opt.step(&mut p).unwrap();
            opt.next_iteration();
        }
        assert!(p.value().data().iter().all(|&w| (w - 3.0).abs() < 1e-3));
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut p = Param::new(Tensor::zeros(1, 4));
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            let g = quadratic_grad(&p);
            p.accumulate(&g).unwrap();
            opt.step(&mut p).unwrap();
            opt.next_iteration();
        }
        assert!(p.value().data().iter().all(|&w| (w - 3.0).abs() < 1e-2));
    }

    #[test]
    fn step_clears_gradient() {
        let mut p = Param::new(Tensor::ones(1, 2));
        p.accumulate(&Tensor::ones(1, 2)).unwrap();
        Sgd::new(0.1).step(&mut p).unwrap();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn gradient_accumulation_adds() {
        let mut p = Param::new(Tensor::zeros(1, 2));
        p.accumulate(&Tensor::ones(1, 2)).unwrap();
        p.accumulate(&Tensor::ones(1, 2)).unwrap();
        assert_eq!(p.grad().data(), &[2.0, 2.0]);
        assert!(p.accumulate(&Tensor::ones(2, 2)).is_err());
    }

    #[test]
    fn adam_allocates_moments_on_its_first_step() {
        let mut p = Param::new(Tensor::zeros(2, 3));
        assert!(p.moments().is_none());
        Sgd::new(0.1).step(&mut p).unwrap();
        assert!(p.moments().is_none(), "only Adam keeps moments");
        p.accumulate(&Tensor::ones(2, 3)).unwrap();
        Adam::new(0.1).step(&mut p).unwrap();
        let (m, v) = p.moments().expect("allocated by the Adam step");
        assert_eq!((m.shape(), v.shape()), ((2, 3), (2, 3)));
        assert!(m.data().iter().all(|&x| x != 0.0));
    }

    #[test]
    fn adam_matches_reference_first_step() {
        // One Adam step from w=0 with g=1 should move by exactly -lr
        // (m_hat = v_hat = g for t=1, ignoring eps).
        let mut p = Param::new(Tensor::zeros(1, 1));
        let mut opt = Adam::new(0.1);
        p.accumulate(&Tensor::ones(1, 1)).unwrap();
        opt.step(&mut p).unwrap();
        assert!((p.value().data()[0] + 0.1).abs() < 1e-5);
    }
}
