//! Optimizers over flat parameter vectors.
//!
//! Each optimizer maps `(current params, gradient)` to a *delta* that the
//! model adds to its parameters. Expressing the step as a delta (rather
//! than mutating the model directly) keeps the trait object-safe across
//! architectures and lets callers compose steps — e.g. A-GEM projects the
//! gradient before the optimizer sees it, and FreewayML's pre-computing
//! window feeds an accumulated gradient.
//!
//! FTRL is included for the Alink baseline, whose regularised online
//! updates the paper describes as "integrating FOBOS and RDA with
//! logistic regression".

/// Maps a gradient to a parameter delta, carrying any optimizer state.
pub trait Optimizer: Send {
    /// Computes the parameter delta for one step.
    ///
    /// # Panics
    /// Implementations panic if `params.len() != grad.len()` or if the
    /// length changes between calls.
    fn step(&mut self, params: &[f64], grad: &[f64]) -> Vec<f64>;

    /// [`Optimizer::step`] writing the delta into `out` (cleared and
    /// refilled), reusing its allocation. Bit-identical to `step`; the
    /// default delegates to it, while the hot optimizers (SGD, momentum,
    /// Adam) override this as their primary implementation so the warm
    /// training loop performs no per-step allocation.
    fn step_into(&mut self, params: &[f64], grad: &[f64], out: &mut Vec<f64>) {
        let delta = self.step(params, grad);
        out.clear();
        out.extend_from_slice(&delta);
    }

    /// Clears accumulated state (used when a model is reset after drift).
    fn reset(&mut self);

    /// Object-safe clone.
    fn clone_optimizer(&self) -> Box<dyn Optimizer>;
}

impl Clone for Box<dyn Optimizer> {
    fn clone(&self) -> Self {
        self.clone_optimizer()
    }
}

/// Plain SGD: `delta = -lr * g`.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &[f64], grad: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.step_into(params, grad, &mut out);
        out
    }

    fn step_into(&mut self, params: &[f64], grad: &[f64], out: &mut Vec<f64>) {
        assert_eq!(params.len(), grad.len(), "sgd length mismatch");
        out.clear();
        out.extend(grad.iter().map(|g| -self.lr * g));
    }

    fn reset(&mut self) {}

    fn clone_optimizer(&self) -> Box<dyn Optimizer> {
        Box::new(self.clone())
    }
}

/// SGD with classical momentum: `v = mu*v + g; delta = -lr * v`.
#[derive(Clone, Debug)]
pub struct Momentum {
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient in `[0, 1)`.
    pub mu: f64,
    velocity: Vec<f64>,
}

impl Momentum {
    /// Creates a momentum optimizer.
    pub fn new(lr: f64, mu: f64) -> Self {
        assert!(lr > 0.0 && (0.0..1.0).contains(&mu), "invalid momentum hyperparameters");
        Self { lr, mu, velocity: Vec::new() }
    }
}

impl Optimizer for Momentum {
    fn step(&mut self, params: &[f64], grad: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.step_into(params, grad, &mut out);
        out
    }

    fn step_into(&mut self, params: &[f64], grad: &[f64], out: &mut Vec<f64>) {
        assert_eq!(params.len(), grad.len(), "momentum length mismatch");
        if self.velocity.len() != grad.len() {
            self.velocity = vec![0.0; grad.len()];
        }
        for (v, &g) in self.velocity.iter_mut().zip(grad) {
            *v = self.mu * *v + g;
        }
        out.clear();
        out.extend(self.velocity.iter().map(|v| -self.lr * v));
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn clone_optimizer(&self) -> Box<dyn Optimizer> {
        Box::new(self.clone())
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates Adam with the canonical defaults `beta1=0.9`, `beta2=0.999`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: Vec::new(), v: Vec::new(), t: 0 }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &[f64], grad: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.step_into(params, grad, &mut out);
        out
    }

    fn step_into(&mut self, params: &[f64], grad: &[f64], out: &mut Vec<f64>) {
        assert_eq!(params.len(), grad.len(), "adam length mismatch");
        if self.m.len() != grad.len() {
            self.m = vec![0.0; grad.len()];
            self.v = vec![0.0; grad.len()];
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        out.clear();
        out.resize(grad.len(), 0.0);
        for i in 0..grad.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            out[i] = -self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }

    fn clone_optimizer(&self) -> Box<dyn Optimizer> {
        Box::new(self.clone())
    }
}

/// FTRL-proximal (McMahan et al. 2013), the per-coordinate adaptive
/// algorithm used in production click-through systems; included as the
/// "online-learning flavoured" optimizer for the Alink baseline.
#[derive(Clone, Debug)]
pub struct Ftrl {
    alpha: f64,
    beta: f64,
    l1: f64,
    l2: f64,
    z: Vec<f64>,
    n: Vec<f64>,
}

impl Ftrl {
    /// Creates an FTRL-proximal optimizer.
    pub fn new(alpha: f64, beta: f64, l1: f64, l2: f64) -> Self {
        assert!(alpha > 0.0 && beta >= 0.0 && l1 >= 0.0 && l2 >= 0.0, "invalid FTRL parameters");
        Self { alpha, beta, l1, l2, z: Vec::new(), n: Vec::new() }
    }
}

impl Optimizer for Ftrl {
    fn step(&mut self, params: &[f64], grad: &[f64]) -> Vec<f64> {
        assert_eq!(params.len(), grad.len(), "ftrl length mismatch");
        if self.z.len() != grad.len() {
            self.z = vec![0.0; grad.len()];
            self.n = vec![0.0; grad.len()];
        }
        let mut delta = vec![0.0; grad.len()];
        for i in 0..grad.len() {
            let g = grad[i];
            let sigma = ((self.n[i] + g * g).sqrt() - self.n[i].sqrt()) / self.alpha;
            self.z[i] += g - sigma * params[i];
            self.n[i] += g * g;
            let new_w = if self.z[i].abs() <= self.l1 {
                0.0
            } else {
                let sign = self.z[i].signum();
                -(self.z[i] - sign * self.l1)
                    / ((self.beta + self.n[i].sqrt()) / self.alpha + self.l2)
            };
            delta[i] = new_w - params[i];
        }
        delta
    }

    fn reset(&mut self) {
        self.z.clear();
        self.n.clear();
    }

    fn clone_optimizer(&self) -> Box<dyn Optimizer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs an optimizer on the 1-D quadratic `f(w) = (w - 3)^2` and
    /// returns the final parameter.
    fn minimise(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut w = vec![0.0];
        for _ in 0..steps {
            let grad = vec![2.0 * (w[0] - 3.0)];
            let delta = opt.step(&w, &grad);
            w[0] += delta[0];
        }
        w[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = minimise(&mut Sgd::new(0.1), 200);
        assert!((w - 3.0).abs() < 1e-6);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let w = minimise(&mut Momentum::new(0.05, 0.9), 400);
        assert!((w - 3.0).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = minimise(&mut Adam::new(0.1), 2000);
        assert!((w - 3.0).abs() < 1e-3);
    }

    #[test]
    fn ftrl_produces_sparse_solutions() {
        let mut f = Ftrl::new(0.5, 1.0, 2.0, 0.0);
        let mut w = vec![0.0, 0.0];
        for _ in 0..100 {
            // Coordinate 0 has a strong signal, coordinate 1 a weak one.
            let grad = vec![2.0 * (w[0] - 5.0), 0.02 * (w[1] - 0.1)];
            let delta = f.step(&w, &grad);
            for (wi, d) in w.iter_mut().zip(delta) {
                *wi += d;
            }
        }
        assert!(w[0] > 1.0, "strong coordinate should move: {}", w[0]);
        assert_eq!(w[1], 0.0, "weak coordinate should stay at exactly zero");
    }

    #[test]
    fn reset_clears_momentum_state() {
        let mut m = Momentum::new(0.1, 0.9);
        let _ = m.step(&[0.0], &[1.0]);
        m.reset();
        let fresh = m.step(&[0.0], &[1.0]);
        let mut m2 = Momentum::new(0.1, 0.9);
        assert_eq!(fresh, m2.step(&[0.0], &[1.0]));
    }

    #[test]
    fn optimizers_are_cloneable_behind_box() {
        let opt: Box<dyn Optimizer> = Box::new(Adam::new(0.01));
        let mut cloned = opt.clone();
        let d = cloned.step(&[1.0], &[0.5]);
        assert_eq!(d.len(), 1);
    }
}
