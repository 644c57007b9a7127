//! The step learning-rate schedule the paper uses ("an initial learning
//! rate of 0.3 … divided by ten after 80 and 120 epochs"). The update
//! itself is the parameter server's plain SGD step (paper Formula 8,
//! `ShardGroup::apply_grad` in `lcasgd-core`); no optimizer state lives
//! here.

/// Piecewise-constant learning-rate schedule: `base` divided by `factor`
/// at each milestone epoch.
#[derive(Clone, Debug)]
pub struct LrSchedule {
    pub base: f32,
    pub milestones: Vec<usize>,
    pub factor: f32,
}

impl LrSchedule {
    /// Constant learning rate.
    pub fn constant(base: f32) -> Self {
        LrSchedule { base, milestones: Vec::new(), factor: 1.0 }
    }

    /// The paper's CIFAR-10 schedule scaled to `epochs` total: /10 at 50%
    /// and 75% of training (80/160 and 120/160).
    pub fn paper_step(base: f32, epochs: usize) -> Self {
        LrSchedule { base, milestones: vec![epochs / 2, epochs * 3 / 4], factor: 10.0 }
    }

    /// Learning rate at the given epoch.
    pub fn at_epoch(&self, epoch: usize) -> f32 {
        let drops = self.milestones.iter().filter(|&&m| epoch >= m).count() as i32;
        self.base / self.factor.powi(drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_drops_at_milestones() {
        let s = LrSchedule { base: 0.3, milestones: vec![80, 120], factor: 10.0 };
        assert!((s.at_epoch(0) - 0.3).abs() < 1e-7);
        assert!((s.at_epoch(79) - 0.3).abs() < 1e-7);
        assert!((s.at_epoch(80) - 0.03).abs() < 1e-7);
        assert!((s.at_epoch(120) - 0.003).abs() < 1e-7);
        assert!((s.at_epoch(159) - 0.003).abs() < 1e-7);
    }

    #[test]
    fn paper_step_scales_milestones() {
        let s = LrSchedule::paper_step(0.3, 40);
        assert_eq!(s.milestones, vec![20, 30]);
    }
}
