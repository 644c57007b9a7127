//! LC-ASGD predictor behaviour inside full training runs: the traces that
//! become Figures 7–8 must show the predictors actually tracking their
//! targets, and the compensation must engage. And predictor state as
//! checkpoints carry it: a snapshot restores bitwise, and one written by
//! the autograd implementation restores into the fused one.

use lc_asgd::core::predictor::{LossPredictor, StepPredictor};
use lc_asgd::nn::resnet::ResNetConfig;
use lc_asgd::prelude::*;

fn run_lc(workers: usize, epochs: usize) -> RunResult {
    let (train, test) = SyntheticImageSpec::cifar10_like(8, 8, 16, 8).generate();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    let mut cfg = ExperimentConfig::new(Algorithm::LcAsgd, workers, Scale::Tiny, 23);
    cfg.epochs = epochs;
    cfg.record_traces = true;
    run_experiment(&cfg, &build, &train, &test)
}

#[test]
fn loss_predictor_tracks_the_loss_series() {
    let r = run_lc(8, 10);
    let t = r.trace.expect("traces recorded");
    assert!(t.actual_loss.len() >= 80, "enough samples, got {}", t.actual_loss.len());
    // Compare the predictor against the naive "predict previous value"
    // baseline over the second half of training (after warm-up).
    let half = t.actual_loss.len() / 2;
    let mut pred_err = 0.0f64;
    let mut naive_err = 0.0f64;
    for i in half.max(1)..t.actual_loss.len() {
        pred_err += (t.predicted_loss[i] - t.actual_loss[i]).abs() as f64;
        naive_err += (t.actual_loss[i - 1] - t.actual_loss[i]).abs() as f64;
    }
    assert!(
        pred_err < naive_err * 1.5,
        "LSTM forecast ({pred_err:.3}) should be comparable to the last-value baseline ({naive_err:.3})"
    );
}

#[test]
fn step_predictor_tracks_mean_staleness() {
    let r = run_lc(8, 10);
    let t = r.trace.expect("traces recorded");
    assert!(!t.actual_step.is_empty());
    let half = t.actual_step.len() / 2;
    let mean_actual: f32 =
        t.actual_step[half..].iter().sum::<f32>() / (t.actual_step.len() - half) as f32;
    let mean_pred: f32 =
        t.predicted_step[half..].iter().sum::<f32>() / (t.predicted_step.len() - half) as f32;
    assert!(
        (mean_pred - mean_actual).abs() < mean_actual.max(1.0),
        "predicted mean step {mean_pred:.2} vs actual {mean_actual:.2}"
    );
}

#[test]
fn finish_order_covers_all_workers() {
    let m = 8;
    let r = run_lc(m, 6);
    let t = r.trace.expect("traces recorded");
    let mut seen = vec![false; m];
    for &w in &t.finish_order {
        seen[w] = true;
    }
    assert!(seen.iter().all(|&s| s), "every worker must appear in the iter log");
}

#[test]
fn overhead_is_measured_and_plausible() {
    let r = run_lc(4, 6);
    let o = r.overhead.expect("overhead recorded");
    assert!(o.iterations > 0);
    let per_iter = o.avg_loss_pred_ms() + o.avg_step_pred_ms();
    // Two small LSTMs on one core: between microseconds and tens of ms.
    assert!(per_iter > 0.001 && per_iter < 100.0, "per-iter predictor cost {per_iter} ms");
}

/// Feeds both predictors `n` arrivals of a falling loss from two workers.
fn feed(loss: &mut LossPredictor, step: &mut StepPredictor, from: usize, n: usize) -> Vec<f32> {
    let mut out = Vec::new();
    for i in from..from + n {
        let p = loss.observe_and_predict(2.0 / (1.0 + 0.05 * i as f32), 3);
        out.extend([p.l_delay, p.one_step]);
        out.push(step.observe_and_predict(
            i % 2,
            (1 + i % 3) as f32,
            1e-3 * (1 + i % 2) as f32,
            1e-2,
        ));
    }
    out
}

#[test]
fn predictor_snapshots_round_trip_bitwise() {
    let mut rng = Rng::seed_from_u64(91);
    let (mut loss, mut step) = (LossPredictor::new(&mut rng), StepPredictor::new(2, &mut rng));
    feed(&mut loss, &mut step, 0, 30);
    let (loss_snap, step_snap) = (loss.snapshot(), step.snapshot());

    // Into differently initialised predictors of the same architecture.
    let mut rng = Rng::seed_from_u64(92);
    let (mut loss2, mut step2) = (LossPredictor::new(&mut rng), StepPredictor::new(2, &mut rng));
    loss2.restore(&loss_snap);
    step2.restore(&step_snap);
    assert_eq!(loss2.snapshot(), loss_snap);
    assert_eq!(step2.snapshot(), step_snap);
    // Same state, same arithmetic: the forecasts agree to the bit from
    // here on, and so does the state they leave.
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(feed(&mut loss, &mut step, 30, 10)),
        bits(feed(&mut loss2, &mut step2, 30, 10))
    );
    assert_eq!(loss2.snapshot(), loss.snapshot());
    assert_eq!(step2.snapshot(), step.snapshot());
}

/// `fixtures/parent_predictors.bin` is a `TrainingCheckpoint` holding both
/// predictors (hidden 8, two workers) after 40 arrivals of [`feed`]'s
/// series, written at commit `e7efea8` by the autograd LSTM; the constants
/// are what that implementation forecast next. The snapshot layout
/// (`Lstm::flat_params` order, per-layer `(h, c)`) is the contract: the
/// fused cell must take the state over and carry on within rounding.
#[test]
fn a_predictor_checkpoint_written_by_the_parent_commit_restores_and_predicts() {
    let blob = include_bytes!("fixtures/parent_predictors.bin");
    let ck = TrainingCheckpoint::from_bytes(blob).expect("parent-era checkpoint loads");
    assert_eq!(ck.to_bytes(), blob, "and re-encodes to the same bytes");
    let (loss_snap, step_snap) = (ck.loss_pred.unwrap(), ck.step_pred.unwrap());

    let mut rng = Rng::seed_from_u64(1);
    let mut loss = LossPredictor::with_hidden(8, &mut rng);
    let mut step = StepPredictor::with_hidden(2, 8, &mut rng);
    loss.restore(&loss_snap);
    step.restore(&step_snap);
    assert_eq!(loss.snapshot(), loss_snap, "restore installs the parent's state exactly");
    assert_eq!(step.snapshot(), step_snap);

    let close = |got: f32, want: f32| assert!((got - want).abs() <= 1e-5, "{got} vs parent {want}");
    for (l, k, l_delay, one_step) in [
        (0.61, 3, 2.3719335, 0.79400975),
        (0.6, 2, 1.5547969, 0.779525),
        (0.59, 3, 2.2845292, 0.7650473),
    ] {
        let p = loss.observe_and_predict(l, k);
        close(p.l_delay, l_delay);
        close(p.one_step, one_step);
    }
    for (m, actual, km) in [(0, 2.0, 2.0220056), (1, 1.0, 1.7428358), (0, 3.0, 2.0213149)] {
        close(step.observe_and_predict(m, actual, 1.5e-3, 1e-2), km);
    }
}
