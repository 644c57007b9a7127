//! Library extensions in one tour: a lossy wire codec on the push path
//! (int8 / bf16 with ECQ-style error feedback) and checkpoint/restore.
//!
//! ```sh
//! cargo run --release --example compression_and_checkpoints
//! ```

use lc_asgd::prelude::*;
use lc_asgd::simcluster::WireCodec;

fn main() {
    let (train, test) = SyntheticImageSpec::cifar10_like(8, 8, 24, 10).generate();
    let resnet = lc_asgd::nn::resnet::ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);

    println!("{:<12} {:>10}", "wire codec", "err %");
    for codec in [WireCodec::F32, WireCodec::Bf16, WireCodec::Int8] {
        let mut cfg = ExperimentConfig::new(Algorithm::LcAsgd, 8, Scale::Tiny, 77);
        cfg.epochs = 10;
        let backend = ThreadCluster::new(8).with_wire_codec(codec);
        let r = run_cluster(backend, &cfg, &build, &train, &test).expect("thread run failed");
        println!("{:<12} {:>10.2}", codec.name(), r.final_test_error() * 100.0);
    }

    // Checkpoint a trained model and restore it into a fresh instance.
    let mut rng = Rng::seed_from_u64(77);
    let net = resnet.build(&mut rng);
    let path = std::env::temp_dir().join("lcasgd_example.ckpt");
    let ck =
        TrainingCheckpoint { weights: net.flat_params(), bn: net.bn_state(), ..Default::default() };
    ck.save(&path).expect("save checkpoint");
    let back = TrainingCheckpoint::load(&path).expect("load checkpoint");
    let mut clone = resnet.build(&mut Rng::seed_from_u64(1234));
    clone.set_flat_params(&back.weights);
    clone.set_bn_state(&back.bn);
    assert_eq!(net.flat_params(), clone.flat_params());
    println!("\ncheckpoint round-trip through {} OK ({} params)", path.display(), net.num_params());
    std::fs::remove_file(&path).ok();
}
