//! Integration tests for the library extensions: checkpoint/restore
//! around distributed runs, an int8 wire inside them, and
//! partitioned data end-to-end.

use lc_asgd::core::config::DataPartition;
use lc_asgd::nn::checkpoint::Checkpoint;
use lc_asgd::nn::resnet::ResNetConfig;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::WireCodec;

fn task() -> (Dataset, Dataset) {
    SyntheticImageSpec::cifar10_like(8, 8, 16, 8).generate()
}

#[test]
fn checkpoint_resnet_roundtrip_preserves_eval() {
    let mut rng = Rng::seed_from_u64(71);
    let net = ResNetConfig::tiny(3, 10).build(&mut rng);
    let (train, _) = task();
    let idx: Vec<usize> = (0..32).collect();
    let (x, y) = train.batch(&idx);

    let eval = |net: &lc_asgd::nn::Network| lc_asgd::nn::metrics::evaluate(net, &x, &y, 16);
    let before = eval(&net);

    let mut buf = Vec::new();
    Checkpoint::capture(&net).write_to(&mut buf).unwrap();
    let restored_ck = Checkpoint::read_from(&mut buf.as_slice()).unwrap();
    let mut other = ResNetConfig::tiny(3, 10).build(&mut Rng::seed_from_u64(999));
    restored_ck.restore(&mut other);
    let after = eval(&other);
    assert_eq!(before, after, "restored network must evaluate identically");
}

#[test]
fn compressed_distributed_training_on_images() {
    let (train, test) = task();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    let mut cfg = ExperimentConfig::new(Algorithm::Asgd, 4, Scale::Tiny, 29);
    cfg.epochs = 6;
    let backend = ThreadCluster::new(4).with_wire_codec(WireCodec::Int8);
    let lossy = run_cluster(backend, &cfg, &build, &train, &test).expect("int8 thread run failed");
    let first = lossy.epochs.first().unwrap().train_error;
    let last = lossy.epochs.last().unwrap().train_error;
    assert!(last <= first, "compressed run should still improve: {first} -> {last}");
}

#[test]
fn partitioned_images_cover_all_classes_per_worker() {
    // With contiguous interleaved shards each of 4 workers sees all 10
    // classes — the IID sharding the extension targets.
    let (train, _) = task();
    let shards = lc_asgd::data::BatchIter::partition(train.len(), 4);
    for shard in shards {
        let mut classes: Vec<usize> = shard.iter().map(|&i| train.labels[i]).collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes.len(), 10, "each shard should contain every class");
    }
}

#[test]
fn partitioned_distributed_run_on_images() {
    let (train, test) = task();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    let mut cfg = ExperimentConfig::new(Algorithm::LcAsgd, 4, Scale::Tiny, 37);
    cfg.epochs = 6;
    cfg.partition = DataPartition::Partitioned;
    let r = run_experiment(&cfg, &build, &train, &test);
    let first = r.epochs.first().unwrap().train_error;
    let last = r.epochs.last().unwrap().train_error;
    assert!(last <= first + 0.05, "partitioned run should improve: {first} -> {last}");
}
