//! Fault injection: one worker goes silent mid-epoch (socket left open,
//! heartbeats stopped — a hang, not a clean disconnect). The server must
//! detect it through the heartbeat timeout, drop the rank, and let the
//! survivors drive training to the target without stalling.
//!
//! The strongest assertion here is implicit: if the server did *not* reap
//! the hung rank, `serve` would wait on it forever and the test would
//! never return.

use lc_asgd::core::comm::CompressedGrad;
use lc_asgd::core::protocol::{ClusterReq, ClusterResp};
use lc_asgd::core::worker::WorkerNode;
use lc_asgd::core::ShardGroup;
use lc_asgd::data::synth::blobs_split;
use lc_asgd::netcluster::{NetConfig, NetWorker, ReactorServer};
use lc_asgd::nn::mlp::mlp;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::ServerCtx;

#[test]
fn hung_worker_is_dropped_and_survivors_finish() {
    let (train, _test) = blobs_split(4, 6, 30, 10, 0.5, 41);
    let m = 3;
    let batch = 10;
    let target = 60usize; // gradient applications before Stop
    let hang_after = 3usize; // the victim's gradient pushes before it hangs
    let lr = 0.1f32;

    let mut rng = Rng::seed_from_u64(7);
    let canonical = mlp(&[6, 16, 4], false, &mut rng);
    let mut server = ShardGroup::new(&canonical, m, BnMode::Regular, 0.1, 1).unwrap();

    let cfg = NetConfig::fast();
    let net_server = ReactorServer::bind("127.0.0.1:0", m, cfg.clone()).expect("bind loopback");
    let addr = net_server.local_addr().expect("bound address");

    let mut applied = 0usize;
    let mut losses: Vec<f32> = Vec::new();
    let mut by_rank = vec![0usize; m];

    std::thread::scope(|scope| {
        for w in 0..m {
            let cfg = cfg.clone();
            let train = &train;
            scope.spawn(move || {
                let mut node_rng = Rng::seed_from_u64(100 + w as u64);
                let mut node = WorkerNode::new(
                    mlp(&[6, 16, 4], false, &mut node_rng),
                    train.len(),
                    batch,
                    1000 + w as u64,
                );
                let mut link = match NetWorker::connect(addr, w, cfg) {
                    Ok(link) => link,
                    Err(_) => return, // server already done
                };
                let mut pushed = 0usize;
                while let Ok(resp) =
                    link.request::<_, ClusterResp>(&ClusterReq::Pull { epoch: 0, shard: 0 })
                {
                    let (flat, version) = match resp {
                        ClusterResp::Weights { flat, version, .. } => (flat, version),
                        _ => break,
                    };
                    let (loss, grads, _stats) = node.compute_gradient(&flat, train);
                    let push = ClusterReq::Grad {
                        grads: CompressedGrad::Dense(grads),
                        pull_version: version,
                        loss,
                        batch_stats: Vec::new(),
                        running: Default::default(),
                        epoch: 0,
                        push_seq: 0,
                        shard: 0,
                    };
                    if link.send(&push).is_err() {
                        break;
                    }
                    pushed += 1;
                    if w == m - 1 && pushed == hang_after {
                        // Simulate a wedged process: socket stays open but
                        // nothing (not even heartbeats) flows anymore.
                        link.hang();
                        return;
                    }
                }
                let _ = link.finish();
            });
        }

        net_server
            .serve(|w, req: ClusterReq, ctx: &mut ServerCtx<ClusterResp>| match req {
                ClusterReq::Pull { .. } => {
                    if applied >= target {
                        ctx.reply(ClusterResp::Stop);
                    } else {
                        ctx.reply(ClusterResp::Weights {
                            flat: server.snapshot(0),
                            version: server.version(),
                            directive: None,
                            epoch: 0,
                        });
                    }
                }
                ClusterReq::Grad { grads, loss, .. } if applied < target => {
                    server.apply_grad(&grads.decompress(), lr);
                    losses.push(loss);
                    by_rank[w] += 1;
                    applied += 1;
                }
                _ => {}
            })
            .expect("server must terminate cleanly despite the hung rank");
    });

    assert_eq!(applied, target, "survivors must reach the full target");
    assert!(
        by_rank[m - 1] <= hang_after,
        "the hung rank pushed {} gradients, expected at most {hang_after}",
        by_rank[m - 1]
    );
    let survivors: usize = by_rank[..m - 1].iter().sum();
    assert!(survivors >= target - hang_after, "survivors must carry the load: {by_rank:?}");

    // The run still trains: late losses below early losses.
    let early: f32 = losses[..10].iter().sum::<f32>() / 10.0;
    let late: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
    assert!(late < early, "loss must decrease: early {early} late {late}");
}
