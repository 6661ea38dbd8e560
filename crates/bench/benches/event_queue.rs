//! Simulation fast-path costs: the binary-heap [`EventQueue`] the world
//! runs on and zero-clone relay delivery ([`Network::broadcast_tx`]
//! fanning one `Arc`'d transaction out to every stakeholder mempool).
//!
//! The queue is exercised under the two due-time regimes the simulator
//! produces: *uniform* over a short horizon (relay deliveries, snapshot
//! ticks) and *heavy-tail* (block finds minutes out).

use cn_chain::{Address, Amount, Transaction, TxOut};
use cn_mempool::MempoolPolicy;
use cn_net::{LatencyModel, Network, NodeRole, Topology};
use cn_sim::event::{EventQueue, SimMillis};
use cn_stats::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// Uniform due times over a ~an-hour window: the relay/snapshot regime.
fn uniform_dues(n: usize, seed: u64) -> Vec<SimMillis> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_below(3_600_000)).collect()
}

/// Heavy-tail due times: most within seconds, a fat tail minutes out
/// (the block-find regime).
fn heavy_tail_dues(n: usize, seed: u64) -> Vec<SimMillis> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.next_below(10) == 0 {
                600_000 + rng.next_below(1_200_000) // 10-30 min out
            } else {
                rng.next_below(5_000) // within 5 s
            }
        })
        .collect()
}

/// Schedules every due time interleaved with pops — a churn pattern close
/// to the world loop's (each popped event schedules successors) — and
/// drains the queue.
fn churn_heap(dues: &[SimMillis]) -> u64 {
    let mut q = EventQueue::new();
    let mut acc = 0u64;
    let mut feed = dues.iter();
    for &d in feed.by_ref().take(dues.len() / 2) {
        q.schedule(d, d);
    }
    while let Some((now, payload)) = q.pop() {
        acc = acc.wrapping_add(now ^ payload);
        if let Some(&d) = feed.next() {
            q.schedule(now + (d % 5_000), d);
        }
    }
    acc
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(20);
    for (dist, dues) in [
        ("uniform", uniform_dues(100_000, 11)),
        ("heavy_tail", heavy_tail_dues(100_000, 11)),
    ] {
        group.bench_with_input(BenchmarkId::new("heap", dist), &dues, |b, dues| {
            b.iter(|| black_box(churn_heap(dues)))
        });
    }
    group.finish();
}

/// A small stakeholder network in the shape the world builds: one
/// observer, a few miner hubs, relays in between.
fn relay_network(nodes: usize) -> Network {
    let mut rng = SimRng::seed_from_u64(3);
    let degrees: Vec<usize> = (0..nodes).map(|_| 4).collect();
    let topology = Topology::random(nodes, &degrees, &mut rng);
    let latency = LatencyModel::sample(&topology, 0.2, 0.5, &mut rng);
    let mut roles = vec![NodeRole::Relay; nodes];
    roles[0] = NodeRole::Observer { policy: MempoolPolicy::default() };
    for (h, role) in roles.iter_mut().skip(1).take(4).enumerate() {
        *role = NodeRole::MinerHub { pool: h, policy: MempoolPolicy::default() };
    }
    Network::new(topology, latency, roles)
}

fn bench_relay_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("relay");
    group.sample_size(20);
    for nodes in [16usize, 64] {
        let txs: Vec<(Arc<Transaction>, Amount)> = (0..2_000u64)
            .map(|i| {
                let mut prev = [0u8; 32];
                prev[..8].copy_from_slice(&i.to_le_bytes());
                let tx = Transaction::builder()
                    .add_input_with_sizes(prev.into(), 0, 107, 0)
                    .add_output(TxOut::to_address(
                        Amount::from_sat(40_000),
                        Address::from_label("sink"),
                    ))
                    .build();
                let fee = Amount::from_sat(tx.vsize() * 5);
                (Arc::new(tx), fee)
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("broadcast_tx", nodes), &nodes, |b, &nodes| {
            // A fresh network per iteration keeps every broadcast a first
            // admission; construction is a small constant against the
            // 2 000 fan-outs measured.
            b.iter(|| {
                let mut net = relay_network(nodes);
                let mut accepted = 0usize;
                for (when, (tx, fee)) in txs.iter().enumerate() {
                    let results = net.broadcast_tx(5, Arc::clone(tx), *fee, when as u64);
                    accepted += results.iter().filter(|(_, _, r)| r.is_ok()).count();
                }
                black_box(accepted)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_relay_delivery);
criterion_main!(benches);
