//! Shortest-path microbenchmarks: A* vs plain Dijkstra vs ε-bounded
//! search — the primitives behind the Figure-7 ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use neat_rnet::netgen::MapPreset;
use neat_rnet::path::TravelMode;
use neat_rnet::{NodeId, ShortestPathEngine};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_shortest_paths(c: &mut Criterion) {
    let net = MapPreset::Atlanta.generate(42);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let pairs: Vec<(NodeId, NodeId)> = (0..32)
        .map(|_| {
            (
                NodeId::new(rng.gen_range(0..net.node_count())),
                NodeId::new(rng.gen_range(0..net.node_count())),
            )
        })
        .collect();
    let mut engine = ShortestPathEngine::new(&net);

    let mut group = c.benchmark_group("shortest_path_atl");
    group.sample_size(10);
    group.bench_function("astar_32_random_pairs", |b| {
        b.iter(|| {
            for &(u, v) in &pairs {
                let _ = engine.distance(&net, u, v, TravelMode::Undirected);
            }
        })
    });
    group.bench_function("dijkstra_32_random_pairs", |b| {
        b.iter(|| {
            for &(u, v) in &pairs {
                let _ = engine.distance_plain(&net, u, v);
            }
        })
    });
    group.bench_function("bounded_6500m_32_random_pairs", |b| {
        b.iter(|| {
            for &(u, v) in &pairs {
                let _ = engine.distance_bounded(&net, u, v, TravelMode::Undirected, 6500.0);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_shortest_paths);
criterion_main!(benches);
