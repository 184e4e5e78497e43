//! End-to-end clustering microbenchmarks: full pipelines, incremental
//! ingestion and result-query costs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use neat_bench::setup::{dataset, experiment_config, network};
use neat_core::incremental::IncrementalNeat;
use neat_core::query::FlowIndex;
use neat_core::{Mode, Neat};
use neat_rnet::netgen::MapPreset;
use neat_rnet::Point;

fn bench_clustering(c: &mut Criterion) {
    let net = network(MapPreset::Atlanta, 42);
    let data = dataset(MapPreset::Atlanta, &net, 100, 42);
    let config = experiment_config();
    let neat = Neat::new(&net, config);

    let mut group = c.benchmark_group("clustering");
    group.sample_size(10);
    group.bench_function("opt_neat_atl100_end_to_end", |b| {
        b.iter(|| neat.run(&data, Mode::Opt).expect("opt run"))
    });
    group.bench_function("incremental_4_batches_of_25", |b| {
        let batches: Vec<_> = (0..4)
            .map(|i| dataset(MapPreset::Atlanta, &net, 25, 100 + i))
            .collect();
        b.iter_batched(
            || IncrementalNeat::new(&net, config),
            |mut online| {
                for batch in &batches {
                    online.ingest(batch).expect("ingest");
                }
                online.flow_clusters().len()
            },
            BatchSize::SmallInput,
        )
    });

    let result = neat.run(&data, Mode::Flow).expect("flow run");
    let index = FlowIndex::build(&net, &result.flow_clusters);
    let bbox = net.bbox().expect("non-empty network");
    let queries: Vec<Point> = (0..64)
        .map(|i| bbox.min.lerp(bbox.max, (i as f64 * 0.618) % 1.0))
        .collect();
    group.bench_function("flow_index_64_point_queries", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|&p| index.flows_near(&net, p, 500.0).len())
                .sum::<usize>()
        })
    });
    group.bench_function("flow_index_build", |b| {
        b.iter(|| FlowIndex::build(&net, &result.flow_clusters))
    });

    let grid = neat_rnet::SegmentIndex::build(&net, 150.0);
    group.bench_function("grid_nearest_64_queries", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter_map(|&p| grid.nearest(&net, p))
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
