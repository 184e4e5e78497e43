//! Criterion microbenchmarks for the three NEAT phases, backing the
//! figure binaries with statistically sound per-phase timings.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use neat_bench::setup::{dataset, experiment_config, network};
use neat_core::phase1::{form_base_clusters, form_base_clusters_parallel_with_policy};
use neat_core::phase2::form_flow_clusters;
use neat_core::phase3::refine_flow_clusters;
use neat_core::ErrorPolicy;
use neat_rnet::netgen::MapPreset;

fn bench_phases(c: &mut Criterion) {
    let net = network(MapPreset::Atlanta, 42);
    let data = dataset(MapPreset::Atlanta, &net, 100, 42);
    let config = experiment_config();

    let p1 = form_base_clusters(&net, &data, true).expect("phase1");
    let p2 = form_flow_clusters(&net, p1.base_clusters.clone(), &config).expect("phase2");

    let mut group = c.benchmark_group("neat_phases");
    group.sample_size(10);
    group.bench_function("phase1_base_clusters_atl100", |b| {
        b.iter(|| form_base_clusters(&net, &data, true).expect("phase1"))
    });
    group.bench_function("phase1_parallel4_atl100", |b| {
        b.iter(|| {
            form_base_clusters_parallel_with_policy(&net, &data, true, 4, ErrorPolicy::Strict)
                .expect("phase1")
        })
    });
    group.bench_function("phase2_flow_clusters_atl100", |b| {
        b.iter_batched(
            || p1.base_clusters.clone(),
            |bases| form_flow_clusters(&net, bases, &config).expect("phase2"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("phase3_refinement_atl100", |b| {
        b.iter_batched(
            || p2.flow_clusters.clone(),
            |flows| refine_flow_clusters(&net, flows, &config).expect("phase3"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
