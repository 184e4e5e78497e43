//! Phase-1 bit-identity for the arena fast path: the flat SoA front end
//! claims the exact same FP operation order per sample at every thread
//! count, so base clusters — fragment endpoints included, bit for bit —
//! and the deterministic work counters must not depend on `threads`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use neat_repro::mobisim::presets::DatasetPreset;
use neat_repro::mobisim::{generate_dataset, SimConfig};
use neat_repro::neat::phase1::{form_base_clusters_ctl, form_base_clusters_parallel_with_policy};
use neat_repro::neat::{ErrorPolicy, PhaseStatus};
use neat_repro::rnet::netgen::{generate_grid_network, GridNetworkConfig, MapPreset};
use neat_repro::rnet::RoadNetwork;
use neat_repro::runctl::Control;
use neat_repro::traj::{Dataset, Trajectory};
use std::sync::OnceLock;

/// The chaos fixture shared with `parallel_determinism`: 4×4 grid,
/// 18 objects, seed 7.
fn chaos_fixture() -> &'static (RoadNetwork, Dataset) {
    static FIXTURE: OnceLock<(RoadNetwork, Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let net = generate_grid_network(&GridNetworkConfig::small_test(4, 4), 7);
        let config = SimConfig {
            num_objects: 18,
            num_hotspots: 2,
            num_destinations: 2,
            sample_period_s: 4.0,
            ..SimConfig::default()
        };
        let data = generate_dataset(&net, &config, 7, "chaos");
        (net, data)
    })
}

/// Phase 1 on the chaos fixture is byte-identical across thread counts
/// {1, 2, 8}, for both junction modes and every error policy, and the
/// `samples_scanned` counter equals the dataset's total sample count.
#[test]
fn phase1_is_bit_identical_across_threads_on_the_chaos_fixture() {
    let (net, data) = chaos_fixture();
    let total_samples: usize = data.trajectories().iter().map(Trajectory::len).sum();
    for insert_junctions in [false, true] {
        for policy in [ErrorPolicy::Strict, ErrorPolicy::Skip, ErrorPolicy::Repair] {
            let (reference, ref_counters) =
                form_base_clusters_parallel_with_policy(net, data, insert_junctions, 1, policy)
                    .expect("sequential phase 1");
            assert_eq!(reference.samples_scanned, total_samples);
            let want = format!("{reference:#?}\n{ref_counters:#?}");
            for threads in [1usize, 2, 8] {
                let (got, counters) = form_base_clusters_parallel_with_policy(
                    net,
                    data,
                    insert_junctions,
                    threads,
                    policy,
                )
                .expect("parallel phase 1");
                assert_eq!(
                    format!("{got:#?}\n{counters:#?}"),
                    want,
                    "phase 1 diverged: junctions={insert_junctions} {policy:?} threads={threads}"
                );
            }
        }
    }
}

/// The chaos fixture's simulator settings with half of the samples
/// dropped, so phase 1 repairs gaps by routing.
fn sparse_chaos_fixture() -> (RoadNetwork, Dataset) {
    let (net, _) = chaos_fixture();
    let config = SimConfig {
        num_objects: 18,
        num_hotspots: 2,
        num_destinations: 2,
        sample_period_s: 4.0,
        sample_dropout: 0.5,
        ..SimConfig::default()
    };
    let data = generate_dataset(net, &config, 7, "chaos-sparse");
    (net.clone(), data)
}

/// The SJ preset network (seed 7) with 100 objects, as generated, and
/// with half of the samples dropped.
fn sj_fixtures() -> [(RoadNetwork, Dataset); 2] {
    let preset = DatasetPreset::new(MapPreset::SanJose, 100);
    let (net, data) = preset.generate(7);
    let sparse = SimConfig {
        sample_dropout: 0.5,
        ..preset.sim_config()
    };
    let sparse_data = generate_dataset(&net, &sparse, 8, "sj-sparse");
    [(net.clone(), data), (net, sparse_data)]
}

/// An unlimited controlled phase 1 charges exactly the ops and settled
/// nodes recorded for these fixtures when the controlled path still
/// extracted trajectory by trajectory, at every thread count. Budget
/// cut points on valid data therefore stay where they were.
#[test]
fn controlled_phase1_work_counters_are_pinned() {
    let [sj, sj_sparse] = sj_fixtures();
    let cases: [(&str, &(RoadNetwork, Dataset), u64, u64); 4] = [
        ("chaos", chaos_fixture(), 18, 0),
        ("chaos-sparse", &sparse_chaos_fixture(), 93, 75),
        ("SJ100", &sj, 100, 0),
        ("SJ100-sparse", &sj_sparse, 9858, 9758),
    ];
    for (label, (net, data), ops, settled) in cases {
        for threads in [1usize, 2, 8] {
            let ctl = Control::unlimited();
            let (_, _, status) =
                form_base_clusters_ctl(net, data, true, threads, ErrorPolicy::Strict, &ctl)
                    .expect("phase 1");
            assert_eq!(status, PhaseStatus::Complete);
            assert_eq!(
                (ctl.ops(), ctl.settled()),
                (ops, settled),
                "{label} threads={threads}"
            );
        }
    }
}
