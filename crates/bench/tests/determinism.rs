//! The runner's determinism contract: rendered experiment output must
//! be byte-identical whatever the worker count, because per-job seeds
//! derive from sweep position and results are reassembled in job order.

use renofs_bench::experiments::{cd, crowd, faults, soak, transport};
use renofs_bench::Scale;

fn quick_subset() -> Scale {
    let mut scale = Scale::quick();
    scale.lan_rates = vec![10.0, 30.0];
    scale.slow_rates = vec![3.0];
    scale
}

#[test]
fn graph1_is_byte_identical_across_worker_counts() {
    let mut scale = quick_subset();
    scale.jobs = 1;
    let serial = transport::graph1(&scale).to_string();
    for jobs in [2, 4, 8] {
        scale.jobs = jobs;
        let parallel = transport::graph1(&scale).to_string();
        assert_eq!(
            serial, parallel,
            "graph1 output diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn multi_run_aggregation_is_byte_identical_across_worker_counts() {
    // runs > 1 exercises the mean ± stddev aggregation path on top of
    // the job-order reassembly.
    let mut scale = quick_subset();
    scale.runs = 2;
    scale.jobs = 1;
    let serial = transport::graph1(&scale).to_string();
    scale.jobs = 4;
    let parallel = transport::graph1(&scale).to_string();
    assert_eq!(serial, parallel);
    assert!(
        serial.contains("(mean of 2 runs)"),
        "aggregated labels expected, got:\n{serial}"
    );
}

#[test]
fn faults_is_byte_identical_across_worker_counts() {
    // The fault matrix threads scheduled failures (and their RNG draws)
    // through the link layer; fault state must stay a pure function of
    // virtual time for this to hold.
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let serial = faults::faults(&scale).to_string();
    for jobs in [2, 4, 8] {
        scale.jobs = jobs;
        let parallel = faults::faults(&scale).to_string();
        assert_eq!(
            serial, parallel,
            "faults output diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn crowd_is_byte_identical_across_worker_counts() {
    // The crowd sweep spawns N generator threads per cell (not one), so
    // seed-splitting per client — not thread scheduling — must be the
    // only source of randomness for the output to survive any fan-out.
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let serial = crowd::crowd(&scale).to_string();
    for jobs in [2, 4, 8] {
        scale.jobs = jobs;
        let parallel = crowd::crowd(&scale).to_string();
        assert_eq!(
            serial, parallel,
            "crowd output diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn soak_is_byte_identical_across_worker_counts() {
    // Every chaos world derives from its seed alone and each client
    // thread returns its observation log through a per-client slot, so
    // the merged oracle verdict — and the rendered report — must not
    // depend on thread scheduling or worker count.
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let serial = soak::soak_with(&scale, 0, 8, soak::Mutation::None).to_string();
    for jobs in [2, 4, 8] {
        scale.jobs = jobs;
        let parallel = soak::soak_with(&scale, 0, 8, soak::Mutation::None).to_string();
        assert_eq!(
            serial, parallel,
            "soak output diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn table5_is_byte_identical_across_worker_counts() {
    // Table 5 fans out heterogeneous jobs (local rows and NFS rows with
    // different configs); order-preserving reassembly must still hold.
    let mut scale = Scale::quick();
    scale.cd_iters = 3;
    scale.jobs = 1;
    let serial = cd::table5(&scale).to_string();
    scale.jobs = 4;
    let parallel = cd::table5(&scale).to_string();
    assert_eq!(serial, parallel);
}

#[test]
fn lease_soak_is_byte_identical_across_worker_counts() {
    // Lease worlds add client-side state (the lease map, the recall
    // queue, retry sleeps) whose iteration order must stay
    // deterministic for the rendered report — lease-traffic columns
    // included — to survive any worker count.
    let mut scale = Scale::quick();
    scale.jobs = 1;
    let render = |scale: &Scale| {
        soak::soak_profile_with(scale, 0, 2, soak::Mutation::None, soak::SoakProfile::Lease)
            .to_string()
    };
    let serial = render(&scale);
    assert!(
        serial.contains("recall"),
        "lease report must carry lease columns: {serial}"
    );
    for jobs in [2, 4] {
        scale.jobs = jobs;
        assert_eq!(
            serial,
            render(&scale),
            "lease soak output diverged between jobs=1 and jobs={jobs}"
        );
    }
}
