//! The host-speed probe measures a positive rate on any rack size and
//! runs after every job of the in-process workloads, and figures at
//! reference speed scale by it.

use e2ebench::calib::Probe;
use e2ebench::drive::{self, JobRecord, Measured};
use e2ebench::specs::{Class, Shape, Workload};

#[test]
fn probe_slices_give_finite_positive_rates_at_every_size() {
    for lanes in [0, 1, 1_000, 10_000, 1_000_000] {
        let rate = Probe::new(lanes).slice();
        assert!(rate.is_finite() && rate > 0.0, "{lanes} lanes: {rate}");
    }
}

#[test]
fn in_process_runs_probe_after_every_job() {
    let w = Workload::RunLong;
    let m = drive::run_inprocess(w, &Shape::smoke(w), 3, 0.0, None);
    let warm_up = w.cycle_len() as usize;
    assert!(m.probe_rates.len() >= warm_up + m.jobs.len());
}

#[test]
fn figures_at_reference_speed_scale_times_up_and_rates_down_by_host_speed() {
    let job = |index: u64, start_s: f64, speed: f64| JobRecord {
        index,
        class: Class::Run,
        start_s,
        latency_ms: 1000.0,
        agent_epochs: 10,
        speed,
    };
    // One cycle of two serial one-second jobs on a host at half the
    // reference speed, one at full speed.
    let m = Measured {
        jobs: vec![job(0, 0.0, 0.5), job(1, 1.0, 1.0)],
        cycles: 1,
        ..Measured::default()
    };
    assert_eq!(m.cycle_medians(Class::Run, 2, false), vec![1000.0]);
    assert_eq!(m.cycle_medians(Class::Run, 2, true), vec![750.0]);
    assert_eq!(m.cycle_rates(2, false), vec![(1.0, 10.0)]);
    let (jobs_per_s, agent_epochs_per_s) = m.cycle_rates(2, true)[0];
    assert!((jobs_per_s - 2.0 / 1.5).abs() < 1e-12);
    assert!((agent_epochs_per_s - 20.0 / 1.5).abs() < 1e-12);
}
