//! Every workload, untraced and traced, at reduced size: no job fails
//! and every metric is produced.

use std::path::PathBuf;

use e2ebench::drive;
use e2ebench::specs::{Class, Shape, Workload};
use e2ebench::traced;

fn work(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".e2ebench-work")
        .join(format!("test-{name}"))
}

#[test]
fn run_workloads_at_smoke_size_have_no_failures() {
    for w in [Workload::RunLong, Workload::RunLarge] {
        let m = drive::run_inprocess(w, &Shape::smoke(w), 11, 0.0, None);
        assert_eq!(m.tally.failed, 0, "{}: {:?}", w.name(), m.tally.failures);
        assert_eq!(
            m.cycles, 1,
            "a zero-second run still covers one whole cycle"
        );
        assert_eq!(m.jobs.len() as u64, w.cycle_len());
        assert_eq!(m.compared, 1, "one byte-identity check across pool sizes");
    }
}

#[test]
fn serve_mix_at_smoke_size_has_no_failures() {
    let w = Workload::ServeMix;
    let dir = work("serve_mix");
    let m = drive::run_served(w, &Shape::smoke(w), 11, 0.0, &dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(m.tally.failed, 0, "{:?}", m.tally.failures);
    assert_eq!(m.refused, 0);
    assert_eq!(m.setup_s.len(), drive::RESTART_PROBES);
    assert_eq!(m.jobs.len() as u64, w.cycle_len());
    for class in [Class::Run, Class::Sweep, Class::Chaos] {
        assert!(!m.latencies(class).is_empty(), "{} jobs ran", class.name());
    }
    assert!(
        m.compared > 0,
        "served bytes were compared with in-process bytes"
    );
}

#[test]
fn traced_runs_at_smoke_size_report_every_layer_metric() {
    for w in [Workload::RunLong, Workload::ServeMix] {
        let dir = work(&format!("traced-{}", w.name()));
        let t = traced::run(
            w,
            &Shape::smoke(w),
            &Shape::smoke(Workload::ServeMix),
            5,
            0.0,
            &dir,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(t.tally.failed, 0, "{}: {:?}", w.name(), t.tally.failures);
        assert_eq!(t.metrics.len(), e2ebench::output::PER_LAYER.len());
        for m in &t.metrics {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}
