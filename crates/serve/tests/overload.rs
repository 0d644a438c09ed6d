//! Admission-control tests: bounded queue, degradation ladder,
//! per-client rate limits and quotas, and the golden Prometheus
//! exposition for the serve counters.

use std::path::PathBuf;
use std::time::Duration;

use sprint_serve::harness;
use sprint_serve::http::client;
use sprint_serve::jobs::{JobKind, JobSpec, RunSpec};
use sprint_serve::{AdmissionConfig, Daemon, DaemonHandle, ServeConfig};
use sprint_sim::PolicyKind;

/// Holds a worker for many seconds unless cancelled (Greedy: no solve,
/// straight into the engine loop).
fn blocker_spec(seed: u64) -> JobSpec {
    JobSpec::new(JobKind::Run {
        spec: RunSpec {
            benchmark: "decision".to_string(),
            policy: PolicyKind::Greedy,
            agents: 20,
            epochs: 20_000_000,
            seed,
            jobs: None,
        },
    })
}

fn quick_spec(seed: u64) -> JobSpec {
    JobSpec::new(JobKind::Run {
        spec: RunSpec {
            benchmark: "decision".to_string(),
            policy: PolicyKind::Greedy,
            agents: 10,
            epochs: 50,
            seed,
            jobs: None,
        },
    })
}

fn start_daemon(admission: AdmissionConfig) -> DaemonHandle {
    Daemon::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        admission,
        ..ServeConfig::default()
    })
    .expect("daemon boots")
}

/// Submit as a named client; returns status, lowercased response
/// headers, and body.
fn submit_as(addr: &str, spec_json: &str, client: &str) -> (u16, Vec<(String, String)>, String) {
    let headers: &[(&str, &str)] = if client.is_empty() {
        &[]
    } else {
        &[("x-api-key", client)]
    };
    client::request_full(addr, "POST", "/v1/jobs", headers, Some(spec_json)).unwrap()
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn ack_id(ack: &str) -> u64 {
    ack.split("\"id\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|digits| digits.trim().parse().ok())
        .unwrap_or_else(|| panic!("unparseable ack: {ack}"))
}

fn cancel(addr: &str, id: u64) {
    let (status, body) =
        client::request(addr, "POST", &format!("/v1/jobs/{id}/cancel"), None).unwrap();
    assert_eq!(status, 202, "{body}");
}

fn testdata(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/testdata")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn bounded_queue_and_ladder_reject_with_typed_429s() {
    let handle = start_daemon(AdmissionConfig {
        max_queue: 4,
        ..AdmissionConfig::default()
    });
    let addr = handle.addr().to_string();

    // Saturate the single worker, then half-fill the queue.
    let blocker = serde_json::to_string(&blocker_spec(1)).unwrap();
    let (status, _, ack) = submit_as(&addr, &blocker, "");
    assert_eq!(status, 202, "{ack}");
    let blocker_id = ack_id(&ack);
    harness::wait_for_job_state(&addr, blocker_id, "running", Duration::from_secs(30)).unwrap();
    for seed in 2..=3 {
        let body = serde_json::to_string(&quick_spec(seed)).unwrap();
        let (status, _, ack) = submit_as(&addr, &body, "");
        assert_eq!(status, 202, "{ack}");
    }

    // Half-full queue + saturated worker = ShedHeavy: sweeps bounce
    // with a Retry-After, single runs still get in.
    let sweep = testdata("jobspec_sweep_v1.json");
    let (status, headers, body) = submit_as(&addr, &sweep, "");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");
    assert_eq!(header(&headers, "retry-after"), Some("1"), "{headers:?}");
    for seed in 4..=5 {
        let body = serde_json::to_string(&quick_spec(seed)).unwrap();
        let (status, _, ack) = submit_as(&addr, &body, "");
        assert_eq!(status, 202, "runs are admitted during ShedHeavy: {ack}");
    }

    // The queue is now at its bound: everything bounces, runs included.
    let overflow = serde_json::to_string(&quick_spec(6)).unwrap();
    let (status, headers, body) = submit_as(&addr, &overflow, "");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full (4 jobs pending)"), "{body}");
    assert!(header(&headers, "retry-after").is_some(), "{headers:?}");

    // The daemon itself stays healthy under the burst.
    let (status, health) = client::request(&addr, "GET", "/v1/health", None).unwrap();
    assert_eq!(status, 200, "{health}");
    let (_, metrics) = client::request(&addr, "GET", "/v1/metrics", None).unwrap();
    assert!(metrics.contains("serve_jobs_shed_total 2"), "{metrics}");
    assert!(metrics.contains("serve_admission_rung 1"), "{metrics}");

    // Unblock the worker; the four queued quick jobs finish the drain.
    cancel(&addr, blocker_id);
    handle.drain().unwrap();
    handle.join().unwrap();
}

#[test]
fn rate_limits_are_per_client() {
    let handle = start_daemon(AdmissionConfig {
        rate_limit: Some(1.0),
        ..AdmissionConfig::default()
    });
    let addr = handle.addr().to_string();

    // Burst capacity is 2× the rate: two submissions pass, the third
    // bounces with the bucket's refill ETA.
    for seed in 1..=2 {
        let body = serde_json::to_string(&quick_spec(seed)).unwrap();
        let (status, _, ack) = submit_as(&addr, &body, "alice");
        assert_eq!(status, 202, "{ack}");
    }
    let body = serde_json::to_string(&quick_spec(3)).unwrap();
    let (status, headers, rejected) = submit_as(&addr, &body, "alice");
    assert_eq!(status, 429, "{rejected}");
    assert!(rejected.contains("alice"), "{rejected}");
    let retry_after: u64 = header(&headers, "retry-after")
        .expect("rate-limit rejection carries Retry-After")
        .parse()
        .unwrap();
    assert!(retry_after >= 1, "{headers:?}");

    // Other clients draw from their own buckets.
    let (status, _, ack) = submit_as(&addr, &body, "bob");
    assert_eq!(status, 202, "{ack}");
    let (status, _, ack) = submit_as(&addr, &body, "");
    assert_eq!(status, 202, "anonymous is its own client: {ack}");

    let (_, metrics) = client::request(&addr, "GET", "/v1/metrics", None).unwrap();
    assert!(
        metrics.contains("serve_jobs_rate_limited_total 1"),
        "{metrics}"
    );
    handle.drain().unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_job_quota_is_per_client() {
    let handle = start_daemon(AdmissionConfig {
        client_jobs: 1,
        ..AdmissionConfig::default()
    });
    let addr = handle.addr().to_string();

    let blocker = serde_json::to_string(&blocker_spec(7)).unwrap();
    let (status, _, ack) = submit_as(&addr, &blocker, "alice");
    assert_eq!(status, 202, "{ack}");
    let blocker_id = ack_id(&ack);

    // One active job is the quota: alice's second submission bounces
    // while the first is queued or running.
    let body = serde_json::to_string(&quick_spec(8)).unwrap();
    let (status, headers, rejected) = submit_as(&addr, &body, "alice");
    assert_eq!(status, 429, "{rejected}");
    assert!(rejected.contains("quota"), "{rejected}");
    assert_eq!(header(&headers, "retry-after"), Some("1"), "{headers:?}");

    // bob is unaffected by alice's quota.
    let (status, _, ack) = submit_as(&addr, &body, "bob");
    assert_eq!(status, 202, "{ack}");

    let (_, metrics) = client::request(&addr, "GET", "/v1/metrics", None).unwrap();
    assert!(
        metrics.contains("serve_jobs_quota_rejected_total 1"),
        "{metrics}"
    );
    cancel(&addr, blocker_id);
    handle.drain().unwrap();
    handle.join().unwrap();
}

#[test]
fn serve_counters_export_golden_prometheus_exposition() {
    let handle = start_daemon(AdmissionConfig::default());
    let addr = handle.addr().to_string();
    let (status, metrics) = client::request(&addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(status, 200);

    // The ring counters tick with the snapshot thread, so the golden
    // match covers the deterministic job/admission/journal/spool series:
    // counters first in sorted order, then gauges, dots mapped to
    // underscores, `_total` suffix on counters only.
    let got: Vec<&str> = metrics
        .lines()
        .filter(|l| {
            [
                "serve_jobs_",
                "serve_admission_",
                "serve_journal_",
                "serve_spool_",
            ]
            .iter()
            .any(|series| l.contains(series))
        })
        .collect();
    let want = [
        "# TYPE serve_jobs_cancelled_total counter",
        "serve_jobs_cancelled_total 0",
        "# TYPE serve_jobs_completed_total counter",
        "serve_jobs_completed_total 0",
        "# TYPE serve_jobs_deadline_exceeded_total counter",
        "serve_jobs_deadline_exceeded_total 0",
        "# TYPE serve_jobs_failed_total counter",
        "serve_jobs_failed_total 0",
        "# TYPE serve_jobs_quota_rejected_total counter",
        "serve_jobs_quota_rejected_total 0",
        "# TYPE serve_jobs_rate_limited_total counter",
        "serve_jobs_rate_limited_total 0",
        "# TYPE serve_jobs_recovered_total counter",
        "serve_jobs_recovered_total 0",
        "# TYPE serve_jobs_shed_total counter",
        "serve_jobs_shed_total 0",
        "# TYPE serve_jobs_submitted_total counter",
        "serve_jobs_submitted_total 0",
        "# TYPE serve_journal_append_errors_total counter",
        "serve_journal_append_errors_total 0",
        "# TYPE serve_spool_write_errors_total counter",
        "serve_spool_write_errors_total 0",
        "# TYPE serve_admission_rung gauge",
        "serve_admission_rung 0",
        "# TYPE serve_jobs_pending gauge",
        "serve_jobs_pending 0",
    ];
    assert_eq!(got, want, "full exposition:\n{metrics}");
    handle.drain().unwrap();
    handle.join().unwrap();
}

#[test]
fn failed_spool_writes_are_counted_and_the_report_is_still_served() {
    let dir = std::env::temp_dir().join(format!("sprint-serve-spool-err-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spool = dir.join("spool");
    let handle = Daemon::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        spool: Some(spool.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon boots with a spool");
    let addr = handle.addr().to_string();
    // The spool directory vanishes under the running daemon: every
    // later spool write fails.
    std::fs::remove_dir_all(&spool).unwrap();

    let body = serde_json::to_string(&quick_spec(3)).unwrap();
    let (status, report) =
        client::request(&addr, "POST", "/v1/jobs?wait=true", Some(&body)).unwrap();
    assert_eq!(status, 200, "the in-memory report survives: {report}");

    let (_, metrics) = client::request(&addr, "GET", "/v1/metrics", None).unwrap();
    assert!(
        metrics.contains("serve_spool_write_errors_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("serve_journal_append_errors_total 0"),
        "{metrics}"
    );
    handle.drain().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
