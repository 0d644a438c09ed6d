//! The durable job journal: a write-ahead JSONL log of job-lifecycle
//! transitions, fsync'd per record, that makes acknowledged submissions
//! survive a daemon crash.
//!
//! # Protocol
//!
//! Every transition is appended — and synced to disk — **before** the
//! state change is acknowledged to the client. A `202 Accepted` for a
//! submission therefore implies a durable [`Transition::Submitted`]
//! record carrying the full spec, which is everything recovery needs:
//! job reports are a function of the spec alone (see [`crate::jobs`]),
//! so re-executing a journaled spec reproduces the lost report
//! byte-for-byte.
//!
//! # Recovery
//!
//! On boot the daemon replays the journal ([`replay`]) and folds the
//! transitions into per-job end states ([`recover`]):
//!
//! - `queued` jobs are re-enqueued as-is;
//! - jobs `running` at crash time surface as
//!   [`RecoveredState::Interrupted`] and are re-executed under a bounded
//!   retry budget;
//! - `done` jobs whose report survives in the spool are adopted without
//!   re-execution; done jobs with no spool file are re-executed (exact
//!   by construction);
//! - terminal `failed` / `cancelled` / `deadline_exceeded` states are
//!   kept verbatim.
//!
//! A torn final line — the signature of a crash mid-append — is
//! tolerated and dropped; a torn line anywhere else is corruption and a
//! typed error. After recovery the daemon compacts the journal
//! ([`Journal::rewrite`]): the folded state is rewritten to a temp file
//! and atomically renamed over the old log, so the journal stays
//! proportional to the job table rather than to daemon uptime.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::error::ServeError;
use crate::jobs::JobSpec;

/// One durable job-lifecycle transition, as journaled.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Transition {
    /// A submission was accepted (journaled before the ack).
    Submitted {
        /// Daemon-assigned job id.
        id: u64,
        /// Submitting client key (API key header, or `anonymous`).
        client: String,
        /// The full spec — everything re-execution needs. Boxed so the
        /// common id-only transitions stay small on the stack; `serde`
        /// treats the box transparently, so the wire format is
        /// unchanged.
        spec: Box<JobSpec>,
    },
    /// A worker picked the job up.
    Started {
        /// The job id.
        id: u64,
    },
    /// The job completed; its report lives in the spool (if configured)
    /// or is reproducible from the spec.
    Done {
        /// The job id.
        id: u64,
    },
    /// The job failed with an execution error.
    Failed {
        /// The job id.
        id: u64,
        /// The stringified error.
        error: String,
    },
    /// The job was cancelled.
    Cancelled {
        /// The job id.
        id: u64,
    },
    /// The job overran its deadline budget.
    DeadlineExceeded {
        /// The job id.
        id: u64,
        /// The budget that was exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// Recovery found the job mid-run at crash time (written during
    /// replay compaction, never by a live worker).
    Interrupted {
        /// The job id.
        id: u64,
    },
}

impl Transition {
    /// The job id this transition belongs to.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Transition::Submitted { id, .. }
            | Transition::Started { id }
            | Transition::Done { id }
            | Transition::Failed { id, .. }
            | Transition::Cancelled { id }
            | Transition::DeadlineExceeded { id, .. }
            | Transition::Interrupted { id } => *id,
        }
    }
}

/// A job's folded end state after replaying its transitions.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredState {
    /// Acknowledged but never started: re-enqueue.
    Queued,
    /// Mid-run at crash time: re-execute under a retry budget.
    Interrupted,
    /// Completed; adopt the spool report or re-execute for the bytes.
    Done,
    /// Failed before the crash; terminal.
    Failed {
        /// The stringified error.
        error: String,
    },
    /// Cancelled before the crash; terminal.
    Cancelled,
    /// Overran its deadline before the crash; terminal.
    DeadlineExceeded {
        /// The budget that was exceeded, in milliseconds.
        limit_ms: u64,
    },
}

/// One journaled job with its folded end state.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// The journaled job id.
    pub id: u64,
    /// The submitting client key.
    pub client: String,
    /// The full spec.
    pub spec: JobSpec,
    /// The folded end state.
    pub state: RecoveredState,
}

/// The result of replaying a journal.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Journaled jobs in id order.
    pub jobs: Vec<RecoveredJob>,
    /// Highest id seen (the daemon resumes numbering above it).
    pub max_id: u64,
    /// Whether a torn final line was dropped (crash mid-append).
    pub torn_tail: bool,
}

fn journal_err(context: &str, detail: impl std::fmt::Display) -> ServeError {
    ServeError::Job(format!("journal {context}: {detail}"))
}

/// Read and parse every transition in the journal at `path`.
///
/// A missing file is an empty journal. A final line that fails to parse
/// is treated as a torn tail from a crash mid-append and dropped
/// (reported via the returned flag); an unparseable line anywhere else
/// is corruption.
///
/// # Errors
///
/// [`ServeError::Io`] for read failures, [`ServeError::Job`] for
/// mid-file corruption.
pub fn replay(path: &Path) -> crate::Result<(Vec<Transition>, bool)> {
    let mut text = String::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_string(&mut text)
                .map_err(ServeError::io(format!("reading {}", path.display())))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(ServeError::io(format!("opening {}", path.display()))(e)),
    }
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mut transitions = Vec::with_capacity(lines.len());
    let mut torn_tail = false;
    for (i, line) in lines.iter().enumerate() {
        match serde_json::from_str::<Transition>(line) {
            Ok(t) => transitions.push(t),
            Err(e) if i + 1 == lines.len() => {
                // The canonical crash signature: power lost between
                // write and sync leaves a partial final record.
                let _ = e;
                torn_tail = true;
            }
            Err(e) => {
                return Err(journal_err(
                    "corrupt",
                    format!("line {} of {}: {e}", i + 1, path.display()),
                ));
            }
        }
    }
    Ok((transitions, torn_tail))
}

/// Fold replayed transitions into per-job end states.
///
/// Transitions referencing an id with no `Submitted` record are dropped
/// (they can only come from a compaction bug, and recovery must not
/// invent jobs it has no spec for).
#[must_use]
pub fn recover(transitions: &[Transition], torn_tail: bool) -> Recovery {
    let mut jobs: std::collections::BTreeMap<u64, RecoveredJob> = std::collections::BTreeMap::new();
    let mut max_id = 0;
    for t in transitions {
        max_id = max_id.max(t.id());
        match t {
            Transition::Submitted { id, client, spec } => {
                jobs.insert(
                    *id,
                    RecoveredJob {
                        id: *id,
                        client: client.clone(),
                        spec: (**spec).clone(),
                        state: RecoveredState::Queued,
                    },
                );
            }
            Transition::Started { id } | Transition::Interrupted { id } => {
                if let Some(job) = jobs.get_mut(id) {
                    job.state = RecoveredState::Interrupted;
                }
            }
            Transition::Done { id } => {
                if let Some(job) = jobs.get_mut(id) {
                    job.state = RecoveredState::Done;
                }
            }
            Transition::Failed { id, error } => {
                if let Some(job) = jobs.get_mut(id) {
                    job.state = RecoveredState::Failed {
                        error: error.clone(),
                    };
                }
            }
            Transition::Cancelled { id } => {
                if let Some(job) = jobs.get_mut(id) {
                    job.state = RecoveredState::Cancelled;
                }
            }
            Transition::DeadlineExceeded { id, limit_ms } => {
                if let Some(job) = jobs.get_mut(id) {
                    job.state = RecoveredState::DeadlineExceeded {
                        limit_ms: *limit_ms,
                    };
                }
            }
        }
    }
    Recovery {
        jobs: jobs.into_values().collect(),
        max_id,
        torn_tail,
    }
}

/// The append handle: one fsync'd JSONL record per transition.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Open (creating if absent) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the file cannot be opened.
    pub fn open_append(path: &Path) -> crate::Result<Journal> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(ServeError::io(format!("creating {}", dir.display())))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(ServeError::io(format!(
                "opening journal {}",
                path.display()
            )))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Atomically replace the journal with the given transitions
    /// (boot-time compaction): write a temp file, sync it, rename it
    /// over the old log, sync the directory so the rename itself is
    /// durable, and return the fresh append handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::Job`] for write failures.
    pub fn rewrite(path: &Path, transitions: &[Transition]) -> crate::Result<Journal> {
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut file = File::create(&tmp)
                .map_err(ServeError::io(format!("creating {}", tmp.display())))?;
            for t in transitions {
                file.write_all(record(t)?.as_bytes())
                    .map_err(ServeError::io("writing compacted journal"))?;
            }
            file.sync_data()
                .map_err(ServeError::io("syncing compacted journal"))?;
        }
        std::fs::rename(&tmp, path)
            .map_err(ServeError::io(format!("renaming over {}", path.display())))?;
        let dir = path
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(ServeError::io(format!(
                "syncing directory {}",
                dir.display()
            )))?;
        Journal::open_append(path)
    }

    /// Append one transition and sync it to disk. Returns only after
    /// the record is durable — callers ack the client *after* this.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::Job`] when the record cannot
    /// be made durable; the caller must fail the state change.
    pub fn append(&mut self, transition: &Transition) -> crate::Result<()> {
        self.file
            .write_all(record(transition)?.as_bytes())
            .map_err(ServeError::io(format!(
                "appending to journal {}",
                self.path.display()
            )))?;
        self.file
            .sync_data()
            .map_err(ServeError::io("syncing journal append"))
    }
}

/// One journal record: the transition's JSON and its newline, in one
/// buffer so each record reaches the file in a single write.
fn record(transition: &Transition) -> crate::Result<String> {
    let mut line = serde_json::to_string(transition).map_err(|e| journal_err("serializing", e))?;
    line.push('\n');
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{JobKind, RunSpec};
    use sprint_sim::policy::PolicyKind;

    fn spec(seed: u64) -> JobSpec {
        JobSpec::new(JobKind::Run {
            spec: RunSpec {
                benchmark: "svm".into(),
                policy: PolicyKind::Greedy,
                agents: 5,
                epochs: 5,
                seed,
                jobs: None,
            },
        })
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sprint-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_replay_round_trips_and_folds() {
        let dir = tempdir("roundtrip");
        let path = dir.join("journal.jsonl");
        let mut journal = Journal::open_append(&path).unwrap();
        journal
            .append(&Transition::Submitted {
                id: 1,
                client: "anonymous".into(),
                spec: spec(1).into(),
            })
            .unwrap();
        journal.append(&Transition::Started { id: 1 }).unwrap();
        journal.append(&Transition::Done { id: 1 }).unwrap();
        journal
            .append(&Transition::Submitted {
                id: 2,
                client: "ci".into(),
                spec: spec(2).into(),
            })
            .unwrap();
        journal.append(&Transition::Started { id: 2 }).unwrap();
        journal
            .append(&Transition::Submitted {
                id: 3,
                client: "ci".into(),
                spec: spec(3).into(),
            })
            .unwrap();

        let (transitions, torn) = replay(&path).unwrap();
        assert_eq!(transitions.len(), 6);
        assert!(!torn);
        let recovery = recover(&transitions, torn);
        assert_eq!(recovery.max_id, 3);
        let states: Vec<_> = recovery.jobs.iter().map(|j| j.state.clone()).collect();
        assert_eq!(
            states,
            vec![
                RecoveredState::Done,
                RecoveredState::Interrupted,
                RecoveredState::Queued
            ]
        );
        assert_eq!(recovery.jobs[1].client, "ci");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_empty_journals_recover_to_nothing() {
        let dir = tempdir("empty");
        let missing = dir.join("nope.jsonl");
        let (transitions, torn) = replay(&missing).unwrap();
        assert!(transitions.is_empty() && !torn);
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let (transitions, torn) = replay(&empty).unwrap();
        assert!(transitions.is_empty() && !torn);
        assert_eq!(recover(&transitions, torn).jobs.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_dropped_but_mid_file_corruption_is_fatal() {
        let dir = tempdir("torn");
        let path = dir.join("journal.jsonl");
        let mut journal = Journal::open_append(&path).unwrap();
        journal
            .append(&Transition::Submitted {
                id: 1,
                client: "anonymous".into(),
                spec: spec(1).into(),
            })
            .unwrap();
        // Simulate a crash mid-append: a partial record with no newline.
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        raw.write_all(b"{\"Started\":{\"id").unwrap();
        drop(raw);
        let (transitions, torn) = replay(&path).unwrap();
        assert_eq!(transitions.len(), 1);
        assert!(torn, "the torn tail must be reported");
        assert_eq!(
            recover(&transitions, torn).jobs[0].state,
            RecoveredState::Queued
        );

        // The same garbage mid-file is corruption, not a torn tail.
        let good = serde_json::to_string(&Transition::Done { id: 1 }).unwrap();
        std::fs::write(&path, format!("{{\"Started\":{{\"id\n{good}\n")).unwrap();
        assert!(replay(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_compacts_atomically_and_stays_appendable() {
        let dir = tempdir("compact");
        let path = dir.join("journal.jsonl");
        let mut journal = Journal::open_append(&path).unwrap();
        for id in 1..=5 {
            journal
                .append(&Transition::Submitted {
                    id,
                    client: "anonymous".into(),
                    spec: spec(id).into(),
                })
                .unwrap();
            journal.append(&Transition::Started { id }).unwrap();
            journal.append(&Transition::Done { id }).unwrap();
        }
        drop(journal);
        let (transitions, torn) = replay(&path).unwrap();
        let recovery = recover(&transitions, torn);
        // Compact to submitted + terminal per job: 10 lines, not 15.
        let compacted: Vec<Transition> = recovery
            .jobs
            .iter()
            .flat_map(|j| {
                vec![
                    Transition::Submitted {
                        id: j.id,
                        client: j.client.clone(),
                        spec: j.spec.clone().into(),
                    },
                    Transition::Done { id: j.id },
                ]
            })
            .collect();
        let mut journal = Journal::rewrite(&path, &compacted).unwrap();
        journal
            .append(&Transition::Submitted {
                id: 6,
                client: "anonymous".into(),
                spec: spec(6).into(),
            })
            .unwrap();
        let (transitions, _) = replay(&path).unwrap();
        assert_eq!(transitions.len(), 11);
        let recovery = recover(&transitions, false);
        assert_eq!(recovery.jobs.len(), 6);
        assert_eq!(recovery.max_id, 6);
        assert!(!path.with_extension("jsonl.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_record_survives_rewrite_append_and_replay() {
        let dir = tempdir("records");
        let path = dir.join("journal.jsonl");
        let compacted = vec![
            Transition::Submitted {
                id: 1,
                client: "anonymous".into(),
                spec: spec(1).into(),
            },
            Transition::Done { id: 1 },
            Transition::Submitted {
                id: 2,
                client: "ci".into(),
                spec: spec(2).into(),
            },
            Transition::Failed {
                id: 2,
                error: "boom".into(),
            },
        ];
        let appended = vec![
            Transition::Submitted {
                id: 3,
                client: "ci".into(),
                spec: spec(3).into(),
            },
            Transition::Started { id: 3 },
            Transition::Cancelled { id: 3 },
            Transition::DeadlineExceeded {
                id: 4,
                limit_ms: 10,
            },
        ];
        let mut journal = Journal::rewrite(&path, &compacted).unwrap();
        for t in &appended {
            journal.append(t).unwrap();
        }
        drop(journal);
        let (transitions, torn) = replay(&path).unwrap();
        assert!(!torn);
        let expected: Vec<Transition> = compacted.into_iter().chain(appended).collect();
        assert_eq!(transitions, expected);
        // One record per line, each terminated by its newline.
        let raw = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<String> = expected
            .iter()
            .map(|t| serde_json::to_string(t).unwrap() + "\n")
            .collect();
        assert_eq!(raw, lines.concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transitions_serialize_self_describing() {
        let t = Transition::DeadlineExceeded {
            id: 7,
            limit_ms: 250,
        };
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.starts_with("{\"DeadlineExceeded\":"), "{json}");
        let back: Transition = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.id(), 7);
    }
}
