#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation and prints paper-vs-measured comparisons.
//!
//! Each experiment of DESIGN.md's index has a function in [`experiments`]
//! returning structured rows (so tests can assert the qualitative shape)
//! and a subcommand in the `repro` binary that renders them. The paper's
//! published numbers are embedded in [`paper`] for side-by-side output.

pub mod check;
pub mod experiments;
pub mod kernels;
pub mod modelcheck;
pub mod paper;
pub mod servebench;
pub mod table;
pub mod timeline;
pub mod tpsweep;
pub mod trainbench;

/// Reports an artifact export: prints `wrote <path>` for every file it
/// produced, or returns its error as a message naming `what` failed to
/// write, so `repro` can exit nonzero instead of losing the artifact.
///
/// # Errors
///
/// Returns `failed to write {what}: {error}` when `written` is an error.
pub fn report_written(
    what: &str,
    written: std::io::Result<Vec<std::path::PathBuf>>,
) -> Result<(), String> {
    let paths = written.map_err(|e| format!("failed to write {what}: {e}"))?;
    for p in paths {
        println!("wrote {}", p.display());
    }
    Ok(())
}

/// Writes one artifact document to `path` and reports it through
/// [`report_written`].
///
/// # Errors
///
/// Returns `failed to write {path}: {error}` when the write fails.
pub fn write_artifact(path: &str, doc: &str) -> Result<(), String> {
    report_written(path, std::fs::write(path, doc).map(|()| vec![path.into()]))
}

/// Serializes tests that cycle or measure the process-global tensor
/// buffer arena (`trainbench` toggles it, `servebench` reads its
/// counters) — one shared lock so they cannot interleave.
#[cfg(test)]
pub(crate) fn arena_test_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_write_under_a_missing_directory_is_an_error() {
        let dir = std::env::temp_dir().join(format!("vp-missing-{}", std::process::id()));
        let path = dir.join("absent").join("ARTIFACT.json");
        let path = path.to_str().expect("utf-8 temp path");
        let err = write_artifact(path, "{}").expect_err("parent directory does not exist");
        assert!(
            err.starts_with(&format!("failed to write {path}: ")),
            "{err}"
        );
        assert!(!std::path::Path::new(path).exists());
    }

    #[test]
    fn failed_exports_name_what_failed() {
        let failed = std::io::Error::new(std::io::ErrorKind::NotFound, "no such directory");
        assert_eq!(
            report_written("csv", Err(failed)),
            Err("failed to write csv: no such directory".to_string())
        );
        assert_eq!(report_written("csv", Ok(Vec::new())), Ok(()));
    }
}
