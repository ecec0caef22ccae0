//! Workspace invariant analyzer for the NTT-PIM reproduction.
//!
//! The lazy Shoup/Harvey datapath rests on a magnitude contract — residues
//! stay in `[0, B·q)` with `B ≤ 4` and `q < 2⁶²` — that the type system now
//! carries (`modmath::bound`'s `Lazy<B>`) and that this crate audits
//! lexically across the whole workspace: raw residue arithmetic must not
//! leak out of `modmath`, lazy legs must replay their bounds in debug
//! builds, and every SIMD-gated item needs a portable sibling. `unsafe`
//! code is the compiler's to reject: `[workspace.lints.rust]` forbids it in
//! every member. See `docs/ANALYSIS.md` for the catalogue.
//!
//! Run it as `cargo run -p analyzer -- --check`; the library entry point is
//! [`analyze_workspace`] (used by the self-check test) and
//! [`lints::analyze_file`] (used by the fixture tests).
//!
//! The crate is deliberately std-only: it must build in this offline
//! workspace and stay trivially auditable itself.

pub mod lex;
pub mod lints;
pub mod report;

use report::Report;
use std::path::{Path, PathBuf};

/// Directories never scanned: build output, VCS metadata, and the
/// analyzer's own deliberately-broken test fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Analyze every `.rs` file under `root` (a repo checkout) and aggregate
/// the findings into a [`Report`].
///
/// # Errors
///
/// Returns an error if the directory walk or a file read fails.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        let analysis = lints::analyze_file(&rel, &src);
        report.files_scanned += 1;
        report.suppressed += analysis.suppressed;
        report.findings.extend(analysis.findings);
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(report)
}

/// Recursively collect `.rs` files, skipping [`SKIP_DIRS`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
