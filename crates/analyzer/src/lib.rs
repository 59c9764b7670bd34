//! `pim-analyzer`: correctness tooling for the PIM-CapsNet workspace.
//!
//! Two halves:
//!
//! 1. **Invariant linter** ([`rules`]) — a comment- and string-aware token
//!    scanner ([`scan`]) over every workspace crate, enforcing the rules
//!    R1–R6 against the declared [`manifest`]. Run as
//!    `pim-analyzer -- lint` (or as part of `check`).
//! 2. **Interleaving checker** ([`exhaust`]) — a miniature model checker
//!    that exhaustively enumerates schedules of shadow models mirroring
//!    the serve-tier concurrency protocols. Run as
//!    `pim-analyzer -- exhaust` (or as part of `check`).
//!
//! Both are dependency-free by construction: the workspace builds offline.

pub mod diag;
pub mod exhaust;
pub mod manifest;
pub mod rules;
pub mod scan;

use std::path::{Path, PathBuf};

use diag::Diagnostic;
use manifest::Manifest;
use rules::FileCtx;

/// Path of the protocol manifest, relative to the workspace root.
const MANIFEST_PATH: &str = "crates/analyzer/protocol.manifest";

/// Directories whose `.rs` files are read, with their crate and whether
/// they are library source (linted by R1–R5; under `crates/`, checked by
/// R6). All are searched for R6 uses; `crates/compat` has no `src/`.
fn source_roots(root: &Path) -> Vec<(String, PathBuf, bool)> {
    let mut roots = Vec::new();
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let krate = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        for (sub, library) in [("src", true), ("tests", false), ("benches", false)] {
            roots.push((krate.clone(), dir.join(sub), library));
        }
    }
    roots.push(("suite".to_string(), root.join("src"), true));
    for dir in ["tests", "examples", "benchmark/src"] {
        roots.push(("suite".to_string(), root.join(dir), false));
    }
    roots
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            // The analyzer's lint fixtures contain violations on purpose.
            if p.file_name().and_then(|n| n.to_str()) == Some("fixtures") {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

/// Workspace-relative, forward-slash form of `path`.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Loads the protocol manifest from the workspace root.
fn load_manifest(root: &Path) -> Result<Manifest, String> {
    let path = root.join(MANIFEST_PATH);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Manifest::parse(&text).map_err(|(line, msg)| format!("{MANIFEST_PATH}:{line}: {msg}"))
}

/// Lints every library source file (R1–R5), then every file read (R6).
/// Returns the sorted diagnostic list (empty ⇒ clean).
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let manifest = load_manifest(root)?;
    let mut diags = Vec::new();
    let mut sources = Vec::new();
    for (krate, dir, library) in source_roots(root) {
        let mut files = Vec::new();
        collect_rs(&dir, &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let scanned = scan::scan(&text);
            let path = rel(root, &file);
            if library {
                diags.extend(rules::lint_file(
                    &FileCtx {
                        path: &path,
                        krate: &krate,
                        scanned: &scanned,
                    },
                    &manifest,
                ));
            }
            sources.push(rules::Source {
                path,
                scanned,
                declares: library && krate != "suite",
            });
        }
    }
    diags.extend(rules::dead_surface(&sources));
    diag::sort(&mut diags);
    Ok(diags)
}

/// Locates the workspace root: walks up from `start` until a directory
/// containing `crates/analyzer` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("crates/analyzer").is_dir() {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}
