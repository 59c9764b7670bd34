//! The repository lints clean under every rule, R6 included: the same
//! check as `pim-analyzer -- lint`, run by `cargo test`.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = pim_analyzer::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the analyzer crate sits inside the workspace");
    let diags = pim_analyzer::lint_workspace(&root).expect("workspace sources are readable");
    let shown: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(diags.is_empty(), "{}", shown.join("\n"));
}
