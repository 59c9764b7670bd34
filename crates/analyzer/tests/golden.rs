//! Golden-diagnostic tests: the fixture files under `fixtures/` carry
//! known violations; the linter must report exactly these `(rule, line)`
//! pairs — no more, no fewer. Fixture paths are remapped onto synthetic
//! workspace paths so crate gating (R2) and manifest suffix matching
//! (R4/R5) behave as they do in a real run; R6 runs over four files, one
//! a test file and one an example, and `RM` checks a fixture manifest
//! against two of the fixtures.

use pim_analyzer::diag::{Diagnostic, Rule};
use pim_analyzer::exhaust::{self, models, Options};
use pim_analyzer::manifest::Manifest;
use pim_analyzer::rules::{dead_surface, lint_file, stale_manifest, FileCtx, Role, Source};
use pim_analyzer::scan::scan;

/// The manifest the fixtures are linted against — a miniature of the real
/// `protocol.manifest` with one entry per rule family.
const FIXTURE_MANIFEST: &str = "\
atomic serve state require-order
lock scheduler 0 shared.state
lock mailbox 2 queue
det-file serve/src/det_twin.rs
";

fn read_fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn lint_fixture(name: &str, synthetic_path: &str, krate: &str) -> Vec<Diagnostic> {
    let scanned = scan(&read_fixture(name));
    let manifest = Manifest::parse(FIXTURE_MANIFEST).expect("fixture manifest parses");
    let ctx = FileCtx {
        path: synthetic_path,
        krate,
        scanned: &scanned,
    };
    let mut diags = lint_file(&ctx, &manifest);
    pim_analyzer::diag::sort(&mut diags);
    diags
}

fn pairs(diags: &[Diagnostic]) -> Vec<(Rule, u32)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn violations_fixture_reports_every_rule_at_golden_lines() {
    let diags = lint_fixture("violations.rs", "crates/serve/src/violations.rs", "serve");
    assert_eq!(
        pairs(&diags),
        vec![
            (Rule::R1Safety, 5),
            (Rule::R2Panic, 9),
            (Rule::R2Panic, 13),
            (Rule::R3Ordering, 18),
            (Rule::R4LockOrder, 24),
        ],
        "unexpected diagnostic set: {diags:#?}"
    );
    // Messages carry the full file:line anchor for editor jumping.
    assert_eq!(
        diags[0].to_string(),
        format!("R1: crates/serve/src/violations.rs:5: {}", diags[0].message)
    );
    // The inversion names both classes and the held acquisition line.
    let inversion = &diags[4];
    assert!(
        inversion.message.contains("mailbox") && inversion.message.contains("scheduler"),
        "inversion message should name both lock classes: {inversion}"
    );
}

#[test]
fn clean_fixture_is_silent() {
    let diags = lint_fixture("clean.rs", "crates/serve/src/clean.rs", "serve");
    assert!(
        diags.is_empty(),
        "clean fixture must lint clean: {diags:#?}"
    );
}

#[test]
fn outside_r2_crates_unwrap_is_not_flagged() {
    // The same violations file linted as a crate outside the R2 set:
    // unwrap/panic sites are out of scope, the rest still fire.
    let diags = lint_fixture(
        "violations.rs",
        "crates/workloads/src/violations.rs",
        "workloads",
    );
    let rules: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
    assert!(!rules.contains(&Rule::R2Panic), "{diags:#?}");
    assert!(rules.contains(&Rule::R1Safety));
}

#[test]
fn malformed_allows_are_diagnostics_and_do_not_suppress() {
    let diags = lint_fixture("bad_allow.rs", "crates/serve/src/bad_allow.rs", "serve");
    assert_eq!(
        pairs(&diags),
        vec![
            (Rule::RAllow, 5),
            (Rule::R2Panic, 6),
            (Rule::RAllow, 10),
            (Rule::R2Panic, 11),
        ],
        "{diags:#?}"
    );
}

#[test]
fn det_twin_fixture_flags_wall_clock() {
    let diags = lint_fixture("det_twin.rs", "crates/serve/src/det_twin.rs", "serve");
    assert_eq!(pairs(&diags), vec![(Rule::R5Determinism, 4)], "{diags:#?}");
    // The same file outside the declared det suffix is fine.
    let diags = lint_fixture("det_twin.rs", "crates/serve/src/other.rs", "serve");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn dead_surface_fixture_pair_reports_at_golden_lines() {
    // Used by production code in another file (library source or an
    // example): silent. Used only in its own file, named elsewhere only
    // by a `pub use`, by a test file or inside `#[cfg(test)]` / `#[test]`
    // items: reported. A reasoned allow suppresses; a bare one suppresses
    // nothing and is itself `RA`.
    let sources: Vec<Source> = [
        ("r6_decl.rs", "crates/serve/src/r6_decl.rs", Role::Library),
        ("r6_user.rs", "crates/serve/src/r6_user.rs", Role::Library),
        ("r6_test.rs", "crates/serve/tests/r6_test.rs", Role::Test),
        ("r6_example.rs", "examples/r6_example.rs", Role::User),
    ]
    .into_iter()
    .map(|(name, path, role)| Source {
        path: path.to_string(),
        scanned: scan(&read_fixture(name)),
        role,
    })
    .collect();
    let mut diags = dead_surface(&sources);
    diags.extend(lint_fixture(
        "r6_decl.rs",
        "crates/serve/src/r6_decl.rs",
        "serve",
    ));
    pim_analyzer::diag::sort(&mut diags);
    assert_eq!(
        pairs(&diags),
        vec![
            (Rule::R6DeadSurface, 8),
            (Rule::R6DeadSurface, 12),
            (Rule::RAllow, 17),
            (Rule::R6DeadSurface, 18),
            (Rule::R6DeadSurface, 29),
            (Rule::R6DeadSurface, 31),
        ],
        "{diags:#?}"
    );
    assert!(diags[0].message.contains("`pub fn used_only_here`"));
    assert!(diags[1].message.contains("`pub const REEXPORTED_ONLY`"));
    assert!(diags[4]
        .message
        .contains("`pub fn named_only_by_a_test_file`"));
    assert!(diags[5].message.contains("`pub fn named_only_in_cfg_test`"));
}

#[test]
fn stale_manifest_entries_report_at_golden_lines() {
    // Each kind of entry that names code, once live and once stale: an
    // atomic no file of its crate names, a lockfn whose file is gone, a
    // lockfn whose helper is gone, a det-file that does not exist and a
    // det-fn whose file defines no such `fn`.
    let sources: Vec<Source> = ["violations.rs", "det_twin.rs"]
        .into_iter()
        .map(|name| Source {
            path: format!("crates/serve/src/{name}"),
            scanned: scan(&read_fixture(name)),
            role: Role::Library,
        })
        .collect();
    let manifest = Manifest::parse(&read_fixture("stale.manifest")).expect("fixture parses");
    let mut diags = stale_manifest(&manifest, "stale.manifest", &sources);
    pim_analyzer::diag::sort(&mut diags);
    assert_eq!(
        pairs(&diags),
        vec![
            (Rule::RManifest, 5),
            (Rule::RManifest, 8),
            (Rule::RManifest, 9),
            (Rule::RManifest, 11),
            (Rule::RManifest, 13),
        ],
        "{diags:#?}"
    );
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(messages[0].contains("atomic `words`"), "{}", messages[0]);
    assert!(messages[1].contains("no file ends with `serve/src/mailbox.rs`"));
    assert!(messages[2].contains("never calls `self.lock_queue`"));
    assert!(messages[3].contains("no file ends with `serve/src/gone_twin.rs`"));
    assert!(messages[4].contains("defines `fn step_later`"));
    assert_eq!(
        diags[0].to_string(),
        format!("RM: stale.manifest:5: {}", messages[0])
    );
}

#[test]
fn malformed_manifests_fail_at_golden_lines() {
    // An audited atomic without a justification, and a lockfn whose class
    // (a typo) names no lock: either would silently check nothing.
    let parse = |name: &str| Manifest::parse(&read_fixture(name)).expect_err(name);
    let (line, message) = parse("empty_reason.manifest");
    assert_eq!(line, 5, "{message}");
    assert!(
        message.contains("`relaxed-ok:` needs a justification"),
        "{message}"
    );
    let (line, message) = parse("unknown_class.manifest");
    assert_eq!(line, 6, "{message}");
    assert!(
        message.contains("lockfn class `shrad` names no `lock` entry"),
        "{message}"
    );
}

#[test]
fn broken_models_replay_deterministically() {
    // End-to-end seeded-replay contract: a Broken model's counterexample,
    // replayed from its recorded choices, reproduces the identical op
    // trace — twice.
    fn assert_replays<S: Send + Sync + 'static>(model: &exhaust::Model<S>) {
        let outcome = exhaust::explore(model, Options::default());
        let cex = outcome
            .failure
            .unwrap_or_else(|| panic!("{}: broken variant must fail", model.name));
        let once = exhaust::replay(model, &cex.choices);
        let twice = exhaust::replay(model, &cex.choices);
        assert_eq!(
            once, cex.ops,
            "{}: replay must match recorded ops",
            model.name
        );
        assert_eq!(once, twice, "{}: replay must be deterministic", model.name);
    }
    assert_replays(&models::mailbox(models::Variant::Broken));
    assert_replays(&models::reserve(models::Variant::Broken));
}

#[test]
fn seeded_sampling_is_reproducible_across_processes() {
    // `sample` derives every scheduling decision from the seed alone, so
    // equal seeds mean equal exploration — the property that makes a CI
    // failure reproducible from its printed seed.
    let model = models::reserve(models::Variant::Broken);
    let a = exhaust::sample(&model, 0xBEEF, 200, Options::default());
    let b = exhaust::sample(&model, 0xBEEF, 200, Options::default());
    assert_eq!(a.executions, b.executions);
    assert_eq!(
        a.failure.as_ref().map(|c| &c.trace),
        b.failure.as_ref().map(|c| &c.trace)
    );
}
