//! The rule engine: walks a scanned token stream once, tracking brace
//! depth, `#[cfg(test)]` regions, function extents, attribute lines, held
//! lock guards, and paren/call nesting — then applies rules R1–R5; R6 is
//! one pass over the whole workspace ([`dead_surface`]), and so is `RM`
//! ([`stale_manifest`]), which reports manifest entries that name nothing.
//!
//! | rule | invariant |
//! |------|-----------|
//! | R1   | every `unsafe` is preceded by a `SAFETY:` / `# Safety` comment |
//! | R2   | no `unwrap()` / `expect()` / `panic!` / `todo!` in non-test library code of the serve-tier crates |
//! | R3   | `Ordering::Relaxed` on a protocol-manifest atomic needs an audited justification |
//! | R4   | nested lock acquisitions follow the declared partial order |
//! | R5   | no wall clock inside the deterministic workload twins |
//! | R6   | a `pub` fn / const / static outside test code has a production caller in some other file |
//! | RM   | every protocol-manifest entry names code still in the tree |
//!
//! Site-level escape hatch: `// LINT-ALLOW(R2): reason` on the flagged
//! line or the line above suppresses that rule there. The reason is
//! mandatory; an allow without one (or naming no known rule) is itself a
//! diagnostic (`RA`).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::diag::{Diagnostic, Rule};
use crate::manifest::{AtomicPolicy, Manifest};
use crate::scan::{Scanned, Tok, TokKind};

/// Crates whose non-test library code falls under R2.
const R2_CRATES: &[&str] = &["serve", "cache", "store", "tensor"];

/// Atomic RMW / load / store method names whose ordering arguments R3
/// inspects.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "fetch_nand",
    "compare_exchange",
    "compare_exchange_weak",
];

/// One parsed `LINT-ALLOW` site.
#[derive(Debug)]
struct Allow {
    rules: Vec<Rule>,
    has_reason: bool,
    used: bool,
}

/// Per-file inputs to the rule walk.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Crate directory name (`serve`, `cache`, …; `suite` for root src).
    pub krate: &'a str,
    pub scanned: &'a Scanned,
}

/// A currently-held lock guard (R4).
#[derive(Debug)]
struct Held {
    class: String,
    rank: u32,
    line: u32,
    /// Brace depth at acquisition.
    depth: i32,
    /// `let`-bound guard variable name; `None` for a temporary released at
    /// the end of its statement.
    bound: Option<String>,
}

/// A call frame on the paren stack (R3 receiver resolution).
#[derive(Debug)]
struct CallFrame {
    method: Option<String>,
    chain: Vec<String>,
}

/// Lints one scanned file.
pub fn lint_file(ctx: &FileCtx<'_>, manifest: &Manifest) -> Vec<Diagnostic> {
    let toks = &ctx.scanned.tokens;
    let mut diags: Vec<Diagnostic> = Vec::new();

    // ── LINT-ALLOW sites ────────────────────────────────────────────────
    let mut allows: BTreeMap<u32, Allow> = BTreeMap::new();
    for (&line, text) in &ctx.scanned.comments {
        let Some(pos) = text.find("LINT-ALLOW(") else {
            continue;
        };
        let rest = &text[pos + "LINT-ALLOW(".len()..];
        let Some(close) = rest.find(')') else {
            diags.push(Diagnostic::new(
                Rule::RAllow,
                ctx.path,
                line,
                "malformed LINT-ALLOW: missing `)`",
            ));
            continue;
        };
        let rules: Vec<Option<Rule>> = rest[..close]
            .split(',')
            .map(|c| Rule::from_code(c.trim()))
            .collect();
        let reason = rest[close + 1..].trim_start_matches(':').trim();
        if rules.iter().any(Option::is_none) || rules.is_empty() {
            diags.push(Diagnostic::new(
                Rule::RAllow,
                ctx.path,
                line,
                format!("LINT-ALLOW names an unknown rule in `({})`", &rest[..close]),
            ));
            continue;
        }
        let has_reason = !reason.is_empty();
        if !has_reason {
            diags.push(Diagnostic::new(
                Rule::RAllow,
                ctx.path,
                line,
                "LINT-ALLOW without a reason: every allowlist entry must justify itself",
            ));
        }
        allows.insert(
            line,
            Allow {
                rules: rules.into_iter().flatten().collect(),
                has_reason,
                used: false,
            },
        );
    }
    let mut allowed = |allows: &mut BTreeMap<u32, Allow>, rule: Rule, line: u32| -> bool {
        for l in [line, line.saturating_sub(1)] {
            if let Some(a) = allows.get_mut(&l) {
                if a.has_reason && a.rules.contains(&rule) {
                    a.used = true;
                    return true;
                }
            }
        }
        false
    };

    // ── the walk ────────────────────────────────────────────────────────
    let mut depth: i32 = 0;
    // Depths at which #[cfg(test)] / #[test] regions opened.
    let mut test_regions: Vec<i32> = Vec::new();
    let mut pending_test_attr = false;
    let mut pending_test_attr_depth: i32 = 0;
    // Lines fully occupied by attributes (R1 look-back skips them).
    let mut attr_lines: BTreeSet<u32> = BTreeSet::new();
    // Function stack: (name, depth at open).
    let mut fn_stack: Vec<(String, i32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    // Held lock guards (R4).
    let mut held: Vec<Held> = Vec::new();
    // Name bound by `let` in the current statement, if any.
    let mut stmt_let: Option<String> = None;
    let mut saw_let_this_stmt = false;
    // Call/paren stack (R3).
    let mut calls: Vec<CallFrame> = Vec::new();
    // R1 dedup.
    let mut r1_lines: BTreeSet<u32> = BTreeSet::new();

    let det_file = manifest.is_det_file(ctx.path);
    let det_fns = manifest.det_fns_for(ctx.path);
    let r2_applies = R2_CRATES.contains(&ctx.krate);

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let in_test = !test_regions.is_empty();

        match &t.kind {
            TokKind::Punct('#') if matches!(toks.get(i + 1), Some(n) if n.is_punct('[')) => {
                // Attribute: scan to the matching `]`, note whether it is a
                // test gate, and record its lines.
                let mut j = i + 1;
                let mut bracket = 0i32;
                let mut is_test = false;
                while j < toks.len() {
                    let a = &toks[j];
                    attr_lines.insert(a.line);
                    match &a.kind {
                        TokKind::Punct('[') => bracket += 1,
                        TokKind::Punct(']') => {
                            bracket -= 1;
                            if bracket == 0 {
                                break;
                            }
                        }
                        TokKind::Ident(s) if s == "test" => is_test = true,
                        _ => {}
                    }
                    j += 1;
                }
                attr_lines.insert(t.line);
                if is_test {
                    pending_test_attr = true;
                    pending_test_attr_depth = depth;
                }
                i = j + 1;
                continue;
            }
            TokKind::Punct('{') => {
                depth += 1;
                if pending_test_attr {
                    test_regions.push(depth);
                    pending_test_attr = false;
                }
                if let Some(name) = pending_fn.take() {
                    fn_stack.push((name, depth));
                }
                stmt_let = None;
                saw_let_this_stmt = false;
            }
            TokKind::Punct('}') => {
                // Guards whose enclosing block closes here are released.
                held.retain(|h| h.depth < depth);
                if test_regions.last() == Some(&depth) {
                    test_regions.pop();
                }
                if fn_stack.last().map(|(_, d)| *d) == Some(depth) {
                    fn_stack.pop();
                }
                depth -= 1;
                stmt_let = None;
                saw_let_this_stmt = false;
            }
            TokKind::Punct(';') => {
                if pending_test_attr && depth == pending_test_attr_depth {
                    // `#[cfg(test)] mod tests;` — no body here.
                    pending_test_attr = false;
                }
                pending_fn = None;
                // Temporary (unbound) guards die at their statement's end.
                held.retain(|h| !(h.bound.is_none() && h.depth == depth));
                stmt_let = None;
                saw_let_this_stmt = false;
            }
            TokKind::Punct('(') => {
                let (method, chain) = callee_of(toks, i);
                calls.push(CallFrame { method, chain });
            }
            TokKind::Punct(')') => {
                calls.pop();
            }
            TokKind::Ident(s) => match s.as_str() {
                "let" => {
                    saw_let_this_stmt = true;
                    // `let [mut] name = …`
                    let mut j = i + 1;
                    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    stmt_let = toks.get(j).and_then(|t| t.ident()).map(str::to_string);
                }
                "fn" => {
                    if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                        pending_fn = Some(name.to_string());
                    }
                }
                "unsafe" if !in_test => {
                    if r1_lines.insert(t.line)
                        && !has_safety_comment(ctx.scanned, &attr_lines, t.line)
                        && !allowed(&mut allows, Rule::R1Safety, t.line)
                    {
                        let what = match toks.get(i + 1).and_then(|t| t.ident()) {
                            Some("fn") => "unsafe fn",
                            Some("impl") => "unsafe impl",
                            _ => "unsafe block",
                        };
                        diags.push(Diagnostic::new(
                            Rule::R1Safety,
                            ctx.path,
                            t.line,
                            format!(
                                "{what} without a preceding `SAFETY:` (or doc `# Safety`) comment{}",
                                in_fn(&fn_stack)
                            ),
                        ));
                    }
                }
                "unwrap" | "expect"
                    if r2_applies
                        && !in_test
                        && i > 0
                        && toks[i - 1].is_punct('.')
                        && matches!(toks.get(i + 1), Some(n) if n.is_punct('(')) =>
                {
                    if !allowed(&mut allows, Rule::R2Panic, t.line) {
                        diags.push(Diagnostic::new(
                            Rule::R2Panic,
                            ctx.path,
                            t.line,
                            format!(
                                "`.{s}()` in non-test library code{} — return a typed error or LINT-ALLOW(R2) with a reason",
                                in_fn(&fn_stack)
                            ),
                        ));
                    }
                }
                "panic" | "todo"
                    if r2_applies
                        && !in_test
                        && matches!(toks.get(i + 1), Some(n) if n.is_punct('!'))
                        && !(i > 0 && toks[i - 1].is_punct(':')) =>
                {
                    if !allowed(&mut allows, Rule::R2Panic, t.line) {
                        diags.push(Diagnostic::new(
                            Rule::R2Panic,
                            ctx.path,
                            t.line,
                            format!(
                                "`{s}!` in non-test library code{} — return a typed error or LINT-ALLOW(R2) with a reason",
                                in_fn(&fn_stack)
                            ),
                        ));
                    }
                }
                "Relaxed"
                    if i >= 3
                        && toks[i - 1].is_punct(':')
                        && toks[i - 2].is_punct(':')
                        && toks[i - 3].is_ident("Ordering")
                        && !in_test =>
                {
                    if let Some(atomic) = enclosing_atomic(&calls) {
                        let key = (ctx.krate.to_string(), atomic.clone());
                        if let Some((_, AtomicPolicy::RequireOrder)) = manifest.atomics.get(&key) {
                            if !allowed(&mut allows, Rule::R3Ordering, t.line) {
                                diags.push(Diagnostic::new(
                                    Rule::R3Ordering,
                                    ctx.path,
                                    t.line,
                                    format!(
                                        "`Ordering::Relaxed` on protocol atomic `{atomic}`{} — upgrade the ordering or audit it in the manifest",
                                        in_fn(&fn_stack)
                                    ),
                                ));
                            }
                        }
                    }
                }
                "lock" | "Instant" | "SystemTime" => {
                    // R4: `.lock()` acquisitions — classified by receiver
                    // chain, falling back to lockfn entries (covers
                    // guard-returning helpers that are themselves named
                    // `lock`, like the mailbox's `self.lock()`).
                    if s == "lock"
                        && i > 0
                        && toks[i - 1].is_punct('.')
                        && matches!(toks.get(i + 1), Some(n) if n.is_punct('('))
                        && !in_test
                    {
                        let chain = receiver_chain(toks, i - 1);
                        let classified = manifest
                            .classify_chain(&chain)
                            .map(|(c, r)| (c.to_string(), r, false))
                            .or_else(|| {
                                let inclusive = receiver_chain_inclusive(toks, i);
                                manifest
                                    .classify_lock_fn(ctx.path, &inclusive)
                                    .map(|(c, r, t)| (c.to_string(), r, t))
                            });
                        if let Some((class, rank, transient)) = classified {
                            let bound = if saw_let_this_stmt && guard_reaches_binding(toks, i + 1) {
                                stmt_let.clone()
                            } else {
                                None
                            };
                            acquire(
                                &mut held,
                                &mut diags,
                                ctx,
                                &mut allows,
                                &mut allowed,
                                &class,
                                rank,
                                transient,
                                t.line,
                                depth,
                                bound,
                                &fn_stack,
                            );
                        }
                    }
                    // R5: wall clock in deterministic twins.
                    if (s == "Instant" || s == "SystemTime") && !in_test {
                        let is_now_call = s == "SystemTime"
                            || (toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                                && toks.get(i + 3).is_some_and(|t| t.is_ident("now")));
                        let in_det_fn = fn_stack
                            .iter()
                            .any(|(name, _)| det_fns.contains(&name.as_str()));
                        if is_now_call
                            && (det_file || in_det_fn)
                            && !allowed(&mut allows, Rule::R5Determinism, t.line)
                        {
                            diags.push(Diagnostic::new(
                                Rule::R5Determinism,
                                ctx.path,
                                t.line,
                                format!(
                                    "wall clock (`{s}`) inside a deterministic twin{} — thread simulated time through instead",
                                    in_fn(&fn_stack)
                                ),
                            ));
                        }
                    }
                }
                "drop" => {
                    // `drop(guard)` releases a bound guard early.
                    if matches!(toks.get(i + 1), Some(n) if n.is_punct('('))
                        && matches!(toks.get(i + 3), Some(n) if n.is_punct(')'))
                    {
                        if let Some(name) = toks.get(i + 2).and_then(|t| t.ident()) {
                            if let Some(pos) =
                                held.iter().rposition(|h| h.bound.as_deref() == Some(name))
                            {
                                held.remove(pos);
                            }
                        }
                    }
                }
                _ => {
                    // R4: guard-returning helper calls (`lock_shard(...)`).
                    // `fn lock_shard(` is the definition, not a call.
                    if !in_test
                        && matches!(toks.get(i + 1), Some(n) if n.is_punct('('))
                        && !(i > 0 && toks[i - 1].is_ident("fn"))
                    {
                        let chain = receiver_chain_inclusive(toks, i);
                        if let Some((class, rank, transient)) =
                            manifest.classify_lock_fn(ctx.path, &chain)
                        {
                            let class = class.to_string();
                            let bound = if saw_let_this_stmt && guard_reaches_binding(toks, i + 1) {
                                stmt_let.clone()
                            } else {
                                None
                            };
                            acquire(
                                &mut held,
                                &mut diags,
                                ctx,
                                &mut allows,
                                &mut allowed,
                                &class,
                                rank,
                                transient,
                                t.line,
                                depth,
                                bound,
                                &fn_stack,
                            );
                        }
                    }
                }
            },
            _ => {}
        }
        i += 1;
    }

    diags
}

/// One scanned file as R6 sees it. `RM` reads every file whatever its
/// role.
pub struct Source {
    pub path: String,
    pub scanned: Scanned,
    pub role: Role,
}

/// What a file is to R6: production code outside test items names users,
/// and the `pub` items of library source are checked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// `crates/*/src` and the facade's `src/`: declares the checked
    /// items, and uses.
    Library,
    /// `examples/`, `crates/*/examples`, `benchmark/src`: uses only.
    User,
    /// `crates/*/{tests,benches}`, the root `tests/`: not a user.
    Test,
}

/// R6: every `pub` / `pub(crate)` / `pub(super)` fn, const or static
/// outside test code in library source is named by production code in
/// some other file. Names in tests, in `#[cfg(test)]` / `#[test]` items,
/// in comments, strings and `use` items do not count (a re-export alone
/// keeps nothing alive), save a renamed import (`NAME as ALIAS`).
pub fn dead_surface(files: &[Source]) -> Vec<Diagnostic> {
    let mut users: HashMap<&str, BTreeSet<usize>> = HashMap::new();
    for (f, file) in files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.role != Role::Test)
    {
        let toks = &file.scanned.tokens;
        let mut in_use = false;
        let mut i = 0usize;
        while i < toks.len() {
            if let Some(end) = past_test_item(toks, i) {
                i = end;
                continue;
            }
            let t = &toks[i];
            in_use = (in_use || t.is_ident("use")) && !t.is_punct(';');
            let renamed = toks.get(i + 1).is_some_and(|n| n.is_ident("as"));
            if let Some(name) = t.ident().filter(|_| !in_use || renamed) {
                users.entry(name).or_default().insert(f);
            }
            i += 1;
        }
    }
    let mut diags = Vec::new();
    for (f, file) in files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.role == Role::Library)
    {
        for (line, kind, name) in pub_items(&file.scanned.tokens) {
            let elsewhere = users.get(name).is_some_and(|s| s.iter().any(|&g| g != f));
            if !elsewhere && !allows_r6(&file.scanned, line) {
                let msg = format!("`pub {kind} {name}` has no production caller in another file — drop `pub`, delete it, or LINT-ALLOW(R6) with a reason");
                diags.push(Diagnostic::new(Rule::R6DeadSurface, &file.path, line, msg));
            }
        }
    }
    diags
}

/// When `toks[hash]` opens an attribute that names `test` (`#[cfg(test)]`,
/// `#[test]`), the index just past the item it gates: through its `;` or
/// its `{ … }` body.
fn past_test_item(toks: &[Tok], hash: usize) -> Option<usize> {
    let open = hash + 1;
    if !(toks[hash].is_punct('#') && toks.get(open).is_some_and(|t| t.is_punct('['))) {
        return None;
    }
    let i = match_group(toks, open);
    if !toks[open..i].iter().any(|t| t.is_ident("test")) {
        return None;
    }
    let end = toks[i..]
        .iter()
        .position(|t| t.is_punct(';') || t.is_punct('{'))
        .map_or(toks.len(), |k| i + k);
    Some(match toks.get(end) {
        Some(t) if t.is_punct('{') => match_group(toks, end),
        _ => end + 1,
    })
}

/// `(line, kind, name)` of every `pub` fn / const / static outside the
/// items gated by a `#[cfg(test)]` / `#[test]` attribute.
fn pub_items(toks: &[Tok]) -> Vec<(u32, &str, &str)> {
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(end) = past_test_item(toks, i) {
            i = end;
            continue;
        }
        let t = &toks[i];
        i += 1;
        if t.is_punct('#') && toks.get(i).is_some_and(|t| t.is_punct('[')) {
            i = match_group(toks, i);
        } else if t.is_ident("pub") {
            if toks.get(i).is_some_and(|t| t.is_punct('(')) {
                i = match_group(toks, i);
            }
            // `[const|unsafe|async|extern "C"]* (fn|const|static [mut]) NAME`:
            // the kind is the last of those keywords, the name the last word.
            let (mut kind, mut name) = (None, None);
            while let Some(w) = toks
                .get(i)
                .filter(|t| t.kind == TokKind::Literal || t.ident().is_some())
            {
                match w.ident() {
                    Some(k @ ("fn" | "const" | "static")) => kind = Some(k),
                    Some(word) => name = Some((w.line, word)),
                    None => {}
                }
                i += 1;
            }
            if let (Some(kind), Some((line, name))) = (kind, name.filter(|(_, n)| *n != "_")) {
                items.push((line, kind, name));
            }
        }
    }
    items
}

/// A `LINT-ALLOW(R6): reason` on `line` or the line above it. A
/// reason-less allow suppresses nothing ([`lint_file`] reports it as `RA`).
fn allows_r6(scanned: &Scanned, line: u32) -> bool {
    let allows = |text: &str| {
        let (codes, reason) = text.split_once("LINT-ALLOW(")?.1.split_once(')')?;
        let reason = reason.trim_start_matches(':').trim();
        Some(codes.split(',').any(|c| c.trim() == "R6") && !reason.is_empty())
    };
    [line, line.saturating_sub(1)]
        .into_iter()
        .any(|l| scanned.comment_on(l).and_then(allows) == Some(true))
}

/// `RM`: every entry of `manifest` (read from `path`) that names code
/// still names something in `files`. An `atomic <crate> <ident>` needs a
/// file under `crates/<crate>/src/` that names `<ident>`; a `lockfn` a file
/// ending in its suffix that spells its helper's call chain; a `det-file`
/// an existing file; a `det-fn` a file ending in its suffix that defines
/// `fn <name>`. A stale entry is reported at its manifest line: it checks
/// nothing while it reads as a declared discipline.
pub fn stale_manifest(manifest: &Manifest, path: &str, files: &[Source]) -> Vec<Diagnostic> {
    let ending = |suffix: &str| -> Vec<&[Tok]> {
        let found = files.iter().filter(|f| f.path.ends_with(suffix));
        found.map(|f| f.scanned.tokens.as_slice()).collect()
    };
    let mut stale: Vec<(u32, String)> = Vec::new();
    for ((krate, ident), (line, _)) in &manifest.atomics {
        let dir = format!("crates/{krate}/src/");
        let mut toks = files.iter().filter(|f| f.path.starts_with(&dir));
        if !toks.any(|f| f.scanned.tokens.iter().any(|t| t.is_ident(ident))) {
            stale.push((
                *line,
                format!("atomic `{ident}`: no file under {dir} names it"),
            ));
        }
    }
    for lf in &manifest.lock_fns {
        let (suffix, chain) = (&lf.file_suffix, &lf.chain);
        let found = ending(suffix);
        if found.is_empty() {
            stale.push((lf.line, format!("lockfn: no file ends with `{suffix}`")));
        } else if !found.iter().any(|toks| spells_chain(toks, chain)) {
            let chain = chain.join(".");
            stale.push((lf.line, format!("lockfn: `{suffix}` never calls `{chain}`")));
        }
    }
    for (line, suffix) in &manifest.det_files {
        if ending(suffix).is_empty() {
            stale.push((*line, format!("det-file: no file ends with `{suffix}`")));
        }
    }
    for (line, suffix, name) in &manifest.det_fns {
        let defines = |toks: &&[Tok]| {
            toks.windows(2)
                .any(|w| w[0].is_ident("fn") && w[1].is_ident(name))
        };
        if !ending(suffix).iter().any(defines) {
            stale.push((
                *line,
                format!("det-fn: no file ending with `{suffix}` defines `fn {name}`"),
            ));
        }
    }
    let names_nothing = |(line, why): (u32, String)| {
        let msg = format!("{why} — the entry checks nothing: update or delete it");
        Diagnostic::new(Rule::RManifest, path, line, msg)
    };
    stale.into_iter().map(names_nothing).collect()
}

/// `true` when the identifiers of `chain` occur in `toks` in a row, joined
/// by `.` (`models.current` in `self.models.current(..)`).
fn spells_chain(toks: &[Tok], chain: &[String]) -> bool {
    (0..toks.len()).any(|i| {
        chain.iter().enumerate().all(|(k, word)| {
            toks.get(i + 2 * k).is_some_and(|t| t.is_ident(word))
                && (k == 0 || toks[i + 2 * k - 1].is_punct('.'))
        })
    })
}

/// `" (in fn …)"` context suffix.
fn in_fn(fn_stack: &[(String, i32)]) -> String {
    match fn_stack.last() {
        Some((name, _)) => format!(" (in `fn {name}`)"),
        None => String::new(),
    }
}

/// Registers a lock acquisition, emitting an R4 diagnostic when a held
/// lock outranks (or ties) the new one. Transient acquisitions are
/// order-checked but never enter the held set.
#[allow(clippy::too_many_arguments)]
fn acquire(
    held: &mut Vec<Held>,
    diags: &mut Vec<Diagnostic>,
    ctx: &FileCtx<'_>,
    allows: &mut BTreeMap<u32, Allow>,
    allowed: &mut impl FnMut(&mut BTreeMap<u32, Allow>, Rule, u32) -> bool,
    class: &str,
    rank: u32,
    transient: bool,
    line: u32,
    depth: i32,
    bound: Option<String>,
    fn_stack: &[(String, i32)],
) {
    for h in held.iter() {
        if h.rank >= rank && !allowed(allows, Rule::R4LockOrder, line) {
            diags.push(Diagnostic::new(
                Rule::R4LockOrder,
                ctx.path,
                line,
                format!(
                    "lock-order inversion: acquiring `{class}` (rank {rank}) while holding `{}` (rank {}, line {}){}",
                    h.class, h.rank, h.line,
                    in_fn(fn_stack)
                ),
            ));
            break;
        }
    }
    if transient {
        return;
    }
    held.push(Held {
        class: class.to_string(),
        rank,
        line,
        depth,
        bound,
    });
}

/// Index just past the `)` / `]` / `}` matching the opener at `open`.
fn match_group(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].kind {
        TokKind::Punct('[') => ('[', ']'),
        TokKind::Punct('{') => ('{', '}'),
        _ => ('(', ')'),
    };
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct(o) {
            depth += 1;
        } else if toks[j].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Whether the guard produced by the call opening at `open` (index of the
/// `(`) flows into the statement's `let` binding. Poison adapters
/// (`unwrap` / `expect` / `unwrap_or_else`) pass the guard through; any
/// further projection or method (`.1`, `.report()`) consumes it as a
/// temporary that dies at the statement's end.
fn guard_reaches_binding(toks: &[Tok], open: usize) -> bool {
    let mut j = match_group(toks, open);
    while toks.get(j).is_some_and(|t| t.is_punct('.'))
        && toks
            .get(j + 1)
            .and_then(|t| t.ident())
            .is_some_and(|n| matches!(n, "unwrap" | "expect" | "unwrap_or_else"))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
    {
        j = match_group(toks, j + 2);
    }
    !toks.get(j).is_some_and(|t| t.is_punct('.'))
}

/// Does line `line` carry (or is it preceded by) a safety comment?
/// Accepted markers: `SAFETY:` anywhere in a comment, or a doc-comment
/// `# Safety` section heading. The look-back walks over contiguous
/// comment-only, blank, and attribute lines (bounded).
fn has_safety_comment(scanned: &Scanned, attr_lines: &BTreeSet<u32>, line: u32) -> bool {
    let is_marker = |text: &str| text.contains("SAFETY") || text.contains("# Safety");
    if scanned.comment_on(line).is_some_and(is_marker) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    for _ in 0..24 {
        if l == 0 {
            return false;
        }
        if scanned.comment_on(l).is_some_and(is_marker) {
            return true;
        }
        let code = scanned.has_code(l);
        let attr = attr_lines.contains(&l);
        let comment = scanned.comment_on(l).is_some();
        if code && !attr {
            // First real code line above: its trailing comment was already
            // checked; stop.
            return false;
        }
        if !code && !comment && !attr {
            // Blank line: only keep walking if it separates the unsafe
            // item from its doc block — allow one blank.
            if l + 1 == line {
                l -= 1;
                continue;
            }
            return false;
        }
        l -= 1;
    }
    false
}

/// For an opening paren at `toks[i]`, the method name directly before it
/// (if any) and that method's receiver chain.
fn callee_of(toks: &[Tok], i: usize) -> (Option<String>, Vec<String>) {
    if i == 0 {
        return (None, Vec::new());
    }
    match toks[i - 1].ident() {
        Some(name) => {
            let mut chain = if i >= 2 && toks[i - 2].is_punct('.') {
                receiver_chain(toks, i - 2)
            } else {
                Vec::new()
            };
            chain.push(name.to_string());
            (Some(name.to_string()), chain)
        }
        None => (None, Vec::new()),
    }
}

/// Receiver chain ending at the `.` at `toks[dot]`, outermost → innermost:
/// `self.pool.outstanding[replica].load` with `dot` at the final `.` gives
/// `["self", "pool", "outstanding"]`. Index and call groups are skipped
/// (`x[i].y` → `x`, `f(a).y` → `f`).
fn receiver_chain(toks: &[Tok], dot: usize) -> Vec<String> {
    let mut chain: Vec<String> = Vec::new();
    let mut j = dot; // points at a `.`
    loop {
        if j == 0 {
            break;
        }
        let mut k = j - 1; // token before the `.`
                           // Skip a trailing index / call group.
        loop {
            match &toks[k].kind {
                TokKind::Punct(']') => {
                    let mut depth = 1;
                    while k > 0 && depth > 0 {
                        k -= 1;
                        match &toks[k].kind {
                            TokKind::Punct(']') => depth += 1,
                            TokKind::Punct('[') => depth -= 1,
                            _ => {}
                        }
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                TokKind::Punct(')') => {
                    let mut depth = 1;
                    while k > 0 && depth > 0 {
                        k -= 1;
                        match &toks[k].kind {
                            TokKind::Punct(')') => depth += 1,
                            TokKind::Punct('(') => depth -= 1,
                            _ => {}
                        }
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                _ => break,
            }
        }
        if let Some(name) = toks[k].ident() {
            chain.push(name.to_string());
            if k >= 1 && toks[k - 1].is_punct('.') {
                j = k - 1;
                continue;
            }
        }
        break;
    }
    chain.reverse();
    chain
}

/// Like [`receiver_chain`], but for a call where `toks[i]` is the callee
/// ident itself (`self.lock_shard(…)` with `i` at `lock_shard` gives
/// `["self", "lock_shard"]`).
fn receiver_chain_inclusive(toks: &[Tok], i: usize) -> Vec<String> {
    let mut chain = if i >= 1 && toks[i - 1].is_punct('.') {
        receiver_chain(toks, i - 1)
    } else {
        Vec::new()
    };
    if let Some(name) = toks[i].ident() {
        chain.push(name.to_string());
    }
    chain
}

/// The nearest enclosing call frame that is an atomic-op method; returns
/// the atomic's field/variable name (last chain element before the
/// method).
fn enclosing_atomic(calls: &[CallFrame]) -> Option<String> {
    for frame in calls.iter().rev() {
        if let Some(m) = &frame.method {
            if ATOMIC_METHODS.contains(&m.as_str()) && frame.chain.len() >= 2 {
                return Some(frame.chain[frame.chain.len() - 2].clone());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn lint(src: &str, krate: &str, manifest: &str) -> Vec<Diagnostic> {
        let scanned = scan(src);
        let manifest = Manifest::parse(manifest).expect("test manifest parses");
        lint_file(
            &FileCtx {
                path: &format!("crates/{krate}/src/lib.rs"),
                krate,
                scanned: &scanned,
            },
            &manifest,
        )
    }

    #[test]
    fn r1_flags_uncommented_unsafe_and_accepts_safety() {
        let d = lint("fn f() { unsafe { g() } }", "store", "");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::R1Safety);

        let d = lint(
            "fn f() {\n    // SAFETY: g is fine\n    unsafe { g() }\n}",
            "store",
            "",
        );
        assert!(d.is_empty(), "{d:?}");

        // Doc `# Safety` heading with an attribute in between.
        let d = lint(
            "/// # Safety\n/// caller checks\n#[inline]\npub unsafe fn g() {}\n",
            "tensor",
            "",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r2_flags_only_nontest_code_in_scoped_crates() {
        let src = "fn f() { x.unwrap(); panic!(\"no\"); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }";
        let d = lint(src, "serve", "");
        assert_eq!(d.len(), 2, "{d:?}");
        // Out-of-scope crate: silent.
        assert!(lint(src, "hmc-sim", "").is_empty());
        // LINT-ALLOW with a reason suppresses; without one it reports.
        let d = lint(
            "fn f() {\n    // LINT-ALLOW(R2): poisoning propagates the wounded path\n    x.unwrap();\n}",
            "serve",
            "",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = lint(
            "fn f() {\n    // LINT-ALLOW(R2):\n    x.unwrap();\n}",
            "serve",
            "",
        );
        assert_eq!(d.len(), 2, "{d:?}"); // missing reason + unsuppressed R2
    }

    #[test]
    fn r3_flags_manifest_atomics_only() {
        let manifest = "atomic serve outstanding require-order\natomic serve rr relaxed-ok: rotation counter, wrap is fine\n";
        let src = "fn f() {\n    self.pool.outstanding[i].load(Ordering::Relaxed);\n    self.pool.rr.fetch_add(1, Ordering::Relaxed);\n    self.other.load(Ordering::Relaxed);\n}";
        let d = lint(src, "serve", manifest);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::R3Ordering);
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("outstanding"));
    }

    #[test]
    fn r4_detects_inversion_and_respects_release() {
        let manifest =
            "lock scheduler 0 shared.state\nlock slot 1 slots,slot\nlock metrics 4 metrics\n";
        // Inversion: slot held, then scheduler acquired.
        let src = "fn f() {\n    let g = self.slots[0].lock();\n    let st = self.shared.state.lock();\n}";
        let d = lint(src, "serve", manifest);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::R4LockOrder);
        // Correct order: scheduler then slot then metrics.
        let src = "fn f() {\n    let st = self.shared.state.lock();\n    let g = self.slots[0].lock();\n    let m = self.metrics.lock();\n}";
        assert!(lint(src, "serve", manifest).is_empty());
        // drop() releases: no inversion after dropping the outer guard.
        let src = "fn f() {\n    let st = self.shared.state.lock();\n    drop(st);\n    let g = self.slots[0].lock();\n    drop(g);\n    let st2 = self.shared.state.lock();\n}";
        assert!(lint(src, "serve", manifest).is_empty());
        // Temporaries release at statement end.
        let src = "fn f() {\n    self.metrics.lock().record();\n    let st = self.shared.state.lock();\n}";
        assert!(lint(src, "serve", manifest).is_empty());
        // Block scoping releases bound guards.
        let src = "fn f() {\n    {\n        let g = self.slots[0].lock();\n    }\n    let st = self.shared.state.lock();\n}";
        assert!(lint(src, "serve", manifest).is_empty());
    }

    #[test]
    fn r4_classifies_helper_lock_fns() {
        let manifest =
            "lock scheduler 0 shared.state\nlock shard 3 shards,shard\nlockfn cache/src/lib.rs lock_shard shard\n";
        let src = "fn f() {\n    let shard = self.lock_shard(d);\n    let st = self.shared.state.lock();\n}";
        let d = lint(src, "cache", manifest);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("shard"));
    }

    #[test]
    fn r4_transient_lockfns_check_order_but_hold_nothing() {
        let manifest = "lock scheduler 0 shared.state\nlock registry-slot 1 slot\n\
                        lockfn serve/src/lib.rs models.current registry-slot transient\n";
        // Order-checked at the call site: transient slot under scheduler is fine...
        let src = "fn f() {\n    let st = self.shared.state.lock();\n    let h = shared.models.current(m);\n}";
        assert!(lint(src, "serve", manifest).is_empty());
        // ...and nothing stays held: scheduler after the transient call is fine too.
        let src = "fn f() {\n    let h = shared.models.current(m);\n    let st = self.shared.state.lock();\n}";
        assert!(lint(src, "serve", manifest).is_empty());
        // But a transient acquisition under a higher-ranked lock still trips.
        let manifest2 = "lock scheduler 0 shared.state\nlock registry-slot 1 slot\n\
                         lockfn serve/src/lib.rs scheduler_sweep scheduler transient\n";
        let src = "fn f() {\n    let g = self.slot.lock();\n    scheduler_sweep();\n}";
        let d = lint(src, "serve", manifest2);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::R4LockOrder);
    }

    #[test]
    fn r4_lock_named_helpers_classify_via_lockfn() {
        // The mailbox's own guard-returning helper is literally named
        // `lock`; the `.lock()` arm must fall back to lockfn entries.
        let manifest = "lock mailbox 2 queue\nlock metrics 5 metrics\n\
                        lockfn serve/src/lib.rs self.lock mailbox\n";
        let src =
            "fn push(&self) {\n    let mut g = self.lock();\n    let m = self.metrics.lock();\n}";
        assert!(lint(src, "serve", manifest).is_empty());
        let src =
            "fn push(&self) {\n    let m = self.metrics.lock();\n    let mut g = self.lock();\n}";
        let d = lint(src, "serve", manifest);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("mailbox"), "{}", d[0].message);
    }

    #[test]
    fn r5_flags_wall_clock_in_det_scopes() {
        let manifest = "det-fn cache/src/lib.rs simulate\n";
        let src =
            "fn live() { let t = Instant::now(); }\nfn simulate() { let t = Instant::now(); }";
        let d = lint(src, "cache", manifest);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::R5Determinism);
        assert!(d[0].message.contains("simulate"));

        let manifest = "det-file cache/src/lib.rs\n";
        let d = lint("fn f() { let t = SystemTime::now(); }", "cache", manifest);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn receiver_chains_walk_index_and_call_groups() {
        let toks = scan("self.pool.outstanding[replica].load(x)").tokens;
        let dot = toks
            .iter()
            .position(|t| t.is_ident("load"))
            .map(|i| i - 1)
            .unwrap();
        assert_eq!(
            receiver_chain(&toks, dot),
            vec!["self", "pool", "outstanding"]
        );
        let toks = scan("self.shard_of(digest).lock()").tokens;
        let dot = toks
            .iter()
            .position(|t| t.is_ident("lock"))
            .map(|i| i - 1)
            .unwrap();
        assert_eq!(receiver_chain(&toks, dot), vec!["self", "shard_of"]);
    }
}
