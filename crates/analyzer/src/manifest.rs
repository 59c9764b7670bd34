//! The protocol manifest: the declarative side of the linter.
//!
//! The manifest names the workspace's protocol-critical state so rules R3
//! (atomic orderings), R4 (lock order), and R5 (deterministic twins) check
//! *declared* discipline instead of heuristics:
//!
//! * `atomic <crate> <ident> require-order` — `Ordering::Relaxed` on this
//!   atomic is a diagnostic unless site-allowlisted.
//! * `atomic <crate> <ident> relaxed-ok: <justification>` — audited; the
//!   justification is mandatory (an empty one is itself a diagnostic).
//! * `lock <class> <rank> <pattern>[,<pattern>...]` — lock classes and
//!   their acquisition ranks. Patterns are dotted receiver-chain suffixes
//!   (`shared.state` matches `self.shared.state.lock()`; `slot` matches
//!   `slot.lock()`); the longest matching suffix wins. While a lock of
//!   rank *r* is held, only locks of rank **> r** may be acquired.
//! * `lockfn <file-suffix> <chain> <class> [transient]` — calls to a
//!   guard-returning helper (e.g. `self.lock_shard(...)`) count as
//!   acquiring `<class>`, scoped to files whose path ends with
//!   `<file-suffix>`. `transient` marks helpers that release internally
//!   before returning: order-checked at the call site, nothing held after.
//! * `det-file <file-suffix>` — the whole file is a deterministic twin:
//!   R5 flags any wall-clock use.
//! * `det-fn <file-suffix> <fn-name>` — one function is deterministic.
//!
//! Every entry keeps its line: an entry that names code no longer in the
//! tree checks nothing, and [`crate::rules::stale_manifest`] reports it
//! there.
//!
//! The manifest lives at `crates/analyzer/protocol.manifest` and is part
//! of the review surface: changing serve-tier concurrency means updating
//! the declaration here, in the same diff.

use std::collections::BTreeMap;

/// Policy for one manifest atomic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomicPolicy {
    /// Relaxed is a diagnostic.
    RequireOrder,
    /// Relaxed is audited-fine; carries the justification text.
    RelaxedOk(String),
}

/// One lock class: rank plus receiver-chain suffix patterns.
#[derive(Debug, Clone)]
pub struct LockClass {
    pub name: String,
    pub rank: u32,
    /// Dotted suffix patterns, e.g. `["shared.state", "0.state"]`.
    pub patterns: Vec<Vec<String>>,
}

/// A guard-returning helper call that counts as a lock acquisition.
#[derive(Debug, Clone)]
pub struct LockFn {
    /// Manifest line of the entry.
    pub line: u32,
    pub file_suffix: String,
    /// Dotted chain suffix of the call, e.g. `["lock_shard"]`.
    pub chain: Vec<String>,
    pub class: String,
    /// `true` when the helper releases the lock internally before
    /// returning: the acquisition is order-checked but nothing stays held.
    pub transient: bool,
}

/// Parsed manifest.
#[derive(Debug, Default)]
pub struct Manifest {
    /// `(crate, atomic ident) -> (line, policy)`.
    pub atomics: BTreeMap<(String, String), (u32, AtomicPolicy)>,
    pub locks: Vec<LockClass>,
    pub lock_fns: Vec<LockFn>,
    /// `(line, file suffix)`.
    pub det_files: Vec<(u32, String)>,
    /// `(line, file suffix, fn name)`.
    pub det_fns: Vec<(u32, String, String)>,
}

impl Manifest {
    /// Parses the manifest text. Returns `Err(line, message)` on the first
    /// malformed entry — a broken manifest must fail the run loudly, not
    /// silently stop checking.
    pub fn parse(text: &str) -> Result<Manifest, (u32, String)> {
        let mut m = Manifest::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (kind, rest) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| (lineno, format!("bare entry `{line}`")))?;
            let rest = rest.trim();
            match kind {
                "atomic" => {
                    let mut it = rest.splitn(3, char::is_whitespace);
                    let krate = it.next().unwrap_or_default().to_string();
                    let ident = it.next().unwrap_or_default().to_string();
                    let policy = it.next().unwrap_or_default().trim();
                    if krate.is_empty() || ident.is_empty() || policy.is_empty() {
                        return Err((
                            lineno,
                            format!("atomic entry needs `<crate> <ident> <policy>`: `{line}`"),
                        ));
                    }
                    let policy = if policy == "require-order" {
                        AtomicPolicy::RequireOrder
                    } else if let Some(reason) = policy.strip_prefix("relaxed-ok:") {
                        AtomicPolicy::RelaxedOk(reason.trim().to_string())
                    } else {
                        return Err((lineno, format!("unknown atomic policy `{policy}`")));
                    };
                    m.atomics.insert((krate, ident), (lineno, policy));
                }
                "lock" => {
                    let mut it = rest.splitn(3, char::is_whitespace);
                    let name = it.next().unwrap_or_default().to_string();
                    let rank = it.next().unwrap_or_default();
                    let pats = it.next().unwrap_or_default().trim();
                    let rank: u32 = rank
                        .parse()
                        .map_err(|_| (lineno, format!("bad lock rank in `{line}`")))?;
                    if name.is_empty() || pats.is_empty() {
                        return Err((
                            lineno,
                            format!("lock entry needs `<class> <rank> <patterns>`: `{line}`"),
                        ));
                    }
                    let patterns = pats
                        .split(',')
                        .map(|p| p.trim().split('.').map(str::to_string).collect())
                        .collect();
                    m.locks.push(LockClass {
                        name,
                        rank,
                        patterns,
                    });
                }
                "lockfn" => {
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    let transient = match parts.len() {
                        3 => false,
                        4 if parts[3] == "transient" => true,
                        _ => {
                            return Err((lineno, format!(
                                "lockfn entry needs `<file-suffix> <chain> <class> [transient]`: `{line}`"
                            )))
                        }
                    };
                    m.lock_fns.push(LockFn {
                        line: lineno,
                        file_suffix: parts[0].to_string(),
                        chain: parts[1].split('.').map(str::to_string).collect(),
                        class: parts[2].to_string(),
                        transient,
                    });
                }
                "det-file" => {
                    if rest.is_empty() {
                        return Err((lineno, "det-file entry needs a file suffix".to_string()));
                    }
                    m.det_files.push((lineno, rest.to_string()));
                }
                "det-fn" => {
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    if parts.len() != 2 {
                        return Err((
                            lineno,
                            format!("det-fn entry needs `<file-suffix> <fn-name>`: `{line}`"),
                        ));
                    }
                    m.det_fns
                        .push((lineno, parts[0].to_string(), parts[1].to_string()));
                }
                _ => return Err((lineno, format!("unknown manifest entry kind `{kind}`"))),
            }
        }
        Ok(m)
    }

    /// Rank of a lock class by name.
    fn rank_of(&self, class: &str) -> Option<u32> {
        self.locks.iter().find(|c| c.name == class).map(|c| c.rank)
    }

    /// Classifies a receiver chain (outermost → innermost, e.g.
    /// `["self", "shared", "state"]`) into a lock class via longest-suffix
    /// match. Returns `(class name, rank)`.
    pub fn classify_chain(&self, chain: &[String]) -> Option<(&str, u32)> {
        let mut best: Option<(&LockClass, usize)> = None;
        for class in &self.locks {
            for pat in &class.patterns {
                if pat.len() <= chain.len() && chain[chain.len() - pat.len()..] == pat[..] {
                    let better = match best {
                        Some((_, len)) => pat.len() > len,
                        None => true,
                    };
                    if better {
                        best = Some((class, pat.len()));
                    }
                }
            }
        }
        best.map(|(c, _)| (c.name.as_str(), c.rank))
    }

    /// Lock-fn classification for a call chain in `file`: returns
    /// `(class name, rank, transient)`.
    pub fn classify_lock_fn(&self, file: &str, chain: &[String]) -> Option<(&str, u32, bool)> {
        for lf in &self.lock_fns {
            if file.ends_with(&lf.file_suffix)
                && lf.chain.len() <= chain.len()
                && chain[chain.len() - lf.chain.len()..] == lf.chain[..]
            {
                let rank = self.rank_of(&lf.class)?;
                return Some((lf.class.as_str(), rank, lf.transient));
            }
        }
        None
    }

    /// `true` when the whole file is a deterministic twin.
    pub fn is_det_file(&self, file: &str) -> bool {
        self.det_files
            .iter()
            .any(|(_, s)| file.ends_with(s.as_str()))
    }

    /// Deterministic function names declared for `file`.
    pub fn det_fns_for<'m>(&'m self, file: &str) -> Vec<&'m str> {
        self.det_fns
            .iter()
            .filter(|(_, suffix, _)| file.ends_with(suffix.as_str()))
            .map(|(_, _, name)| name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_entry_kinds() {
        let m = Manifest::parse(
            "# comment\n\
             atomic serve outstanding relaxed-ok: single-location RMW\n\
             atomic cache oldest_served require-order\n\
             lock scheduler 0 shared.state,0.state\n\
             lock shard 3 shard,shards\n\
             lockfn cache/src/lib.rs lock_shard shard\n\
             det-file workloads/src/zipf.rs\n\
             det-fn workloads/src/soak.rs simulate_soak\n",
        )
        .expect("manifest parses");
        assert_eq!(m.atomics.len(), 2);
        assert!(matches!(
            m.atomics[&("cache".to_string(), "oldest_served".to_string())],
            (3, AtomicPolicy::RequireOrder)
        ));
        let chain: Vec<String> = ["self", "shared", "state"].map(String::from).into();
        assert_eq!(m.classify_chain(&chain), Some(("scheduler", 0)));
        let chain: Vec<String> = ["self", "lock_shard"].map(String::from).into();
        assert_eq!(
            m.classify_lock_fn("crates/cache/src/lib.rs", &chain),
            Some(("shard", 3, false))
        );
        assert!(m.is_det_file("crates/workloads/src/zipf.rs"));
        assert_eq!(
            m.det_fns_for("crates/workloads/src/soak.rs"),
            vec!["simulate_soak"]
        );
    }

    #[test]
    fn longest_suffix_wins() {
        let m = Manifest::parse(
            "lock scheduler 0 shared.state\n\
             lock ticket 4 slot.state\n",
        )
        .unwrap();
        let c: Vec<String> = ["self", "slot", "state"].map(String::from).into();
        assert_eq!(m.classify_chain(&c), Some(("ticket", 4)));
        let c: Vec<String> = ["shared", "state"].map(String::from).into();
        assert_eq!(m.classify_chain(&c), Some(("scheduler", 0)));
        let c: Vec<String> = vec!["state".to_string()];
        assert_eq!(m.classify_chain(&c), None);
    }

    #[test]
    fn transient_lockfns_parse() {
        let m = Manifest::parse(
            "lock registry-slot 1 slot\n\
             lockfn serve/src/server.rs models.current registry-slot transient\n",
        )
        .unwrap();
        let chain: Vec<String> = ["shared", "models", "current"].map(String::from).into();
        assert_eq!(
            m.classify_lock_fn("crates/serve/src/server.rs", &chain),
            Some(("registry-slot", 1, true))
        );
        assert!(Manifest::parse("lockfn a b c d").is_err());
    }

    #[test]
    fn malformed_entries_fail_loudly() {
        assert!(Manifest::parse("atomic serve outstanding").is_err());
        assert!(Manifest::parse("lock scheduler x state").is_err());
        assert!(Manifest::parse("frobnicate everything").is_err());
        assert!(Manifest::parse("atomic serve x sometimes-ok").is_err());
    }
}
