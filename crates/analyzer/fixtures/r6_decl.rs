//! Fixture: the declaring half of the R6 pair; `r6_user.rs` is the other
//! file. Golden lines are pinned in `tests/golden.rs`. Never compiled.

pub fn used_elsewhere() -> u32 {
    1
}

pub fn used_only_here() -> u32 {
    2
}

pub const REEXPORTED_ONLY: u32 = 3;

// LINT-ALLOW(R6): fixture — an entry point kept for outside callers.
pub fn allowed_dead() {}

// LINT-ALLOW(R6)
pub(crate) fn bare_allow() {}

pub fn caller() -> u32 {
    used_only_here() + REEXPORTED_ONLY
}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}

pub fn named_only_by_a_test_file() {}

pub fn named_only_in_cfg_test() {}

pub fn named_by_an_example() {}
