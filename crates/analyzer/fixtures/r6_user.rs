//! Fixture: the using half of the R6 pair. Naming `used_only_here` in
//! this comment, or in the string below, is not a use.

pub use crate::r6_decl::REEXPORTED_ONLY;

fn user() -> u32 {
    let _ = "used_only_here";
    used_elsewhere() + caller()
}
