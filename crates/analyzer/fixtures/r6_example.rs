//! Fixture: production code outside the library crates (`examples/`,
//! `benchmark/src`); what it names has a production caller.

fn main() {
    pim_serve::named_by_an_example();
}
