//! Fixture: an integration-test file (`crates/serve/tests/`); what it
//! names has no production caller.

#[test]
fn drives() {
    pim_serve::named_only_by_a_test_file();
}

fn helper() {
    pim_serve::named_only_by_a_test_file();
}
