//! The `experiments` binary's usage errors, through the real executable
//! (`CARGO_BIN_EXE_experiments`).

use std::process::Command;

#[test]
fn retired_and_unknown_ids_are_exit_two_before_anything_runs() {
    for args in [&["e19"][..], &["e2", "e99"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("(valid: e1, e2, e3, e4, e5, e8, e9, e10, e11, e12, e13, e17, e18, e20, e21, e22, e23)"),
            "{args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no table before the refusal"
        );
    }
}
