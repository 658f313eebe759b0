//! A bench bin rejects a bad argument as the `seqavf` CLI does: exit
//! status 1, with an error naming the token, before any work starts.

use std::process::Command;

#[test]
fn bad_scale_exits_1_naming_the_token() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig8_loop_sweep"))
        .args(["--scale", "huge"])
        .output()
        .expect("bench bin starts");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`huge`"), "{stderr}");
}
