//! The `real` binary exits quietly when its reader goes away early, as in
//! `real models | head -1`.

use std::process::Command;

#[test]
fn closed_stdout_exits_without_a_panic() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_real"))
        .arg("models")
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    assert!(out.status.success(), "{:?}", out.status);
}
