//! A reader that closes the pipe early (`gpuflow … | head -c 10`) makes
//! the command fail with a one-line error and exit 1, not panic.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    // A listing of several hundred kilobytes: far more than a pipe buffers,
    // so the writer is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_gpuflow"))
        .args(["plan", "cnn-large:128x128", "--render"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gpuflow starts");
    let mut head = [0u8; 10];
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_exact(&mut head)
        .expect("the listing starts");
    // The read end is closed here, when `stdout` drops.
    let out = child.wait_with_output().expect("gpuflow exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: writing output: "),
        "stderr: {stderr}"
    );
}
