//! The `sg-bench` binary as a pipeline stage: a reader that goes away
//! early (`sg-bench run fig4 --format json | head -1`) ends the run
//! quietly with status 0, not with a broken-pipe panic.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    for args in [&["list"][..], &["run", "fig4", "--format", "json"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sg-bench"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sg-bench");
        // Close the read end before the child can write anything.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for sg-bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
