//! The `sg-bench` binary as a pipeline stage: a reader that goes away
//! early (`sg-bench run fig4 --format json | head -1`) ends the run
//! quietly with status 0, not with a broken-pipe panic. And
//! `sg-serve-bench`'s command line: `--help` is a request, not an error.

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

#[test]
fn serve_bench_help_prints_the_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sg-serve-bench"))
            .arg(flag)
            .output()
            .expect("run sg-serve-bench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flag}: {:?}\n{stderr}", out.status);
        assert!(
            stdout.starts_with("usage: sg-serve-bench"),
            "{flag}: {stdout}"
        );
        assert!(stderr.is_empty(), "{flag}: {stderr}");
    }
    // A bad command line still exits 2 with the cause and the usage.
    for (args, cause) in [
        (&["--bogus"][..], "unknown flag `--bogus`"),
        (&["--queries"][..], "--queries needs a value"),
        (&["--queries", "x"][..], "--queries needs a number"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sg-serve-bench"))
            .args(args)
            .output()
            .expect("run sg-serve-bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(cause), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: sg-serve-bench"),
            "{args:?}: {stderr}"
        );
    }
}
