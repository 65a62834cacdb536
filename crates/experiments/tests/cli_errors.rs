//! Error paths of the `experiments` front door and the bench binaries'
//! shared exit rule: a path that cannot be written exits 2 with one
//! line naming it, and a usage error exits 2 — never a panic, never a
//! silent success.

use std::process::{Command, Output};

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const SIM_BENCH: &str = env!("CARGO_BIN_EXE_sim_bench");
const CONVERT_BENCH: &str = env!("CARGO_BIN_EXE_convert_bench");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

/// Asserts `output` exited with status 2, did not panic, and printed a
/// first line from `name` mentioning every `needles` fragment; returns
/// the number of lines on stderr.
fn assert_exit_2(output: &Output, name: &str, needles: &[&str]) -> usize {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "binary panicked: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with(&format!("{name}: ")), "{first:?} does not start with {name}");
    for needle in needles {
        assert!(first.contains(needle), "diagnostic {first:?} misses {needle:?}");
    }
    stderr.trim_end().lines().count()
}

#[test]
fn unwritable_metrics_path_exits_2_naming_it() {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("missing").join("metrics.json");
    let path = path.to_str().unwrap();
    // Table 1 runs no scheduled experiment, so no BENCH_experiments.json
    // is written next to the test.
    let output = run(EXPERIMENTS, &["--table", "1", "--scale", "smoke", "--metrics", path]);
    assert_eq!(assert_exit_2(&output, "experiments", &[path, "could not write"]), 1);
}

#[test]
fn usage_errors_exit_2_with_the_usage_line() {
    let cases: [(&str, &str, &[&str], &str); 5] = [
        (EXPERIMENTS, "experiments", &["--scale", "huge"], "--scale must be"),
        (EXPERIMENTS, "experiments", &["--cache-dir", "d"], "unknown argument \"--cache-dir\""),
        (SIM_BENCH, "sim_bench", &["--tolerance", "0"], "--tolerance"),
        (SIM_BENCH, "sim_bench", &["--shards", "2"], "unknown argument \"--shards\""),
        (CONVERT_BENCH, "convert_bench", &["--out"], "--out needs a path"),
    ];
    for (bin, name, args, needle) in cases {
        let output = run(bin, args);
        assert_eq!(assert_exit_2(&output, name, &[needle]), 2, "{name} {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.lines().nth(1).unwrap().starts_with(&format!("usage: {name}")));
    }
}
