//! `champsim-run` on CVP-family inputs: a `.cvp` or `.cvpz` trace is
//! converted in memory under `--improvements`, so its report equals
//! the report of its `cvp2champsim` conversion on disk.

use std::path::PathBuf;
use std::process::Command;

const CVP2CHAMPSIM: &str = env!("CARGO_BIN_EXE_cvp2champsim");
const CHAMPSIM_RUN: &str = env!("CARGO_BIN_EXE_champsim-run");
const TRACEGEN: &str = env!("CARGO_BIN_EXE_tracegen");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-cvp-inputs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin` and returns its stdout, failing on a nonzero exit.
fn stdout(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().unwrap();
    assert!(out.status.success(), "{bin} {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn cvp_inputs_report_like_their_conversion() {
    let dir = scratch_dir("report");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (cvp, cvpz, converted) = (path("t.cvp"), path("t.cvpz"), path("t.champsimtrace"));
    for out in [&cvp, &cvpz] {
        let args = ["--kind", "crypto", "--seed", "3", "--length", "5000", "-o", out];
        stdout(TRACEGEN, &args);
    }
    stdout(CVP2CHAMPSIM, &["-t", &cvp, "-i", "All_imps", "-o", &converted]);

    for extra in [&[][..], &["--max", "100"][..]] {
        let expected = stdout(CHAMPSIM_RUN, &[&[converted.as_str()][..], extra].concat());
        assert!(expected.contains("IPC"), "{expected}");
        for input in [&cvp, &cvpz] {
            let args = [&[input.as_str(), "--improvements", "All_imps"][..], extra].concat();
            assert_eq!(stdout(CHAMPSIM_RUN, &args), expected, "{input} {extra:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
