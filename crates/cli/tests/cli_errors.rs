//! Error-path audit of the four CLI binaries: malformed, empty, and
//! truncated inputs must exit nonzero with a one-line diagnostic that
//! names the path (and byte offset or block where available) — and
//! must never panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CVP2CHAMPSIM: &str = env!("CARGO_BIN_EXE_cvp2champsim");
const CHAMPSIM_RUN: &str = env!("CARGO_BIN_EXE_champsim-run");
const TRACEGEN: &str = env!("CARGO_BIN_EXE_tracegen");
const TRACE_STATS: &str = env!("CARGO_BIN_EXE_trace-stats");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

/// Asserts `output` failed cleanly: nonzero exit, no panic, and a
/// single-line diagnostic mentioning every `needles` fragment.
fn assert_diagnostic(output: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "expected failure, got success; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "binary panicked: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "want one-line diagnostic, got: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "diagnostic {stderr:?} misses {needle:?}");
    }
}

/// Generates a small flat `.cvp` trace and returns its path.
fn sample_cvp(dir: &Path) -> PathBuf {
    let path = dir.join("sample.cvp");
    let out = run(
        TRACEGEN,
        &["--kind", "crypto", "--seed", "5", "--length", "400", "-o", path.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    path
}

/// Converts the sample to a flat `.champsimtrace` and returns its path.
fn sample_champsim(dir: &Path) -> PathBuf {
    let cvp = sample_cvp(dir);
    let path = dir.join("sample.champsimtrace");
    let out = run(CVP2CHAMPSIM, &["-t", cvp.to_str().unwrap(), "-o", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    path
}

fn truncate(path: &Path, cut_from_end: usize) {
    let bytes = std::fs::read(path).unwrap();
    std::fs::write(path, &bytes[..bytes.len() - cut_from_end]).unwrap();
}

#[test]
fn missing_files_name_the_path() {
    let missing = "definitely/not/here.cvp";
    assert_diagnostic(&run(CVP2CHAMPSIM, &["-t", missing]), &["cvp2champsim:", missing]);
    assert_diagnostic(&run(TRACE_STATS, &[missing]), &["trace-stats:", missing]);
    let missing_champ = "definitely/not/here.champsimtrace";
    assert_diagnostic(&run(CHAMPSIM_RUN, &[missing_champ]), &["champsim-run:", missing_champ]);
}

#[test]
fn empty_traces_are_rejected_not_silently_processed() {
    let dir = scratch_dir("empty");
    let cvp = dir.join("empty.cvp");
    let champ = dir.join("empty.champsimtrace");
    std::fs::write(&cvp, b"").unwrap();
    std::fs::write(&champ, b"").unwrap();
    let cvp_text = cvp.to_str().unwrap();
    let champ_text = champ.to_str().unwrap();
    assert_diagnostic(
        &run(CVP2CHAMPSIM, &["-t", cvp_text]),
        &["cvp2champsim:", cvp_text, "no instructions"],
    );
    assert_diagnostic(&run(TRACE_STATS, &[cvp_text]), &[cvp_text, "no instructions"]);
    assert_diagnostic(&run(CHAMPSIM_RUN, &[cvp_text]), &[cvp_text, "no instructions"]);
    assert_diagnostic(&run(CHAMPSIM_RUN, &[champ_text]), &[champ_text, "no records"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_flat_traces_report_path_and_offset() {
    let dir = scratch_dir("truncflat");
    let cvp = sample_cvp(&dir);
    // CVP records are at least 9 bytes, so cutting 3 always lands
    // mid-record.
    truncate(&cvp, 3);
    let cvp_text = cvp.to_str().unwrap();
    assert_diagnostic(&run(CVP2CHAMPSIM, &["-t", cvp_text]), &[cvp_text, "byte"]);
    assert_diagnostic(&run(TRACE_STATS, &[cvp_text]), &[cvp_text, "byte"]);

    let champ = sample_champsim(&dir);
    // ChampSim records are exactly 64 bytes; cut mid-record.
    truncate(&champ, 32);
    let champ_text = champ.to_str().unwrap();
    assert_diagnostic(&run(CHAMPSIM_RUN, &[champ_text]), &[champ_text, "byte"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_stores_report_path_and_block() {
    let dir = scratch_dir("truncstore");
    let cvpz = dir.join("sample.cvpz");
    let out = run(
        TRACEGEN,
        &["--kind", "streaming", "--seed", "6", "--length", "3000", "-o", cvpz.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bytes = std::fs::read(&cvpz).unwrap();
    // Keep the header but cut deep inside the compressed payload.
    std::fs::write(&cvpz, &bytes[..bytes.len() / 2]).unwrap();
    let cvpz_text = cvpz.to_str().unwrap();
    assert_diagnostic(&run(CVP2CHAMPSIM, &["-t", cvpz_text]), &[cvpz_text, "block"]);
    assert_diagnostic(&run(TRACE_STATS, &[cvpz_text]), &[cvpz_text, "block"]);
    assert_diagnostic(&run(CHAMPSIM_RUN, &[cvpz_text]), &["champsim-run:", cvpz_text, "block"]);

    let cvp = sample_cvp(&dir);
    let champz = dir.join("sample.champsimz");
    let champz_text = champz.to_str().unwrap();
    let out = run(CVP2CHAMPSIM, &["-t", cvp.to_str().unwrap(), "-o", champz_text]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bytes = std::fs::read(&champz).unwrap();
    std::fs::write(&champz, &bytes[..bytes.len() / 2]).unwrap();
    assert_diagnostic(&run(CHAMPSIM_RUN, &[champz_text]), &["champsim-run:", champz_text, "block"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose header is refused prints the store's own message, not
/// an "i/o error": a version-1 `.cvpz` and a `.champsimz` with no magic.
#[test]
fn refused_store_headers_print_the_store_message() {
    let dir = scratch_dir("storeheader");
    let cvpz = dir.join("v1.cvpz");
    let cvpz_text = cvpz.to_str().unwrap();
    let out =
        run(TRACEGEN, &["--kind", "crypto", "--seed", "5", "--length", "400", "-o", cvpz_text]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut bytes = std::fs::read(&cvpz).unwrap();
    bytes[4] = 1;
    std::fs::write(&cvpz, bytes).unwrap();
    let champz = dir.join("junk.champsimz");
    let champz_text = champz.to_str().unwrap();
    std::fs::write(&champz, b"not a store").unwrap();
    for (output, path, message) in [
        (run(CHAMPSIM_RUN, &[cvpz_text]), cvpz_text, "unsupported trace-store version 1 "),
        (run(CVP2CHAMPSIM, &["-t", cvpz_text]), cvpz_text, "regenerate this store"),
        (run(TRACE_STATS, &[cvpz_text]), cvpz_text, "unsupported trace-store version 1 "),
        (run(CHAMPSIM_RUN, &[champz_text]), champz_text, "not a trace store (bad magic)"),
    ] {
        assert_diagnostic(&output, &[path, message]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("i/o error"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_conversion_leaves_no_output_file() {
    let dir = scratch_dir("partial");
    let cvp = sample_cvp(&dir);
    let bytes = std::fs::read(&cvp).unwrap();
    std::fs::write(&cvp, &bytes[..bytes.len() / 2 + 1]).unwrap();
    let cvp_text = cvp.to_str().unwrap();
    for name in ["x.champsimtrace", "x.champsimz"] {
        let out = dir.join(name);
        let output = run(CVP2CHAMPSIM, &["-t", cvp_text, "-o", out.to_str().unwrap()]);
        assert_eq!(output.status.code(), Some(1), "{}", String::from_utf8_lossy(&output.stderr));
        assert!(!out.exists(), "{name}: a failed conversion left its partial output");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["sample.cvp"], "no temporary file is left behind either");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Generates a small `.etrace` trace and returns its path.
fn sample_etrace(dir: &Path) -> PathBuf {
    let path = dir.join("sample.etrace");
    let out = run(
        TRACEGEN,
        &["--kind", "rv-int", "--seed", "5", "--length", "2000", "-o", path.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    path
}

#[test]
fn truncated_etrace_reports_path_and_offset_everywhere() {
    let dir = scratch_dir("truncetrace");
    let path = sample_etrace(&dir);
    // Framing lengths are validated up front, so any strict prefix
    // fails at open with the byte offset of the shortfall.
    truncate(&path, 7);
    let text = path.to_str().unwrap();
    assert_diagnostic(&run(CVP2CHAMPSIM, &["-t", text]), &["cvp2champsim:", text, "byte"]);
    assert_diagnostic(&run(TRACE_STATS, &[text]), &["trace-stats:", text, "byte"]);
    assert_diagnostic(&run(CHAMPSIM_RUN, &[text]), &["champsim-run:", text, "byte"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_etrace_is_rejected_with_magic_diagnostic() {
    let dir = scratch_dir("badetrace");
    let path = dir.join("junk.etrace");
    std::fs::write(&path, b"not an etrace file at all").unwrap();
    let text = path.to_str().unwrap();
    assert_diagnostic(&run(TRACE_STATS, &[text]), &[text, "magic"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_arguments_fail_with_usage_hints() {
    assert_diagnostic(&run(CVP2CHAMPSIM, &["-t", "x.cvp", "-i", "imp_bogus"]), &["cvp2champsim:"]);
    assert_diagnostic(&run(CHAMPSIM_RUN, &["x.champsimtrace", "--core", "zen5"]), &["zen5"]);
    assert_diagnostic(
        &run(CHAMPSIM_RUN, &["x.champsimz", "--warmup", "abc"]),
        &["champsim-run: --warmup needs a count, got \"abc\""],
    );
    assert_diagnostic(
        &run(CHAMPSIM_RUN, &["x.champsimz", "--max", "-1"]),
        &["--max needs a count, got \"-1\""],
    );
    assert_diagnostic(
        &run(TRACEGEN, &["--kind", "crypto", "--length", "x"]),
        &["tracegen: --length needs a count, got \"x\""],
    );
    assert_diagnostic(&run(TRACEGEN, &["--kind", "quantum"]), &["quantum"]);
    assert_diagnostic(&run(TRACEGEN, &[]), &["tracegen:"]);
    assert_diagnostic(&run(TRACE_STATS, &["--bogus"]), &["--bogus"]);
}

#[test]
fn rv_kinds_require_an_etrace_output_path_and_vice_versa() {
    let dir = scratch_dir("rvout");
    let wrong = dir.join("rv.cvp");
    assert_diagnostic(
        &run(TRACEGEN, &["--kind", "rv-int", "--length", "100", "-o", wrong.to_str().unwrap()]),
        &["tracegen:", ".etrace"],
    );
    let wrong = dir.join("arm.etrace");
    assert_diagnostic(
        &run(TRACEGEN, &["--kind", "crypto", "--length", "100", "-o", wrong.to_str().unwrap()]),
        &["tracegen:", "program image"],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flat CVP records cannot become an `.etrace` (no program image):
/// that is a usage error, printed as the writer's own message rather
/// than as a failed write.
#[test]
fn etrace_output_for_flat_kinds_is_not_an_io_error() {
    let dir = scratch_dir("etraceusage");
    let path = dir.join("x.etrace");
    let output = run(
        TRACEGEN,
        &["--kind", "crypto", "--seed", "1", "--length", "100", "-o", path.to_str().unwrap()],
    );
    assert_diagnostic(&output, &["tracegen:", "x.etrace", "cannot write .etrace"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("i/o error"), "{stderr}");
    assert!(!path.exists(), "nothing is written");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `champsim-run` accepts exactly the server's five extensions: a valid
/// flat ChampSim file named `.bin` is refused with the job API's
/// wording instead of being run.
#[test]
fn unknown_extensions_are_rejected_like_the_server() {
    let dir = scratch_dir("ext");
    let bin = dir.join("t.bin");
    std::fs::copy(sample_champsim(&dir), &bin).unwrap();
    let text = bin.to_str().unwrap();
    let want = format!(
        "champsim-run: unrecognized trace extension in {text:?} (want .cvp, .cvpz, .etrace, \
         .champsimtrace or .champsimz)"
    );
    assert_diagnostic(&run(CHAMPSIM_RUN, &[text]), &[&want]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CVP tools read a flat CVP-1 file under any other name, with or
/// without an extension: `cvp2champsim` converts it to the same records
/// as the `.cvp` original, and `trace-stats` accepts it too.
#[test]
fn cvp_tools_read_unrecognized_names_as_flat_cvp() {
    let dir = scratch_dir("flatname");
    let cvp = sample_cvp(&dir);
    let convert = |input: &Path, out: &str| {
        let out = dir.join(out);
        let result =
            run(CVP2CHAMPSIM, &["-t", input.to_str().unwrap(), "-o", out.to_str().unwrap()]);
        assert!(result.status.success(), "{}", String::from_utf8_lossy(&result.stderr));
        std::fs::read(out).unwrap()
    };
    let want = convert(&cvp, "want.champsimtrace");
    for name in ["compute_int_0", "x.trace"] {
        let renamed = dir.join(name);
        std::fs::copy(&cvp, &renamed).unwrap();
        assert_eq!(convert(&renamed, "got.champsimtrace"), want, "{name}");
        let stats = run(TRACE_STATS, &[renamed.to_str().unwrap()]);
        assert!(stats.status.success(), "{}", String::from_utf8_lossy(&stats.stderr));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn improvements_flag_is_rejected_for_non_etrace_traces() {
    let dir = scratch_dir("impflag");
    let champ = sample_champsim(&dir);
    assert_diagnostic(
        &run(CHAMPSIM_RUN, &[champ.to_str().unwrap(), "--improvements", "All_imps"]),
        &["champsim-run:", ".etrace"],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracegen_rejects_zero_length_and_unwritable_output() {
    let out_arg = std::env::temp_dir().join("cli-errors-len0.cvp");
    assert_diagnostic(
        &run(TRACEGEN, &["--kind", "crypto", "--length", "0", "-o", out_arg.to_str().unwrap()]),
        &["--length must be positive"],
    );
    assert_diagnostic(
        &run(TRACEGEN, &["--kind", "crypto", "-o", "no/such/dir/out.cvp"]),
        &["tracegen:", "no/such/dir/out.cvp"],
    );
}
