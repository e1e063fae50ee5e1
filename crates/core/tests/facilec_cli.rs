//! Smoke tests of the `facilec` driver binary.

use std::process::Command;

fn facilec(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_facilec"))
        .args(args)
        .output()
        .expect("facilec runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn stats_for_builtin_ooo() {
    let (ok, stdout, stderr) = facilec(&["--builtin", "ooo", "--emit", "stats"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("actions:"), "{stdout}");
    assert!(stdout.contains("rt-static fraction:"), "{stdout}");
}

#[test]
fn ast_round_trips_through_facilec() {
    let dir = std::env::temp_dir().join("facilec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.fac");
    std::fs::write(&path, "fun main(x : int) { next(x + 1); }\n").unwrap();
    let (ok, stdout, stderr) = facilec(&[path.to_str().unwrap(), "--emit", "ast"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("fun main(x : int)"), "{stdout}");
}

#[test]
fn bta_labels_are_emitted() {
    let (ok, stdout, _) = facilec(&["--builtin", "functional", "--emit", "bta"]);
    assert!(ok);
    assert!(stdout.contains("[rt ]"), "some rt-static labels exist");
    assert!(stdout.contains("[dyn]"), "some dynamic labels exist");
}

#[test]
fn compile_errors_are_reported_with_location() {
    let dir = std::env::temp_dir().join("facilec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.fac");
    std::fs::write(&path, "fun main(x : int) { next(nothere); }\n").unwrap();
    let (ok, _, stderr) = facilec(&[path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("undefined variable"), "{stderr}");
}

#[test]
fn unknown_builtin_fails() {
    let (ok, _, stderr) = facilec(&["--builtin", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown builtin"));
}

const LOOP_ASM: &str = "addi r1, r0, 200\n\
     addi r2, r0, 0\n\
     loop: add r2, r2, r1\n\
     addi r1, r1, -1\n\
     bne r1, r0, loop\n\
     out r2\n\
     halt\n";

#[test]
fn run_emits_parseable_document_and_trace() {
    let dir = std::env::temp_dir().join("facilec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let asm = dir.join("loop.asm");
    std::fs::write(&asm, LOOP_ASM).unwrap();
    let metrics = dir.join("loop_run.json");
    let trace = dir.join("loop_trace.jsonl");
    let (ok, _, stderr) = facilec(&[
        "--builtin",
        "functional",
        "--run",
        asm.to_str().unwrap(),
        "--obs-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");

    let doc = facile::RunDoc::from_json(&std::fs::read_to_string(&metrics).unwrap())
        .expect("--obs-out holds a facile-run/v4 document");
    assert!(doc.profile.is_none() && doc.timeline.is_none());
    assert!(doc.sim.insns > 200, "the loop executes: {:?}", doc.sim);
    assert_eq!(doc.sim.fast_insns + doc.sim.slow_insns, doc.sim.insns);
    assert_eq!(doc.sim.misses, doc.sim.recoveries);
    let m = doc.metrics.expect("--obs defaults to the metrics section");
    assert_eq!(m.action_replays.iter().sum::<u64>(), doc.sim.actions_replayed);

    // Every trace line is standalone JSON with an "ev" discriminator,
    // and the run's halt is in the stream.
    let text = std::fs::read_to_string(&trace).unwrap();
    let mut halts = 0;
    let mut lines = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        lines += 1;
        let v = facile_obs::json::parse(line).expect("trace line parses");
        let ev = v.get("ev").and_then(|e| e.as_str()).expect("has ev kind");
        if ev == "halt" {
            halts += 1;
        }
    }
    assert!(lines > 1, "trace has events:\n{text}");
    assert_eq!(halts, 1, "exactly one halt event:\n{text}");
}

#[test]
fn obs_out_without_run_fails() {
    let (ok, _, stderr) = facilec(&["--builtin", "functional", "--obs-out", "/dev/null"]);
    assert!(!ok);
    assert!(stderr.contains("require --run"), "{stderr}");
}

/// `--obs` names sections strictly and only makes sense with a document
/// to write.
#[test]
fn obs_sections_are_checked() {
    let dir = std::env::temp_dir().join("facilec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let asm = dir.join("obs.asm");
    std::fs::write(&asm, LOOP_ASM).unwrap();
    let asm = asm.to_str().unwrap();
    let (ok, stdout, stderr) = facilec(&[
        "--builtin", "functional", "--run", asm, "--obs-out", "/dev/null", "--obs", "metrics,hto",
    ]);
    assert!(!ok && stdout.is_empty());
    assert!(stderr.contains("unknown section `hto`"), "{stderr}");
    // The retired flight-recorder section is an unknown section too.
    let (ok, stdout, stderr) = facilec(&[
        "--builtin", "functional", "--run", asm, "--obs-out", "/dev/null", "--obs", "hot",
    ]);
    assert!(!ok && stdout.is_empty());
    assert!(stderr.contains("unknown section `hot`"), "{stderr}");
    let (ok, _, stderr) = facilec(&["--builtin", "functional", "--run", asm, "--obs", "timeline"]);
    assert!(!ok);
    assert!(stderr.contains("--obs requires --obs-out"), "{stderr}");
}

/// A document with its wall-clock fields (every key ending in `_ns`:
/// run totals, latency histograms, epoch and warm-up walls) removed —
/// what must agree between two runs of the same job.
fn normalized(doc: &str) -> facile_obs::json::Value {
    use facile_obs::json::Value;
    fn strip(v: Value) -> Value {
        match v {
            Value::Obj(m) => Value::Obj(
                m.into_iter()
                    .filter(|(k, _)| !k.ends_with("_ns"))
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            Value::Arr(a) => Value::Arr(a.into_iter().map(strip).collect()),
            other => other,
        }
    }
    strip(facile_obs::json::parse(doc).expect("document parses"))
}

/// `--run` is a batch of one: the same program through `--run` and
/// through a one-line `batch` jobs file produces the same document —
/// every section — up to wall-clock fields.
#[test]
fn run_documents_equal_a_one_job_batch() {
    let dir = std::env::temp_dir().join("facilec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let asm = dir.join("one.asm");
    std::fs::write(&asm, LOOP_ASM).unwrap();
    let jobs = dir.join("one_jobs.txt");
    std::fs::write(&jobs, format!("{}\n", asm.display())).unwrap();
    let (run_out, batch_out) = (dir.join("one_run.json"), dir.join("one_batch.jsonl"));
    let asm_path = asm.display().to_string();
    let jobs_path = jobs.display().to_string();
    for (mode, out) in [
        (vec!["--run", &asm_path], &run_out),
        (vec!["batch", "--jobs", &jobs_path, "--threads", "1"], &batch_out),
    ] {
        let mut args = vec!["--builtin", "ooo"];
        args.extend(mode);
        let out = out.to_str().unwrap();
        args.extend(["--obs-out", out, "--obs", "metrics,profile,timeline"]);
        args.extend(["--timeline-epoch", "32"]);
        let (ok, _, stderr) = facilec(&args);
        assert!(ok, "{args:?}: {stderr}");
    }
    let run = std::fs::read_to_string(run_out).unwrap();
    let batch = std::fs::read_to_string(batch_out).unwrap();
    let lines: Vec<&str> = batch.lines().collect();
    assert_eq!(lines.len(), 2, "the job's document, then the merged one");
    assert_eq!(run.lines().count(), 1, "one document per run");
    let doc = facile::RunDoc::from_json(&run).expect("parses");
    assert!(doc.metrics.is_some() && doc.profile.is_some() && doc.timeline.is_some());
    assert_eq!(doc.check(), Vec::<String>::new());
    assert_eq!(
        normalized(run.trim_end()),
        normalized(lines[0]),
        "--run and a one-job batch disagree"
    );
}

/// A flag the chosen mode would ignore, or two modes at once, is an
/// error naming the flag — never silently dropped.
#[test]
fn flags_the_mode_ignores_are_rejected() {
    let cases: &[(&[&str], &str)] = &[
        (&["batch", "--jobs", "j.txt", "--trace-out", "t.jsonl"], "--trace-out"),
        (&["batch", "--jobs", "j.txt", "--cache-save", "s.facsnap"], "--cache-save"),
        (&["batch", "--jobs", "j.txt", "--timeline-stream", "t.jsonl"], "--timeline-stream"),
        (&["serve", "--obs-out", "d.json"], "--obs-out"),
        (&["serve", "--obs", "timeline"], "--obs"),
        (&["serve", "--trace-out", "t.jsonl"], "--trace-out"),
        (&["serve", "--cache-save", "s.facsnap"], "--cache-save"),
        (&["serve", "--jobs", "j.txt"], "--jobs"),
        (&["serve", "--progress"], "--progress"),
        (&["--run", "p.asm", "--jobs", "j.txt"], "--jobs"),
        (&["--run", "p.asm", "--addr", "127.0.0.1:0"], "--addr"),
        (&["--threads", "2"], "--threads"),
    ];
    for (args, flag) in cases {
        let mut full = vec!["--builtin", "functional"];
        full.extend_from_slice(args);
        let (ok, stdout, stderr) = facilec(&full);
        assert!(!ok, "{full:?} must fail");
        assert!(stdout.is_empty(), "{full:?} must not run: {stdout}");
        assert!(
            stderr.contains(flag) && stderr.contains("is ignored in"),
            "{full:?}: {stderr}"
        );
    }
    // The retired `--hot-sample` is no mode's flag: an unknown flag.
    for mode in [&["--run", "p.asm"][..], &["batch", "--jobs", "j.txt"]] {
        let mut full = vec!["--builtin", "functional"];
        full.extend_from_slice(mode);
        full.extend(["--hot-sample", "1"]);
        let (ok, stdout, stderr) = facilec(&full);
        assert!(!ok && stdout.is_empty(), "{full:?} must fail");
        assert!(
            stderr.contains("unknown flag `--hot-sample`"),
            "{full:?}: {stderr}"
        );
    }
    let (ok, _, stderr) =
        facilec(&["--builtin", "functional", "--run", "p.asm", "batch", "--jobs", "j.txt"]);
    assert!(!ok);
    assert!(stderr.contains("choose one of --run, batch and serve"), "{stderr}");
}
