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
fn run_emits_parseable_metrics_and_trace() {
    let dir = std::env::temp_dir().join("facilec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let asm = dir.join("loop.asm");
    std::fs::write(&asm, LOOP_ASM).unwrap();
    let metrics = dir.join("loop_metrics.json");
    let trace = dir.join("loop_trace.jsonl");
    let (ok, _, stderr) = facilec(&[
        "--builtin",
        "functional",
        "--run",
        asm.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");

    let doc = facile::MetricsDoc::from_json(&std::fs::read_to_string(&metrics).unwrap())
        .expect("metrics file holds a facile-obs/v1 document");
    assert!(doc.sim.insns > 200, "the loop executes: {:?}", doc.sim);
    assert_eq!(doc.sim.fast_insns + doc.sim.slow_insns, doc.sim.insns);
    assert_eq!(doc.sim.misses, doc.sim.recoveries);
    let m = doc.metrics.expect("observed run carries the derived registry");
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
fn metrics_out_without_run_fails() {
    let (ok, _, stderr) = facilec(&["--builtin", "functional", "--metrics-out", "/dev/null"]);
    assert!(!ok);
    assert!(stderr.contains("require --run"), "{stderr}");
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
/// through a one-line `batch` jobs file produces the same metrics,
/// profile, hot-chain and timeline documents, up to wall-clock fields.
#[test]
fn run_documents_equal_a_one_job_batch() {
    let dir = std::env::temp_dir().join("facilec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let asm = dir.join("one.asm");
    std::fs::write(&asm, LOOP_ASM).unwrap();
    let jobs = dir.join("one_jobs.txt");
    std::fs::write(&jobs, format!("{}\n", asm.display())).unwrap();
    let kinds = ["metrics", "profile", "hot", "timeline"];
    let outs = |mode: &str| -> Vec<String> {
        kinds
            .iter()
            .map(|k| dir.join(format!("one_{mode}_{k}.json")).display().to_string())
            .collect()
    };
    let (run_outs, batch_outs) = (outs("run"), outs("batch"));
    let with_outs = |mut args: Vec<String>, paths: &[String]| {
        for (k, p) in kinds.iter().zip(paths) {
            args.push(format!("--{k}-out"));
            args.push(p.clone());
        }
        args.extend(["--timeline-epoch".to_owned(), "32".to_owned()]);
        args
    };
    let base = |mode: &[&str]| -> Vec<String> {
        ["--builtin", "ooo"].iter().chain(mode).map(|s| s.to_string()).collect()
    };
    let asm_path = asm.display().to_string();
    let jobs_path = jobs.display().to_string();
    for args in [
        with_outs(base(&["--run", &asm_path]), &run_outs),
        with_outs(base(&["batch", "--jobs", &jobs_path, "--threads", "1"]), &batch_outs),
    ] {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (ok, _, stderr) = facilec(&args);
        assert!(ok, "{args:?}: {stderr}");
    }
    for ((kind, run), batch) in kinds.iter().zip(&run_outs).zip(&batch_outs) {
        let run = std::fs::read_to_string(run).unwrap();
        let batch = std::fs::read_to_string(batch).unwrap();
        let lines: Vec<&str> = batch.lines().collect();
        assert_eq!(lines.len(), 2, "{kind}: the job's document, then the merged one");
        assert_eq!(run.lines().count(), 1, "{kind}: one document per run");
        assert_eq!(
            normalized(run.trim_end()),
            normalized(lines[0]),
            "{kind}: --run and a one-job batch disagree"
        );
    }
}

/// A flag the chosen mode would ignore, or two modes at once, is an
/// error naming the flag — never silently dropped.
#[test]
fn flags_the_mode_ignores_are_rejected() {
    let cases: &[(&[&str], &str)] = &[
        (&["batch", "--jobs", "j.txt", "--trace-out", "t.jsonl"], "--trace-out"),
        (&["batch", "--jobs", "j.txt", "--cache-save", "s.facsnap"], "--cache-save"),
        (&["batch", "--jobs", "j.txt", "--timeline-stream", "t.jsonl"], "--timeline-stream"),
        (&["serve", "--metrics-out", "m.json"], "--metrics-out"),
        (&["serve", "--profile-out", "p.json"], "--profile-out"),
        (&["serve", "--hot-out", "h.json"], "--hot-out"),
        (&["serve", "--timeline-out", "t.json"], "--timeline-out"),
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
    let (ok, _, stderr) =
        facilec(&["--builtin", "functional", "--run", "p.asm", "batch", "--jobs", "j.txt"]);
    assert!(!ok);
    assert!(stderr.contains("choose one of --run, batch and serve"), "{stderr}");
}
