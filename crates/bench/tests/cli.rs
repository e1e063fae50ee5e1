//! The bench binaries share one argument parser: `--help` prints the
//! usage and exits 0 without running anything, and an unknown flag or
//! an unparsable value prints the usage to stderr and exits 2.

use std::process::Command;

fn fig12(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig12"))
        .args(args)
        .output()
        .expect("fig12 runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let (code, stdout, _) = fig12(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("usage: fig12"), "{stdout}");
    assert!(
        !stdout.contains("Figure 12:"),
        "--help must not run the suite"
    );
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for (args, why) in [
        (&["--bogus"][..], "unexpected argument `--bogus`"),
        (&["--scale", "abc"][..], "--scale: cannot parse `abc`"),
        (
            &["--cache-policy", "bogus"][..],
            "--cache-policy takes clear|generational",
        ),
        (&["--scale"][..], "--scale requires a value"),
        (
            &["--obs-out", "x.jsonl", "--obs", "metrics,bogus"][..],
            "unknown section `bogus`",
        ),
    ] {
        let (code, stdout, stderr) = fig12(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} must not run: {stdout}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: fig12"), "{args:?}: {stderr}");
    }
}

/// `sim_obs --check` reports every failing gate, not the first: a real
/// document with a counter edited in two sections fails naming both.
#[test]
fn sim_obs_check_names_every_failing_section() {
    use facile::job::{execute, ProfileSource, Sections, SECTION_NAMES};
    use std::sync::Arc;
    let src = facile::sims::functional_source();
    let step = Arc::new(facile::compile_source(&src, &Default::default()).expect("compiles"));
    let source = Arc::new(ProfileSource {
        file: "functional.fac".to_owned(),
        src,
    });
    let sections = Sections::from_names(SECTION_NAMES, Some(&source), 16).expect("sections");
    let image = facile_workloads::build_image(&facile_workloads::suite()[0], 0.01);
    let job = bench::FacileSim::Functional.job("tamper", image, facile::SimOptions::default());
    let doc = execute(&step, job, &sections, None, None)
        .expect("runs")
        .doc;

    let dir = std::env::temp_dir().join(format!("sim_obs_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sim_obs = |doc: &facile::RunDoc, name: &str| {
        let path = dir.join(name);
        std::fs::write(&path, doc.to_json()).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_sim_obs"))
            .arg(&path)
            .arg("--check")
            .output()
            .expect("sim_obs runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    assert_eq!(sim_obs(&doc, "exact.json"), (Some(0), String::new()));

    let mut tampered = doc.clone();
    tampered.profile.as_mut().unwrap().rows[0].fast_insns += 1;
    tampered.timeline.as_mut().unwrap().totals.misses += 1;
    let (code, stderr) = sim_obs(&tampered, "tampered.json");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("FAIL tamper: profile: attributed insns"),
        "{stderr}"
    );
    assert!(
        stderr.contains("FAIL tamper: timeline: misses: epochs sum to"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
