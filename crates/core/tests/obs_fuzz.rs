//! Hostile-input fuzz of the run-document reader and the serve frame
//! parser: seeded byte flips, truncations, splices and deep-nesting
//! inserts over real `facile-run/v4` documents (all three sections) and
//! real serve request frames. Every case runs under `catch_unwind`;
//! malformed input must come back as an error value — never a panic, a
//! stack overflow or a runaway allocation.

use facile::batch::{run_batch, BatchConfig};
use facile::hosts::initial_args;
use facile::job::{BatchJob, ProfileSource, Sections, SECTION_NAMES};
use facile::serve::{read_frame, sim_request, write_frame};
use facile::{compile_source, CompilerOptions, RunDoc, SimOptions};
use facile_obs::json;
use std::sync::Arc;

/// SplitMix64, inlined so the fuzz needs no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Applies one to three mutations to `input`, splicing from `corpus`.
/// Digit rewrites keep the JSON well-formed, so they reach the
/// document's exactness gates rather than the JSON parser.
fn mutate(rng: &mut SplitMix, input: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    const BYTES: &[u8] = b"-0912.e\"[]{},:x\\ ";
    let mut b = input.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(b.len() + 1);
        match rng.below(6) {
            4 => {
                if let Some(i) = (at..b.len()).find(|&i| b[i].is_ascii_digit()) {
                    b[i] = b'0' + rng.below(10) as u8;
                }
            }
            0 if !b.is_empty() => {
                let i = rng.below(b.len());
                b[i] ^= 1 << rng.below(8);
            }
            1 if !b.is_empty() => {
                let i = rng.below(b.len());
                b[i] = BYTES[rng.below(BYTES.len())];
            }
            2 => b.truncate(at),
            3 => {
                let donor = &corpus[rng.below(corpus.len())];
                let lo = rng.below(donor.len());
                let hi = (lo + rng.below(256)).min(donor.len());
                b.splice(at..at, donor[lo..hi].iter().copied());
            }
            _ => {
                let depth = [2, 200, 5_000, 50_000][rng.below(4)];
                let unit: &[u8] = if rng.below(2) == 0 { b"[" } else { b"{\"a\":" };
                b.splice(
                    at..at,
                    unit.iter().copied().cycle().take(unit.len() * depth),
                );
            }
        }
    }
    b
}

/// Real documents: one per lane of a two-lane batch with every section,
/// plus the merged batch document.
fn documents() -> Vec<RunDoc> {
    let src = facile::sims::functional_source();
    let step = Arc::new(compile_source(&src, &CompilerOptions::default()).expect("compiles"));
    let asm = "addi r1, r0, 60\naddi r2, r0, 0\nloop: add r2, r2, r1\n\
               andi r3, r1, 3\nbne r3, r0, skip\naddi r2, r2, 5\n\
               skip: addi r1, r1, -1\nbne r1, r0, loop\nout r2\nhalt\n";
    let image = facile_isa::assemble_image(asm, 0x1_0000, vec![]).expect("assembles");
    let jobs = (0..2)
        .map(|i| BatchJob {
            label: format!("lane \"{i}\""),
            args: initial_args::functional(image.entry),
            image: image.clone(),
            options: SimOptions::default(),
            max_steps: u64::MAX >> 1,
        })
        .collect();
    let source = Arc::new(ProfileSource {
        file: "functional.fac".to_owned(),
        src,
    });
    let sections = Sections::from_names(SECTION_NAMES, Some(&source), 16).expect("sections");
    let config = BatchConfig {
        threads: 2,
        sections,
        ..BatchConfig::default()
    };
    let result = run_batch(step, jobs, &config).expect("batch runs");
    let mut docs: Vec<RunDoc> = result.jobs.into_iter().map(|j| j.doc).collect();
    docs.push(result.merged);
    docs
}

#[test]
fn mutated_documents_and_frames_are_errors_not_panics() {
    let docs = documents();
    for d in &docs {
        assert!(d.metrics.is_some() && d.profile.is_some() && d.timeline.is_some());
        assert_eq!(
            d.check(),
            Vec::<String>::new(),
            "{}: seeds are exact",
            d.label
        );
    }
    let doc_corpus: Vec<Vec<u8>> = docs.iter().map(|d| d.to_json().into_bytes()).collect();
    let want: Vec<&str> = SECTION_NAMES.to_vec();
    let mut frame_corpus = Vec::new();
    for body in [
        sim_request(
            7,
            "job \"x\"",
            "addi r1, r0, 3\nout r1\nhalt\n",
            &want,
            true,
        ),
        "{\"op\":\"sim\",\"id\":1,\"asm\":\"halt\\n\",\"max_steps\":10,\
         \"options\":{\"memoize\":true,\"cache_capacity\":4096,\"cache_policy\":\"clear\"}}"
            .to_owned(),
        "{\"op\":\"stats\"}".to_owned(),
    ] {
        let mut frame = Vec::new();
        write_frame(&mut frame, &body).expect("frames");
        frame_corpus.push(frame);
    }

    let (mut panics, mut rejected, mut failed_checks, mut frames_rejected) = (0, 0, 0, 0);
    const CASES: usize = 2_000;
    for case in 0..CASES {
        let outcome = std::panic::catch_unwind(|| {
            let mut rng = SplitMix(case as u64 ^ 0xfacade);
            if case % 2 == 0 {
                let seed = &doc_corpus[case / 2 % doc_corpus.len()];
                let bytes = mutate(&mut rng, seed, &doc_corpus);
                match RunDoc::from_json(&String::from_utf8_lossy(&bytes)) {
                    Err(_) => (1, 0, 0),
                    Ok(doc) => {
                        // A document that still parses must re-serialize
                        // to itself and fold and check without panicking.
                        let text = doc.to_json();
                        assert_eq!(RunDoc::from_json(&text).expect("reparses").to_json(), text);
                        let mut merged = doc.clone();
                        let _ = merged.merge(&docs[0]);
                        let _ = merged.check();
                        (0, usize::from(!doc.check().is_empty()), 0)
                    }
                }
            } else {
                let seed = &frame_corpus[case / 2 % frame_corpus.len()];
                let bytes = mutate(&mut rng, seed, &frame_corpus);
                let mut reader = std::io::BufReader::new(&bytes[..]);
                let parsed = read_frame(&mut reader)
                    .map_err(|e| e.to_string())
                    .and_then(|body| json::parse(&body).map_err(|e| e.to_string()));
                (0, 0, usize::from(parsed.is_err()))
            }
        });
        match outcome {
            Ok((r, c, f)) => {
                rejected += r;
                failed_checks += c;
                frames_rejected += f;
            }
            Err(_) => panics += 1,
        }
    }
    assert_eq!(panics, 0, "hostile input must never panic");
    assert!(rejected > CASES / 10, "parse rejected {rejected} documents");
    assert!(
        failed_checks >= 10,
        "check() flagged {failed_checks} surviving mutations"
    );
    assert!(
        frames_rejected > CASES / 10,
        "frame parser rejected {frames_rejected}"
    );
}
