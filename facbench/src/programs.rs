//! Seeded programs, their reference results, and the exact-match gate
//! every simulated result passes through.
//!
//! `facile_workloads` derives each program's random choices from its
//! workload name, so suffixing the name with the benchmark seed gives a
//! new program of the same shape (blocks, working set, irregularity)
//! without touching the generator.

use facile::{HaltReason, Image, Target};
use facile_isa::interp::Cpu;

/// Text base every generated image is assembled at (the serve daemon
/// assembles job sources at the same address).
pub const TEXT_BASE: u64 = 0x1_0000;

/// Instruction budget of every reference and simulation run: far past
/// the longest program, so a run that reaches it has failed to halt.
pub const MAX_INSNS: u64 = 1 << 40;

/// One generated program and what every simulator must produce for it.
pub struct Program {
    /// Workload name with the seed suffix.
    pub name: String,
    /// Assembly text.
    pub asm: String,
    /// The assembled image, for the reference runs.
    pub image: Image,
    /// Reference results.
    pub expect: Expect,
}

/// Reference results: architectural state from the golden interpreter,
/// cycles from the hand-coded `fastsim` timing model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    pub insns: u64,
    pub cycles: u64,
    pub digest: u64,
    pub out: Vec<i64>,
}

/// What one simulation reported.
pub struct Observed<'a> {
    pub halt: Option<HaltReason>,
    pub insns: u64,
    pub cycles: u64,
    pub digest: u64,
    pub out: &'a [i64],
}

/// Assembles a generated program.
pub fn assemble(asm: &str) -> Result<Image, String> {
    facile_isa::assemble_image(asm, TEXT_BASE, vec![]).map_err(|e| e.to_string())
}

/// Generates the variant `tag` (the seed, or the seed and a variant
/// number) of the suite workload `base` at `scale`, and computes its
/// reference results.
pub fn program(base: &str, tag: &str, scale: f64) -> Result<Program, String> {
    let mut w =
        facile_workloads::by_name(base).ok_or_else(|| format!("no workload named `{base}`"))?;
    let name = format!("{}@{tag}", w.name);
    // `Workload::name` is `&'static str`; a run generates a few dozen
    // names at most.
    w.name = Box::leak(name.clone().into_boxed_str());
    let asm = facile_workloads::generate(&w, scale);
    let image = assemble(&asm)?;
    let mut target = Target::load(&image);
    let mut cpu = Cpu::new(&target);
    cpu.run(&mut target, MAX_INSNS);
    if !cpu.halted {
        return Err(format!("{name}: golden interpreter did not halt"));
    }
    let mut fs = fastsim::FastSim::new(&image, true, None);
    fs.run(MAX_INSNS);
    if !fs.halted() || fs.stats.insns != cpu.insns {
        return Err(format!(
            "{name}: fastsim disagrees with the golden interpreter"
        ));
    }
    let expect = Expect {
        insns: cpu.insns,
        cycles: fs.stats.cycles,
        digest: target.mem.digest(),
        out: cpu.out,
    };
    Ok(Program {
        name,
        asm,
        image,
        expect,
    })
}

/// Compares one simulation against its references; the error names
/// the first field that differs.
pub fn check(o: &Observed<'_>, e: &Expect) -> Result<(), String> {
    if o.halt != Some(HaltReason::Explicit) {
        return Err(format!("halted {:?}, not Explicit", o.halt));
    }
    if o.insns != e.insns {
        return Err(format!("insns {} != golden {}", o.insns, e.insns));
    }
    if o.cycles != e.cycles {
        return Err(format!("cycles {} != fastsim {}", o.cycles, e.cycles));
    }
    if o.digest != e.digest {
        return Err(format!(
            "digest {:016x} != golden {:016x}",
            o.digest, e.digest
        ));
    }
    if o.out != e.out.as_slice() {
        return Err("out differs from golden".to_owned());
    }
    Ok(())
}

/// Attempted and failed operations. Every checked result is counted;
/// a failure is never dropped.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, reporting a failure on stderr.
    pub fn record(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            eprintln!("facbench: FAILED {what}: {e}");
        }
    }
}

/// FNV-1a of an image's text, the identity of a generated program.
pub fn image_digest(image: &Image) -> u64 {
    image.text.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_program() {
        let a = program("130.li", "7", 0.002).unwrap();
        let b = program("130.li", "7", 0.002).unwrap();
        assert_eq!(a.name, "130.li@7");
        assert_eq!(image_digest(&a.image), image_digest(&b.image));
        assert_eq!(a.expect, b.expect);
        for other in ["8", "7.1"] {
            let c = program("130.li", other, 0.002).unwrap();
            assert_ne!(image_digest(&a.image), image_digest(&c.image));
        }
    }

    #[test]
    fn a_corrupted_expectation_is_counted_failed() {
        let p = program("129.compress", "3", 0.002).unwrap();
        let e = &p.expect;
        let good = Observed {
            halt: Some(HaltReason::Explicit),
            insns: e.insns,
            cycles: e.cycles,
            digest: e.digest,
            out: &e.out,
        };
        let mut corrupt = e.clone();
        corrupt.digest ^= 1;
        let mut tally = Tally::default();
        tally.record("good", check(&good, e));
        tally.record("corrupt", check(&good, &corrupt));
        assert_eq!((tally.attempted, tally.failed), (2, 1));

        let budget = Observed {
            halt: Some(HaltReason::Budget),
            ..good
        };
        assert!(check(&budget, e).is_err());
    }
}
