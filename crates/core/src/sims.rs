//! The Facile simulators shipped with this reproduction.
//!
//! Three simulators over the TRISC ISA, mirroring the paper's §6.2
//! line-count inventory:
//!
//! | paper                         | here                      |
//! |-------------------------------|---------------------------|
//! | functional, 703 LoC Facile    | [`functional_source`]     |
//! | in-order + reservation tables | [`inorder_source`]        |
//! | out-of-order, 1,959 LoC       | [`ooo_source`]            |
//!
//! Each source is the concatenation of the shared TRISC description
//! ([`TRISC`]) and the simulator's own step function. The out-of-order
//! and in-order models call external components (branch predictor, cache
//! hierarchy) that `facile-arch` provides; bind them with
//! [`crate::hosts::ArchHost::bind`] — see the `ooo_pipeline` example.

/// The shared TRISC encoding + functional semantics (`trisc.fac`).
pub const TRISC: &str = include_str!("../sims/trisc.fac");

/// The functional simulator's step function (`functional.fac`).
pub const FUNCTIONAL_MAIN: &str = include_str!("../sims/functional.fac");

/// The in-order pipeline's step function (`inorder.fac`).
pub const INORDER_MAIN: &str = include_str!("../sims/inorder.fac");

/// The out-of-order pipeline's step function (`ooo.fac`).
pub const OOO_MAIN: &str = include_str!("../sims/ooo.fac");

/// Complete source of the functional simulator.
pub fn functional_source() -> String {
    format!("{TRISC}\n{FUNCTIONAL_MAIN}")
}

/// Complete source of the in-order pipeline simulator.
pub fn inorder_source() -> String {
    format!("{TRISC}\n{INORDER_MAIN}")
}

/// Complete source of the out-of-order pipeline simulator.
pub fn ooo_source() -> String {
    format!("{TRISC}\n{OOO_MAIN}")
}

/// Non-comment, non-blank line counts of the shipped sources — the
/// paper's §6.2 size comparison.
pub fn line_counts() -> Vec<(&'static str, usize)> {
    let count = |s: &str| {
        s.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count()
    };
    vec![
        ("trisc (shared ISA description)", count(TRISC)),
        ("functional", count(FUNCTIONAL_MAIN)),
        ("inorder", count(INORDER_MAIN)),
        ("ooo", count(OOO_MAIN)),
    ]
}
