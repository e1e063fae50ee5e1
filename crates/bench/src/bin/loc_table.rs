//! §6.2's simulator-size comparison: lines of Facile (and host Rust
//! standing in for the paper's C) per simulator.

const CLI: bench::Cli = bench::Cli {
    usage: "usage: loc_table",
    values: &[],
    switches: &[],
    files: false,
};

fn main() {
    CLI.parse();
    println!("Simulator sizes (non-comment, non-blank lines)\n");
    println!("{:<34} {:>8}   paper", "component", "lines");
    for (name, n) in facile::sims::line_counts() {
        let paper = match name {
            n if n.starts_with("functional") => "703 LoC Facile",
            n if n.starts_with("inorder") => "965 LoC Facile + 11 C",
            n if n.starts_with("ooo") => "1,959 LoC Facile + 992 C",
            _ => "(shared; included in each above)",
        };
        println!("{name:<34} {n:>8}   {paper}");
    }
    println!("\nHost-side external components (Rust, standing in for the paper's C):");
    println!("  facile-arch (bpred + caches), facile::hosts bindings — see cloc for exact counts.");
}
