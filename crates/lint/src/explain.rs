//! Long-form rule documentation for `--explain <rule>`.
//!
//! `--list-rules` answers "what exists"; `--explain` answers "why does
//! this rule exist, what exactly fires it, and how do I satisfy or
//! waive it". CI runs `--explain all` as a smoke step so every rule
//! keeps a non-empty explanation.

use crate::rules::Rule;

/// The full explanation for one rule: what fires, why it matters for
/// the determinism/energy-accounting contract, and the sanctioned ways
/// out.
pub fn explain(rule: Rule) -> &'static str {
    match rule {
        Rule::NondeterministicTime => {
            "nondeterministic-time — wall-clock reads in library code.\n\
             \n\
             Fires on `Instant::now()` and any `SystemTime` mention in a file\n\
             classified as library code (outside `#[cfg(test)]`). Session\n\
             reports and trace digests must be pure functions of\n\
             (trace, seed, index); a wall-clock read anywhere near that path\n\
             makes replays diverge and shard counts observable.\n\
             \n\
             Fix: thread simulated time (`tick`, `slot_ms`) through instead.\n\
             Waive: quarantine the read behind a helper annotated\n\
             `// lint:allow(nondeterministic-time): <why>`. Whether a\n\
             quarantined value stays out of digests is checked by running\n\
             the program: the reference model and the shard-invariance\n\
             tests fail when a wall-clock value reaches a session digest."
        }
        Rule::NondeterministicRng => {
            "nondeterministic-rng — entropy-seeded RNG construction.\n\
             \n\
             Fires on `thread_rng`, `from_entropy`, `from_os_rng`, `OsRng`,\n\
             `getrandom`, and `rand::random` in every file class, including\n\
             tests: one entropy-seeded stream anywhere breaks bit-identical\n\
             replay, and digest assertions cannot localize which stream it\n\
             was.\n\
             \n\
             Fix: derive every stream from an explicit seed (`seeded_rng`,\n\
             `cell_seed`-style mixing)."
        }
        Rule::UnorderedIteration => {
            "unordered-iteration — HashMap/HashSet iteration near digests.\n\
             \n\
             Fires on `.iter()`/`.keys()`/`.values()`/`.drain()`/… inside a\n\
             function that both mentions HashMap/HashSet and touches digests,\n\
             serialization, or SessionReport. Hash iteration order is\n\
             randomized per process, so it leaks straight into supposedly\n\
             deterministic output.\n\
             \n\
             Fix: use BTreeMap/BTreeSet, or collect and sort before folding."
        }
        Rule::PanicInLib => {
            "panic-in-lib — aborts in non-test library code.\n\
             \n\
             Fires on `.unwrap()`, `.expect()`, `panic!`, `unreachable!`,\n\
             `todo!`, `unimplemented!`. A panic in the serving stack takes\n\
             down every session on the thread, not just the offending one.\n\
             \n\
             Fix: return a Result. Waive provably-infallible cases with\n\
             `// lint:allow(panic-in-lib): <proof sketch>`."
        }
        Rule::PrintInLib => {
            "print-in-lib — stdio writes from library code.\n\
             \n\
             Fires on `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!`\n\
             outside binaries, examples, and benches. Library code reports\n\
             through return values; binaries own presentation.\n\
             \n\
             Fix: return the value, or move the print to the bin/example."
        }
        Rule::UnderivedRngStream => {
            "underived-rng-stream — RNG seeded outside the derivation scheme.\n\
             \n\
             Fires on `seed_from_u64(…)` / `from_seed(…)` whose argument\n\
             span mentions no seed-derived identifier (`cell_seed`,\n\
             `seeded_rng`, anything containing `seed`), in non-test lib and\n\
             bin code. The determinism contract says every stream is a pure\n\
             function of (base_seed, cell index, stream index); an RNG\n\
             seeded from a literal or ad-hoc expression is a stream nobody\n\
             can re-derive, and collides with real streams silently.\n\
             \n\
             Fix: derive the seed through `cell_seed`/`seeded_rng`. Waive a\n\
             deliberate fixed stream with\n\
             `// lint:allow(underived-rng-stream): <why>`."
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_real_explanation() {
        for rule in Rule::ALL {
            let text = explain(rule);
            assert!(
                text.starts_with(rule.name()),
                "{} explanation must lead with its name",
                rule.name()
            );
            assert!(
                text.contains("Fix:"),
                "{} explanation must state a fix",
                rule.name()
            );
            assert!(text.len() > 200, "{} explanation too thin", rule.name());
        }
    }
}
