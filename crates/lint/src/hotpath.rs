//! Hot-path allocation analysis: reachability from the serving
//! entry points, allocation-prone constructs, and unresolvable calls.
//!
//! ## Entry points
//!
//! * every method of the `DecisionKernel` trait (declarations, default
//!   bodies, and each `impl DecisionKernel for …`);
//! * `decide*` methods on any `…Engine…` type;
//! * `run*` methods on `DeviceSession`.
//!
//! The **hot set** is everything reachable from those along the call
//! graph, restricted to non-test library code.
//!
//! ## Rules
//!
//! * [`crate::rules::Rule::HotPathAlloc`] — heap-allocation-prone
//!   constructs in a hot function: heap-type constructors
//!   (`Vec::new`, `Box::new`, `String::from`, …), `vec!`/`format!`,
//!   and the copying methods `.clone()`, `.collect()`, `.to_vec()`,
//!   `.to_owned()`, `.to_string()`. `Vec::new()` itself is lazy, but
//!   the growth it invites lands on the hot path — flag at the source.
//! * [`crate::rules::Rule::UnresolvedHotCall`] — a call in a hot
//!   function that the graph cannot resolve to any workspace `fn` and
//!   that is not on the allow-list of provably allocation-free std
//!   methods. Hot code must stay *analyzable*: either the callee is
//!   ours (resolvable), a known-harmless std method, or the call is
//!   exempted with a reviewable `// lint:hot-exempt(<why>)`.
//!
//! Both rules suppress via `// lint:hot-exempt(<why>)` (or a targeted
//! `lint:allow`), trailing or on the line above, covering the full
//! statement span.

use crate::callgraph::CallGraph;
use crate::context::{FileClass, FileContext};
use crate::lexer::{LexedFile, Token, TokenKind};
use crate::rules::{Finding, Rule};

/// What the hot-path pass produced.
#[derive(Debug, Clone, Default)]
pub struct HotOutcome {
    /// Findings, unfiltered by suppressions (the caller filters).
    pub findings: Vec<Finding>,
    /// Per-def: whether the function is on the hot path.
    pub hot: Vec<bool>,
}

/// Types whose associated constructors manage heap storage.
const HEAP_TYPES: [&str; 10] = [
    "Vec", "VecDeque", "Box", "String", "Arc", "Rc", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];

/// Constructor names that, on a heap type, (pre)allocate or copy.
const HEAP_CTORS: [&str; 4] = ["new", "with_capacity", "from", "from_iter"];

/// Method calls that copy into fresh heap storage.
pub(crate) const COPYING_METHODS: [&str; 5] =
    ["clone", "collect", "to_vec", "to_owned", "to_string"];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Unresolved method/function names that are provably allocation-free
/// std surface (iterator adaptors, Option/Result combinators, slice
/// accessors, numeric ops, seeded-RNG draws). Anything *not* here —
/// `push`, `insert`, `extend`, `sort`, `reserve` — stays a finding so
/// the growth-prone std surface needs an explicit exemption.
pub(crate) const STD_ALLOC_FREE: [&str; 159] = [
    // iterator adaptors and consumers (lazy or O(1)-state)
    "iter",
    "iter_mut",
    "into_iter",
    "enumerate",
    "zip",
    "rev",
    "take",
    "take_while",
    "skip",
    "skip_while",
    "chain",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "fold",
    "sum",
    "product",
    "count",
    "position",
    "rposition",
    "find",
    "find_map",
    "any",
    "all",
    "by_ref",
    "copied",
    "cloned",
    "step_by",
    "last",
    "next",
    "nth",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    // Option / Result combinators
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_or",
    "map_or_else",
    "map_err",
    "ok_or",
    "ok_or_else",
    "ok",
    "err",
    "and_then",
    "or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_ref",
    "as_mut",
    "as_deref",
    "take",
    "replace",
    "then",
    "then_some",
    // slices and collections, read-only or in-place
    "get",
    "get_mut",
    "first",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    "split_at",
    "split_first",
    "split_last",
    "chunks",
    "chunks_exact",
    "chunks_mut",
    "windows",
    "fill",
    "swap",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search",
    "binary_search_by",
    "as_slice",
    "as_mut_slice",
    "as_bytes",
    "copy_from_slice",
    "truncate",
    "clear",
    "pop",
    // VecDeque's O(1) front removal: shrinks, never grows (push_back
    // and push_front stay findings — ring growth reallocates)
    "pop_front",
    // numeric / bit ops
    "abs",
    "signum",
    "clamp",
    "powi",
    "powf",
    "sqrt",
    "exp",
    "ln",
    "sin",
    "cos",
    "log2",
    "log10",
    "floor",
    "ceil",
    "round",
    "trunc",
    "fract",
    "recip",
    "mul_add",
    "is_finite",
    "is_nan",
    "to_bits",
    "from_bits",
    "rotate_left",
    "rotate_right",
    "count_ones",
    "leading_zeros",
    "trailing_zeros",
    "rem_euclid",
    "div_euclid",
    "pow",
    // slice search / ordering without reallocation
    "partition_point",
    "partial_cmp",
    "cmp",
    "capacity",
    // checked / wrapping / saturating integer arithmetic
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "is_multiple_of",
    // fixed-size byte conversions (arrays on the stack)
    "to_le_bytes",
    "to_be_bytes",
    "from_le_bytes",
    "from_be_bytes",
    // sizing and lazy iterator constructors
    "size_of",
    "size_of_val",
    "repeat_n",
    // combinator probes
    "is_some_and",
    "is_none_or",
    // conversions (moves, not copies)
    "into",
    "from",
    "try_from",
    "try_into",
    // seeded-RNG draws, construction and jumps (deterministic,
    // stack-only: seed_from_u64 expands via SplitMix64 into a fixed
    // [u8; 32], advance works on four-word polynomials)
    "gen",
    "gen_range",
    "gen_bool",
    "seed_from_u64",
    "advance",
];

/// Runs the hot-path analysis over the whole workspace.
pub fn analyze(
    files: &[(String, LexedFile)],
    contexts: &[FileContext],
    graph: &CallGraph,
) -> HotOutcome {
    let _ = contexts;
    let entries: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.in_test && d.class == FileClass::Lib && is_entry(d))
        .map(|(id, _)| id)
        .collect();
    // BFS with a witness: which entry pulled each def into the hot set.
    let mut witness: Vec<Option<usize>> = vec![None; graph.defs.len()];
    let mut stack = Vec::new();
    for &e in &entries {
        witness[e] = Some(e);
        stack.push(e);
    }
    while let Some(id) = stack.pop() {
        let root = witness[id].unwrap_or(id);
        for &next in &graph.edges[id] {
            let d = &graph.defs[next];
            if witness[next].is_none() && !d.in_test && d.class == FileClass::Lib {
                witness[next] = Some(root);
                stack.push(next);
            }
        }
    }
    let hot: Vec<bool> = witness.iter().map(Option::is_some).collect();

    let mut findings = Vec::new();
    for (id, def) in graph.defs.iter().enumerate() {
        if !hot[id] {
            continue;
        }
        let tokens = &files[def.file].1.tokens;
        let path = files[def.file].0.as_str();
        let via = witness[id]
            .map(|e| entry_label(graph, e))
            .unwrap_or_default();
        check_allocs(tokens, def.open, def.close, path, &via, &mut findings);
        check_unresolved(graph, id, tokens, path, &via, &mut findings);
    }
    HotOutcome { findings, hot }
}

/// Whether a def is one of the serving hot-path entry points.
fn is_entry(d: &crate::callgraph::FnDef) -> bool {
    let owner = d.owner.as_deref().unwrap_or("");
    let trait_name = d.trait_name.as_deref().unwrap_or("");
    owner == "DecisionKernel"
        || trait_name == "DecisionKernel"
        || (owner.contains("Engine") && d.name.starts_with("decide"))
        || (owner == "DeviceSession" && d.name.starts_with("run"))
}

/// `Owner::name` label for hot-path attribution in messages.
fn entry_label(graph: &CallGraph, id: usize) -> String {
    let d = &graph.defs[id];
    match &d.owner {
        Some(owner) => format!("{owner}::{}", d.name),
        None => d.name.clone(),
    }
}

/// Scans a hot body for allocation-prone constructs.
fn check_allocs(
    tokens: &[Token],
    open: usize,
    close: usize,
    path: &str,
    via: &str,
    out: &mut Vec<Finding>,
) {
    for k in open + 1..close {
        let t = &tokens[k];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_bang = tokens.get(k + 1).is_some_and(|n| n.is_punct('!'));
        if next_bang && ALLOC_MACROS.contains(&t.text.as_str()) {
            out.push(alloc_finding(path, t.line, &format!("{}!", t.text), via));
            continue;
        }
        if HEAP_CTORS.contains(&t.text.as_str()) {
            if let Some(q) = crate::callgraph::path_qualifier(tokens, k) {
                if HEAP_TYPES.contains(&q) {
                    let label = format!("{q}::{}", t.text);
                    out.push(alloc_finding(path, t.line, &label, via));
                    continue;
                }
            }
        }
        let is_method = k > 0 && tokens[k - 1].is_punct('.');
        let called = tokens.get(k + 1).is_some_and(|n| n.is_punct('('))
            || (tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && tokens.get(k + 2).is_some_and(|n| n.is_punct(':')));
        if is_method && called && COPYING_METHODS.contains(&t.text.as_str()) {
            out.push(alloc_finding(path, t.line, &format!(".{}()", t.text), via));
        }
    }
}

fn alloc_finding(path: &str, line: u32, what: &str, via: &str) -> Finding {
    Finding {
        file: path.to_string(),
        line,
        rule: Rule::HotPathAlloc,
        message: format!(
            "`{what}` allocates on the serving hot path (reachable from `{via}`); \
             preallocate outside the decision loop or exempt with lint:hot-exempt(<why>)"
        ),
    }
}

/// Flags unresolved, non-allow-listed calls in a hot body.
fn check_unresolved(
    graph: &CallGraph,
    id: usize,
    tokens: &[Token],
    path: &str,
    via: &str,
    out: &mut Vec<Finding>,
) {
    for call in graph.calls_of(id) {
        if !call.resolved.is_empty() {
            continue;
        }
        // Variant/tuple-struct constructors (`Some(x)`, `State(i)`) and
        // heap ctors (reported as hot-path-alloc) are not call targets
        // the graph was ever going to resolve.
        if call.name.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue;
        }
        if STD_ALLOC_FREE.contains(&call.name.as_str()) {
            continue;
        }
        // Copying methods and heap-type constructors are already
        // reported as hot-path-alloc; don't double up.
        if COPYING_METHODS.contains(&call.name.as_str()) {
            continue;
        }
        let qualified_heap = crate::callgraph::path_qualifier(tokens, call.at)
            .is_some_and(|q| HEAP_TYPES.contains(&q));
        if qualified_heap {
            continue;
        }
        out.push(Finding {
            file: path.to_string(),
            line: call.line,
            rule: Rule::UnresolvedHotCall,
            message: format!(
                "`{}{}(…)` on the hot path (reachable from `{via}`) resolves to no workspace \
                 fn and is not allow-listed allocation-free std; keep hot code analyzable or \
                 exempt with lint:hot-exempt(<why>)",
                if call.is_method { "." } else { "" },
                call.name
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::classify;

    fn run(path: &str, src: &str) -> HotOutcome {
        let files = vec![(path.to_string(), crate::lexer::lex(src))];
        let contexts: Vec<FileContext> = files
            .iter()
            .map(|(p, l)| FileContext::build(classify(p), l))
            .collect();
        let graph = CallGraph::build(&files, &contexts);
        analyze(&files, &contexts, &graph)
    }

    const LIB: &str = "crates/demo/src/lib.rs";

    fn rules_hit(out: &HotOutcome) -> Vec<(u32, &'static str)> {
        out.findings
            .iter()
            .map(|f| (f.line, f.rule.name()))
            .collect()
    }

    #[test]
    fn alloc_reachable_from_kernel_is_flagged() {
        let src = "trait DecisionKernel { fn select(&self) -> usize { helper() } }\n\
                   fn helper() -> usize { deep() }\n\
                   fn deep() -> usize { let v = Vec::<usize>::with_capacity(4); v.len() }\n";
        let out = run(LIB, src);
        assert!(
            rules_hit(&out).contains(&(3, "hot-path-alloc")),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn alloc_off_the_hot_path_is_fine() {
        let src = "fn cold() -> Vec<u8> { Vec::new() }\n\
                   trait DecisionKernel { fn select(&self) -> usize { 0 } }\n";
        let out = run(LIB, src);
        assert!(rules_hit(&out).is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn engine_decide_and_session_run_are_entries() {
        let src = "struct AutoScaleEngine; struct DeviceSession;\n\
                   impl AutoScaleEngine { fn decide(&self) { fmt_state(); } }\n\
                   impl DeviceSession { fn run(&self) { fmt_state(); } }\n\
                   fn fmt_state() { let s = format!(\"x\"); }\n";
        let out = run(LIB, src);
        assert_eq!(rules_hit(&out), vec![(4, "hot-path-alloc")]);
    }

    #[test]
    fn clone_and_collect_are_flagged() {
        let src =
            "struct E; impl E { fn decide_kernel(&self, v: &[u8]) -> Vec<u8> { v.to_vec() } }\n";
        // Owner `E` does not contain "Engine" — not hot, no finding.
        assert!(rules_hit(&run(LIB, src)).is_empty());
        let hot = "struct XEngine; impl XEngine { fn decide_kernel(&self, v: &[u8]) -> Vec<u8> { v.to_vec() } }\n";
        assert_eq!(rules_hit(&run(LIB, hot)), vec![(1, "hot-path-alloc")]);
    }

    #[test]
    fn unresolved_hot_calls_are_flagged_but_std_is_not() {
        let src = "struct XEngine;\n\
                   impl XEngine { fn decide(&self, v: &mut Vec<u8>, x: Option<u8>) {\n\
                   let _ = x.unwrap_or(0);\n\
                   v.push(1);\n\
                   } }\n";
        let out = run(LIB, src);
        assert_eq!(rules_hit(&out), vec![(4, "unresolved-hot-call")]);
    }

    #[test]
    fn test_code_never_joins_the_hot_set() {
        let src = "trait DecisionKernel { fn select(&self) -> usize { 0 } }\n\
                   #[cfg(test)]\nmod t { fn select_test() { let v = vec![1]; } }\n";
        assert!(rules_hit(&run(LIB, src)).is_empty());
    }
}
