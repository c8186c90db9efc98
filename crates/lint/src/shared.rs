//! Shared-state concurrency analysis: process-global mutable state,
//! interior mutability on the serve path, lock-order cycles, and
//! relaxed atomics feeding digested state.
//!
//! The fleet layer's determinism story is that shards share **nothing
//! mutable**: `run_cells` hands each worker disjoint cell indices and
//! every session owns its own RNGs and Q-state. That invariant decays
//! one `static` or one `Arc<Mutex<…>>` at a time, and each one makes
//! shard interleaving observable — exactly the class of bug the
//! digest tests detect but cannot localize.
//!
//! ## What fires
//!
//! * [`crate::rules::Rule::SharedMutableHotState`] —
//!   * a `static mut`, or a `static` whose type is interior-mutable
//!     (`Mutex`, `RwLock`, `RefCell`, `Cell`, `UnsafeCell`, `OnceLock`,
//!     `LazyLock`, `OnceCell`, `Atomic*`), in non-test lib/bin/bench
//!     code;
//!   * a mention of an interior-mutability type (or a use of one of
//!     the statics above) inside a function reachable from a serve
//!     shard entry point (`serve*`, `DeviceSession::run*`, `decide*`),
//!     reported with the caller witness chain;
//!   * a non-`SeqCst` atomic ordering (`Relaxed`/`Acquire`/`Release`/
//!     `AcqRel`) inside a function that also touches digested or
//!     serialized state — cross-thread visibility of digest inputs
//!     must not depend on platform memory-order.
//! * [`crate::rules::Rule::LockOrderCycle`] — the pass records every
//!   `.lock()` (and `.read()`/`.write()` on receivers declared as
//!   `RwLock`s), builds a lock-acquisition-order graph (intra-function
//!   order, plus edges into locks acquired by callees while a lock is
//!   held), and flags every cycle: two shards interleaving opposite
//!   acquisition orders can deadlock.
//!
//! ## Soundness caveats
//!
//! Lock receivers are identified by identifier name, not by object —
//! two different mutexes bound to the same local name alias in the
//! order graph, and guard drops are invisible, so "held while
//! acquiring" is an over-approximation of scopes. Both err toward
//! reporting; waive deliberate designs with
//! `lint:allow(lock-order-cycle)` / `lint:allow(shared-mutable-hot-state)`
//! and a justification.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FnDef};
use crate::context::{FileClass, FileContext};
use crate::lexer::{LexedFile, Token, TokenKind};
use crate::rules::{Finding, Rule};

/// What the shared-state pass produced.
#[derive(Debug, Clone, Default)]
pub struct SharedOutcome {
    /// Findings, unfiltered by suppressions (the caller filters).
    pub findings: Vec<Finding>,
    /// Lock acquisition sites seen workspace-wide.
    pub lock_sites: usize,
}

/// Type names whose values are interior-mutable (shared-write capable).
const INTERIOR_MUTABLE: [&str; 8] = [
    "Mutex",
    "RwLock",
    "RefCell",
    "UnsafeCell",
    "OnceLock",
    "LazyLock",
    "OnceCell",
    "Cell",
];

/// Non-`SeqCst` atomic ordering variants.
const RELAXED_ORDERINGS: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

/// Runs the shared-state analysis over the whole workspace.
pub fn analyze(
    files: &[(String, LexedFile)],
    contexts: &[FileContext],
    graph: &CallGraph,
) -> SharedOutcome {
    let mut findings = Vec::new();

    // Pass A: static declarations (and the names of the mutable ones).
    let mut mutable_statics: BTreeSet<String> = BTreeSet::new();
    for (i, (path, lexed)) in files.iter().enumerate() {
        check_statics(
            path,
            lexed,
            &contexts[i],
            &mut mutable_statics,
            &mut findings,
        );
    }

    // Pass B: serve-path reachability with caller witnesses.
    let n = graph.defs.len();
    let entries: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.in_test && d.class == FileClass::Lib && is_serve_entry(d))
        .map(|(id, _)| id)
        .collect();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut reachable = vec![false; n];
    let mut stack = Vec::new();
    for &e in &entries {
        reachable[e] = true;
        stack.push(e);
    }
    while let Some(id) = stack.pop() {
        for &next in &graph.edges[id] {
            let d = &graph.defs[next];
            if !reachable[next] && !d.in_test && d.class == FileClass::Lib {
                reachable[next] = true;
                parent[next] = Some(id);
                stack.push(next);
            }
        }
    }
    // Nested fn spans per file, so an outer body scan skips inner items
    // (they report through their own def when reachable).
    let mut nested_by_file: Vec<Vec<(usize, usize)>> = vec![Vec::new(); files.len()];
    for d in &graph.defs {
        nested_by_file[d.file].push((d.start, d.close));
    }
    for (id, def) in graph.defs.iter().enumerate() {
        if !reachable[id] {
            continue;
        }
        let via = witness_path(graph, &parent, id);
        check_reachable_body(
            def,
            files,
            &nested_by_file[def.file],
            &mutable_statics,
            &via,
            &mut findings,
        );
    }

    // Pass C: relaxed atomic orderings near digested/serialized state.
    for (id, def) in graph.defs.iter().enumerate() {
        let _ = id;
        check_orderings(def, files, &mut findings);
    }

    // Pass D: the lock-acquisition-order graph and its cycles.
    let lock_sites = check_lock_order(files, graph, &mut findings);

    SharedOutcome {
        findings,
        lock_sites,
    }
}

/// Whether a def is a serve shard entry point.
fn is_serve_entry(d: &FnDef) -> bool {
    let owner = d.owner.as_deref().unwrap_or("");
    d.name.starts_with("serve")
        || d.name.starts_with("decide")
        || (owner == "DeviceSession" && d.name.starts_with("run"))
}

/// `entry → … → def` caller chain from the BFS parent links.
fn witness_path(graph: &CallGraph, parent: &[Option<usize>], id: usize) -> String {
    let mut chain = vec![id];
    let mut at = id;
    while let Some(p) = parent[at] {
        chain.push(p);
        at = p;
        if chain.len() >= 6 {
            break;
        }
    }
    chain.reverse();
    chain
        .iter()
        .map(|&d| label(graph, d))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// `Owner::name` label for a def.
fn label(graph: &CallGraph, id: usize) -> String {
    let d = &graph.defs[id];
    match &d.owner {
        Some(owner) => format!("{owner}::{}", d.name),
        None => d.name.clone(),
    }
}

/// Flags `static mut` and interior-mutable `static` declarations, and
/// records their names for the reachability pass.
fn check_statics(
    path: &str,
    lexed: &LexedFile,
    ctx: &FileContext,
    names: &mut BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    if !matches!(
        ctx.class,
        FileClass::Lib | FileClass::Bin | FileClass::Bench
    ) {
        return;
    }
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test[i] || !t.is_ident("static") {
            continue;
        }
        let is_mut = tokens.get(i + 1).is_some_and(|n| n.is_ident("mut"));
        let name_at = if is_mut { i + 2 } else { i + 1 };
        let Some(name) = tokens.get(name_at).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        if is_mut {
            names.insert(name.text.clone());
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::SharedMutableHotState,
                message: format!(
                    "`static mut {}` is process-global mutable state; globals make shard runs \
                     order-dependent — scope the state per shard or waive with \
                     lint:allow(shared-mutable-hot-state): <why>",
                    name.text
                ),
            });
            continue;
        }
        // `static NAME: <type> = …` — scan the type span for
        // interior-mutable names.
        if !tokens.get(name_at + 1).is_some_and(|n| n.is_punct(':')) {
            continue;
        }
        let type_end = static_type_end(tokens, name_at + 2);
        let interior = tokens[name_at + 2..type_end].iter().find_map(|tt| {
            if tt.kind != TokenKind::Ident {
                return None;
            }
            if INTERIOR_MUTABLE.contains(&tt.text.as_str()) || tt.text.starts_with("Atomic") {
                Some(tt.text.clone())
            } else {
                None
            }
        });
        if let Some(what) = interior {
            names.insert(name.text.clone());
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::SharedMutableHotState,
                message: format!(
                    "`static {}: …{what}…` is process-global interior-mutable state; globals \
                     make shard runs order-dependent — scope the state per shard or waive with \
                     lint:allow(shared-mutable-hot-state): <why>",
                    name.text
                ),
            });
        }
    }
}

/// End of a static's type annotation: the `=` or `;` at depth 0.
fn static_type_end(tokens: &[Token], from: usize) -> usize {
    let mut depth = 0i32;
    for (k, token) in tokens.iter().enumerate().skip(from) {
        if let TokenKind::Punct(c) = token.kind {
            match c {
                '(' | '[' | '{' | '<' => depth += 1,
                ')' | ']' | '}' | '>' => depth -= 1,
                '=' | ';' if depth <= 0 => return k,
                _ => {}
            }
        }
    }
    tokens.len()
}

/// Flags interior-mutability mentions and mutable-static uses inside a
/// serve-reachable body.
fn check_reachable_body(
    def: &FnDef,
    files: &[(String, LexedFile)],
    nested: &[(usize, usize)],
    mutable_statics: &BTreeSet<String>,
    via: &str,
    out: &mut Vec<Finding>,
) {
    let tokens = &files[def.file].1.tokens;
    let path = files[def.file].0.as_str();
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut k = def.open + 1;
    while k < def.close {
        if let Some(&(_, close)) = nested.iter().find(|&&(s, c)| s == k && c < def.close) {
            k = close + 1;
            continue;
        }
        let t = &tokens[k];
        if t.kind != TokenKind::Ident {
            k += 1;
            continue;
        }
        let name = t.text.as_str();
        // `Cell` must be qualified (`Cell::new` / `cell::Cell`): the
        // workspace has its own zero-interior-mutability `Cell` type in
        // `parallel.rs` that shares the bare name.
        let interior = (INTERIOR_MUTABLE.contains(&name) && name != "Cell")
            || name.starts_with("Atomic")
            || (name == "Cell" && qualified_cell(tokens, k));
        let static_use = mutable_statics.contains(name);
        if (interior || static_use) && seen.insert((t.line, t.text.clone())) {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::SharedMutableHotState,
                message: format!(
                    "`{}` is shared mutable state on the serve path (via {via}); shard \
                     determinism depends on per-shard isolation — restructure, or waive with \
                     lint:allow(shared-mutable-hot-state): <why>",
                    t.text
                ),
            });
        }
        k += 1;
    }
}

/// `Cell :: …` or `cell :: Cell` — the std `Cell`, not the workspace's.
fn qualified_cell(tokens: &[Token], k: usize) -> bool {
    let followed = tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(k + 2).is_some_and(|t| t.is_punct(':'));
    let preceded = k >= 3
        && tokens[k - 1].is_punct(':')
        && tokens[k - 2].is_punct(':')
        && tokens[k - 3].is_ident("cell");
    followed || preceded
}

/// Flags non-`SeqCst` atomic orderings inside defs that also touch
/// digested or serialized state.
fn check_orderings(def: &FnDef, files: &[(String, LexedFile)], out: &mut Vec<Finding>) {
    if def.in_test || !matches!(def.class, FileClass::Lib | FileClass::Bin) {
        return;
    }
    let tokens = &files[def.file].1.tokens;
    let path = files[def.file].0.as_str();
    let span = &tokens[def.start..=def.close];
    let sensitive = span.iter().any(|t| {
        t.kind == TokenKind::Ident && crate::rules::SENSITIVE_IDENTS.contains(&t.text.as_str())
    });
    if !sensitive {
        return;
    }
    for (k, t) in span.iter().enumerate() {
        let ordering = t.is_ident("Ordering")
            && span.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && span.get(k + 2).is_some_and(|n| n.is_punct(':'))
            && span
                .get(k + 3)
                .is_some_and(|n| RELAXED_ORDERINGS.contains(&n.text.as_str()));
        if ordering {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::SharedMutableHotState,
                message: format!(
                    "non-SeqCst atomic ordering `Ordering::{}` in `{}`, which touches \
                     digested/serialized state; digest inputs must not depend on platform \
                     memory-order — use SeqCst or waive with \
                     lint:allow(shared-mutable-hot-state): <why>",
                    span[k + 3].text,
                    def.name
                ),
            });
        }
    }
}

/// One lock acquisition inside a def body.
struct Acquisition {
    /// The receiver ident (`state` in `state.lock()`).
    name: String,
    /// Token index of the method name.
    at: usize,
    /// 1-based line.
    line: u32,
}

/// Builds the lock-order graph and reports its cycles. Returns the
/// number of acquisition sites seen.
fn check_lock_order(
    files: &[(String, LexedFile)],
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) -> usize {
    // Receivers declared as RwLocks (`name: RwLock<…>` / `name = RwLock::new`),
    // so bare `.read()`/`.write()` on unrelated types stay silent.
    let mut rwlock_names: BTreeSet<String> = BTreeSet::new();
    for (_, lexed) in files {
        for (k, t) in lexed.tokens.iter().enumerate() {
            if t.is_ident("RwLock") && k >= 2 {
                let sep = &lexed.tokens[k - 1];
                if (sep.is_punct(':') || sep.is_punct('='))
                    && lexed.tokens[k - 2].kind == TokenKind::Ident
                {
                    rwlock_names.insert(lexed.tokens[k - 2].text.clone());
                }
            }
        }
    }

    // Per-def acquisition lists, in body order.
    let n = graph.defs.len();
    let mut acquisitions: Vec<Vec<Acquisition>> = Vec::with_capacity(n);
    let mut lock_sites = 0usize;
    for def in &graph.defs {
        let mut list = Vec::new();
        if !def.in_test && matches!(def.class, FileClass::Lib | FileClass::Bin) {
            let tokens = &files[def.file].1.tokens;
            for k in def.open + 1..def.close {
                let t = &tokens[k];
                if t.kind != TokenKind::Ident
                    || !tokens[k - 1].is_punct('.')
                    || !tokens.get(k + 1).is_some_and(|nt| nt.is_punct('('))
                {
                    continue;
                }
                let is_lock = t.text == "lock"
                    || ((t.text == "read" || t.text == "write")
                        && k >= 2
                        && rwlock_names.contains(&tokens[k - 2].text));
                if !is_lock {
                    continue;
                }
                // Receiver must be a simple ident: `state.lock()`, not
                // `stdout().lock()` — expression receivers have no
                // stable name for the order graph.
                if k < 2 || tokens[k - 2].kind != TokenKind::Ident {
                    continue;
                }
                lock_sites += 1;
                list.push(Acquisition {
                    name: tokens[k - 2].text.clone(),
                    at: k,
                    line: t.line,
                });
            }
        }
        acquisitions.push(list);
    }

    // Transitive lock sets per def (bounded fixpoint over call edges).
    let mut lock_sets: Vec<BTreeSet<String>> = acquisitions
        .iter()
        .map(|list| list.iter().map(|a| a.name.clone()).collect())
        .collect();
    for _ in 0..64 {
        let mut changed = false;
        for id in 0..n {
            let mut add: Vec<String> = Vec::new();
            for &callee in &graph.edges[id] {
                for name in &lock_sets[callee] {
                    if !lock_sets[id].contains(name) {
                        add.push(name.clone());
                    }
                }
            }
            for name in add {
                lock_sets[id].insert(name);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges: within a def, every earlier acquisition precedes
    // every later one; a call made after an acquisition orders the held
    // lock before everything the callee (transitively) acquires.
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut edge_site: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, file: &str, line: u32| {
        if from == to {
            return;
        }
        edges
            .entry(from.to_string())
            .or_default()
            .insert(to.to_string());
        edge_site
            .entry((from.to_string(), to.to_string()))
            .or_insert((file.to_string(), line));
    };
    for (id, list) in acquisitions.iter().enumerate() {
        let def = &graph.defs[id];
        let path = files[def.file].0.as_str();
        for (p, first) in list.iter().enumerate() {
            for later in &list[p + 1..] {
                add_edge(&first.name, &later.name, path, later.line);
            }
            for call in graph.calls_of(id) {
                if call.at <= first.at {
                    continue;
                }
                for &callee in &call.resolved {
                    for name in &lock_sets[callee] {
                        add_edge(&first.name, name, path, call.line);
                    }
                }
            }
        }
    }

    // Cycle detection: DFS from each node; report each distinct cycle
    // once, normalized by rotating to its smallest member.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&String> = edges.keys().collect();
    for &start in &nodes {
        let mut path_stack: Vec<&String> = vec![start];
        let mut iter_stack: Vec<std::collections::btree_set::Iter<String>> =
            vec![edges[start].iter()];
        while let Some(it) = iter_stack.last_mut() {
            let Some(next) = it.next() else {
                path_stack.pop();
                iter_stack.pop();
                continue;
            };
            if next == start {
                let cycle = normalize_cycle(&path_stack);
                if reported.insert(cycle.clone()) {
                    let (file, line) = edge_site
                        .get(&(cycle[0].clone(), cycle[1 % cycle.len()].clone()))
                        .cloned()
                        .unwrap_or_else(|| (files[0].0.clone(), 1));
                    let mut loop_desc = cycle.join(" -> ");
                    loop_desc.push_str(" -> ");
                    loop_desc.push_str(&cycle[0]);
                    out.push(Finding {
                        file,
                        line,
                        rule: Rule::LockOrderCycle,
                        message: format!(
                            "lock acquisition order cycle `{loop_desc}`; two shards interleaving \
                             opposite orders can deadlock — impose one global acquisition order \
                             or waive with lint:allow(lock-order-cycle): <why>"
                        ),
                    });
                }
                continue;
            }
            if path_stack.contains(&next) {
                continue; // a cycle not through `start`; found from its own root
            }
            if let Some(outgoing) = edges.get(next) {
                path_stack.push(next);
                iter_stack.push(outgoing.iter());
            }
        }
    }
    lock_sites
}

/// Rotates a cycle so its lexicographically-smallest lock comes first.
fn normalize_cycle(path: &[&String]) -> Vec<String> {
    let min_at = path
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.as_str())
        .map(|(i, _)| i)
        .unwrap_or(0);
    path[min_at..]
        .iter()
        .chain(path[..min_at].iter())
        .map(|s| s.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::classify;

    const LIB: &str = "crates/demo/src/lib.rs";

    fn run(path: &str, src: &str) -> SharedOutcome {
        let files = vec![(path.to_string(), crate::lexer::lex(src))];
        let contexts: Vec<FileContext> = files
            .iter()
            .map(|(p, l)| FileContext::build(classify(p), l))
            .collect();
        let graph = CallGraph::build(&files, &contexts);
        analyze(&files, &contexts, &graph)
    }

    fn rules_hit(out: &SharedOutcome) -> Vec<(u32, &'static str)> {
        out.findings
            .iter()
            .map(|f| (f.line, f.rule.name()))
            .collect()
    }

    #[test]
    fn static_mut_and_atomic_statics_are_flagged() {
        let src = "static mut COUNTER: u64 = 0;\n\
                   static HITS: AtomicU64 = AtomicU64::new(0);\n\
                   static NAME: &str = \"fine\";\n";
        let out = run(LIB, src);
        assert_eq!(
            rules_hit(&out),
            vec![
                (1, "shared-mutable-hot-state"),
                (2, "shared-mutable-hot-state")
            ]
        );
    }

    #[test]
    fn interior_mutability_on_the_serve_path_has_a_witness() {
        let src = "pub fn serve_fleet() -> u64 { helper() }\n\
                   fn helper() -> u64 { let m = Mutex::new(1u64); 1 }\n";
        let out = run(LIB, src);
        assert_eq!(rules_hit(&out), vec![(2, "shared-mutable-hot-state")]);
        assert!(
            out.findings[0].message.contains("serve_fleet -> helper"),
            "{}",
            out.findings[0].message
        );
    }

    #[test]
    fn interior_mutability_off_the_serve_path_is_not_reported() {
        let src = "pub fn setup() -> u64 { let m = Mutex::new(1u64); 1 }\n";
        assert!(rules_hit(&run(LIB, src)).is_empty());
    }

    #[test]
    fn a_mutable_static_used_under_a_decide_path_is_caught() {
        let src = "static mut SAB: u64 = 0;\n\
                   fn bump() -> u64 { unsafe { SAB += 1; SAB } }\n\
                   pub fn decide_probe() -> u64 { bump() }\n";
        let out = run(LIB, src);
        let usage = out
            .findings
            .iter()
            .find(|f| f.line == 2)
            .expect("usage finding");
        assert!(usage.message.contains("decide_probe -> bump"));
    }

    #[test]
    fn the_workspace_bare_cell_type_is_not_interior_mutability() {
        // `parallel.rs` defines its own `Cell<'a, T>` work descriptor;
        // only qualified `Cell::new` / `cell::Cell` mean `std::cell::Cell`.
        let src = "pub fn serve_cells(cells: &[Cell<u64>]) -> usize { cells.len() }\n\
                   pub fn serve_std() -> u32 { let c = Cell::new(0u32); c.get() }\n";
        let out = run(LIB, src);
        assert_eq!(rules_hit(&out), vec![(2, "shared-mutable-hot-state")]);
    }

    #[test]
    fn relaxed_orderings_near_digests_are_flagged() {
        let src = "fn fold(digest: u64, hits: &AtomicU64) -> u64 {\n\
                   digest ^ hits.fetch_add(1, Ordering::Relaxed)\n\
                   }\n";
        let out = run(LIB, src);
        assert!(
            rules_hit(&out).contains(&(2, "shared-mutable-hot-state")),
            "{:?}",
            out.findings
        );
        let src_clean = "fn count(hits: &AtomicU64) -> u64 {\n\
                   hits.fetch_add(1, Ordering::Relaxed)\n\
                   }\n";
        let clean = run(LIB, src_clean);
        assert!(
            !clean
                .findings
                .iter()
                .any(|f| f.message.contains("Ordering")),
            "{:?}",
            clean.findings
        );
    }

    #[test]
    fn opposite_lock_orders_form_a_cycle() {
        let src = "fn serve_ab(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {\n\
                   let x = a.lock().unwrap_or_else(|e| e.into_inner());\n\
                   let y = b.lock().unwrap_or_else(|e| e.into_inner());\n\
                   *x + *y\n}\n\
                   fn serve_ba(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {\n\
                   let y = b.lock().unwrap_or_else(|e| e.into_inner());\n\
                   let x = a.lock().unwrap_or_else(|e| e.into_inner());\n\
                   *x + *y\n}\n";
        let out = run(LIB, src);
        assert!(
            out.findings.iter().any(|f| f.rule == Rule::LockOrderCycle),
            "{:?}",
            out.findings
        );
        assert_eq!(out.lock_sites, 4);
    }

    #[test]
    fn consistent_lock_orders_are_cycle_free() {
        let src = "fn first(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {\n\
                   let x = a.lock().unwrap_or_else(|e| e.into_inner());\n\
                   let y = b.lock().unwrap_or_else(|e| e.into_inner());\n\
                   *x + *y\n}\n\
                   fn second(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 { first(a, b) }\n";
        let out = run(LIB, src);
        assert!(
            !out.findings.iter().any(|f| f.rule == Rule::LockOrderCycle),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn a_cycle_through_a_callee_is_found() {
        let src = "fn serve_outer(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {\n\
                   let x = a.lock().unwrap_or_else(|e| e.into_inner());\n\
                   inner(b)\n}\n\
                   fn inner(b: &Mutex<u64>) -> u64 {\n\
                   let y = b.lock().unwrap_or_else(|e| e.into_inner());\n\
                   *y\n}\n\
                   fn serve_rev(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {\n\
                   let y = b.lock().unwrap_or_else(|e| e.into_inner());\n\
                   let x = a.lock().unwrap_or_else(|e| e.into_inner());\n\
                   *x + *y\n}\n";
        let out = run(LIB, src);
        assert!(
            out.findings.iter().any(|f| f.rule == Rule::LockOrderCycle),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn rwlock_read_write_count_only_on_declared_rwlocks() {
        let src = "struct S { table: RwLock<u64> }\n\
                   fn serve_s(s: &S, io: &FileLike) -> u64 {\n\
                   let g = table.read();\n\
                   let _ = io.read();\n\
                   1\n}\n";
        let out = run(LIB, src);
        // `table` is a declared RwLock receiver; `io` is not.
        assert_eq!(out.lock_sites, 1);
    }

    #[test]
    fn bench_statics_are_flagged_but_test_statics_are_not() {
        let src = "static HITS: AtomicU64 = AtomicU64::new(0);\n";
        assert_eq!(
            rules_hit(&run("crates/bench/src/bin/b.rs", src)),
            vec![(1, "shared-mutable-hot-state")]
        );
        let test_src = "#[cfg(test)]\nmod t {\n static HITS: AtomicU64 = AtomicU64::new(0);\n}\n";
        assert!(rules_hit(&run(LIB, test_src)).is_empty());
    }
}
