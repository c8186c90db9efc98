//! A workspace-wide function call graph, resolved through bare names
//! and `impl`/`trait` ownership.
//!
//! The interprocedural stream pass ([`crate::streams`]) needs to know,
//! for every function in the tree, which other functions it may call. Rust name resolution is out of scope for a lexer-level
//! analyzer, so the graph is deliberately **conservative**:
//!
//! * a free call `foo(…)` edges to every workspace **free** `fn foo`;
//!   a method call `x.foo(…)` edges to every workspace **method**
//!   `foo` — the two namespaces never cross, so a `.collect()` does not
//!   edge into a free `fn collect` three crates away;
//! * a method call whose name is ubiquitous std surface (`len`, `map`,
//!   `unwrap`, `clone`, …) creates **no** edges at all: wiring every
//!   `.len()` to every workspace `len` method would melt the graph into
//!   one component. The cost is that a workspace method shadowing a std
//!   name is invisible to the stream pass — documented in
//!   DESIGN.md as a known soundness hole;
//! * a qualified call `Type::foo(…)` narrows to definitions owned by
//!   `Type` (an `impl Type` block or a `trait Type` declaration) when
//!   any exist, and falls back to all `foo` definitions otherwise;
//! * a call whose name matches no workspace definition is recorded as
//!   **unresolved** and counted in the JSON report.
//!
//! Over-approximation (extra edges) can only widen the reachable sets,
//! never hide a finding; missing edges are what
//! the unresolved accounting exists to make visible.

use std::collections::{BTreeMap, BTreeSet};

use crate::context::{FileClass, FileContext};
use crate::lexer::{LexedFile, Token, TokenKind};

/// One function definition in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's bare name.
    pub name: String,
    /// The `impl` target type or `trait` this fn is declared under, if
    /// any (`impl Scheduler for OracleScheduler` → `OracleScheduler`).
    pub owner: Option<String>,
    /// The trait being implemented or declared (`Scheduler` for both the
    /// trait block and every `impl Scheduler for …`).
    pub trait_name: Option<String>,
    /// Index of the file this fn lives in (into the analyzed file list).
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token index of the body's opening `{`.
    pub open: usize,
    /// Token index of the body's closing `}`.
    pub close: usize,
    /// Whether the fn sits inside `#[cfg(test)]` code.
    pub in_test: bool,
    /// The defining file's path class.
    pub class: FileClass,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Id of the calling [`FnDef`].
    pub caller: usize,
    /// The called name (the last path segment).
    pub name: String,
    /// Whether this is a `.name(…)` method call.
    pub is_method: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// Token index of the callee name.
    pub at: usize,
    /// Resolved callee def ids (empty when unresolved).
    pub resolved: Vec<usize>,
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Every fn definition, in (file, token) order. Ids index this.
    pub defs: Vec<FnDef>,
    /// Every call site, grouped by nothing — filter by `caller`.
    pub calls: Vec<CallSite>,
    /// Adjacency: def id → callee def ids (deduplicated).
    pub edges: Vec<Vec<usize>>,
    /// name → def ids, for resolution.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Every type/trait name that owns at least one workspace `fn` —
    /// used to tell `Vec::new` (external, unresolvable) from
    /// `QStore::new` (ours).
    owners: BTreeSet<String>,
    /// Call sites per def id (indices into `calls`).
    calls_by_def: Vec<Vec<usize>>,
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "move", "break",
];

/// Method calls that copy into fresh heap storage.
const COPYING_METHODS: [&str; 5] = ["clone", "collect", "to_vec", "to_owned", "to_string"];

/// Allocation-free std method names: iterator adaptors, Option/Result
/// combinators, slice accessors, numeric ops and seeded-RNG draws.
/// Growth-prone std methods (`push`, `insert`, `extend`, `sort`,
/// `reserve`) are not listed, so a workspace method of that name still
/// receives edges. Changing the list changes the graph the stream pass
/// runs on.
const STD_ALLOC_FREE: [&str; 159] = [
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

/// Whether a method name is ubiquitous std surface — iterator
/// adaptors, Option/Result combinators, slice accessors, the copying
/// methods. Method calls with these names never edge into the
/// workspace.
fn is_common_std_method(name: &str) -> bool {
    STD_ALLOC_FREE.contains(&name) || COPYING_METHODS.contains(&name)
}

impl CallGraph {
    /// Builds the graph over a set of lexed files. `files` must align
    /// index-for-index with the contexts.
    pub fn build(files: &[(String, LexedFile)], contexts: &[FileContext]) -> CallGraph {
        let mut graph = CallGraph::default();
        // Pass 1: definitions and ownership.
        for (file_idx, (_path, lexed)) in files.iter().enumerate() {
            let ctx = &contexts[file_idx];
            let owners = owner_blocks(&lexed.tokens);
            for span in &ctx.fn_spans {
                let Some(name_tok) = lexed.tokens.get(span.start + 1) else {
                    continue;
                };
                if name_tok.kind != TokenKind::Ident {
                    continue;
                }
                let owning = owners
                    .iter()
                    .filter(|b| b.open < span.start && span.close <= b.close)
                    .max_by_key(|b| b.open);
                graph.defs.push(FnDef {
                    name: name_tok.text.clone(),
                    owner: owning.and_then(|b| b.owner.clone()),
                    trait_name: owning.and_then(|b| b.trait_name.clone()),
                    file: file_idx,
                    line: lexed.tokens[span.start].line,
                    start: span.start,
                    open: span.open,
                    close: span.close,
                    in_test: ctx.in_test[span.start],
                    class: ctx.class,
                });
            }
        }
        for (id, def) in graph.defs.iter().enumerate() {
            graph.by_name.entry(def.name.clone()).or_default().push(id);
            if let Some(owner) = &def.owner {
                graph.owners.insert(owner.clone());
            }
            if let Some(trait_name) = &def.trait_name {
                graph.owners.insert(trait_name.clone());
            }
        }
        // Pass 2: call sites and edges. Nested fns own their tokens: a
        // call inside a nested fn is attributed to the innermost def.
        graph.calls_by_def = vec![Vec::new(); graph.defs.len()];
        graph.edges = vec![Vec::new(); graph.defs.len()];
        for (file_idx, (_path, lexed)) in files.iter().enumerate() {
            let def_ids: Vec<usize> = graph
                .defs
                .iter()
                .enumerate()
                .filter(|(_, d)| d.file == file_idx)
                .map(|(id, _)| id)
                .collect();
            let mut k = 0;
            while k < lexed.tokens.len() {
                // Attribute groups (`#[derive(…)]`, `#[cfg(…)]`) are
                // full of `ident (` shapes that are not calls.
                if lexed.tokens[k].is_punct('#')
                    && lexed.tokens.get(k + 1).is_some_and(|t| t.is_punct('['))
                {
                    if let Some(end) = close_square(&lexed.tokens, k + 1) {
                        k = end + 1;
                        continue;
                    }
                }
                let Some(site) = call_at(&lexed.tokens, k) else {
                    k += 1;
                    continue;
                };
                // Innermost enclosing def wins.
                let Some(&caller) = def_ids
                    .iter()
                    .filter(|&&id| {
                        let d = &graph.defs[id];
                        d.open < k && k < d.close
                    })
                    .max_by_key(|&&id| graph.defs[id].open)
                else {
                    k += 1;
                    continue;
                };
                let resolved = graph.resolve(
                    &site.name,
                    site.qualifier.as_deref(),
                    site.is_method,
                    caller,
                );
                for &callee in &resolved {
                    if !graph.edges[caller].contains(&callee) {
                        graph.edges[caller].push(callee);
                    }
                }
                let call_idx = graph.calls.len();
                graph.calls.push(CallSite {
                    caller,
                    name: site.name,
                    is_method: site.is_method,
                    line: lexed.tokens[k].line,
                    at: k,
                    resolved,
                });
                graph.calls_by_def[caller].push(call_idx);
                k += 1;
            }
        }
        graph
    }

    /// Resolves a called name to candidate def ids.
    ///
    /// * a `.name(…)` method call whose name is ubiquitous std surface
    ///   ([`is_common_std_method`]) → no edges, by design;
    /// * otherwise a method call → every workspace **method** of that
    ///   name; a free, unqualified call → every **free** `fn` of that
    ///   name; a snake_case qualifier (a module path like
    ///   `session::fnv1a_fold`) → free `fn`s likewise;
    /// * `Self::name` → narrowed to the caller's own `impl` owner;
    /// * a CamelCase qualifier that owns workspace fns → narrowed to
    ///   definitions under that type/trait (empty when the type has no
    ///   such method — a derived or std-trait call);
    /// * a CamelCase qualifier unknown to the workspace (`Vec::new`,
    ///   `Instant::now`) → unresolved, never a false edge into
    ///   same-named workspace constructors.
    fn resolve(
        &self,
        name: &str,
        qualifier: Option<&str>,
        is_method: bool,
        caller: usize,
    ) -> Vec<usize> {
        if is_method && is_common_std_method(name) {
            return Vec::new();
        }
        let Some(candidates) = self.by_name.get(name) else {
            return Vec::new();
        };
        let narrow_to = |owner: &str| -> Vec<usize> {
            candidates
                .iter()
                .copied()
                .filter(|&id| {
                    let d = &self.defs[id];
                    d.owner.as_deref() == Some(owner) || d.trait_name.as_deref() == Some(owner)
                })
                .collect()
        };
        // Free calls and method calls live in disjoint namespaces: a
        // bare `foo(…)` can only be a free fn, an `x.foo(…)` can only
        // be a method (UFCS aside, which always carries a qualifier).
        let same_shape = |ids: &[usize]| -> Vec<usize> {
            ids.iter()
                .copied()
                .filter(|&id| self.defs[id].owner.is_some() == is_method)
                .collect()
        };
        match qualifier {
            None => same_shape(candidates),
            Some("Self") => match self.defs[caller].owner.clone() {
                Some(owner) => {
                    let narrowed = narrow_to(&owner);
                    if narrowed.is_empty() {
                        candidates.clone()
                    } else {
                        narrowed
                    }
                }
                None => candidates.clone(),
            },
            Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => {
                if self.owners.contains(q) {
                    narrow_to(q)
                } else {
                    Vec::new()
                }
            }
            // snake_case: a module path segment, not a type — the
            // segment addresses a free fn in that module.
            Some(_) => same_shape(candidates),
        }
    }

    /// The call sites made from one def.
    pub fn calls_of(&self, def: usize) -> impl Iterator<Item = &CallSite> {
        self.calls_by_def[def].iter().map(|&i| &self.calls[i])
    }

    /// Unresolved call sites from non-test library/binary defs: the
    /// graph's blind spots, surfaced in the report's analysis block.
    pub fn unresolved_calls(&self) -> impl Iterator<Item = &CallSite> {
        self.calls.iter().filter(|c| {
            let d = &self.defs[c.caller];
            c.resolved.is_empty()
                && !d.in_test
                && matches!(d.class, FileClass::Lib | FileClass::Bin)
        })
    }

    /// Total number of call edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Renders the graph as Graphviz DOT: one node per non-test def,
    /// unresolved calls as dashed edges to a per-caller `?name`
    /// placeholder.
    pub fn render_dot(&self, files: &[String]) -> String {
        let mut out =
            String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        for (id, def) in self.defs.iter().enumerate() {
            if def.in_test {
                continue;
            }
            let label = match &def.owner {
                Some(owner) => format!("{owner}::{}", def.name),
                None => def.name.clone(),
            };
            out.push_str(&format!(
                "  n{id} [label=\"{}\\n{}:{}\"];\n",
                dot_escape(&label),
                dot_escape(files.get(def.file).map(String::as_str).unwrap_or("?")),
                def.line
            ));
        }
        for (id, callees) in self.edges.iter().enumerate() {
            if self.defs[id].in_test {
                continue;
            }
            for &callee in callees {
                if !self.defs[callee].in_test {
                    out.push_str(&format!("  n{id} -> n{callee};\n"));
                }
            }
        }
        for call in self.unresolved_calls() {
            out.push_str(&format!(
                "  n{} -> \"?{}\" [style=dashed, color=gray];\n",
                call.caller,
                dot_escape(&call.name)
            ));
        }
        out.push_str("}\n");
        out
    }
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One `impl`/`trait` block with its brace-matched extent.
#[derive(Debug, Clone)]
struct OwnerBlock {
    open: usize,
    close: usize,
    owner: Option<String>,
    trait_name: Option<String>,
}

/// Finds every `impl …` / `trait …` block and the type names that own
/// it. `impl Trait for Type` records owner=Type, trait=Trait; a bare
/// `impl Type` records owner=Type; `trait Name` records both as Name.
fn owner_blocks(tokens: &[Token]) -> Vec<OwnerBlock> {
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_ident("trait") {
            if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                if let Some((open, close)) = block_extent(tokens, i + 2) {
                    blocks.push(OwnerBlock {
                        open,
                        close,
                        owner: Some(name.text.clone()),
                        trait_name: Some(name.text.clone()),
                    });
                    i += 2;
                    continue;
                }
            }
        } else if t.is_ident("impl") {
            if let Some(block) = parse_impl(tokens, i) {
                blocks.push(block);
            }
        }
        i += 1;
    }
    blocks
}

/// Parses `impl [<…>] PathA [for PathB] [where …] { … }` starting at
/// the `impl` keyword.
fn parse_impl(tokens: &[Token], at: usize) -> Option<OwnerBlock> {
    let mut i = at + 1;
    if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_angles(tokens, i)?;
    }
    let (path_a, mut i) = parse_type_path(tokens, i)?;
    let mut path_b = None;
    if tokens.get(i).is_some_and(|t| t.is_ident("for")) {
        let (b, after) = parse_type_path(tokens, i + 1)?;
        path_b = Some(b);
        i = after;
    }
    let (open, close) = block_extent(tokens, i)?;
    match path_b {
        Some(b) => Some(OwnerBlock {
            open,
            close,
            owner: Some(b),
            trait_name: Some(path_a),
        }),
        None => Some(OwnerBlock {
            open,
            close,
            owner: Some(path_a),
            trait_name: None,
        }),
    }
}

/// Parses a type path (`a::b::C<X>`, `&mut T`, `dyn T`) and returns its
/// last identifier segment and the index just past it (generic
/// arguments skipped).
fn parse_type_path(tokens: &[Token], mut i: usize) -> Option<(String, usize)> {
    while tokens.get(i).is_some_and(|t| {
        t.is_punct('&') || t.kind == TokenKind::Lifetime || t.is_ident("mut") || t.is_ident("dyn")
    }) {
        i += 1;
    }
    let mut last = None;
    loop {
        match tokens.get(i) {
            Some(t) if t.kind == TokenKind::Ident => {
                last = Some(t.text.clone());
                i += 1;
            }
            _ => break,
        }
        if tokens.get(i).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        {
            i += 2;
            continue;
        }
        if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
            i = skip_angles(tokens, i)?;
        }
        break;
    }
    last.map(|l| (l, i))
}

/// From `from`, finds the next top-level `{` (skipping a `where`
/// clause) and returns (open, close); `None` when a `;` ends the item
/// first (e.g. `impl Trait for Type;` never occurs, but trait aliases
/// can).
fn block_extent(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            let close = close_brace(tokens, i)?;
            return Some((i, close));
        }
        if t.is_punct(';') {
            return None;
        }
        if t.is_punct('<') {
            i = skip_angles(tokens, i)?;
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') {
            i = close_delim(tokens, i)? + 1;
            continue;
        }
        i += 1;
    }
    None
}

fn close_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn close_square(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn close_delim(tokens: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match tokens.get(open).map(|t| t.kind) {
        Some(TokenKind::Punct('(')) => ('(', ')'),
        Some(TokenKind::Punct('[')) => ('[', ']'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Skips past a `<…>` group honoring `->`; returns the index just past
/// the closing `>`.
fn skip_angles(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let is_arrow = i > 0 && tokens[i - 1].is_punct('-') && tokens[i - 1].is_joint(t);
            if !is_arrow {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
        }
        i += 1;
    }
    None
}

/// The path qualifier of the ident at `k`: for `session::fnv1a_fold`
/// or `Vec::<u8>::with_capacity`, the ident segment before the final
/// `::` (skipping back over a turbofish/generic group).
fn path_qualifier(tokens: &[Token], k: usize) -> Option<&str> {
    if k < 3 || !tokens[k - 1].is_punct(':') || !tokens[k - 2].is_punct(':') {
        return None;
    }
    let mut q = k - 3;
    if tokens[q].is_punct('>') {
        // Walk back over `<…>` (e.g. `Vec::<u8>::`), then any `::`.
        let mut depth = 0usize;
        loop {
            let t = &tokens[q];
            if t.is_punct('>') {
                depth += 1;
            } else if t.is_punct('<') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if q == 0 {
                return None;
            }
            q -= 1;
        }
        while q > 0 && tokens[q - 1].is_punct(':') {
            q -= 1;
        }
        if q == 0 {
            return None;
        }
        q -= 1;
    }
    if tokens[q].kind == TokenKind::Ident {
        Some(&tokens[q].text)
    } else {
        None
    }
}

/// A raw call site before resolution.
struct RawCall {
    name: String,
    qualifier: Option<String>,
    is_method: bool,
}

/// Recognizes a call whose callee name sits at token `k`: `name(…)`,
/// `name::<T>(…)`, `x.name(…)`, or `Type::name(…)`. Macro bangs and
/// `fn` definitions are excluded.
fn call_at(tokens: &[Token], k: usize) -> Option<RawCall> {
    let t = tokens.get(k)?;
    if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    // Definition, not a call.
    if k > 0 && tokens[k - 1].is_ident("fn") {
        return None;
    }
    // Find the arg-list `(`: either directly, or after a turbofish.
    let mut open = k + 1;
    if tokens.get(open).is_some_and(|t| t.is_punct(':'))
        && tokens.get(open + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(open + 2).is_some_and(|t| t.is_punct('<'))
    {
        open = skip_angles(tokens, open + 2)?;
    }
    if !tokens.get(open).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let is_method = k > 0 && tokens[k - 1].is_punct('.');
    let qualifier = path_qualifier(tokens, k).map(str::to_string);
    Some(RawCall {
        name: t.text.clone(),
        qualifier,
        is_method,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::classify;
    use crate::lexer::lex;

    fn graph_of(path: &str, src: &str) -> (CallGraph, Vec<(String, LexedFile)>) {
        let files = vec![(path.to_string(), lex(src))];
        let contexts: Vec<FileContext> = files
            .iter()
            .map(|(p, l)| FileContext::build(classify(p), l))
            .collect();
        (CallGraph::build(&files, &contexts), files)
    }

    const LIB: &str = "crates/demo/src/lib.rs";

    #[test]
    fn defs_record_impl_and_trait_ownership() {
        let src = "trait Kernel { fn go(&self) { helper(); } }\n\
                   struct S;\n\
                   impl Kernel for S { fn go(&self) {} }\n\
                   impl S { fn own(&self) {} }\n\
                   fn helper() {}\n";
        let (g, _) = graph_of(LIB, src);
        let names: Vec<(String, Option<String>, Option<String>)> = g
            .defs
            .iter()
            .map(|d| (d.name.clone(), d.owner.clone(), d.trait_name.clone()))
            .collect();
        assert!(names.contains(&("go".into(), Some("Kernel".into()), Some("Kernel".into()))));
        assert!(names.contains(&("go".into(), Some("S".into()), Some("Kernel".into()))));
        assert!(names.contains(&("own".into(), Some("S".into()), None)));
        assert!(names.contains(&("helper".into(), None, None)));
    }

    #[test]
    fn calls_resolve_and_edges_form() {
        let src = "struct C;\n\
                   impl C { fn mth(&self) {} }\n\
                   fn a(c: &C) { b(); c.mth(); }\nfn b() { }\n";
        let (g, _) = graph_of(LIB, src);
        let a = g.defs.iter().position(|d| d.name == "a").unwrap();
        let b = g.defs.iter().position(|d| d.name == "b").unwrap();
        let m = g.defs.iter().position(|d| d.name == "mth").unwrap();
        assert!(g.edges[a].contains(&b));
        // Method calls resolve by bare name across all workspace methods.
        assert!(g.edges[a].contains(&m));
    }

    #[test]
    fn method_and_free_namespaces_never_cross() {
        // `x.relay()` must not edge into the free `fn relay`, and the
        // free `probe()` must not edge into the method `probe` — else
        // every `.collect()` in the tree would resolve to any free
        // `fn collect` and wire unrelated crates together.
        let src = "struct S;\n\
                   impl S { fn probe(&self) {} }\n\
                   fn relay() {}\n\
                   fn f(s: &S) { s.relay(); probe(); }\n";
        let (g, _) = graph_of(LIB, src);
        let f = g.defs.iter().position(|d| d.name == "f").unwrap();
        assert!(g.edges[f].is_empty(), "edges: {:?}", g.edges[f]);
        let unresolved: Vec<&str> = g.unresolved_calls().map(|c| c.name.as_str()).collect();
        assert_eq!(unresolved, vec!["relay", "probe"]);
    }

    #[test]
    fn common_std_method_names_never_edge_into_the_workspace() {
        // A workspace type may define `len`; `.len()` calls elsewhere
        // still must not edge to it (nor to any of the other eight
        // same-named methods a real tree accumulates).
        let src = "struct Q;\n\
                   impl Q { fn len(&self) -> usize { 0 } }\n\
                   fn f(v: &[u8]) -> usize { v.len() }\n";
        let (g, _) = graph_of(LIB, src);
        let f = g.defs.iter().position(|d| d.name == "f").unwrap();
        assert!(g.edges[f].is_empty(), "edges: {:?}", g.edges[f]);
        // An explicit `Q::len(&q)` UFCS call still resolves, though.
        let src2 = "struct Q;\n\
                    impl Q { fn len(&self) -> usize { 0 } }\n\
                    fn f(q: &Q) -> usize { Q::len(q) }\n";
        let (g2, _) = graph_of(LIB, src2);
        let f2 = g2.defs.iter().position(|d| d.name == "f").unwrap();
        let q_len = g2
            .defs
            .iter()
            .position(|d| d.name == "len" && d.owner.as_deref() == Some("Q"))
            .unwrap();
        assert!(g2.edges[f2].contains(&q_len));
    }

    #[test]
    fn qualified_calls_narrow_to_owner() {
        let src = "struct A; struct B;\n\
                   impl A { fn new() -> A { A } }\n\
                   impl B { fn new() -> B { B } }\n\
                   fn f() { let x = A::new(); }\n";
        let (g, _) = graph_of(LIB, src);
        let f = g.defs.iter().position(|d| d.name == "f").unwrap();
        let a_new = g
            .defs
            .iter()
            .position(|d| d.name == "new" && d.owner.as_deref() == Some("A"))
            .unwrap();
        let b_new = g
            .defs
            .iter()
            .position(|d| d.name == "new" && d.owner.as_deref() == Some("B"))
            .unwrap();
        assert!(g.edges[f].contains(&a_new));
        assert!(!g.edges[f].contains(&b_new));
    }

    #[test]
    fn unresolved_calls_are_accounted() {
        let src = "fn f(v: &mut Vec<u8>) { v.mystery_method(); known(); }\nfn known() {}\n";
        let (g, _) = graph_of(LIB, src);
        let unresolved: Vec<&str> = g.unresolved_calls().map(|c| c.name.as_str()).collect();
        assert_eq!(unresolved, vec!["mystery_method"]);
    }

    #[test]
    fn turbofish_calls_are_recognized() {
        let src = "fn f() { g::<u8>(); }\nfn g<T>() {}\n";
        let (g, _) = graph_of(LIB, src);
        let f = g.defs.iter().position(|d| d.name == "f").unwrap();
        let gd = g.defs.iter().position(|d| d.name == "g").unwrap();
        assert!(g.edges[f].contains(&gd));
    }
}
