//! Stream-discipline analysis: RNG seed derivation and draw-count
//! stability on per-request paths.
//!
//! The workspace's determinism contract has two halves the per-file
//! rules cannot see:
//!
//! 1. **Every RNG stream derives from the workspace seed discipline.**
//!    Sessions split their seed as `cell_seed(seed, 0/1/2)` and hand
//!    each sub-stream to `seeded_rng`/`StdRng::seed_from_u64`. A
//!    constructor fed a bare literal (`seed_from_u64(42)`) creates a
//!    stream no replay harness can re-derive —
//!    [`crate::rules::Rule::UnderivedRngStream`].
//! 2. **Per-request code consumes a branch-invariant number of
//!    draws.** The fault injector draws exactly
//!    `FAULT_DRAWS_PER_REQUEST` values per request (see
//!    `crates/sim/src/faults.rs`) so fault schedules are prefix-stable
//!    and policy-independent; a branch that draws on one arm but not
//!    the other silently shifts every later stream. The pass runs a
//!    per-function **draw-count interval analysis** over branchy
//!    control flow, sums callee intervals through the workspace call
//!    graph, and flags any function reachable from a per-request entry
//!    point whose branch arms consume unequal counts
//!    ([`crate::rules::Rule::DivergentRngDraws`]) or whose count
//!    depends on policy/Q-state
//!    ([`crate::rules::Rule::PolicyDependentDraws`]).
//!
//! ## Entry points
//!
//! * every method of `FaultInjector` (the per-request fault stream);
//! * every method of `ArrivalSampler` and `ChurnWindow` (the
//!   per-session traffic streams: fixed draws per arrival / per
//!   session keep open-loop schedules prefix-stable);
//! * any function whose name starts with `decide`.
//!
//! Reachability is restricted to non-test library code.
//!
//! ## Interval rules
//!
//! * a draw intrinsic (`.gen()`, `.gen_range(…)`, `.gen_bool(…)`,
//!   `.next_u32/u64/f64()`, `.fill_bytes(…)`) counts as exactly one
//!   draw event — unless its receiver is a local the function bound to a
//!   clone (`let mut rng = origin.clone();`): draws on a private copy
//!   shift no stream a caller or a later request sees, so they count
//!   zero;
//! * sequencing adds intervals (saturating at a cap);
//! * `if`/`match` unions the arm intervals — and records a
//!   **divergence event** when the arms differ (a missing `else` is an
//!   implicit zero-draw arm);
//! * loops whose header or body draws widen to `[0, max]`: a widened
//!   interval is *not* itself a divergence event (a fixed-bound loop
//!   like the injector's per-link attempt loop stays clean), but it
//!   participates conservatively in any enclosing branch comparison;
//! * a call site contributes the union of its resolved callees'
//!   intervals; unresolved calls contribute nothing (std surface does
//!   not draw — the RNG intrinsics above are matched directly).
//!
//! ## Soundness caveats
//!
//! Draws inside closures passed to iterator adaptors are counted once,
//! not per element — hoist them into explicit loops if they matter.
//! Match-arm guards are attributed to their arm even though Rust
//! evaluates guards in pattern order. The fixpoint is bounded: a
//! recursive cycle that keeps growing is pinned to the full interval
//! rather than iterated to saturation.
//!
//! ## Waiving
//!
//! `// lint:draws-exempt(<why>)` (trailing, or standalone above the
//! branch) waives all three stream rules for the covered statement.
//! The epsilon-greedy draw protocol — one uniform draw per decision
//! plus one bounded integer draw on the exploration arm only — is the
//! sanctioned, digest-pinned example of a deliberately divergent
//! branch.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FnDef};
use crate::context::{FileClass, FileContext};
use crate::lexer::{LexedFile, Token, TokenKind};
use crate::rules::{Finding, Rule};

/// What the stream-discipline pass produced.
#[derive(Debug, Clone, Default)]
pub struct StreamOutcome {
    /// Findings, unfiltered by suppressions (the caller filters).
    pub findings: Vec<Finding>,
    /// Per-def: whether the function is reachable from a per-request
    /// stream entry point (and therefore draw-count checked).
    pub checked: Vec<bool>,
}

/// Saturation cap for draw counts: anything at or beyond this is "many".
const MAX_DRAWS: u32 = 1 << 16;

/// Fixpoint bound before a still-changing def is pinned to [`Interval::TOP`].
const MAX_ROUNDS: usize = 64;

/// How many times one def may change before being pinned (breaks
/// slow-growing recursion without iterating to saturation).
const MAX_CHANGES: u32 = 32;

/// A draw-count interval `[lo, hi]`, saturating at [`MAX_DRAWS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Fewest draws any path through the code consumes.
    pub lo: u32,
    /// Most draws any path consumes (saturating).
    pub hi: u32,
}

impl Interval {
    /// No draws on any path.
    pub const ZERO: Interval = Interval { lo: 0, hi: 0 };
    /// The full range — the analysis gave up counting.
    pub const TOP: Interval = Interval {
        lo: 0,
        hi: MAX_DRAWS,
    };

    /// Exactly `n` draws on every path.
    pub fn exact(n: u32) -> Interval {
        let n = n.min(MAX_DRAWS);
        Interval { lo: n, hi: n }
    }

    /// Sequential composition: both intervals are consumed.
    pub fn seq(self, other: Interval) -> Interval {
        Interval {
            lo: (self.lo + other.lo).min(MAX_DRAWS),
            hi: (self.hi + other.hi).min(MAX_DRAWS),
        }
    }

    /// Branch join: either interval may be consumed.
    pub fn union(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Human rendering: `2`, `0..1`, or `1..many`.
    pub fn render(self) -> String {
        if self.lo == self.hi {
            return self.lo.to_string();
        }
        if self.hi >= MAX_DRAWS {
            return format!("{}..many", self.lo);
        }
        format!("{}..{}", self.lo, self.hi)
    }
}

/// Method names that consume exactly one draw event from an RNG.
const DRAW_METHODS: [&str; 8] = [
    "gen",
    "gen_bool",
    "gen_range",
    "next_u32",
    "next_u64",
    "next_f64",
    "fill_bytes",
    "random",
];

/// Identifier fragments that mark a branch condition as policy/Q-state
/// dependent (matched case-insensitively as substrings).
const POLICY_IDENTS: [&str; 11] = [
    "epsilon", "policy", "greedy", "explor", "exploit", "argmax", "q_table", "qtable", "q_value",
    "agent", "action",
];

/// One branch whose arms consume unequal draw counts.
#[derive(Debug, Clone)]
struct Divergence {
    /// 1-based line of the `if`/`match` keyword (the waiver anchor).
    line: u32,
    /// `"if"` or `"match"`.
    construct: &'static str,
    /// The smallest arm interval.
    min_arm: Interval,
    /// The largest arm interval.
    max_arm: Interval,
    /// The policy ident the condition mentions, when it does.
    policy: Option<String>,
}

/// Runs the stream-discipline analysis over the whole workspace.
pub fn analyze(
    files: &[(String, LexedFile)],
    contexts: &[FileContext],
    graph: &CallGraph,
) -> StreamOutcome {
    let mut findings = Vec::new();
    for (i, (path, lexed)) in files.iter().enumerate() {
        check_underived(path, lexed, &contexts[i], &mut findings);
    }

    // Nested fn spans per file, so an outer body walk skips inner items.
    let mut nested_by_file: Vec<Vec<(usize, usize)>> = vec![Vec::new(); files.len()];
    for d in &graph.defs {
        nested_by_file[d.file].push((d.start, d.close));
    }

    // Bounded monotone fixpoint of per-def draw intervals.
    let n = graph.defs.len();
    let mut summaries = vec![Interval::ZERO; n];
    let mut changes = vec![0u32; n];
    for _round in 0..MAX_ROUNDS {
        let mut changed = false;
        for (id, def) in graph.defs.iter().enumerate() {
            if summaries[id] == Interval::TOP {
                continue;
            }
            let (next, _) = walk_def(id, files, graph, &summaries, &nested_by_file[def.file]);
            if next != summaries[id] {
                changes[id] += 1;
                summaries[id] = if changes[id] > MAX_CHANGES {
                    Interval::TOP
                } else {
                    next
                };
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Reachability from per-request entry points, with caller witnesses.
    let entries: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.in_test && d.class == FileClass::Lib && is_entry(d))
        .map(|(id, _)| id)
        .collect();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut checked = vec![false; n];
    let mut stack = Vec::new();
    for &e in &entries {
        checked[e] = true;
        stack.push(e);
    }
    while let Some(id) = stack.pop() {
        for &next in &graph.edges[id] {
            let d = &graph.defs[next];
            if !checked[next] && !d.in_test && d.class == FileClass::Lib {
                checked[next] = true;
                parent[next] = Some(id);
                stack.push(next);
            }
        }
    }

    // Final event pass with converged summaries, checked defs only.
    for (id, def) in graph.defs.iter().enumerate() {
        if !checked[id] {
            continue;
        }
        let (_, events) = walk_def(id, files, graph, &summaries, &nested_by_file[def.file]);
        let path = files[def.file].0.as_str();
        let via = witness_path(graph, &parent, id);
        for ev in events {
            findings.push(divergence_finding(path, def, &via, &ev));
        }
    }
    StreamOutcome { findings, checked }
}

/// Whether a def is a per-request stream entry point.
fn is_entry(d: &FnDef) -> bool {
    let owner = d.owner.as_deref().unwrap_or("");
    owner == "FaultInjector"
        || owner == "ArrivalSampler"
        || owner == "ChurnWindow"
        || d.name.starts_with("decide")
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

fn divergence_finding(path: &str, def: &FnDef, via: &str, ev: &Divergence) -> Finding {
    match &ev.policy {
        Some(ident) => Finding {
            file: path.to_string(),
            line: ev.line,
            rule: Rule::PolicyDependentDraws,
            message: format!(
                "the number of RNG draws in `{}` depends on policy/Q-state (`{}` branches on \
                 `{ident}`, arms draw {} vs {}; via {via}); policy-dependent counts entangle \
                 exploration with every later stream — use a fixed draw protocol or waive with \
                 lint:draws-exempt(<why>)",
                def.name,
                ev.construct,
                ev.min_arm.render(),
                ev.max_arm.render(),
            ),
        },
        None => Finding {
            file: path.to_string(),
            line: ev.line,
            rule: Rule::DivergentRngDraws,
            message: format!(
                "`{}` arms in `{}` consume unequal RNG draw counts ({} vs {}; via {via}); \
                 per-request draw counts must be branch-invariant so downstream streams stay \
                 aligned — equalize with a burn draw or waive with lint:draws-exempt(<why>)",
                ev.construct,
                def.name,
                ev.min_arm.render(),
                ev.max_arm.render(),
            ),
        },
    }
}

/// Walks one def body, returning its draw interval and divergence
/// events, using the current callee summaries.
fn walk_def(
    id: usize,
    files: &[(String, LexedFile)],
    graph: &CallGraph,
    summaries: &[Interval],
    nested: &[(usize, usize)],
) -> (Interval, Vec<Divergence>) {
    let def = &graph.defs[id];
    let tokens = &files[def.file].1.tokens;
    // Call sites by token index, pre-joined over resolved callees.
    let mut calls: BTreeMap<usize, Interval> = BTreeMap::new();
    for call in graph.calls_of(id) {
        if call.resolved.is_empty() {
            continue;
        }
        let mut iv = summaries[call.resolved[0]];
        for &r in &call.resolved[1..] {
            iv = iv.union(summaries[r]);
        }
        if iv != Interval::ZERO {
            calls.insert(call.at, iv);
        }
    }
    let mut walker = Walker {
        tokens,
        calls: &calls,
        nested,
        private: private_clones(tokens, def.open, def.close),
        events: Vec::new(),
    };
    let iv = walker.walk(def.open + 1, def.close);
    (iv, walker.events)
}

/// Locals a def body binds to a clone (`let [mut] name = ….clone();`):
/// generators drawn through them are private copies.
fn private_clones(tokens: &[Token], open: usize, close: usize) -> Vec<&str> {
    let mut names = Vec::new();
    for k in open + 1..close {
        if !tokens[k].is_ident("let") {
            continue;
        }
        let at = if tokens.get(k + 1).is_some_and(|t| t.is_ident("mut")) {
            k + 2
        } else {
            k + 1
        };
        let bound = tokens.get(at).is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens.get(at + 1).is_some_and(|t| t.is_punct('='));
        let Some(semi) = (at + 2..close).find(|&j| tokens[j].is_punct(';')) else {
            continue;
        };
        let clone_call = semi >= 4
            && tokens[semi - 4].is_punct('.')
            && tokens[semi - 3].is_ident("clone")
            && tokens[semi - 2].is_punct('(')
            && tokens[semi - 1].is_punct(')');
        if bound && clone_call {
            names.push(tokens[at].text.as_str());
        }
    }
    names
}

/// The recursive body walker.
struct Walker<'a> {
    tokens: &'a [Token],
    calls: &'a BTreeMap<usize, Interval>,
    nested: &'a [(usize, usize)],
    /// Locals holding private clones of a generator ([`private_clones`]).
    private: Vec<&'a str>,
    events: Vec<Divergence>,
}

impl Walker<'_> {
    /// Linear walk of `[i, end)`, recursing into control flow.
    fn walk(&mut self, mut i: usize, end: usize) -> Interval {
        let mut total = Interval::ZERO;
        while i < end {
            // Skip nested fn items: their draws belong to their own def.
            if let Some(&(_, close)) = self.nested.iter().find(|&&(s, c)| s == i && c < end) {
                i = close + 1;
                continue;
            }
            let t = &self.tokens[i];
            if t.kind == TokenKind::Ident {
                match t.text.as_str() {
                    "if" => {
                        let (iv, next) = self.parse_if(i, end);
                        total = total.seq(iv);
                        i = next.max(i + 1);
                        continue;
                    }
                    "match" => {
                        let (iv, next) = self.parse_match(i, end);
                        total = total.seq(iv);
                        i = next.max(i + 1);
                        continue;
                    }
                    "for" | "while" | "loop" => {
                        let (iv, next) = self.parse_loop(i, end);
                        total = total.seq(iv);
                        i = next.max(i + 1);
                        continue;
                    }
                    _ => {}
                }
                if self.is_draw(i) {
                    total = total.seq(Interval::exact(1));
                    i += 1;
                    continue;
                }
                if let Some(iv) = self.calls.get(&i) {
                    total = total.seq(*iv);
                    i += 1;
                    continue;
                }
            }
            i += 1;
        }
        total
    }

    /// `.gen(…)`, `.gen::<T>(…)`, `.next_f64()`, … — one draw event.
    fn is_draw(&self, i: usize) -> bool {
        if i == 0 || !self.tokens[i - 1].is_punct('.') {
            return false;
        }
        if !DRAW_METHODS.contains(&self.tokens[i].text.as_str()) {
            return false;
        }
        let direct = self.tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        let turbofish = self.tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && self.tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && self.tokens.get(i + 3).is_some_and(|t| t.is_punct('<'));
        // `copy.gen()` on a private clone, but not `self.copy.gen()`.
        let private = i >= 2
            && self.tokens[i - 2].kind == TokenKind::Ident
            && self.private.contains(&self.tokens[i - 2].text.as_str())
            && !(i >= 3 && self.tokens[i - 3].is_punct('.'));
        (direct || turbofish) && !private
    }

    /// An `if`/`else if`/`else` chain starting at the `if` keyword.
    fn parse_if(&mut self, i: usize, end: usize) -> (Interval, usize) {
        let Some(open) = self.cond_block_open(i + 1, end) else {
            return (Interval::ZERO, i + 1);
        };
        let cond = self.walk(i + 1, open);
        let close = block_end(self.tokens, open);
        let then_iv = self.walk(open + 1, close);
        let mut after = close + 1;
        let mut else_iv = Interval::ZERO;
        if after < end && self.tokens[after].is_ident("else") {
            if self.tokens.get(after + 1).is_some_and(|t| t.is_ident("if")) {
                let (iv, next) = self.parse_if(after + 1, end);
                else_iv = iv;
                after = next;
            } else if self.tokens.get(after + 1).is_some_and(|t| t.is_punct('{')) {
                let else_close = block_end(self.tokens, after + 1);
                else_iv = self.walk(after + 2, else_close);
                after = else_close + 1;
            }
        }
        if then_iv != else_iv {
            self.events.push(Divergence {
                line: self.tokens[i].line,
                construct: "if",
                min_arm: if then_iv.hi <= else_iv.hi {
                    then_iv
                } else {
                    else_iv
                },
                max_arm: if then_iv.hi <= else_iv.hi {
                    else_iv
                } else {
                    then_iv
                },
                policy: self.policy_mention(i + 1, open),
            });
        }
        (cond.seq(then_iv.union(else_iv)), after)
    }

    /// A `match` expression starting at the `match` keyword.
    fn parse_match(&mut self, i: usize, end: usize) -> (Interval, usize) {
        let Some(open) = self.plain_block_open(i + 1, end) else {
            return (Interval::ZERO, i + 1);
        };
        let scrut = self.walk(i + 1, open);
        let close = block_end(self.tokens, open);
        let mut arms: Vec<Interval> = Vec::new();
        let mut k = open + 1;
        while k < close {
            let Some(arrow) = find_arrow(self.tokens, k, close) else {
                break;
            };
            // Pattern + guard draws count toward the arm (see caveats).
            let mut arm = self.walk(k, arrow);
            let body = arrow + 2;
            if body >= close {
                arms.push(arm);
                break;
            }
            if self.tokens[body].is_punct('{') {
                let body_close = block_end(self.tokens, body);
                arm = arm.seq(self.walk(body + 1, body_close));
                k = body_close + 1;
                if k < close && self.tokens[k].is_punct(',') {
                    k += 1;
                }
            } else {
                let stop = find_arm_end(self.tokens, body, close);
                arm = arm.seq(self.walk(body, stop));
                k = stop + 1;
            }
            arms.push(arm);
        }
        let Some(&first) = arms.first() else {
            return (scrut, close + 1);
        };
        let mut joined = first;
        let mut min_arm = first;
        let mut max_arm = first;
        let mut diverges = false;
        for &a in &arms[1..] {
            if a != first {
                diverges = true;
            }
            joined = joined.union(a);
            if a.hi < min_arm.hi || (a.hi == min_arm.hi && a.lo < min_arm.lo) {
                min_arm = a;
            }
            if a.hi > max_arm.hi || (a.hi == max_arm.hi && a.lo > max_arm.lo) {
                max_arm = a;
            }
        }
        if diverges {
            self.events.push(Divergence {
                line: self.tokens[i].line,
                construct: "match",
                min_arm,
                max_arm,
                policy: self.policy_mention(i + 1, open),
            });
        }
        (scrut.seq(joined), close + 1)
    }

    /// A `for`/`while`/`loop` starting at its keyword: any draw in the
    /// header or body widens to the full interval (not a divergence).
    fn parse_loop(&mut self, i: usize, end: usize) -> (Interval, usize) {
        let open = match self.tokens[i].text.as_str() {
            "loop" => self.plain_block_open(i + 1, end),
            "for" => self.for_block_open(i + 1, end),
            _ => self.cond_block_open(i + 1, end), // while / while let
        };
        let Some(open) = open else {
            return (Interval::ZERO, i + 1);
        };
        let events_before = self.events.len();
        let header = self.walk(i + 1, open);
        let close = block_end(self.tokens, open);
        let body = self.walk(open + 1, close);
        let once = header.seq(body);
        if once.hi == 0 {
            return (Interval::ZERO, close + 1);
        }
        // Per-iteration divergences inside a widened loop are already
        // absorbed into [0, many]; reporting them too would double up.
        self.events.truncate(events_before);
        (Interval::TOP, close + 1)
    }

    /// First `{` at depth 0 — for `match` scrutinees and `loop`.
    fn plain_block_open(&self, from: usize, end: usize) -> Option<usize> {
        let mut depth = 0i32;
        for k in from..end {
            if let TokenKind::Punct(c) = self.tokens[k].kind {
                match c {
                    '{' if depth == 0 => return Some(k),
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    _ => {}
                }
            }
        }
        None
    }

    /// Block opener of an `if`/`while` condition. `if let PAT = expr {`
    /// may carry braces inside the pattern, so the scan first crosses
    /// the pattern's `=` when one exists.
    fn cond_block_open(&self, from: usize, end: usize) -> Option<usize> {
        let start = if self.tokens.get(from).is_some_and(|t| t.is_ident("let")) {
            self.find_pattern_eq(from + 1, end)?
        } else {
            from
        };
        self.plain_block_open(start, end)
    }

    /// Block opener of a `for PAT in expr {` loop: cross the `in` first
    /// (struct patterns may carry braces).
    fn for_block_open(&self, from: usize, end: usize) -> Option<usize> {
        let mut depth = 0i32;
        for k in from..end {
            let t = &self.tokens[k];
            if depth == 0 && t.is_ident("in") {
                return self.plain_block_open(k + 1, end);
            }
            if let TokenKind::Punct(c) = t.kind {
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    _ => {}
                }
            }
        }
        None
    }

    /// The pattern-terminating `=` of an `if let`/`while let` (not part
    /// of `==`, `=>`, `<=`, `>=`, `!=`, or a compound assignment).
    fn find_pattern_eq(&self, from: usize, end: usize) -> Option<usize> {
        let mut depth = 0i32;
        for k in from..end {
            if let TokenKind::Punct(c) = self.tokens[k].kind {
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    '=' if depth == 0 => {
                        let next_breaks = self
                            .tokens
                            .get(k + 1)
                            .is_some_and(|t| t.is_punct('=') || t.is_punct('>'));
                        let prev_breaks = k > 0
                            && matches!(
                                self.tokens[k - 1].kind,
                                TokenKind::Punct(
                                    '=' | '<'
                                        | '>'
                                        | '!'
                                        | '+'
                                        | '-'
                                        | '*'
                                        | '/'
                                        | '%'
                                        | '&'
                                        | '|'
                                        | '^'
                                )
                            );
                        if !next_breaks && !prev_breaks {
                            return Some(k + 1);
                        }
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// The first policy/Q-state ident in `[from, to)`, when any.
    fn policy_mention(&self, from: usize, to: usize) -> Option<String> {
        for t in &self.tokens[from..to.min(self.tokens.len())] {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let lower = t.text.to_lowercase();
            if POLICY_IDENTS.iter().any(|p| lower.contains(p)) {
                return Some(t.text.clone());
            }
        }
        None
    }
}

/// Matching `}` for the `{` at `open` (falls back to the last token).
fn block_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if let TokenKind::Punct(c) = t.kind {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// The `=>` of the match arm whose pattern starts at `from`.
fn find_arrow(tokens: &[Token], from: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    for k in from..end {
        if let TokenKind::Punct(c) = tokens[k].kind {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                '=' if depth == 0 && tokens.get(k + 1).is_some_and(|t| t.is_punct('>')) => {
                    return Some(k)
                }
                _ => {}
            }
        }
    }
    None
}

/// End of an expression match arm: the `,` at depth 0, or `end`.
fn find_arm_end(tokens: &[Token], from: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for (k, token) in tokens.iter().enumerate().take(end).skip(from) {
        if let TokenKind::Punct(c) = token.kind {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                ',' if depth == 0 => return k,
                _ => {}
            }
        }
    }
    end
}

/// Flags RNG constructions whose seed argument shows no sign of the
/// workspace derivation discipline (no `*seed*` ident in the argument).
fn check_underived(path: &str, lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if !matches!(ctx.class, FileClass::Lib | FileClass::Bin) {
        return;
    }
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text != "seed_from_u64" && t.text != "from_seed" {
            continue;
        }
        // `fn seed_from_u64(…)` is a definition, not a construction.
        if i > 0 && tokens[i - 1].is_ident("fn") {
            continue;
        }
        let Some(open) = tokens.get(i + 1).filter(|n| n.is_punct('(')).map(|_| i + 1) else {
            continue;
        };
        let close = paren_end(tokens, open);
        let derived = tokens[open + 1..close]
            .iter()
            .any(|a| a.kind == TokenKind::Ident && a.text.to_lowercase().contains("seed"));
        if !derived {
            out.push(Finding {
                file: path.to_string(),
                line: t.line,
                rule: Rule::UnderivedRngStream,
                message: format!(
                    "`{}(…)` constructs an RNG stream outside the seed-derivation discipline; \
                     derive the seed via `cell_seed`/`seeded_rng` (or pass a `*seed*`-named \
                     value) or waive with lint:draws-exempt(<why>)",
                    t.text
                ),
            });
        }
    }
}

/// Matching `)` for the `(` at `open` (falls back to the last token).
fn paren_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if let TokenKind::Punct(c) = t.kind {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::classify;

    const LIB: &str = "crates/demo/src/lib.rs";

    fn run(path: &str, src: &str) -> StreamOutcome {
        let files = vec![(path.to_string(), crate::lexer::lex(src))];
        let contexts: Vec<FileContext> = files
            .iter()
            .map(|(p, l)| FileContext::build(classify(p), l))
            .collect();
        let graph = CallGraph::build(&files, &contexts);
        analyze(&files, &contexts, &graph)
    }

    fn rules_hit(out: &StreamOutcome) -> Vec<(u32, &'static str)> {
        out.findings
            .iter()
            .map(|f| (f.line, f.rule.name()))
            .collect()
    }

    #[test]
    fn a_one_armed_draw_in_a_decide_fn_diverges() {
        let src = "fn decide_x(rng: &mut StdRng, lucky: bool) -> f64 {\n\
                   if lucky {\n\
                   rng.gen::<f64>()\n\
                   } else {\n\
                   0.0\n\
                   }\n}\n";
        let out = run(LIB, src);
        assert_eq!(rules_hit(&out), vec![(2, "divergent-rng-draws")]);
    }

    #[test]
    fn draws_on_a_private_clone_count_zero() {
        // The arm drawing on a local clone leaves the caller's stream
        // where the other arm does; a field of the same name does not.
        let src = "fn decide_x(&self, b: bool) -> f64 {\n\
                   if b {\n\
                   let mut copy = self.origin.clone();\n\
                   copy.gen::<f64>() + copy.gen_range(0.0..1.0)\n\
                   } else {\n\
                   0.0\n\
                   }\n}\n\
                   fn decide_y(&mut self, b: bool) -> f64 {\n\
                   let copy = self.origin.clone();\n\
                   if b { self.copy.gen::<f64>() } else { 0.0 }\n}\n";
        assert_eq!(rules_hit(&run(LIB, src)), vec![(11, "divergent-rng-draws")]);
    }

    #[test]
    fn equal_arms_are_clean() {
        let src = "fn decide_x(rng: &mut StdRng, lucky: bool) -> f64 {\n\
                   if lucky { rng.gen::<f64>() } else { rng.gen::<f64>() * 2.0 }\n}\n";
        assert!(rules_hit(&run(LIB, src)).is_empty());
    }

    #[test]
    fn missing_else_is_an_implicit_zero_arm() {
        let src = "fn decide_x(rng: &mut StdRng, lucky: bool) {\n\
                   if lucky { let _ = rng.gen::<f64>(); }\n}\n";
        assert_eq!(rules_hit(&run(LIB, src)), vec![(2, "divergent-rng-draws")]);
    }

    #[test]
    fn epsilon_conditions_classify_as_policy_dependent() {
        let src = "fn decide_x(rng: &mut StdRng, epsilon: f64) -> u32 {\n\
                   if rng.gen::<f64>() < epsilon {\n\
                   rng.gen_range(0..4)\n\
                   } else {\n\
                   0\n\
                   }\n}\n";
        assert_eq!(
            rules_hit(&run(LIB, src)),
            vec![(2, "policy-dependent-draws")]
        );
    }

    #[test]
    fn divergence_two_calls_below_an_entry_is_found_with_a_witness() {
        let src = "struct XEngine;\n\
                   impl XEngine { fn decide_x(&self, rng: &mut StdRng) -> f64 { hop(rng) } }\n\
                   fn hop(rng: &mut StdRng) -> f64 { drifty(rng) }\n\
                   fn drifty(rng: &mut StdRng) -> f64 {\n\
                   if rng.gen::<f64>() > 0.5 { rng.gen::<f64>() } else { 0.0 }\n}\n";
        let out = run(LIB, src);
        assert_eq!(rules_hit(&out), vec![(5, "divergent-rng-draws")]);
        assert!(
            out.findings[0]
                .message
                .contains("decide_x -> hop -> drifty"),
            "{}",
            out.findings[0].message
        );
    }

    #[test]
    fn unequal_callee_draw_counts_diverge_through_the_graph() {
        let src = "fn decide_x(rng: &mut StdRng, b: bool) {\n\
                   if b { two(rng); } else { one(rng); }\n\
                   }\n\
                   fn two(rng: &mut StdRng) { let _ = rng.gen::<f64>(); let _ = rng.gen::<f64>(); }\n\
                   fn one(rng: &mut StdRng) { let _ = rng.gen::<f64>(); }\n";
        let out = run(LIB, src);
        assert_eq!(rules_hit(&out), vec![(2, "divergent-rng-draws")]);
        assert!(out.findings[0].message.contains("1 vs 2"));
    }

    #[test]
    fn fixed_loops_widen_without_diverging() {
        // The injector's per-link attempt loop shape: a fixed-bound
        // loop drawing once per iteration is not a divergence.
        let src = "fn decide_x(rng: &mut StdRng, attempts: &mut [f64; 4]) {\n\
                   for slot in attempts.iter_mut() { *slot = rng.gen(); }\n\
                   }\n";
        assert!(rules_hit(&run(LIB, src)).is_empty());
    }

    #[test]
    fn a_branch_between_drawing_and_silent_loops_still_diverges() {
        let src = "fn decide_x(rng: &mut StdRng, b: bool, xs: &[u64]) {\n\
                   if b { for _x in xs.iter() { let _ = rng.gen::<f64>(); } }\n\
                   }\n";
        assert_eq!(rules_hit(&run(LIB, src)), vec![(2, "divergent-rng-draws")]);
    }

    #[test]
    fn match_arms_with_unequal_draws_diverge() {
        let src = "fn decide_x(rng: &mut StdRng, k: u8) -> f64 {\n\
                   match k {\n\
                   0 => rng.gen::<f64>(),\n\
                   _ => 0.0,\n\
                   }\n}\n";
        assert_eq!(rules_hit(&run(LIB, src)), vec![(2, "divergent-rng-draws")]);
    }

    #[test]
    fn unreachable_divergence_is_not_reported() {
        let src = "fn helper(rng: &mut StdRng, b: bool) -> f64 {\n\
                   if b { rng.gen::<f64>() } else { 0.0 }\n}\n";
        assert!(rules_hit(&run(LIB, src)).is_empty());
    }

    #[test]
    fn test_code_is_not_checked() {
        let src = "#[cfg(test)]\nmod t {\n\
                   fn decide_x(rng: &mut StdRng, b: bool) -> f64 {\n\
                   if b { rng.gen::<f64>() } else { 0.0 }\n}\n}\n";
        assert!(rules_hit(&run(LIB, src)).is_empty());
    }

    #[test]
    fn literal_seeds_are_underived_and_named_seeds_are_fine() {
        let src = "fn fresh() -> StdRng { StdRng::seed_from_u64(42) }\n\
                   fn derived(cell_seed: u64) -> StdRng { StdRng::seed_from_u64(cell_seed) }\n";
        assert_eq!(rules_hit(&run(LIB, src)), vec![(1, "underived-rng-stream")]);
        // Tests may pin literal seeds freely.
        let test_src = "#[cfg(test)]\nmod t { fn f() -> StdRng { StdRng::seed_from_u64(7) } }\n";
        assert!(rules_hit(&run(LIB, test_src)).is_empty());
    }

    #[test]
    fn draws_exempt_waives_the_divergence() {
        let src = "fn decide_x(rng: &mut StdRng, lucky: bool) -> f64 {\n\
                   // lint:draws-exempt(protocol: exploration arm draws once more)\n\
                   if lucky {\n\
                   rng.gen::<f64>()\n\
                   } else {\n\
                   0.0\n\
                   }\n}\n";
        let findings = crate::rules::analyze_file(LIB, src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn intervals_saturate_and_render() {
        let big = Interval::exact(MAX_DRAWS).seq(Interval::exact(5));
        assert_eq!(big.hi, MAX_DRAWS);
        assert_eq!(Interval::exact(2).render(), "2");
        assert_eq!(
            Interval { lo: 1, hi: 3 }.union(Interval::ZERO).render(),
            "0..3"
        );
        assert_eq!(Interval::TOP.render(), "0..many");
    }
}
