//! Pass 2, part one: the workspace call graph and the flow-aware rules.
//!
//! The graph links every [`crate::model::FnModel`] in the workspace through
//! its call sites, resolved with module-path symbol resolution:
//!
//! - **path calls** (`a::b::f(…)`, bare `f(…)`) expand the first segment
//!   through the file's `use` aliases, strip `crate::`/`self::`/`super::`
//!   down to the caller's crate, and look the target up by crate +
//!   qualified name (`Type::f`) or bare name;
//! - **method calls** (`recv.f(…)`) resolve by name against every `self`-
//!   taking function in the caller's dependency closure (parsed from the
//!   crates' `Cargo.toml` `[dependencies]` tables), which over-approximates
//!   dynamic dispatch — exactly the right bias for a lint.
//!
//! Three rules run over the graph:
//!
//! - **D006** — float accumulation (`+=`/`.sum()`/`.product()` on `f32`/
//!   `f64`) over iteration whose order the analyzer cannot prove, in
//!   simulation-state crates. Ordered sources (slices, `Vec`, `BTreeMap`,
//!   ranges, …) are exempt, including through one level of method
//!   return-type resolution.
//! - **D007** — shared mutable state (`static mut`, `Mutex`, `RwLock`,
//!   `Atomic*`, thread `spawn`) in simulation crates, reachable from a
//!   configured simulation entry point. The harness-side window loop is
//!   outside `sim_crates` and therefore exempt by construction.
//! - **D008** — transitive wall-clock/entropy reachability: a call chain
//!   from an entry point to an `Instant::now`/`SystemTime::now`/OS-entropy
//!   site, reported at the *source site* so the inline-allow escape hatch
//!   works unchanged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Tok, TokKind};
use crate::model::{match_bracket, CallKind, FileModel};
use crate::rules::{entropy_source, Finding, RuleId};
use crate::Config;

/// The fully resolved workspace model: every file, an id per function, and
/// the call edges between them.
pub struct Workspace {
    pub files: Vec<FileModel>,
    /// Flat fn table: `fns[id] = (file index, fn index within file)`.
    fn_locs: Vec<(usize, usize)>,
    /// Call edges, `fn id → sorted callee ids`.
    edges: Vec<Vec<usize>>,
    /// Direct-dependency closure per crate (includes the crate itself);
    /// crates absent from the map (no `Cargo.toml` parsed) see every crate.
    dep_closure: BTreeMap<String, BTreeSet<String>>,
    all_crates: BTreeSet<String>,
}

impl Workspace {
    /// Builds the graph. `deps` maps crate name → direct dependency names
    /// (from `Cargo.toml`); crates not present resolve against all crates.
    pub fn build(files: Vec<FileModel>, deps: &BTreeMap<String, Vec<String>>) -> Workspace {
        let all_crates: BTreeSet<String> = files.iter().filter_map(|f| f.krate.clone()).collect();
        let mut dep_closure: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for krate in deps.keys() {
            let mut seen = BTreeSet::new();
            let mut stack = vec![krate.clone()];
            while let Some(c) = stack.pop() {
                if seen.insert(c.clone()) {
                    if let Some(ds) = deps.get(&c) {
                        stack.extend(ds.iter().cloned());
                    }
                }
            }
            dep_closure.insert(krate.clone(), seen);
        }

        let mut fn_locs = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, _) in file.fns.iter().enumerate() {
                fn_locs.push((fi, gi));
            }
        }
        let mut ws = Workspace {
            files,
            fn_locs,
            edges: Vec::new(),
            dep_closure,
            all_crates,
        };
        ws.edges = ws.build_edges();
        ws
    }

    pub fn fn_count(&self) -> usize {
        self.fn_locs.len()
    }

    fn fn_at(&self, id: usize) -> &crate::model::FnModel {
        let (fi, gi) = self.fn_locs[id];
        &self.files[fi].fns[gi]
    }

    fn file_of(&self, id: usize) -> &FileModel {
        &self.files[self.fn_locs[id].0]
    }

    fn crates_visible_from(&self, krate: Option<&str>) -> &BTreeSet<String> {
        krate
            .and_then(|c| self.dep_closure.get(c))
            .unwrap_or(&self.all_crates)
    }

    /// `true` when the function can participate in the graph as a callee:
    /// library code (under `src/`), not test-only.
    fn is_linkable(&self, id: usize) -> bool {
        !self.fn_at(id).is_test && self.file_of(id).rel_path.contains("/src/")
    }

    /// Resolution candidates for one call from `caller`.
    fn resolve(&self, caller: usize, call: &crate::model::Call) -> Vec<usize> {
        let file = self.file_of(caller);
        let visible = self.crates_visible_from(file.krate.as_deref());
        let in_scope = |id: &usize| {
            self.file_of(*id)
                .krate
                .as_ref()
                .is_none_or(|c| visible.contains(c))
        };
        match call.kind {
            CallKind::Method => {
                let name = &call.segs[0];
                (0..self.fn_count())
                    .filter(|&id| {
                        let f = self.fn_at(id);
                        f.name == *name && f.has_self && self.is_linkable(id)
                    })
                    .filter(in_scope)
                    .collect()
            }
            CallKind::Path => {
                // Expand the leading segment through the file's use-aliases.
                let mut segs = call.segs.clone();
                if let Some(full) = file.uses.get(&segs[0]) {
                    let mut expanded = full.clone();
                    expanded.extend(segs.drain(1..));
                    segs = expanded;
                }
                // `crate::`/`self::`/`super::` pin the caller's crate.
                let mut same_crate_only = false;
                while matches!(
                    segs.first().map(String::as_str),
                    Some("crate" | "self" | "super")
                ) {
                    segs.remove(0);
                    same_crate_only = true;
                }
                if segs.is_empty() {
                    return Vec::new();
                }
                let mut target_crate: Option<String> = None;
                if !same_crate_only && self.all_crates.contains(&segs[0]) && segs.len() > 1 {
                    target_crate = Some(segs.remove(0));
                } else if matches!(segs[0].as_str(), "std" | "core" | "alloc") {
                    return Vec::new(); // external
                }
                let name = segs.last().cloned().unwrap_or_default();
                let qual = (segs.len() >= 2
                    && segs[segs.len() - 2]
                        .chars()
                        .next()
                        .is_some_and(char::is_uppercase))
                .then(|| format!("{}::{}", segs[segs.len() - 2], name));
                let caller_crate = file.krate.clone();
                let crate_matches = |id: &usize| {
                    let c = self.file_of(*id).krate.as_deref();
                    if let Some(t) = &target_crate {
                        c == Some(t.as_str())
                    } else if same_crate_only || segs.len() == 1 {
                        c == caller_crate.as_deref()
                    } else {
                        // `Type::method` with an unresolvable `Type`: accept
                        // any visible crate defining that qualified name.
                        c.is_none_or(|c| visible.contains(c))
                    }
                };
                let by = |match_qual: bool| -> Vec<usize> {
                    (0..self.fn_count())
                        .filter(|&id| {
                            self.is_linkable(id)
                                && if match_qual {
                                    Some(&self.fn_at(id).qual) == qual.as_ref()
                                } else {
                                    self.fn_at(id).name == name
                                }
                        })
                        .filter(crate_matches)
                        .collect()
                };
                if qual.is_some() {
                    let hits = by(true);
                    if !hits.is_empty() {
                        return hits;
                    }
                    // A `Type::method` that resolves nowhere by qualified
                    // name is treated as external (e.g. `Instant::now`).
                    return Vec::new();
                }
                by(false)
            }
        }
    }

    fn build_edges(&self) -> Vec<Vec<usize>> {
        (0..self.fn_count())
            .map(|id| {
                let mut out = BTreeSet::new();
                if self.fn_at(id).is_test {
                    return Vec::new();
                }
                for call in &self.fn_at(id).calls {
                    out.extend(self.resolve(id, call));
                }
                out.into_iter().collect()
            })
            .collect()
    }

    /// BFS from `entries`; returns `fn id → parent fn id` (entries map to
    /// themselves), in deterministic order.
    fn reachable(&self, entries: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &e in entries {
            if parent.insert(e, e).is_none() {
                queue.push_back(e);
            }
        }
        while let Some(id) = queue.pop_front() {
            for &next in &self.edges[id] {
                if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(next) {
                    v.insert(id);
                    queue.push_back(next);
                }
            }
        }
        parent
    }

    /// Formats the entry → … → fn chain for a diagnostic.
    fn chain_to(&self, parents: &BTreeMap<usize, usize>, id: usize) -> String {
        let mut names = vec![self.fn_at(id).qual.clone()];
        let mut cur = id;
        while let Some(&p) = parents.get(&cur) {
            if p == cur {
                break;
            }
            names.push(self.fn_at(p).qual.clone());
            cur = p;
        }
        names.reverse();
        names.join(" -> ")
    }
}

/// Shared-mutable-state identifiers D007 scans for inside reachable
/// simulation-crate functions.
const SHARED_STATE_IDENTS: [&str; 3] = ["Mutex", "RwLock", "spawn"];

/// Runs the flow rules (D006, D007, D008) over the workspace. Findings are
/// raw (suppressions are applied later, per file, by the scan driver).
pub fn check_workspace(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let entries: Vec<usize> = (0..ws.fn_count())
        .filter(|&id| {
            let f = ws.fn_at(id);
            let file = ws.file_of(id);
            !f.is_test
                && file.rel_path.contains("/src/")
                && file
                    .krate
                    .as_deref()
                    .is_some_and(|c| config.is_sim_crate(c))
                && config
                    .entry_points
                    .iter()
                    .any(|e| f.qual == *e || f.name == *e)
        })
        .collect();
    let parents = ws.reachable(&entries);

    let mut push = |rule: RuleId, file: &str, line: u32, message: String| {
        if !config.is_allowed(rule, file) {
            findings.push(Finding {
                file: file.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    // --- D007: shared mutable state in simulation crates ----------------
    for file in &ws.files {
        let Some(krate) = file.krate.as_deref() else {
            continue;
        };
        if !config.is_sim_crate(krate) || !file.rel_path.contains("/src/") {
            continue;
        }
        // A `static` that is `mut`, or holds a lock or an atomic, is
        // reachable from everything in the crate by definition; no call
        // chain needed.
        for s in &file.statics {
            let what = if s.mutable {
                Some("`static mut`".to_string())
            } else {
                banned_sites(&file.code, s.decl, &SHARED_STATE_IDENTS)
                    .first()
                    .map(|(_, name)| format!("`static` holding `{name}`"))
            };
            if let Some(what) = what.filter(|_| !file.in_test_span(s.line)) {
                push(
                    RuleId::D007,
                    &file.rel_path,
                    s.line,
                    format!(
                        "{what} in simulation crate `{krate}`: shared mutable \
                         state breaks the sharded runner's determinism argument"
                    ),
                );
            }
        }
    }
    for &id in parents.keys() {
        let f = ws.fn_at(id);
        let file = ws.file_of(id);
        let Some(krate) = file.krate.as_deref() else {
            continue;
        };
        if !config.is_sim_crate(krate) {
            continue;
        }
        for (line, name) in banned_sites(&file.code, f.body, &SHARED_STATE_IDENTS) {
            push(
                RuleId::D007,
                &file.rel_path,
                line,
                format!(
                    "`{name}` reachable from simulation entry point ({}): shard-side \
                     code must not share mutable state (the window loop lives in the \
                     harness, outside `sim_crates`)",
                    ws.chain_to(&parents, id)
                ),
            );
        }
    }

    // --- D008: transitive wall-clock/entropy reachability ----------------
    for &id in parents.keys() {
        let f = ws.fn_at(id);
        let file = ws.file_of(id);
        for (line, what) in clock_entropy_sites(&file.code, f.body) {
            push(
                RuleId::D008,
                &file.rel_path,
                line,
                format!(
                    "`{what}` is reachable from a simulation entry point \
                     ({}): host time/entropy must not influence simulation \
                     state; quarantine it or carry a reasoned allow",
                    ws.chain_to(&parents, id)
                ),
            );
        }
    }

    // --- D006: float accumulation order ----------------------------------
    for (fi, file) in ws.files.iter().enumerate() {
        let Some(krate) = file.krate.as_deref() else {
            continue;
        };
        if !config.is_state_crate(krate) || !file.rel_path.contains("/src/") {
            continue;
        }
        for (gi, f) in file.fns.iter().enumerate() {
            if f.is_test || file.in_test_span(f.start_line) {
                continue;
            }
            let id = ws
                .fn_locs
                .iter()
                .position(|&loc| loc == (fi, gi))
                .expect("fn is indexed");
            for (line, msg) in float_accumulation_hazards(ws, id) {
                push(RuleId::D006, &file.rel_path, line, msg);
            }
        }
    }

    findings
}

/// Scans a body span for banned identifiers: exact names from `names` plus
/// any `Atomic*`-prefixed type.
fn banned_sites(code: &[Tok], body: (usize, usize), names: &[&str]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for t in &code[body.0..body.1.min(code.len())] {
        if t.kind == TokKind::Ident
            && (names.contains(&t.text.as_str())
                || (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len()))
        {
            out.push((t.line, t.text.clone()));
        }
    }
    out
}

/// Scans a body span for wall-clock path calls and entropy identifiers.
fn clock_entropy_sites(code: &[Tok], body: (usize, usize)) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let end = body.1.min(code.len());
    for j in body.0..end {
        let t = &code[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        if (t.text == "Instant" || t.text == "SystemTime")
            && code.get(j + 1).is_some_and(|n| n.text == "::")
            && code.get(j + 2).is_some_and(|n| n.text == "now")
        {
            out.push((t.line, format!("{}::now()", t.text)));
        }
        if let Some(name) = entropy_source(code, j) {
            out.push((t.line, name.to_string()));
        }
    }
    out
}

/// How confidently the analyzer can order an iteration source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Orderedness {
    Ordered,
    Unordered,
    Unknown,
}

/// Classifies a type's iteration order from its text.
fn classify_ty(ty: &str) -> Orderedness {
    if ty.contains("HashMap") || ty.contains("HashSet") {
        return Orderedness::Unordered;
    }
    const ORDERED: [&str; 7] = [
        "Vec", "VecDeque", "BTreeMap", "BTreeSet", "SmallMap", "Range", "Option",
    ];
    if ORDERED.iter().any(|o| ty.contains(o)) || ty.contains('[') {
        return Orderedness::Ordered;
    }
    Orderedness::Unknown
}

/// D006 for one function: float `+=`/`-=`/`*=` inside `for` loops over
/// unproven iteration order, and float `.sum()`/`.product()` chains whose
/// head the analyzer cannot order.
fn float_accumulation_hazards(ws: &Workspace, id: usize) -> Vec<(u32, String)> {
    let f = ws.fn_at(id);
    let file = ws.file_of(id);
    let code = &file.code;
    let (start, end) = f.body;
    let end = end.min(code.len());
    if start >= end {
        return Vec::new();
    }
    let mut out = Vec::new();

    // For-loop spans: (iter-expr range, body range).
    let mut loops: Vec<((usize, usize), (usize, usize))> = Vec::new();
    let mut j = start;
    while j < end {
        if code[j].kind == TokKind::Ident && code[j].text == "for" {
            // `for <pat> in <expr> {` — find `in`, then the body `{`.
            let mut k = j + 1;
            let mut d = 0i32;
            while k < end {
                match code[k].text.as_str() {
                    "(" | "[" => d += 1,
                    ")" | "]" => d -= 1,
                    "in" if d == 0 && code[k].kind == TokKind::Ident => break,
                    _ => {}
                }
                k += 1;
            }
            if k < end {
                let expr_start = k + 1;
                let mut b = expr_start;
                let mut d = 0i32;
                while b < end {
                    match code[b].text.as_str() {
                        "(" | "[" => d += 1,
                        ")" | "]" => d -= 1,
                        "{" if d == 0 => break,
                        _ => {}
                    }
                    b += 1;
                }
                if b < end {
                    let close = match_bracket(code, b, "{", "}");
                    loops.push(((expr_start, b), (b, close)));
                }
            }
        }
        j += 1;
    }

    // Compound float assignment inside a loop body.
    for &(expr, body) in &loops {
        for k in body.0..body.1.min(end) {
            let is_compound = matches!(code[k].text.as_str(), "+" | "-" | "*")
                && code[k].kind == TokKind::Punct
                && code.get(k + 1).is_some_and(|n| n.text == "=")
                && code.get(k + 2).is_none_or(|n| n.text != "=");
            if !is_compound {
                continue;
            }
            let Some(acc) = code[..k]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident)
                .cloned()
            else {
                continue;
            };
            if !is_float_binding(ws, id, &acc.text) {
                continue;
            }
            let order = classify_expr(ws, id, expr);
            if order != Orderedness::Ordered {
                out.push((
                    code[k].line,
                    format!(
                        "float accumulator `{}` {}= over iteration whose order is {}: \
                         summation order changes the result bit-for-bit; iterate an \
                         ordered container (Vec/BTreeMap/slice) or carry a reasoned allow",
                        acc.text,
                        code[k].text,
                        if order == Orderedness::Unordered {
                            "hash-dependent"
                        } else {
                            "unproven"
                        },
                    ),
                ));
            }
        }
    }

    // Float `.sum()` / `.product()` chains.
    let mut k = start;
    while k < end {
        let t = &code[k];
        if t.kind == TokKind::Ident
            && (t.text == "sum" || t.text == "product")
            && k > start
            && code[k - 1].text == "."
        {
            let mut float = false;
            let mut after = k + 1;
            if code.get(after).is_some_and(|n| n.text == "::")
                && code.get(after + 1).is_some_and(|n| n.text == "<")
            {
                let mut d = 0i32;
                let mut a = after + 1;
                while a < end {
                    match code[a].text.as_str() {
                        "<" => d += 1,
                        ">" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        "f64" | "f32" => float = true,
                        _ => {}
                    }
                    a += 1;
                }
                after = a + 1;
            }
            if code.get(after).is_none_or(|n| n.text != "(") {
                k += 1;
                continue;
            }
            // Statement span: back to the nearest `;`/`{`/`}`.
            let stmt_start = (start..k)
                .rev()
                .find(|&s| matches!(code[s].text.as_str(), ";" | "{" | "}"))
                .map_or(start, |s| s + 1);
            if !float {
                float = code[stmt_start..k].iter().any(|t| {
                    (t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32"))
                        || (t.kind == TokKind::Literal
                            && t.text.contains('.')
                            && t.text.chars().next().is_some_and(|c| c.is_ascii_digit()))
                });
            }
            if float {
                // Try the postfix chain's own head first (precise for
                // `self.field.iter().sum()` nested inside `Some(..)` or an
                // arithmetic expression), then the whole statement span
                // (catches `let x: _ = (0..n)...` forms).
                let head = chain_head(code, k - 1, stmt_start);
                let mut order = classify_expr(ws, id, (head, k - 1));
                if order != Orderedness::Ordered {
                    let stmt = classify_expr(ws, id, (stmt_start, k - 1));
                    if stmt == Orderedness::Ordered {
                        order = stmt;
                    }
                }
                if order != Orderedness::Ordered {
                    out.push((
                        t.line,
                        format!(
                            "float `.{}()` over iteration whose order is {}: summation \
                             order changes the result bit-for-bit; start the chain from \
                             an ordered container or carry a reasoned allow",
                            t.text,
                            if order == Orderedness::Unordered {
                                "hash-dependent"
                            } else {
                                "unproven"
                            },
                        ),
                    ));
                }
            }
        }
        k += 1;
    }
    out
}

/// `true` when `name` is evidently `f32`/`f64` in this fn: an annotated
/// `let`, a float-literal initializer, a float parameter, or a float struct
/// field in the same file.
fn is_float_binding(ws: &Workspace, id: usize, name: &str) -> bool {
    let f = ws.fn_at(id);
    let file = ws.file_of(id);
    let code = &file.code;
    for (pname, pty) in &f.params {
        if pname == name {
            return pty.contains("f64") || pty.contains("f32");
        }
    }
    let (start, end) = f.body;
    let end = end.min(code.len());
    let mut j = start;
    while j + 2 < end {
        if code[j].kind == TokKind::Ident && code[j].text == "let" {
            let mut k = j + 1;
            if code[k].text == "mut" {
                k += 1;
            }
            if code.get(k).is_some_and(|t| t.text == name) {
                match code.get(k + 1).map(|t| t.text.as_str()) {
                    Some(":") => {
                        // Annotated: scan the type up to `=`/`;`.
                        let mut a = k + 2;
                        while a < end && code[a].text != "=" && code[a].text != ";" {
                            if code[a].text == "f64" || code[a].text == "f32" {
                                return true;
                            }
                            a += 1;
                        }
                    }
                    Some("=")
                        if code.get(k + 2).is_some_and(|t| {
                            t.kind == TokKind::Literal
                                && t.text.contains('.')
                                && t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
                        }) =>
                    {
                        return true;
                    }
                    _ => {}
                }
            }
        }
        j += 1;
    }
    file.fields
        .get(name)
        .is_some_and(|ty| ty.contains("f64") || ty.contains("f32"))
}

/// Walks backward from the `.` at `dot` over the postfix method chain and
/// returns the index of the chain's head token (never before `floor`).
/// Call-argument groups are skipped wholesale; any depth-0 token that is
/// not an ident, literal, `.`, `::`, `?`, or turbofish angle ends the
/// chain — so `Some(` and arithmetic operators stop the walk correctly.
fn chain_head(code: &[Tok], dot: usize, floor: usize) -> usize {
    let mut head = dot;
    let mut depth = 0i32;
    let mut i = dot;
    while i > floor {
        i -= 1;
        let t = &code[i];
        match t.text.as_str() {
            ")" | "]" if t.kind == TokKind::Punct => depth += 1,
            "(" | "[" if t.kind == TokKind::Punct => {
                if depth == 0 {
                    // Opening of an *enclosing* group (`Some(...)`).
                    return head;
                }
                depth -= 1;
                if depth == 0 {
                    // A completed group is a valid chain head: `(0..n)`.
                    head = i;
                }
            }
            _ if depth > 0 => {}
            "." | "::" | "<" | ">" | "?" | "&" => {}
            "return" | "else" | "in" | "if" | "match" | "let" | "mut" | "move" | "as" | "break"
            | "continue" | "while" | "loop" => return head,
            _ if t.kind == TokKind::Ident || t.kind == TokKind::Literal => head = i,
            _ => return head,
        }
    }
    head
}

/// Classifies the iteration order of an expression span: strips leading
/// borrows, recognizes ranges, then classifies the chain head by its local/
/// param/field type — falling back to one level of method return-type
/// resolution across the caller's dependency closure.
fn classify_expr(ws: &Workspace, id: usize, expr: (usize, usize)) -> Orderedness {
    let f = ws.fn_at(id);
    let file = ws.file_of(id);
    let code = &file.code;
    let (mut s, e) = expr;
    let e = e.min(code.len());
    while s < e && matches!(code[s].text.as_str(), "&" | "mut" | "*" | "(") {
        s += 1;
    }
    if s >= e {
        return Orderedness::Unknown;
    }
    // A top-level `..` anywhere in the span at depth 0 ⇒ a range.
    {
        let mut d = 0i32;
        let mut j = s;
        while j < e {
            match code[j].text.as_str() {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => d -= 1,
                "." if d <= 0
                    && code.get(j + 1).is_some_and(|n| n.text == ".")
                    && code.get(j.wrapping_sub(1)).is_none_or(|p| p.text != ".") =>
                {
                    return Orderedness::Ordered;
                }
                _ => {}
            }
            j += 1;
        }
    }
    let head = &code[s];
    if head.kind == TokKind::Literal {
        return Orderedness::Unknown;
    }
    if head.kind != TokKind::Ident {
        return Orderedness::Unknown;
    }
    // Head symbol type: local `let`, parameter, or (for `self.field`) field.
    let mut head_ty: Option<String> = None;
    let mut chain_pos = s + 1;
    if head.text == "self"
        && code.get(s + 1).is_some_and(|t| t.text == ".")
        && code.get(s + 2).is_some_and(|t| t.kind == TokKind::Ident)
    {
        let field = &code[s + 2].text;
        if let Some(ty) = file.fields.get(field) {
            // A field access that is itself a container.
            if code.get(s + 3).is_none_or(|t| t.text != "(") {
                head_ty = Some(ty.clone());
                chain_pos = s + 3;
            }
        }
        if head_ty.is_none() {
            chain_pos = s + 1;
        }
    } else {
        for (pname, pty) in &f.params {
            if *pname == head.text {
                head_ty = Some(pty.clone());
            }
        }
        if head_ty.is_none() {
            head_ty = local_let_type(code, f.body, &head.text);
        }
        if head_ty.is_none() {
            if let Some(ty) = file.fields.get(&head.text) {
                head_ty = Some(ty.clone());
            }
        }
    }
    if let Some(ty) = &head_ty {
        let c = classify_ty(ty);
        if c != Orderedness::Unknown {
            return c;
        }
    }
    // Unclassified head: resolve the first method in the chain and classify
    // its return type (all candidates must agree on Ordered).
    let mut j = chain_pos;
    while j + 1 < e {
        if code[j].text == "." && code[j + 1].kind == TokKind::Ident {
            let method = &code[j + 1].text;
            let visible = ws.crates_visible_from(file.krate.as_deref());
            let candidates: Vec<usize> = (0..ws.fn_count())
                .filter(|&cid| {
                    let cf = ws.fn_at(cid);
                    cf.name == *method
                        && cf.has_self
                        && ws.is_linkable(cid)
                        && ws
                            .file_of(cid)
                            .krate
                            .as_ref()
                            .is_none_or(|c| visible.contains(c))
                })
                .collect();
            if candidates.is_empty() {
                return Orderedness::Unknown;
            }
            let mut best = Orderedness::Ordered;
            for cid in candidates {
                match classify_ty(&ws.fn_at(cid).ret_ty) {
                    Orderedness::Ordered => {}
                    Orderedness::Unordered => return Orderedness::Unordered,
                    Orderedness::Unknown => best = Orderedness::Unknown,
                }
            }
            return best;
        }
        j += 1;
    }
    Orderedness::Unknown
}

/// Finds a `let [mut] name : TYPE` annotation inside a body span.
fn local_let_type(code: &[Tok], body: (usize, usize), name: &str) -> Option<String> {
    let end = body.1.min(code.len());
    let mut j = body.0;
    while j + 2 < end {
        if code[j].kind == TokKind::Ident && code[j].text == "let" {
            let mut k = j + 1;
            if code[k].text == "mut" {
                k += 1;
            }
            if code.get(k).is_some_and(|t| t.text == name)
                && code.get(k + 1).is_some_and(|t| t.text == ":")
            {
                let mut ty = String::new();
                let mut a = k + 2;
                while a < end && code[a].text != "=" && code[a].text != ";" {
                    if !ty.is_empty() {
                        ty.push(' ');
                    }
                    ty.push_str(&code[a].text);
                    a += 1;
                }
                return Some(ty);
            }
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::build_model;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        let models = files
            .iter()
            .map(|(p, src)| build_model(p, &lex(src)))
            .collect();
        Workspace::build(models, &BTreeMap::new())
    }

    fn sim_config() -> Config {
        Config {
            state_crates: vec!["netsim".into()],
            sim_crates: vec!["netsim".into()],
            entry_points: vec!["Simulator::run_until".into(), "on_packet".into()],
            ..Config::default()
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<(RuleId, &str, u32)> {
        findings
            .iter()
            .map(|f| (f.rule, f.file.as_str(), f.line))
            .collect()
    }

    #[test]
    fn d008_follows_use_alias_and_self_paths() {
        // Chain: Simulator::run_until → poll (via use-alias) → self::stamp.
        let ws = ws_of(&[
            (
                "crates/netsim/src/sim.rs",
                "use crate::helpers::poll_clock as poll;\n\
                 pub struct Simulator;\n\
                 impl Simulator {\n\
                     pub fn run_until(&mut self) { poll(); }\n\
                 }\n",
            ),
            (
                "crates/netsim/src/helpers.rs",
                "pub fn poll_clock() -> u64 { self::stamp() }\n\
                 fn stamp() -> u64 {\n\
                     let _t = std::time::Instant::now();\n\
                     0\n\
                 }\n",
            ),
        ]);
        let found = check_workspace(&ws, &sim_config());
        assert_eq!(
            rules_of(&found),
            vec![(RuleId::D008, "crates/netsim/src/helpers.rs", 3)]
        );
        assert!(found[0].message.contains("Simulator::run_until"));
        assert!(found[0].message.contains("stamp"));
    }

    #[test]
    fn d008_crate_path_resolution_and_unreachable_negative() {
        let ws = ws_of(&[
            (
                "crates/netsim/src/sim.rs",
                "pub struct Agent;\n\
                 impl Agent {\n\
                     pub fn on_packet(&mut self) { crate::util::jitter(); }\n\
                 }\n",
            ),
            (
                "crates/netsim/src/util.rs",
                "pub fn jitter() -> u64 { rand::thread_rng() }\n\
                 pub fn never_called() -> u64 {\n\
                     let _t = std::time::Instant::now();\n\
                     0\n\
                 }\n",
            ),
        ]);
        let found = check_workspace(&ws, &sim_config());
        // thread_rng fires (reachable via crate:: path); never_called's
        // Instant does not (no chain from an entry point).
        assert_eq!(
            rules_of(&found),
            vec![(RuleId::D008, "crates/netsim/src/util.rs", 1)]
        );
    }

    #[test]
    fn d007_requires_reachability_except_shared_statics() {
        let ws = ws_of(&[(
            "crates/netsim/src/sim.rs",
            "static mut GLOBAL: u64 = 0;\n\
             pub struct Simulator;\n\
             impl Simulator {\n\
                 pub fn run_until(&mut self) { self.step(); }\n\
                 fn step(&mut self) { let _m = std::sync::Mutex::new(0u64); }\n\
                 fn idle(&mut self) { let _m = std::sync::Mutex::new(1u64); }\n\
             }\n\
             static HITS: AtomicU64 = AtomicU64::new(0);\n\
             static NAME: &str = \"sim\";\n",
        )]);
        let found = check_workspace(&ws, &sim_config());
        assert_eq!(
            rules_of(&found),
            vec![
                (RuleId::D007, "crates/netsim/src/sim.rs", 1),
                (RuleId::D007, "crates/netsim/src/sim.rs", 8),
                (RuleId::D007, "crates/netsim/src/sim.rs", 5),
            ]
        );
    }

    #[test]
    fn d007_ignores_non_sim_crates() {
        let ws = ws_of(&[(
            "crates/harness/src/runner.rs",
            "pub fn run_suites() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n",
        )]);
        assert!(check_workspace(&ws, &sim_config()).is_empty());
    }

    #[test]
    fn d006_fires_on_unknown_source_not_on_ordered() {
        let ws = ws_of(&[(
            "crates/netsim/src/stats.rs",
            "pub fn unknown_sum(bag: &Bag) -> f64 {\n\
                 let mut total = 0.0;\n\
                 for x in bag.entries() {\n\
                     total += x;\n\
                 }\n\
                 total\n\
             }\n\
             pub fn slice_mean(xs: &[f64]) -> f64 {\n\
                 let mut t = 0.0;\n\
                 for x in xs { t += x; }\n\
                 t\n\
             }\n\
             pub fn range_sum(n: u64) -> f64 {\n\
                 (0..n).map(|i| i as f64).sum::<f64>()\n\
             }\n\
             pub fn int_sum(xs: &Bag) -> u64 {\n\
                 xs.entries().sum::<u64>()\n\
             }\n",
        )]);
        let found = check_workspace(&ws, &sim_config());
        assert_eq!(
            rules_of(&found),
            vec![(RuleId::D006, "crates/netsim/src/stats.rs", 4)]
        );
    }

    #[test]
    fn d006_resolves_method_return_types() {
        let ws = ws_of(&[(
            "crates/netsim/src/tree.rs",
            "pub struct Tree { kids: Vec<u32> }\n\
             impl Tree {\n\
                 pub fn receivers(&self) -> &[u32] { &self.kids }\n\
                 pub fn opaque(&self) -> Opaque { Opaque }\n\
             }\n\
             pub fn weigh(t: &Tree) -> f64 {\n\
                 let mut w = 0.0;\n\
                 for _r in t.receivers() { w += 1.0; }\n\
                 w\n\
             }\n\
             pub fn hazard(t: &Tree) -> f64 {\n\
                 t.opaque().map(|x| x as f64).sum::<f64>()\n\
             }\n",
        )]);
        let found = check_workspace(&ws, &sim_config());
        // `receivers()` returns a slice → ordered, clean; `opaque()` cannot
        // be classified → fires.
        assert_eq!(
            rules_of(&found),
            vec![(RuleId::D006, "crates/netsim/src/tree.rs", 12)]
        );
    }
}
