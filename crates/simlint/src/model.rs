//! Pass 1 of the two-pass analyzer: a lightweight structural model of one
//! source file, built from the hand-rolled [`crate::lexer`] token stream.
//!
//! This is *not* a parser for Rust — it is the minimum item/function model
//! the flow rules (D006–D008) need, extracted with the same no-dependency
//! constraint as the lexer:
//!
//! - `use` declarations (aliases, nested `{…}` groups, `self::`/`crate::`
//!   prefixes) feeding the call-graph resolver,
//! - `fn` items with their impl self-type, parameter names/types, return
//!   type text, body token span, and the calls made inside the body,
//! - struct fields (typed iteration sources for D006),
//! - module-level `static mut` items (D007),
//! - `#[cfg(test)]` item line spans, so test-only code is excluded from
//!   flow analysis.
//!
//! The model is intentionally forgiving: anything it cannot classify it
//! skips, and the flow rules treat unresolved constructs conservatively.

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};
use crate::rules::crate_of;

/// Structural model of one `.rs` file (code tokens only; comments are
/// handled separately by the suppression engine).
#[derive(Clone, Debug, Default)]
pub struct FileModel {
    /// Repo-relative `/`-separated path.
    pub rel_path: String,
    /// Owning workspace crate (`crates/<name>/…`), if any.
    pub krate: Option<String>,
    /// `use` alias → full path segments (`Instant` → `["std","time","Instant"]`).
    pub uses: BTreeMap<String, Vec<String>>,
    /// Every `fn` item found in the file, nested items included.
    pub fns: Vec<FnModel>,
    /// Struct field name → type text (file-wide; later definitions win).
    pub fields: BTreeMap<String, String>,
    /// Lines of `static mut` items.
    pub static_muts: Vec<u32>,
    /// Inclusive line spans of `#[cfg(test)]` items.
    pub test_spans: Vec<(u32, u32)>,
    /// The file's code tokens (comments stripped), for span-based scans.
    pub code: Vec<Tok>,
}

impl FileModel {
    /// `true` when `line` falls inside a `#[cfg(test)]` item.
    pub fn in_test_span(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// One function item.
#[derive(Clone, Debug)]
pub struct FnModel {
    /// Bare name (`run_until`).
    pub name: String,
    /// `Type::name` when defined inside `impl Type`, else the bare name.
    pub qual: String,
    /// `true` when the parameter list contains `self`.
    pub has_self: bool,
    /// `true` when the item sits inside a `#[cfg(test)]` span.
    pub is_test: bool,
    pub start_line: u32,
    pub end_line: u32,
    /// Return type text (`-> …` with tokens space-joined), empty if none.
    pub ret_ty: String,
    /// Parameter `(name, type-text)` pairs (excluding `self`).
    pub params: Vec<(String, String)>,
    /// Code-token index range of the body, *including* both braces
    /// (`start..=end`); `start == end` for bodiless trait declarations.
    pub body: (usize, usize),
    /// Calls made inside the body.
    pub calls: Vec<Call>,
}

/// How a call site names its target.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CallKind {
    /// `a::b::f(…)` or bare `f(…)` — resolved through paths and aliases.
    Path,
    /// `recv.f(…)` — resolved by method name across dependency crates.
    Method,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    pub kind: CallKind,
    /// Path segments; a method call has exactly one (the method name).
    pub segs: Vec<String>,
    pub line: u32,
}

/// Words that look like `ident(`-style calls but are control flow.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "for", "while", "match", "loop", "return", "in", "move", "as", "where",
];

/// Builds the [`FileModel`] for one lexed file.
pub fn build_model(rel_path: &str, toks: &[Tok]) -> FileModel {
    let code: Vec<Tok> = toks.iter().filter(|t| t.is_code()).cloned().collect();
    let mut m = FileModel {
        rel_path: rel_path.to_string(),
        krate: crate_of(rel_path).map(str::to_string),
        code,
        ..FileModel::default()
    };
    Builder::new(&mut m).run();
    for f in &mut m.fns {
        f.is_test = m
            .test_spans
            .iter()
            .any(|&(a, b)| f.start_line >= a && f.start_line <= b);
    }
    m
}

struct Builder<'m> {
    m: &'m mut FileModel,
    /// `(self type, brace depth at open)` for enclosing `impl` blocks.
    impls: Vec<(Option<String>, i32)>,
    depth: i32,
    /// Set by a `#[cfg(test)]` attribute, consumed by the next item.
    pending_test: bool,
}

impl<'m> Builder<'m> {
    fn new(m: &'m mut FileModel) -> Self {
        Builder {
            m,
            impls: Vec::new(),
            depth: 0,
            pending_test: false,
        }
    }

    fn run(&mut self) {
        let mut i = 0usize;
        while i < self.m.code.len() {
            let t = self.m.code[i].clone();
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => {
                    self.depth += 1;
                    i += 1;
                }
                (TokKind::Punct, "}") => {
                    self.depth -= 1;
                    while self.impls.last().is_some_and(|&(_, d)| d >= self.depth) {
                        self.impls.pop();
                    }
                    i += 1;
                }
                (TokKind::Punct, "#") => i = self.attribute(i),
                (TokKind::Ident, "use") => i = self.use_decl(i),
                (TokKind::Ident, "impl") => i = self.impl_header(i),
                (TokKind::Ident, "fn") => i = self.fn_item(i),
                (TokKind::Ident, "struct") => i = self.struct_item(i),
                (TokKind::Ident, "const") => {
                    self.pending_test = false;
                    i += 1;
                }
                (TokKind::Ident, "static") => {
                    if self.tok_is(i + 1, "mut") {
                        self.m.static_muts.push(t.line);
                    }
                    self.pending_test = false;
                    i += 1;
                }
                (TokKind::Ident, "mod" | "enum" | "trait" | "union") => {
                    // An item consumes a pending #[cfg(test)]: record its span.
                    i = self.item_span(i);
                }
                _ => i += 1,
            }
        }
    }

    fn tok_is(&self, i: usize, text: &str) -> bool {
        self.m.code.get(i).is_some_and(|t| t.text == text)
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        self.m
            .code
            .get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }

    /// `#[…]` / `#![…]`: skip, noting `cfg(test)`.
    fn attribute(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        if self.tok_is(j, "!") {
            j += 1;
        }
        if !self.tok_is(j, "[") {
            return i + 1;
        }
        let close = match_bracket(&self.m.code, j, "[", "]");
        let toks = &self.m.code[j..=close.min(self.m.code.len() - 1)];
        let has = |w: &str| toks.iter().any(|t| t.kind == TokKind::Ident && t.text == w);
        if has("cfg") && has("test") {
            self.pending_test = true;
        }
        close + 1
    }

    /// `use a::b::{c, d as e};` — records alias → full path entries.
    fn use_decl(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        let start = j;
        while j < self.m.code.len() && !self.tok_is(j, ";") {
            j += 1;
        }
        let toks: Vec<Tok> = self.m.code[start..j].to_vec();
        let mut entries = Vec::new();
        parse_use_tree(&toks, &[], &mut entries);
        for (alias, path) in entries {
            self.m.uses.insert(alias, path);
        }
        self.pending_test = false;
        j + 1
    }

    /// `impl<…> Trait for Type {` / `impl Type {` — pushes the self type.
    fn impl_header(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        let mut after_for: Option<String> = None;
        let mut first: Option<String> = None;
        let mut saw_for = false;
        while j < self.m.code.len() && !self.tok_is(j, "{") && !self.tok_is(j, ";") {
            let t = &self.m.code[j];
            if t.kind == TokKind::Punct && t.text == "<" {
                j = match_angle(&self.m.code, j) + 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                if t.text == "for" {
                    saw_for = true;
                } else if t.text == "where" {
                    break;
                } else if saw_for && after_for.is_none() {
                    after_for = Some(t.text.clone());
                } else if first.is_none() {
                    first = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let ty = after_for.or(first);
        self.impls.push((ty, self.depth));
        self.pending_test = false;
        // Leave the `{` to the main loop so depth stays consistent.
        j
    }

    /// A `fn` item: header, body span, and the calls inside it.
    fn fn_item(&mut self, i: usize) -> usize {
        let Some(name) = self.ident_at(i + 1).map(str::to_string) else {
            return i + 1;
        };
        let start_line = self.m.code[i].line;
        let mut j = i + 2;
        if self.tok_is(j, "<") {
            j = match_angle(&self.m.code, j) + 1;
        }
        if !self.tok_is(j, "(") {
            return i + 1;
        }
        let params_close = match_bracket(&self.m.code, j, "(", ")");
        let (has_self, params) = parse_params(&self.m.code[j + 1..params_close]);
        j = params_close + 1;
        // Return type: `-> Type` up to `{`, `;`, or `where`.
        let mut ret_ty = String::new();
        if self.tok_is(j, "-") && self.tok_is(j + 1, ">") {
            j += 2;
            while j < self.m.code.len() {
                let t = &self.m.code[j];
                if t.text == "{" || t.text == ";" || (t.kind == TokKind::Ident && t.text == "where")
                {
                    break;
                }
                if !ret_ty.is_empty() {
                    ret_ty.push(' ');
                }
                ret_ty.push_str(&t.text);
                j += 1;
            }
        }
        while j < self.m.code.len() && !self.tok_is(j, "{") && !self.tok_is(j, ";") {
            j += 1;
        }
        let qual = match self.impls.last() {
            Some((Some(ty), d)) if self.depth > *d => format!("{ty}::{name}"),
            _ => name.clone(),
        };
        let (body, end_line, calls) = if self.tok_is(j, "{") {
            let close = match_bracket(&self.m.code, j, "{", "}");
            let end_line = self.m.code[close.min(self.m.code.len() - 1)].line;
            let calls = extract_calls(&self.m.code, j, close);
            ((j, close), end_line, calls)
        } else {
            (
                (j, j),
                self.m.code.get(j).map_or(start_line, |t| t.line),
                Vec::new(),
            )
        };
        if self.pending_test {
            self.m.test_spans.push((start_line, end_line));
            self.pending_test = false;
        }
        self.m.fns.push(FnModel {
            name,
            qual,
            has_self,
            is_test: false,
            start_line,
            end_line,
            ret_ty,
            params,
            body,
            calls,
        });
        // Continue *into* the body so nested items are modelled too.
        j
    }

    /// `struct Name { field: Type, … }` — records the fields.
    fn struct_item(&mut self, i: usize) -> usize {
        let start = self.m.code[i].line;
        let mut j = i + 2; // past `struct Name`
        if self.tok_is(j, "<") {
            j = match_angle(&self.m.code, j) + 1;
        }
        if !self.tok_is(j, "{") {
            // Tuple/unit struct: nothing to record.
            self.pending_test = false;
            return i + 1;
        }
        let close = match_bracket(&self.m.code, j, "{", "}");
        if self.pending_test {
            let end = self.m.code[close.min(self.m.code.len() - 1)].line;
            self.m.test_spans.push((start, end));
            self.pending_test = false;
        }
        // Split the field list on top-level commas.
        let mut k = j + 1;
        while k < close {
            let entry_start = k;
            let mut d = 0i32;
            while k < close {
                let t = &self.m.code[k];
                match t.text.as_str() {
                    "(" | "[" | "{" | "<" => d += 1,
                    ")" | "]" | "}" => d -= 1,
                    ">" if d > 0 && !(k > 0 && self.m.code[k - 1].text == "-") => d -= 1,
                    "," if d <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            self.record_field(entry_start, k);
            k += 1; // past the comma
        }
        close + 1
    }

    fn record_field(&mut self, start: usize, end: usize) {
        let toks = &self.m.code[start..end.min(self.m.code.len())];
        let Some(colon) = toks
            .iter()
            .position(|t| t.kind == TokKind::Punct && t.text == ":")
        else {
            return;
        };
        let Some(name) = toks[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident)
        else {
            return;
        };
        let ty = toks[colon + 1..]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        self.m.fields.insert(name.text.clone(), ty);
    }

    /// Any other braced item (`mod`, `enum`, `trait`): record a test span
    /// when flagged and step inside (for `mod`) or over (otherwise).
    fn item_span(&mut self, i: usize) -> usize {
        let is_mod = self.m.code[i].text == "mod";
        let start = self.m.code[i].line;
        let mut j = i + 1;
        while j < self.m.code.len() && !self.tok_is(j, "{") && !self.tok_is(j, ";") {
            j += 1;
        }
        if !self.tok_is(j, "{") {
            self.pending_test = false;
            return j + 1;
        }
        let close = match_bracket(&self.m.code, j, "{", "}");
        if self.pending_test {
            let end = self.m.code[close.min(self.m.code.len() - 1)].line;
            self.m.test_spans.push((start, end));
            self.pending_test = false;
        }
        if is_mod {
            // Walk into the module body so its items are modelled.
            j
        } else {
            close + 1
        }
    }
}

/// Finds the index of the bracket matching `code[open]` (which must be
/// `open_c`). Returns the last index when unbalanced.
pub fn match_bracket(code: &[Tok], open: usize, open_c: &str, close_c: &str) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == open_c {
                depth += 1;
            } else if t.text == close_c {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Finds the `>` matching `code[open]` (`<`), ignoring `->` arrows.
fn match_angle(code: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < code.len() {
        let t = &code[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" if k > 0 && code[k - 1].text == "-" => {}
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
        k += 1;
    }
    code.len().saturating_sub(1)
}

/// Splits a parameter list on top-level commas into `(name, type)` pairs,
/// detecting a `self` receiver.
fn parse_params(toks: &[Tok]) -> (bool, Vec<(String, String)>) {
    let mut has_self = false;
    let mut params = Vec::new();
    let mut start = 0usize;
    let mut d = 0i32;
    let mut k = 0usize;
    while k <= toks.len() {
        let at_end = k == toks.len();
        let at_comma = !at_end && toks[k].kind == TokKind::Punct && toks[k].text == "," && d == 0;
        if at_end || at_comma {
            let part = &toks[start..k];
            if part
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "self")
            {
                has_self = true;
            } else if let Some(colon) = part
                .iter()
                .position(|t| t.kind == TokKind::Punct && t.text == ":")
            {
                if let Some(name) = part[..colon]
                    .iter()
                    .rev()
                    .find(|t| t.kind == TokKind::Ident)
                {
                    let ty = part[colon + 1..]
                        .iter()
                        .map(|t| t.text.as_str())
                        .collect::<Vec<_>>()
                        .join(" ");
                    params.push((name.text.clone(), ty));
                }
            }
            start = k + 1;
            if at_end {
                break;
            }
        } else {
            match toks[k].text.as_str() {
                "(" | "[" | "{" | "<" => d += 1,
                ")" | "]" | "}" => d -= 1,
                ">" if !(k > 0 && toks[k - 1].text == "-") => d -= 1,
                _ => {}
            }
        }
        k += 1;
    }
    (has_self, params)
}

/// Recursive descent over a `use` tree (the tokens between `use` and `;`).
fn parse_use_tree(toks: &[Tok], prefix: &[String], out: &mut Vec<(String, Vec<String>)>) {
    let mut segs: Vec<String> = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        let t = &toks[k];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "as") => {
                // `path as alias`
                if let Some(alias) = toks.get(k + 1).filter(|a| a.kind == TokKind::Ident) {
                    let mut full = prefix.to_vec();
                    full.extend(segs.iter().cloned());
                    out.push((alias.text.clone(), full));
                }
                return;
            }
            (TokKind::Ident, seg) => segs.push(seg.to_string()),
            (TokKind::Punct, "::") => {}
            (TokKind::Punct, "{") => {
                // Nested group: recurse per comma-separated element.
                let close = match_bracket(toks, k, "{", "}");
                let mut new_prefix = prefix.to_vec();
                new_prefix.extend(segs.iter().cloned());
                let inner = &toks[k + 1..close.min(toks.len())];
                let mut elem_start = 0usize;
                let mut d = 0i32;
                for (e, t) in inner.iter().enumerate() {
                    match t.text.as_str() {
                        "{" => d += 1,
                        "}" => d -= 1,
                        "," if d == 0 => {
                            if e > elem_start {
                                parse_use_tree(&inner[elem_start..e], &new_prefix, out);
                            }
                            elem_start = e + 1;
                        }
                        _ => {}
                    }
                }
                if elem_start < inner.len() {
                    parse_use_tree(&inner[elem_start..], &new_prefix, out);
                }
                return;
            }
            (TokKind::Punct, "*") => return, // glob imports: not modelled
            _ => {}
        }
        k += 1;
    }
    if let Some(last) = segs.last().cloned() {
        let mut full = prefix.to_vec();
        full.extend(segs);
        out.push((last, full));
    }
}

/// Extracts the call sites inside `code[open..=close]` (a fn body).
fn extract_calls(code: &[Tok], open: usize, close: usize) -> Vec<Call> {
    let mut calls = Vec::new();
    let end = close.min(code.len());
    for j in open..end {
        let t = &code[j];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // `name(` directly, or `name::<T>(` through a turbofish.
        let paren_next = code.get(j + 1).is_some_and(|n| n.text == "(");
        let turbofish = code.get(j + 1).is_some_and(|n| n.text == "::")
            && code.get(j + 2).is_some_and(|n| n.text == "<");
        let is_call = if paren_next {
            true
        } else if turbofish {
            let close_angle = match_angle(code, j + 2);
            code.get(close_angle + 1).is_some_and(|n| n.text == "(")
        } else {
            false
        };
        if !is_call {
            continue;
        }
        // Macro invocations (`name!(…)`) are skipped; their argument tokens
        // still flow through this loop, so calls inside them are found.
        if code.get(j + 1).is_some_and(|n| n.text == "!") {
            continue;
        }
        if j > open && code[j - 1].text == "." {
            calls.push(Call {
                kind: CallKind::Method,
                segs: vec![t.text.clone()],
                line: t.line,
            });
            continue;
        }
        // Walk back over `seg::seg::…` to collect the full path.
        let mut segs = vec![t.text.clone()];
        let mut k = j;
        while k >= 2
            && code[k - 1].kind == TokKind::Punct
            && code[k - 1].text == "::"
            && code[k - 2].kind == TokKind::Ident
        {
            segs.insert(0, code[k - 2].text.clone());
            k -= 2;
        }
        calls.push(Call {
            kind: CallKind::Path,
            segs,
            line: t.line,
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        build_model("crates/demo/src/lib.rs", &lex(src))
    }

    #[test]
    fn fn_items_with_impl_self_type_and_ret() {
        let m = model(
            "pub struct Simulator;\n\
             impl Simulator {\n\
                 pub fn run_until(&mut self, until: u64) -> u32 { helper(until) }\n\
             }\n\
             fn helper(x: u64) -> u32 { 0 }\n",
        );
        let run = m
            .fns
            .iter()
            .find(|f| f.name == "run_until")
            .expect("run_until modelled");
        assert_eq!(run.qual, "Simulator::run_until");
        assert!(run.has_self);
        assert_eq!(run.params, vec![("until".to_string(), "u64".to_string())]);
        assert_eq!(run.ret_ty, "u32");
        assert_eq!(run.calls.len(), 1);
        assert_eq!(run.calls[0].segs, vec!["helper"]);
        let helper = m
            .fns
            .iter()
            .find(|f| f.name == "helper")
            .expect("helper modelled");
        assert_eq!(helper.qual, "helper");
        assert!(!helper.has_self);
    }

    #[test]
    fn use_aliases_and_groups() {
        let m = model(
            "use std::time::Instant;\n\
             use obs::prof::ProfStamp as Stamp;\n\
             use crate::helpers::{poll_clock, nested::thing};\n",
        );
        assert_eq!(
            m.uses.get("Instant"),
            Some(&vec!["std".into(), "time".into(), "Instant".into()])
        );
        assert_eq!(
            m.uses.get("Stamp"),
            Some(&vec!["obs".into(), "prof".into(), "ProfStamp".into()])
        );
        assert_eq!(
            m.uses.get("poll_clock"),
            Some(&vec!["crate".into(), "helpers".into(), "poll_clock".into()])
        );
        assert_eq!(
            m.uses.get("thing"),
            Some(&vec![
                "crate".into(),
                "helpers".into(),
                "nested".into(),
                "thing".into()
            ])
        );
    }

    #[test]
    fn method_and_path_calls_with_turbofish() {
        let m = model(
            "fn f(x: &Thing) -> u64 {\n\
                 x.poll();\n\
                 obs::ProfStamp::now();\n\
                 let v = x.items().iter().sum::<u64>();\n\
                 v\n\
             }\n",
        );
        let f = &m.fns[0];
        let segs: Vec<Vec<String>> = f.calls.iter().map(|c| c.segs.clone()).collect();
        assert!(segs.contains(&vec!["poll".to_string()]));
        assert!(segs.contains(&vec![
            "obs".to_string(),
            "ProfStamp".to_string(),
            "now".to_string()
        ]));
        assert!(segs.contains(&vec!["sum".to_string()]));
        assert!(f
            .calls
            .iter()
            .all(|c| (c.kind == CallKind::Method) == (c.segs.len() == 1)));
    }

    #[test]
    fn cfg_test_spans_exclude_test_fns() {
        let m = model(
            "fn real() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn fake() { std::time::Instant::now(); }\n\
             }\n",
        );
        assert!(
            !m.fns
                .iter()
                .find(|f| f.name == "real")
                .expect("real")
                .is_test
        );
        assert!(
            m.fns
                .iter()
                .find(|f| f.name == "fake")
                .expect("fake")
                .is_test
        );
        assert!(m.in_test_span(5));
        assert!(!m.in_test_span(1));
    }

    #[test]
    fn fields_and_static_mut() {
        let m = model(
            "pub struct Acc { pub vals: Vec<f64>, total: f64 }\n\
             pub const FIELDS: [&str; 2] = [\"wall_s\", \"cpu_s\"];\n\
             pub const SLICE_FIELDS: &[&str] = &[\"created\"];\n\
             static mut COUNTER: u64 = 0;\n",
        );
        assert_eq!(
            m.fields.get("vals").map(String::as_str),
            Some("Vec < f64 >")
        );
        assert_eq!(m.fields.get("total").map(String::as_str), Some("f64"));
        assert_eq!(m.static_muts, vec![4]);
    }
}
