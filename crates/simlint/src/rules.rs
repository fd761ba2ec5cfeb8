//! The determinism & protocol-invariant rule set, evaluated over the token
//! stream of one file.
//!
//! | Rule | Contract it protects |
//! |------|----------------------|
//! | D001 | No `HashMap`/`HashSet` in simulation-state crates: a run must be a pure function of (topology, trace, seed), and per-instance hash seeds make iteration order a hidden input. |
//! | D002 | No wall clock (`Instant::now`, `SystemTime::now`) outside harness-side bench/profiling code: simulation time is `netsim::SimTime`, host time must never leak in. |
//! | D003 | No OS entropy (`thread_rng`, `rand::rng`, `OsRng`, `from_entropy`, `getrandom`, `RandomState`): all randomness flows through the seeded, vendored `rand` shim. |
//! | D004 | No `unsafe` outside an explicit allowlist. |
//! | D005 | Every suppression carries a non-empty reason, and stale suppressions are themselves errors. |
//!
//! Suppression syntax (line comment, on its own line above the offending
//! line or trailing at the end of it):
//!
//! ```text
//! // simlint: allow(D001, reason = "iteration order never escapes: …")
//! ```
//!
//! A suppression covers findings of its rule on the *next code line* (or its
//! own line when trailing). A `D005` suppression may additionally target a
//! following suppression comment, so a deliberately-kept stale allow can be
//! annotated — one level deep only.

use std::fmt;

use crate::config::Config;
use crate::lexer::{Tok, TokKind};

/// Identifier of a lint rule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RuleId {
    /// Hash-ordered collections in simulation-state crates.
    D001,
    /// Wall-clock reads outside bench/profiling code.
    D002,
    /// OS entropy outside the vendored `rand` shim.
    D003,
    /// `unsafe` outside the allowlist.
    D004,
    /// Malformed, reason-less, or stale suppressions.
    D005,
    /// Float accumulation over unordered iteration in a state crate.
    D006,
    /// Shared mutable state reachable from simulation entry points.
    D007,
    /// Wall clock / OS entropy transitively reachable from the simulation.
    D008,
}

impl RuleId {
    /// All rules, in id order.
    pub const ALL: [RuleId; 8] = [
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::D005,
        RuleId::D006,
        RuleId::D007,
        RuleId::D008,
    ];

    /// Parses `"D001"`…`"D008"`.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D001" => Some(RuleId::D001),
            "D002" => Some(RuleId::D002),
            "D003" => Some(RuleId::D003),
            "D004" => Some(RuleId::D004),
            "D005" => Some(RuleId::D005),
            "D006" => Some(RuleId::D006),
            "D007" => Some(RuleId::D007),
            "D008" => Some(RuleId::D008),
            _ => None,
        }
    }

    /// One-line description used in reports and docs.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D001 => "hash-ordered collection in a simulation-state crate",
            RuleId::D002 => "wall-clock read outside bench/profiling code",
            RuleId::D003 => "OS entropy outside the vendored rand shim",
            RuleId::D004 => "`unsafe` outside the allowlist",
            RuleId::D005 => "invalid or stale simlint suppression",
            RuleId::D006 => "float accumulation over unordered iteration in a state crate",
            RuleId::D007 => "shared mutable state reachable from a simulation entry point",
            RuleId::D008 => "wall clock or OS entropy reachable from the simulation",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::D006 => "D006",
            RuleId::D007 => "D007",
            RuleId::D008 => "D008",
        })
    }
}

/// The rule's full catalogue entry, extracted from the same `docs/LINTS.md`
/// text the rendered docs ship (single source of truth for `--explain`).
pub fn explain(rule: RuleId) -> String {
    const CATALOGUE: &str = include_str!("../../../docs/LINTS.md");
    let header = format!("### {rule}");
    let mut out = String::new();
    let mut in_section = false;
    for line in CATALOGUE.lines() {
        if in_section && (line.starts_with("### ") || line.starts_with("## ")) {
            break;
        }
        if line.starts_with(&header) {
            in_section = true;
        }
        if in_section {
            out.push_str(line);
            out.push('\n');
        }
    }
    if out.is_empty() {
        out = format!("### {rule}\n\n{}\n", rule.summary());
    }
    out
}

/// One lint finding, anchored to a repo-relative file and 1-indexed line.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed, syntactically valid suppression comment.
#[derive(Clone, Debug)]
struct Suppression {
    rule: RuleId,
    /// Line of the comment itself.
    at: u32,
    /// Line whose findings it covers.
    target: u32,
    used: bool,
}

/// Identifiers whose mere presence D003 flags. `from_entropy` and
/// `thread_rng` are the rand-crate entry points; `OsRng`/`getrandom` the
/// raw OS interfaces; `RandomState` seeds std's hashers from the OS.
const ENTROPY_IDENTS: [&str; 5] = [
    "thread_rng",
    "OsRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

/// The OS-entropy source `code[i]` names, if any: an [`ENTROPY_IDENTS`]
/// identifier, or the path `rand::rng` (rand ≥ 0.9's name for
/// `thread_rng`). A method call `.rng()` is not a path: netsim's
/// `Context::rng` hands out the node's seeded stream.
pub(crate) fn entropy_source<T: std::borrow::Borrow<Tok>>(code: &[T], i: usize) -> Option<&str> {
    let text = |k: usize| code.get(k).map(|t| t.borrow().text.as_str());
    let name = text(i)?;
    if ENTROPY_IDENTS.contains(&name) {
        return Some(name);
    }
    let rand_path =
        name == "rng" && i >= 2 && text(i - 1) == Some("::") && text(i - 2) == Some("rand");
    rand_path.then_some("rand::rng")
}

/// Evaluates the file-local token rules (D001–D004) against one file and
/// applies the suppression engine. Flow rules (D006–D008) live in
/// [`crate::graph`]; the scan driver merges their findings into
/// [`apply_suppressions`] so one suppression syntax covers every rule.
///
/// `rel_path` must be repo-relative with `/` separators (it drives the
/// config's crate scoping and allowlists). Findings come back sorted by
/// line.
pub fn check_file(rel_path: &str, toks: &[Tok], config: &Config) -> Vec<Finding> {
    let findings = token_findings(rel_path, toks, config);
    apply_suppressions(rel_path, toks, findings, config)
}

/// The file-local token rules (D001–D004), *before* suppressions.
pub fn token_findings(rel_path: &str, toks: &[Tok], config: &Config) -> Vec<Finding> {
    let crate_name = crate_of(rel_path);
    let is_state = crate_name.is_some_and(|c| config.is_state_crate(c));
    let code: Vec<&Tok> = toks.iter().filter(|t| t.is_code()).collect();

    let mut findings = Vec::new();
    let mut push = |rule: RuleId, line: u32, message: String| {
        if !config.is_allowed(rule, rel_path) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    for (i, tok) in code.iter().enumerate() {
        if tok.kind == TokKind::Ident {
            let name = tok.text.as_str();
            if is_state && (name == "HashMap" || name == "HashSet") {
                push(
                    RuleId::D001,
                    tok.line,
                    format!(
                        "`{name}` in simulation-state crate `{}`: iteration order \
                             depends on a per-instance hash seed; use `BTree{}` (or \
                             suppress with a reason proving order never escapes)",
                        crate_name.unwrap_or("?"),
                        &name[4..],
                    ),
                );
            }
            if (name == "Instant" || name == "SystemTime") && is_path_call(&code, i, "now") {
                push(
                    RuleId::D002,
                    tok.line,
                    format!(
                        "`{name}::now()` reads the wall clock: simulation code must \
                             use `SimTime`; bench/profiling call sites belong in the \
                             allowlist or under a reasoned suppression"
                    ),
                );
            }
            if let Some(name) = entropy_source(&code, i) {
                push(
                    RuleId::D003,
                    tok.line,
                    format!(
                        "`{name}` taps OS entropy: all randomness must flow through \
                             the seeded `rand` shim (`StdRng::seed_from_u64`)"
                    ),
                );
            }
            if name == "unsafe" {
                push(
                    RuleId::D004,
                    tok.line,
                    "`unsafe` block/impl/fn outside the allowlist: if this is \
                         load-bearing, justify it with an inline \
                         `simlint: allow(D004, reason = ...)`"
                        .to_string(),
                );
            }
        }
    }
    findings
}

/// Runs the suppression engine (D005) over one file: parses its
/// `// simlint: allow(...)` comments, drops covered findings, and reports
/// empty-reason / malformed / stale suppressions. `findings` must all
/// belong to `rel_path` (any rule — token and flow findings alike).
pub fn apply_suppressions(
    rel_path: &str,
    toks: &[Tok],
    mut findings: Vec<Finding>,
    config: &Config,
) -> Vec<Finding> {
    let code: Vec<&Tok> = toks.iter().filter(|t| t.is_code()).collect();

    // --- Suppressions (D005) -------------------------------------------
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut d005: Vec<Finding> = Vec::new();
    let code_lines: Vec<u32> = {
        let mut v: Vec<u32> = code.iter().map(|t| t.line).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let comment_lines: Vec<(u32, &str)> = toks
        .iter()
        .filter(|t| t.kind == TokKind::LineComment)
        .filter_map(|t| suppression_body(&t.text).map(|body| (t.line, body)))
        .collect();
    let suppression_lines: Vec<u32> = comment_lines.iter().map(|(l, _)| *l).collect();

    for &(line, text) in &comment_lines {
        match parse_suppression(text) {
            Ok((rule, reason)) => {
                if reason.trim().is_empty() {
                    d005.push(Finding {
                        file: rel_path.to_string(),
                        line,
                        rule: RuleId::D005,
                        message: format!(
                            "suppression of {rule} carries an empty reason: say *why* \
                             the invariant holds here"
                        ),
                    });
                    continue;
                }
                // Trailing comment → covers its own line; otherwise the next
                // code line. A D005 suppression may also target a following
                // suppression comment (to annotate a kept-stale allow).
                let own_line_has_code = code_lines.binary_search(&line).is_ok();
                let target = if own_line_has_code {
                    Some(line)
                } else {
                    let next_code = code_lines.iter().find(|&&l| l > line).copied();
                    if rule == RuleId::D005 {
                        let next_supp = suppression_lines.iter().find(|&&l| l > line).copied();
                        match (next_code, next_supp) {
                            (Some(c), Some(s)) => Some(c.min(s)),
                            (a, b) => a.or(b),
                        }
                    } else {
                        next_code
                    }
                };
                match target {
                    Some(target) => suppressions.push(Suppression {
                        rule,
                        at: line,
                        target,
                        used: false,
                    }),
                    None => d005.push(Finding {
                        file: rel_path.to_string(),
                        line,
                        rule: RuleId::D005,
                        message: format!(
                            "suppression of {rule} has nothing to attach to (end of file)"
                        ),
                    }),
                }
            }
            Err(why) => d005.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: RuleId::D005,
                message: format!("malformed suppression: {why}"),
            }),
        }
    }

    // Apply non-D005 suppressions to the raw findings.
    findings.retain(|f| {
        for s in suppressions.iter_mut() {
            if s.rule == f.rule && s.target == f.line {
                s.used = true;
                return false;
            }
        }
        true
    });

    // Unused non-D005 suppressions are stale.
    for s in &suppressions {
        if !s.used && s.rule != RuleId::D005 {
            d005.push(Finding {
                file: rel_path.to_string(),
                line: s.at,
                rule: RuleId::D005,
                message: format!(
                    "stale suppression: no {} finding on the suppressed line — delete \
                     it (or it masks nothing and will rot)",
                    s.rule
                ),
            });
        }
    }

    // D005 suppressions cover D005 findings (one level; an unused D005
    // suppression is stale and not further suppressible).
    d005.retain(|f| {
        for s in suppressions.iter_mut() {
            if s.rule == RuleId::D005 && s.target == f.line {
                s.used = true;
                return false;
            }
        }
        true
    });
    for s in &suppressions {
        if !s.used && s.rule == RuleId::D005 {
            d005.push(Finding {
                file: rel_path.to_string(),
                line: s.at,
                rule: RuleId::D005,
                message: "stale suppression: no D005 finding on the suppressed line".to_string(),
            });
        }
    }

    if !config.is_allowed(RuleId::D005, rel_path) {
        findings.extend(d005);
    }
    findings.sort();
    findings
}

/// The crate a repo-relative path belongs to (`crates/<name>/…`), if any.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

/// `true` when `code[i]` is followed by `:: method`, i.e. the identifier is
/// the second-to-last segment of a path call like `Instant::now`.
fn is_path_call(code: &[&Tok], i: usize, method: &str) -> bool {
    let sep = code.get(i + 1);
    let callee = code.get(i + 2);
    sep.is_some_and(|t| t.kind == TokKind::Punct && t.text == "::")
        && callee.is_some_and(|t| t.kind == TokKind::Ident && t.text == method)
}

/// Extracts the suppression body from a line comment. Only comments that
/// *begin* with the marker (after the `//`/`///`/`//!` prefix) count — a
/// doc sentence merely mentioning the syntax is not a suppression.
fn suppression_body(comment: &str) -> Option<&str> {
    let t = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    t.starts_with("simlint:").then_some(t)
}

/// Parses an `allow(RULE, reason = "…")` suppression body (as returned by
/// [`suppression_body`]). Returns `(rule, reason)`; the reason may be empty
/// (caller decides).
fn parse_suppression(comment: &str) -> Result<(RuleId, String), String> {
    let at = comment.find("simlint:").expect("caller filtered on marker");
    let rest = comment[at + "simlint:".len()..].trim_start();
    let rest = rest
        .strip_prefix("allow")
        .ok_or("expected `allow(RULE, reason = \"…\")` after `simlint:`")?
        .trim_start();
    let rest = rest.strip_prefix('(').ok_or("expected `(` after `allow`")?;
    // The reason is quote-delimited, so scan for its quotes *before*
    // looking for the closing `)` — reasons may legitimately contain
    // parentheses (`records()`, `--max-wall-ms` style flags, …).
    let (rule_str, reason) = match rest.split_once(',') {
        Some((r, tail)) => {
            let tail = tail
                .trim_start()
                .strip_prefix("reason")
                .map(str::trim_start)
                .and_then(|t| t.strip_prefix('='))
                .map(str::trim_start)
                .ok_or("expected `reason = \"…\"` after the rule id")?;
            let tail = tail
                .strip_prefix('"')
                .ok_or("reason must be a quoted string")?;
            let end = tail.find('"').ok_or("reason must be a quoted string")?;
            if !tail[end + 1..].trim_start().starts_with(')') {
                return Err("missing closing `)` after the reason".to_string());
            }
            (r.trim(), tail[..end].to_string())
        }
        None => {
            let close = rest.find(')').ok_or("missing closing `)`")?;
            (rest[..close].trim(), String::new())
        }
    };
    let rule = RuleId::parse(rule_str).ok_or_else(|| format!("unknown rule id `{rule_str}`"))?;
    Ok((rule, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn state_config() -> Config {
        Config {
            state_crates: vec!["srm".into()],
            ..Config::default()
        }
    }

    fn check(path: &str, src: &str, cfg: &Config) -> Vec<(RuleId, u32)> {
        check_file(path, &lex(src), cfg)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn d001_scoped_to_state_crates() {
        let cfg = state_config();
        let src = "use std::collections::HashMap;\ntype S = HashSet<u8>;";
        assert_eq!(
            check("crates/srm/src/core.rs", src, &cfg),
            vec![(RuleId::D001, 1), (RuleId::D001, 2)]
        );
        // Same source in a non-state crate (or the root package): clean.
        assert!(check("crates/harness/src/suite.rs", src, &cfg).is_empty());
        assert!(check("tests/structure_properties.rs", src, &cfg).is_empty());
    }

    #[test]
    fn d001_ignores_comments_and_strings() {
        let cfg = state_config();
        let src = r#"
            /// Uses a `HashMap`-shaped API. /* HashSet */
            fn f() { let s = "HashMap"; }
        "#;
        assert!(check("crates/srm/src/x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn d002_matches_path_calls_only() {
        let cfg = Config::default();
        let src = "let t = std::time::Instant::now();\nlet e = t.elapsed();";
        assert_eq!(
            check("crates/netsim/src/sim.rs", src, &cfg),
            vec![(RuleId::D002, 1)]
        );
        // A type mention without `::now` is fine (e.g. storing a deadline).
        assert!(check("x.rs", "fn f(t: Instant) {}", &cfg).is_empty());
        // SystemTime::now over multiple path segments.
        assert_eq!(
            check("x.rs", "let s = SystemTime::now();", &cfg),
            vec![(RuleId::D002, 1)]
        );
        // Allowlisted file: clean.
        let mut cfg = Config::default();
        cfg.allow
            .insert(RuleId::D002, vec!["crates/criterion/src/lib.rs".into()]);
        assert!(check("crates/criterion/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn d003_and_d004_fire_anywhere() {
        let cfg = Config::default();
        assert_eq!(
            check("examples/x.rs", "let r = rand::thread_rng();", &cfg),
            vec![(RuleId::D003, 1)]
        );
        // rand ≥ 0.9 spells it `rand::rng`; std's hashers seed from the OS.
        for src in [
            "let n = rand::rng().random_range(0..9);",
            "use rand::rng;",
            "let s = std::collections::hash_map::RandomState::new();",
        ] {
            assert_eq!(check("x.rs", src, &cfg), vec![(RuleId::D003, 1)], "{src}");
        }
        // A method `.rng()` is the simulator's seeded per-node stream.
        assert!(check("x.rs", "let n = ctx.rng().gen_range(0..9);", &cfg).is_empty());
        assert!(check("x.rs", "fn rng(&mut self) -> &mut StdRng { x }", &cfg).is_empty());
        assert_eq!(
            check(
                "src/lib.rs",
                "unsafe { std::hint::unreachable_unchecked() }",
                &cfg
            ),
            vec![(RuleId::D004, 1)]
        );
        // Raw identifiers and forbid attributes are not violations.
        assert!(check("x.rs", "#![forbid(unsafe_code)]\nlet r#unsafe = 1;", &cfg).is_empty());
    }

    #[test]
    fn suppression_covers_next_line_or_own_line() {
        let cfg = state_config();
        let src = "\
// simlint: allow(D001, reason = \"bounded map, drained sorted\")
use std::collections::HashMap;
type T = HashSet<u8>; // simlint: allow(D001, reason = \"test-only\")
";
        assert!(check("crates/srm/src/x.rs", src, &cfg).is_empty());
        // Parentheses inside the quoted reason must not end the allow(...)
        // group early — reasons routinely cite calls like `records()`.
        let src = "\
// simlint: allow(D001, reason = \"records() order is fixed (BTreeMap); see docs\")
use std::collections::HashMap;
";
        assert!(check("crates/srm/src/x.rs", src, &cfg).is_empty());
        // The suppression does NOT leak past its target line.
        let src = "\
// simlint: allow(D001, reason = \"covers only the next line\")
use std::collections::HashMap;
use std::collections::HashSet;
";
        assert_eq!(
            check("crates/srm/src/x.rs", src, &cfg),
            vec![(RuleId::D001, 3)]
        );
    }

    #[test]
    fn d005_empty_reason_stale_and_malformed() {
        let cfg = state_config();
        // Empty reason.
        let src = "// simlint: allow(D001, reason = \"\")\nuse std::collections::HashMap;\n";
        assert_eq!(
            check("crates/srm/src/x.rs", src, &cfg),
            vec![(RuleId::D005, 1), (RuleId::D001, 2)]
        );
        // Reason-less form is malformed-by-design (no bare allows).
        let src = "// simlint: allow(D001)\nuse std::collections::HashMap;\n";
        let f = check("crates/srm/src/x.rs", src, &cfg);
        assert!(
            f.contains(&(RuleId::D005, 1)) && f.contains(&(RuleId::D001, 2)),
            "{f:?}"
        );
        // Stale: no violation on the next line.
        let src = "// simlint: allow(D001, reason = \"nothing here\")\nfn clean() {}\n";
        assert_eq!(
            check("crates/srm/src/x.rs", src, &cfg),
            vec![(RuleId::D005, 1)]
        );
        // Malformed rule id.
        let src = "// simlint: allow(D042, reason = \"?\")\nfn f() {}\n";
        assert_eq!(
            check("crates/srm/src/x.rs", src, &cfg),
            vec![(RuleId::D005, 1)]
        );
    }

    #[test]
    fn d005_meta_suppression_one_level() {
        let cfg = state_config();
        let src = "\
// simlint: allow(D005, reason = \"kept: documents a tolerated stale allow\")
// simlint: allow(D001, reason = \"stale on purpose\")
fn clean() {}
";
        assert!(check("crates/srm/src/x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn wrong_rule_suppression_is_stale_and_violation_reported() {
        let cfg = state_config();
        let src = "\
// simlint: allow(D002, reason = \"wrong rule\")
use std::collections::HashMap;
";
        let f = check("crates/srm/src/x.rs", src, &cfg);
        assert_eq!(f, vec![(RuleId::D005, 1), (RuleId::D001, 2)]);
    }
}
