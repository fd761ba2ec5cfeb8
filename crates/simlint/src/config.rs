//! `simlint.toml` configuration and the grandfathered-findings baseline.
//!
//! The workspace builds offline, so instead of a TOML crate this module
//! parses the small, documented subset the config actually uses: `[section]`
//! headers, `key = "string"`, and `key = ["array", "of", "strings"]`
//! (single- or multi-line), with `#` comments. Unknown sections or keys are
//! errors — a typoed rule id must not silently disable a lint.

use std::collections::BTreeMap;
use std::fmt;

use crate::rules::RuleId;

/// Parsed lint configuration.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Config {
    /// Crates whose in-memory state must iterate deterministically: rules
    /// D001/D006 fire only inside `crates/<name>/…` for these names.
    pub state_crates: Vec<String>,
    /// Crates running *inside* a simulation (protocol + engine code):
    /// D007/D008 reachability is rooted at entry points in these crates,
    /// which excludes the harness-side epoch loop by construction.
    pub sim_crates: Vec<String>,
    /// Call-graph roots for D007/D008, as `Type::method` or bare method
    /// names (`on_packet` matches every trait impl of that name).
    pub entry_points: Vec<String>,
    /// Per-rule file allowlists (repo-relative, `/`-separated). Entries
    /// are exact paths or prefix globs (`crates/criterion/**`); a matched
    /// file never produces findings for that rule.
    pub allow: BTreeMap<RuleId, Vec<String>>,
    /// Path prefixes excluded from the scan entirely (fixtures, vendor
    /// output…). `target` and `.git` are always skipped.
    pub skip: Vec<String>,
    /// Default baseline file path, overridable with `--baseline`.
    pub baseline: Option<String>,
}

/// A configuration or baseline syntax error with its line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

impl Config {
    /// Parses the `simlint.toml` subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| err(lineno, "unterminated section header"))?;
                section = name.trim().to_string();
                match section.as_str() {
                    "simlint" | "allow" => {}
                    other => return Err(err(lineno, format!("unknown section [{other}]"))),
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, "expected `key = value`"))?;
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multi-line arrays: keep consuming until the bracket closes.
            if value.starts_with('[') && !balanced(&value) {
                for (_, cont) in lines.by_ref() {
                    value.push(' ');
                    value.push_str(strip_comment(cont).trim());
                    if balanced(&value) {
                        break;
                    }
                }
            }
            match (section.as_str(), key) {
                ("simlint", "state_crates") => cfg.state_crates = parse_array(&value, lineno)?,
                ("simlint", "sim_crates") => cfg.sim_crates = parse_array(&value, lineno)?,
                ("simlint", "entry_points") => cfg.entry_points = parse_array(&value, lineno)?,
                ("simlint", "skip") => cfg.skip = parse_array(&value, lineno)?,
                ("simlint", "baseline") => cfg.baseline = Some(parse_string(&value, lineno)?),
                ("allow", rule) => {
                    let id = RuleId::parse(rule)
                        .ok_or_else(|| err(lineno, format!("unknown rule id `{rule}`")))?;
                    cfg.allow.insert(id, parse_array(&value, lineno)?);
                }
                (_, key) => return Err(err(lineno, format!("unknown key `{key}`"))),
            }
        }
        Ok(cfg)
    }

    /// `true` when `rel_path` is allowlisted for `rule`. Allow entries are
    /// exact paths or prefix globs: `crates/criterion/**` matches every
    /// file under `crates/criterion/`.
    pub fn is_allowed(&self, rule: RuleId, rel_path: &str) -> bool {
        self.allow
            .get(&rule)
            .is_some_and(|files| files.iter().any(|f| allow_matches(f, rel_path)))
    }

    /// `true` when `rel_path` falls under a skipped prefix.
    pub fn is_skipped(&self, rel_path: &str) -> bool {
        self.skip
            .iter()
            .any(|p| rel_path == p || rel_path.starts_with(&format!("{p}/")))
    }

    /// `true` when `crate_name` holds simulation state (D001/D006 scope).
    pub fn is_state_crate(&self, crate_name: &str) -> bool {
        self.state_crates.iter().any(|c| c == crate_name)
    }

    /// `true` when `crate_name` runs inside a simulation (D007/D008 scope).
    pub fn is_sim_crate(&self, crate_name: &str) -> bool {
        self.sim_crates.iter().any(|c| c == crate_name)
    }
}

/// One allow entry against one path: exact match, or `prefix/**` glob.
fn allow_matches(entry: &str, rel_path: &str) -> bool {
    match entry.strip_suffix("/**") {
        Some(prefix) => rel_path.starts_with(prefix) && rel_path[prefix.len()..].starts_with('/'),
        None => entry == rel_path,
    }
}

/// Strips a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn balanced(value: &str) -> bool {
    let mut in_string = false;
    let mut depth = 0i32;
    for c in value.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string(value: &str, line: u32) -> Result<String, ConfigError> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| err(line, format!("expected a quoted string, got `{v}`")))
}

fn parse_array(value: &str, line: u32) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected an array, got `{v}`")))?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // tolerate trailing commas
        }
        items.push(parse_string(part, line)?);
    }
    Ok(items)
}

/// The baseline: grandfathered findings that do not fail the build, as
/// `RULE<space>path<space>count` lines (`count` defaults to 1). The
/// end-state target is an *empty* baseline; entries exist only while a
/// violation is being burned down.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Baseline {
    /// `(rule, file) → grandfathered finding count`.
    pub entries: BTreeMap<(RuleId, String), usize>,
}

impl Baseline {
    /// Parses a baseline file (`#` comments and blank lines ignored).
    pub fn parse(text: &str) -> Result<Baseline, ConfigError> {
        let mut entries = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let rule = parts
                .next()
                .and_then(RuleId::parse)
                .ok_or_else(|| err(lineno, "expected `RULE path [count]`"))?;
            let path = parts
                .next()
                .ok_or_else(|| err(lineno, "missing file path"))?
                .to_string();
            let count = match parts.next() {
                Some(n) => n
                    .parse::<usize>()
                    .map_err(|_| err(lineno, format!("bad count `{n}`")))?,
                None => 1,
            };
            if parts.next().is_some() {
                return Err(err(lineno, "trailing tokens after count"));
            }
            let total = entries.entry((rule, path)).or_insert(0usize);
            *total = total
                .checked_add(count)
                .ok_or_else(|| err(lineno, format!("count `{count}` overflows the total")))?;
        }
        Ok(Baseline { entries })
    }

    /// Renders a baseline accepting exactly the given `(rule, file)` counts.
    pub fn render(counts: &BTreeMap<(RuleId, String), usize>) -> String {
        let mut out = String::from(
            "# simlint baseline — grandfathered findings (see docs/LINTS.md).\n\
             # Format: RULE path [count]. The target end-state is an empty file.\n",
        );
        for ((rule, path), count) in counts {
            out.push_str(&format!("{rule} {path} {count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
            # determinism lints
            [simlint]
            baseline = "simlint.baseline"
            state_crates = [
              "srm", "cesrm",  # protocol state
              "netsim",
            ]
            skip = ["crates/simlint/tests/fixtures"]

            [allow]
            D002 = ["crates/criterion/src/lib.rs"]
            D003 = []
            "#,
        )
        .expect("valid config");
        assert_eq!(cfg.state_crates, vec!["srm", "cesrm", "netsim"]);
        assert_eq!(cfg.baseline.as_deref(), Some("simlint.baseline"));
        assert!(cfg.is_state_crate("srm"));
        assert!(!cfg.is_state_crate("harness"));
        assert!(cfg.is_allowed(RuleId::D002, "crates/criterion/src/lib.rs"));
        assert!(!cfg.is_allowed(RuleId::D003, "crates/rand/src/lib.rs"));
        assert!(cfg.is_skipped("crates/simlint/tests/fixtures/crates/x/src/lib.rs"));
        assert!(!cfg.is_skipped("crates/simlint/tests/fixture.rs"));
    }

    #[test]
    fn prefix_glob_allows() {
        let cfg = Config::parse(
            r#"
            [allow]
            D002 = ["crates/criterion/**", "crates/harness/src/runner.rs"]
            "#,
        )
        .expect("valid config");
        assert!(cfg.is_allowed(RuleId::D002, "crates/criterion/src/lib.rs"));
        assert!(cfg.is_allowed(RuleId::D002, "crates/criterion/src/deep/mod.rs"));
        assert!(cfg.is_allowed(RuleId::D002, "crates/harness/src/runner.rs"));
        // The glob is a *path-segment* prefix, not a string prefix.
        assert!(!cfg.is_allowed(RuleId::D002, "crates/criterion2/src/lib.rs"));
        assert!(!cfg.is_allowed(RuleId::D002, "crates/harness/src/runner2.rs"));
        // Bare `crates/criterion` without `/**` stays an exact match.
        assert!(allow_matches("a/b.rs", "a/b.rs"));
        assert!(!allow_matches("a", "a/b.rs"));
    }

    #[test]
    fn parses_sim_crates_and_entry_points() {
        let cfg = Config::parse(
            r#"
            [simlint]
            sim_crates = ["netsim", "srm"]
            entry_points = [
              "Simulator::run_until",
              "on_packet",
            ]
            "#,
        )
        .expect("valid config");
        assert!(cfg.is_sim_crate("netsim"));
        assert!(!cfg.is_sim_crate("harness"));
        assert_eq!(cfg.entry_points, vec!["Simulator::run_until", "on_packet"]);
        // Report schemas are locked by rendering them, not by this config.
        assert!(Config::parse("[schemas]\n").is_err());
    }

    #[test]
    fn rejects_unknown_rule_and_section() {
        assert!(Config::parse("[allow]\nD9 = []").is_err());
        assert!(Config::parse("[typo]\n").is_err());
        assert!(Config::parse("[simlint]\nnot_a_key = 3").is_err());
    }

    #[test]
    fn baseline_round_trip() {
        let b = Baseline::parse(
            "# comment\nD001 crates/srm/src/core.rs 5\nD002 crates/harness/src/suite.rs\n",
        )
        .expect("valid baseline");
        assert_eq!(
            b.entries
                .get(&(RuleId::D001, "crates/srm/src/core.rs".into())),
            Some(&5)
        );
        assert_eq!(
            b.entries
                .get(&(RuleId::D002, "crates/harness/src/suite.rs".into())),
            Some(&1)
        );
        let rendered = Baseline::render(&b.entries);
        let again = Baseline::parse(&rendered).expect("render is parseable");
        assert_eq!(again, b);
        assert!(Baseline::parse("D001\n").is_err());
        assert!(Baseline::parse("D001 f.rs x\n").is_err());
    }

    #[test]
    fn repeated_baseline_counts_that_overflow_are_an_error() {
        let e = Baseline::parse("D001 a.rs 18446744073709551615\nD001 a.rs 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("overflows"), "{e}");
        let b = Baseline::parse("D001 a.rs 2\nD001 a.rs 3\n").expect("sums fit");
        assert_eq!(b.entries.get(&(RuleId::D001, "a.rs".into())), Some(&5));
    }
}
