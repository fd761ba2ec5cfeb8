//! Pass 2, part two: report-schema drift locking (rule D009).
//!
//! Every machine-readable report the workspace emits (`cesrm-bench/2`,
//! `cesrm-health/1`, `cesrm-prof/2`, `cesrm-scale-rung/1`, `simlint/2`) is
//! hand-rolled JSON with a frozen versioned schema. Downstream tooling —
//! `bench_compare`, CI artifact consumers, the docs — depends on the key
//! sets staying put. D009 makes that machine-checked:
//!
//! 1. the emitter sources named in `simlint.toml`'s `[schemas]` table are
//!    statically mined for their JSON keys (tuple-style `("key", …)`
//!    builders and `\"key\":` format-string fragments, `#[cfg(test)]`
//!    code excluded) plus any `*VOLATILE_FIELDS` const in scope,
//! 2. the result is diffed against a committed lock snapshot under the
//!    configured `lock_dir` (`crates/simlint/schemas/*.lock`),
//! 3. any key-set or volatile-list change **without a schema version
//!    bump** is a finding, anchored at the line carrying the schema-id
//!    literal so the inline-allow escape hatch applies.
//!
//! `simlint --write-schemas` regenerates the locks — and refuses to when
//! the key set changed but the version string did not, which is exactly
//! the force that keeps emitters honest.
//!
//! Scope syntax: `"<id>" = ["path/to/file.rs", "path/to/file.rs#fn_name"]`
//! — a bare path mines the whole file, `#fn_name` restricts key mining to
//! that function's body (for files emitting several schemas). The schema-id
//! literal may sit anywhere in a scoped file (e.g. a `const`).

use std::collections::BTreeSet;
use std::path::Path;

use crate::graph::Workspace;
use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::rules::{Finding, RuleId};
use crate::Config;

/// Per-schema verdict carried into the `simlint/2` report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SchemaStatus {
    pub id: String,
    pub ok: bool,
}

/// What static mining of an emitter scope produced.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Extracted {
    keys: BTreeSet<String>,
    volatile: BTreeSet<String>,
    /// `(file, line)` of the first literal equal to the schema id.
    id_site: Option<(String, u32)>,
}

/// A parsed `.lock` snapshot.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Lock {
    id: String,
    keys: BTreeSet<String>,
    volatile: BTreeSet<String>,
}

/// Checks every configured schema against its lock. Returns raw findings
/// (suppressions applied later by the scan driver) plus per-schema status.
pub fn check_schemas(
    root: &Path,
    ws: &Workspace,
    config: &Config,
) -> Result<(Vec<Finding>, Vec<SchemaStatus>), String> {
    let mut findings = Vec::new();
    let mut statuses = Vec::new();
    let Some(lock_dir) = config.schema_lock_dir.as_deref() else {
        return Ok((findings, statuses));
    };
    for (id, scopes) in &config.schemas {
        let extracted = extract(ws, id, scopes)?;
        let (anchor_file, anchor_line) = match &extracted.id_site {
            Some(site) => site.clone(),
            None => {
                let file = scopes
                    .first()
                    .map(|s| s.split('#').next().unwrap_or(s).to_string())
                    .unwrap_or_default();
                findings.push(finding(
                    &file,
                    1,
                    format!(
                        "schema id `{id}` not found in its configured emitter scope: \
                         the emitter must carry the version string as a literal"
                    ),
                ));
                statuses.push(SchemaStatus {
                    id: id.clone(),
                    ok: false,
                });
                continue;
            }
        };
        let lock_path = root.join(lock_dir).join(lock_file_name(id));
        let mut ok = true;
        if !lock_path.exists() {
            findings.push(finding(
                &anchor_file,
                anchor_line,
                format!(
                    "no lock snapshot for schema `{id}` (expected {lock_dir}/{}): \
                     run `simlint --write-schemas` and commit the result",
                    lock_file_name(id)
                ),
            ));
            ok = false;
        } else {
            let text = std::fs::read_to_string(&lock_path)
                .map_err(|e| format!("reading {}: {e}", lock_path.display()))?;
            let lock = parse_lock(&text).map_err(|e| format!("{}: {e}", lock_path.display()))?;
            if lock.id != *id {
                findings.push(finding(
                    &anchor_file,
                    anchor_line,
                    format!(
                        "schema version bumped ({} -> {id}) but the lock is stale: \
                         run `simlint --write-schemas` to regenerate it",
                        lock.id
                    ),
                ));
                ok = false;
            } else {
                if extracted.keys != lock.keys {
                    findings.push(finding(
                        &anchor_file,
                        anchor_line,
                        format!(
                            "key set of `{id}` changed without a version bump \
                             ({}): bump the schema version in the emitter and the \
                             config, then run `simlint --write-schemas`",
                            diff(&lock.keys, &extracted.keys)
                        ),
                    ));
                    ok = false;
                }
                if extracted.volatile != lock.volatile {
                    findings.push(finding(
                        &anchor_file,
                        anchor_line,
                        format!(
                            "volatile-field list of `{id}` changed without a version \
                             bump ({}): machine-dependent fields are part of the \
                             schema contract",
                            diff(&lock.volatile, &extracted.volatile)
                        ),
                    ));
                    ok = false;
                }
            }
        }
        // Volatile fields must name real keys, lock or no lock.
        let orphans: Vec<&String> = extracted
            .volatile
            .iter()
            .filter(|v| !extracted.keys.contains(*v))
            .collect();
        if !orphans.is_empty() {
            findings.push(finding(
                &anchor_file,
                anchor_line,
                format!(
                    "volatile field(s) [{}] of `{id}` are not emitted keys: the \
                     volatile list must be a subset of the schema's key set",
                    orphans
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
            ok = false;
        }
        statuses.push(SchemaStatus { id: id.clone(), ok });
    }
    // Drop findings on config-allowlisted files.
    findings.retain(|f| !config.is_allowed(RuleId::D009, &f.file));
    Ok((findings, statuses))
}

/// Regenerates every lock. Refuses when a key set changed for an unchanged
/// version — the bump-enforcement that makes D009 more than a reminder.
/// Returns the written (repo-relative) lock paths.
pub fn write_schemas(root: &Path, ws: &Workspace, config: &Config) -> Result<Vec<String>, String> {
    let Some(lock_dir) = config.schema_lock_dir.as_deref() else {
        return Err("no [schemas] lock_dir configured".into());
    };
    let mut written = Vec::new();
    for (id, scopes) in &config.schemas {
        let extracted = extract(ws, id, scopes)?;
        if extracted.id_site.is_none() {
            return Err(format!(
                "schema id `{id}` not found in its configured emitter scope"
            ));
        }
        let rel = format!("{lock_dir}/{}", lock_file_name(id));
        let lock_path = root.join(&rel);
        if lock_path.exists() {
            let text = std::fs::read_to_string(&lock_path)
                .map_err(|e| format!("reading {}: {e}", lock_path.display()))?;
            let lock = parse_lock(&text).map_err(|e| format!("{rel}: {e}"))?;
            if lock.id == *id
                && (lock.keys != extracted.keys || lock.volatile != extracted.volatile)
            {
                return Err(format!(
                    "refusing to rewrite {rel}: the key set of `{id}` changed but the \
                     version did not — bump the schema version first ({})",
                    diff(&lock.keys, &extracted.keys)
                ));
            }
        }
        if let Some(dir) = lock_path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(&lock_path, render_lock(id, &extracted))
            .map_err(|e| format!("writing {}: {e}", lock_path.display()))?;
        written.push(rel);
    }
    Ok(written)
}

fn finding(file: &str, line: u32, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule: RuleId::D009,
        message,
    }
}

/// `cesrm-bench/1` → `cesrm-bench-1.lock`.
pub fn lock_file_name(id: &str) -> String {
    format!("{}.lock", id.replace('/', "-"))
}

fn diff(old: &BTreeSet<String>, new: &BTreeSet<String>) -> String {
    let added: Vec<&str> = new.difference(old).map(String::as_str).collect();
    let removed: Vec<&str> = old.difference(new).map(String::as_str).collect();
    let mut parts = Vec::new();
    if !added.is_empty() {
        parts.push(format!("added: {}", added.join(", ")));
    }
    if !removed.is_empty() {
        parts.push(format!("removed: {}", removed.join(", ")));
    }
    if parts.is_empty() {
        parts.push("no key changes".into());
    }
    parts.join("; ")
}

/// Mines the configured scope for keys, volatile fields, and the id site.
fn extract(ws: &Workspace, id: &str, scopes: &[String]) -> Result<Extracted, String> {
    let mut ex = Extracted::default();
    for scope in scopes {
        let (path, fn_name) = match scope.split_once('#') {
            Some((p, f)) => (p, Some(f)),
            None => (scope.as_str(), None),
        };
        let Some(file) = ws.files.iter().find(|f| f.rel_path == path) else {
            return Err(format!(
                "[schemas] `{id}`: scope file `{path}` was not scanned \
                 (missing, or under a `skip` prefix)"
            ));
        };
        // The id literal may sit anywhere in the file (e.g. a const).
        if ex.id_site.is_none() {
            for t in &file.code {
                if t.kind == TokKind::Literal && t.text == id && !file.in_test_span(t.line) {
                    ex.id_site = Some((file.rel_path.clone(), t.line));
                    break;
                }
            }
        }
        let ranges: Vec<(usize, usize)> = match fn_name {
            Some(name) => {
                let bodies: Vec<(usize, usize)> = file
                    .fns
                    .iter()
                    .filter(|f| f.name == name)
                    .map(|f| f.body)
                    .collect();
                if bodies.is_empty() {
                    return Err(format!(
                        "[schemas] `{id}`: no function `{name}` in `{path}`"
                    ));
                }
                bodies
            }
            None => {
                // Whole file; volatile consts count only for file scopes.
                for (cname, items) in &file.consts {
                    if cname.ends_with("VOLATILE_FIELDS") {
                        ex.volatile.extend(items.iter().cloned());
                    }
                }
                vec![(0, file.code.len())]
            }
        };
        for (start, end) in ranges {
            mine_keys(file, start, end, &mut ex.keys);
        }
    }
    Ok(ex)
}

/// `true` for strings that can be JSON object keys in our reports.
fn ident_like(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Mines one token range for JSON keys (test spans excluded):
/// tuple-position literals — `("key", …)`, `("key".into(), …)` — and
/// `\"key\":` fragments inside format-string literals.
fn mine_keys(file: &FileModel, start: usize, end: usize, keys: &mut BTreeSet<String>) {
    let code = &file.code;
    let end = end.min(code.len());
    for j in start..end {
        let t = &code[j];
        if t.kind != TokKind::Literal || file.in_test_span(t.line) {
            continue;
        }
        // Tuple-position key: preceded by `(`, followed by `,` (optionally
        // through `.into()` / `.to_string()`).
        if ident_like(&t.text) && j > 0 && code[j - 1].text == "(" {
            let mut k = j + 1;
            while code.get(k).is_some_and(|n| n.text == ".")
                && code
                    .get(k + 1)
                    .is_some_and(|n| n.text == "into" || n.text == "to_string")
                && code.get(k + 2).is_some_and(|n| n.text == "(")
                && code.get(k + 3).is_some_and(|n| n.text == ")")
            {
                k += 4;
            }
            if code.get(k).is_some_and(|n| n.text == ",") {
                keys.insert(t.text.clone());
            }
        }
        // Format-string fragments: `\"key\":`.
        let bytes = t.text.as_bytes();
        let mut i = 0usize;
        while i + 1 < bytes.len() {
            if bytes[i] == b'\\' && bytes[i + 1] == b'"' {
                let name_start = i + 2;
                let mut e = name_start;
                while e + 1 < bytes.len() && !(bytes[e] == b'\\' && bytes[e + 1] == b'"') {
                    e += 1;
                }
                if e + 2 < bytes.len() && bytes[e + 2] == b':' {
                    let name = &t.text[name_start..e];
                    if ident_like(name) {
                        keys.insert(name.to_string());
                    }
                }
                i = e + 2;
            } else {
                i += 1;
            }
        }
    }
}

fn parse_lock(text: &str) -> Result<Lock, String> {
    let mut lock = Lock::default();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once(' ') {
            Some(("schema", id)) => lock.id = id.trim().to_string(),
            Some(("key", k)) => {
                lock.keys.insert(k.trim().to_string());
            }
            Some(("volatile", v)) => {
                lock.volatile.insert(v.trim().to_string());
            }
            _ => {
                return Err(format!(
                    "line {}: expected `schema|key|volatile <value>`",
                    idx + 1
                ))
            }
        }
    }
    if lock.id.is_empty() {
        return Err("missing `schema <id>` line".into());
    }
    Ok(lock)
}

fn render_lock(id: &str, ex: &Extracted) -> String {
    let mut out = String::from(
        "# simlint schema lock — statically mined emitter key set (docs/LINTS.md §D009).\n\
         # Regenerate with: cargo run --release -p simlint -- --write-schemas\n",
    );
    out.push_str(&format!("schema {id}\n"));
    for k in &ex.keys {
        out.push_str(&format!("key {k}\n"));
    }
    for v in &ex.volatile {
        out.push_str(&format!("volatile {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::build_model;
    use std::collections::BTreeMap;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        let models = files
            .iter()
            .map(|(p, src)| build_model(p, &lex(src)))
            .collect();
        Workspace::build(models, &BTreeMap::new())
    }

    const EMITTER: &str = r#"
pub const DEMO_SCHEMA: &str = "demo/1";
pub const DEMO_VOLATILE_FIELDS: [&str; 1] = ["wall_s"];
pub fn doc() -> Vec<(&'static str, u64)> {
    vec![("schema", 0), ("runs", 1), ("wall_s", 2)]
}
pub fn other() -> Vec<(String, u64)> {
    vec![("extra".into(), 3)]
}
#[cfg(test)]
mod tests {
    fn t() { let _ = ("test_only", 1); }
}
"#;

    #[test]
    fn mining_tuples_fragments_and_volatile() {
        let ws = ws_of(&[("crates/x/src/emit.rs", EMITTER)]);
        let ex = extract(&ws, "demo/1", &["crates/x/src/emit.rs".to_string()])
            .expect("extraction succeeds");
        let keys: Vec<&str> = ex.keys.iter().map(String::as_str).collect();
        assert_eq!(keys, vec!["extra", "runs", "schema", "wall_s"]);
        assert_eq!(
            ex.volatile.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["wall_s"]
        );
        assert_eq!(ex.id_site, Some(("crates/x/src/emit.rs".to_string(), 2)));
    }

    #[test]
    fn fn_scoping_restricts_keys() {
        let ws = ws_of(&[("crates/x/src/emit.rs", EMITTER)]);
        let ex = extract(&ws, "demo/1", &["crates/x/src/emit.rs#doc".to_string()])
            .expect("extraction succeeds");
        let keys: Vec<&str> = ex.keys.iter().map(String::as_str).collect();
        assert_eq!(keys, vec!["runs", "schema", "wall_s"]);
        // Fn scope: the file's volatile const is not attributed.
        assert!(ex.volatile.is_empty());
    }

    #[test]
    fn format_string_fragment_keys() {
        let src = r#"
pub const S: &str = "fmt/1";
pub fn render() -> String {
    format!("{{\n  \"schema\": \"fmt/1\",\n  \"count\": {}\n}}\n", 1)
}
"#;
        let ws = ws_of(&[("crates/x/src/fmt.rs", src)]);
        let ex = extract(&ws, "fmt/1", &["crates/x/src/fmt.rs".to_string()])
            .expect("extraction succeeds");
        let keys: Vec<&str> = ex.keys.iter().map(String::as_str).collect();
        assert_eq!(keys, vec!["count", "schema"]);
    }

    #[test]
    fn lock_round_trip_and_write_refusal() {
        let dir = std::env::temp_dir().join("simlint-schema-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/x/src")).expect("mkdir");
        std::fs::write(dir.join("crates/x/src/emit.rs"), EMITTER).expect("write emitter");
        let ws = ws_of(&[("crates/x/src/emit.rs", EMITTER)]);
        let config = Config {
            schema_lock_dir: Some("locks".into()),
            schemas: vec![(
                "demo/1".to_string(),
                vec!["crates/x/src/emit.rs".to_string()],
            )],
            ..Config::default()
        };
        // Missing lock: a finding, then --write-schemas creates it.
        let (findings, statuses) = check_schemas(&dir, &ws, &config).expect("check succeeds");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no lock snapshot"));
        assert!(!statuses[0].ok);
        let written = write_schemas(&dir, &ws, &config).expect("write succeeds");
        assert_eq!(written, vec!["locks/demo-1.lock".to_string()]);
        let (findings, statuses) = check_schemas(&dir, &ws, &config).expect("check succeeds");
        assert!(findings.is_empty(), "{findings:?}");
        assert!(statuses[0].ok);

        // Mutate the key set without bumping: check fails, write refuses.
        let mutated = EMITTER.replace("(\"runs\", 1)", "(\"jobs\", 1)");
        let ws2 = ws_of(&[("crates/x/src/emit.rs", mutated.as_str())]);
        let (findings, statuses) = check_schemas(&dir, &ws2, &config).expect("check succeeds");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("without a version bump"));
        assert!(findings[0].message.contains("added: jobs"));
        assert!(findings[0].message.contains("removed: runs"));
        assert!(!statuses[0].ok);
        let err = write_schemas(&dir, &ws2, &config).expect_err("write must refuse");
        assert!(err.contains("bump the schema version"), "{err}");

        // Bump the version everywhere: stale-lock finding, regenerate, clean.
        let bumped = mutated.replace("demo/1", "demo/2");
        let ws3 = ws_of(&[("crates/x/src/emit.rs", bumped.as_str())]);
        let config2 = Config {
            schemas: vec![(
                "demo/2".to_string(),
                vec!["crates/x/src/emit.rs".to_string()],
            )],
            ..config
        };
        write_schemas(&dir, &ws3, &config2).expect("bumped write succeeds");
        let (findings, _) = check_schemas(&dir, &ws3, &config2).expect("check succeeds");
        assert!(findings.is_empty(), "{findings:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn volatile_must_be_subset_of_keys() {
        let src = r#"
pub const S: &str = "vol/1";
pub const VOL_VOLATILE_FIELDS: [&str; 1] = ["ghost"];
pub fn doc() -> Vec<(&'static str, u64)> { vec![("schema", 0)] }
"#;
        let dir = std::env::temp_dir().join("simlint-schema-vol-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ws = ws_of(&[("crates/x/src/vol.rs", src)]);
        let config = Config {
            schema_lock_dir: Some("locks".into()),
            schemas: vec![("vol/1".to_string(), vec!["crates/x/src/vol.rs".to_string()])],
            ..Config::default()
        };
        let (findings, _) = check_schemas(&dir, &ws, &config).expect("check succeeds");
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("not emitted keys")),
            "{findings:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
