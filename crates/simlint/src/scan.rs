//! Workspace walking and the two-pass scan driver.
//!
//! **Pass 1** lexes every `.rs` file, builds its [`crate::model::FileModel`],
//! parses each crate's `Cargo.toml` `[dependencies]` table, and assembles the
//! [`crate::graph::Workspace`] call graph. **Pass 2** runs the file-local
//! token rules (D001–D004) and the flow rules over the graph (D006–D008),
//! then applies the suppression engine per file —
//! one `// simlint: allow(...)` syntax covers every rule — and finally
//! splits the surviving findings against the baseline.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::config::{Baseline, Config};
use crate::graph::{check_workspace, Workspace};
use crate::lexer::{self, Tok};
use crate::model::build_model;
use crate::rules::{apply_suppressions, token_findings, Finding, RuleId};

/// The outcome of a full scan, split against the baseline.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ScanReport {
    /// Findings not covered by the baseline — these fail the build.
    pub new: Vec<Finding>,
    /// Findings absorbed by a baseline entry (grandfathered).
    pub baselined: Vec<Finding>,
    /// Baseline entries that no longer match anything; they should be
    /// deleted so the baseline only ever shrinks.
    pub stale_baseline: Vec<(RuleId, String, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of functions in the call graph (pass-1 coverage signal).
    pub fns_indexed: usize,
    /// Scan wall time, stamped by the driver binary (0 when untimed).
    pub elapsed_ms: u64,
}

impl ScanReport {
    /// `true` when the scan should fail the build.
    pub fn failed(&self) -> bool {
        !self.new.is_empty()
    }

    /// All findings (new + baselined), sorted, for `--write-baseline`.
    pub fn counts(&self) -> BTreeMap<(RuleId, String), usize> {
        let mut counts = BTreeMap::new();
        for f in self.new.iter().chain(&self.baselined) {
            *counts.entry((f.rule, f.file.clone())).or_insert(0) += 1;
        }
        counts
    }
}

/// Pass-1 output: the call-graph workspace plus each file's full token
/// stream (the model keeps only code tokens; suppressions need comments).
pub struct LoadedWorkspace {
    pub ws: Workspace,
    /// `(rel_path, tokens)`, sorted by path.
    pub toks: Vec<(String, Vec<Tok>)>,
}

/// Pass 1: collects every `.rs` file under `root` (skipping `target`,
/// `.git`, hidden directories, and the config's `skip` prefixes), lexes and
/// models each, and builds the workspace call graph.
///
/// Paths are `root`-relative with `/` separators, so reports are
/// machine-stable across checkouts.
pub fn load_workspace(root: &Path, config: &Config) -> Result<LoadedWorkspace, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort();

    let mut toks = Vec::new();
    let mut models = Vec::new();
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))
            .map_err(|e| format!("reading {}: {e}", rel.display()))?;
        let rel_str = rel_to_slash(rel);
        let stream = lexer::lex(&text);
        models.push(build_model(&rel_str, &stream));
        toks.push((rel_str, stream));
    }
    let deps = crate_dependencies(root)?;
    Ok(LoadedWorkspace {
        ws: Workspace::build(models, &deps),
        toks,
    })
}

/// Parses every `crates/<name>/Cargo.toml` `[dependencies]` table into a
/// crate → direct-deps map. Crates without a manifest (e.g. fixture crates)
/// stay absent and resolve workspace-wide — the conservative default.
fn crate_dependencies(root: &Path) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut deps = BTreeMap::new();
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Ok(deps);
    }
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        let manifest = entry.path().join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().to_string();
        let text = fs::read_to_string(&manifest)
            .map_err(|e| format!("reading {}: {e}", manifest.display()))?;
        let mut in_deps = false;
        let mut names = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(section) = line.strip_prefix('[') {
                in_deps = section.trim_end_matches(']').trim() == "dependencies";
                continue;
            }
            if in_deps && !line.is_empty() && !line.starts_with('#') {
                // `foo.workspace = true`, `foo = { … }`, or `foo = "ver"`.
                let key: String = line
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                    .collect();
                if !key.is_empty() {
                    names.push(key.replace('-', "_"));
                }
            }
        }
        deps.insert(name, names);
    }
    Ok(deps)
}

/// Pass 2 over an already-loaded workspace.
pub fn scan_loaded(loaded: &LoadedWorkspace, config: &Config, baseline: &Baseline) -> ScanReport {
    // Raw findings from both engines, then group per file so one
    // suppression pass sees everything anchored in that file.
    let mut raw: Vec<Finding> = Vec::new();
    for (rel, stream) in &loaded.toks {
        raw.extend(token_findings(rel, stream, config));
    }
    raw.extend(check_workspace(&loaded.ws, config));

    let mut per_file: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    for f in raw {
        per_file
            .entry(
                loaded
                    .toks
                    .iter()
                    .find(|(rel, _)| *rel == f.file)
                    .map(|(rel, _)| rel.as_str())
                    .unwrap_or(""),
            )
            .or_default()
            .push(f);
    }
    let mut all = Vec::new();
    for (rel, stream) in &loaded.toks {
        let file_findings = per_file.remove(rel.as_str()).unwrap_or_default();
        all.extend(apply_suppressions(rel, stream, file_findings, config));
    }
    // Findings anchored outside the scanned set (should not happen) pass
    // through unsuppressed rather than vanish.
    for (_, leftovers) in per_file {
        all.extend(leftovers);
    }
    all.sort();

    // Split against the baseline: the first `count` findings per
    // (rule, file) — in line order — are grandfathered, the rest are new.
    let mut budget: BTreeMap<(RuleId, String), usize> = baseline.entries.clone();
    let mut report = ScanReport {
        files_scanned: loaded.toks.len(),
        fns_indexed: loaded.ws.fn_count(),
        ..ScanReport::default()
    };
    for f in all {
        match budget.get_mut(&(f.rule, f.file.clone())) {
            Some(n) if *n > 0 => {
                *n -= 1;
                report.baselined.push(f);
            }
            _ => report.new.push(f),
        }
    }
    for ((rule, file), left) in budget {
        if left > 0 {
            report.stale_baseline.push((rule, file, left));
        }
    }
    report
}

/// Both passes in one call: load, then scan.
pub fn scan_workspace(
    root: &Path,
    config: &Config,
    baseline: &Baseline,
) -> Result<ScanReport, String> {
    let loaded = load_workspace(root, config)?;
    Ok(scan_loaded(&loaded, config, baseline))
}

/// Recursively collects `.rs` files as root-relative paths.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &Config,
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        if config.is_skipped(&rel_to_slash(rel)) {
            continue;
        }
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, config, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

fn rel_to_slash(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_absorbs_then_flags_excess() {
        let dir = std::env::temp_dir().join("simlint-scan-test");
        let src_dir = dir.join("crates/srm/src");
        fs::create_dir_all(&src_dir).expect("mkdir");
        fs::write(
            src_dir.join("lib.rs"),
            "use std::collections::HashMap;\nuse std::collections::HashSet;\n",
        )
        .expect("write");
        let config = Config {
            state_crates: vec!["srm".into()],
            ..Config::default()
        };
        // Empty baseline: both findings are new.
        let report = scan_workspace(&dir, &config, &Baseline::default()).expect("scan succeeds");
        assert_eq!(report.new.len(), 2);
        assert!(report.failed());
        assert_eq!(report.files_scanned, 1);
        // Baseline of 1: the first (by line) is grandfathered.
        let baseline = Baseline::parse("D001 crates/srm/src/lib.rs 1\n").expect("valid baseline");
        let report = scan_workspace(&dir, &config, &baseline).expect("scan succeeds");
        assert_eq!(report.baselined.len(), 1);
        assert_eq!(report.new.len(), 1);
        assert_eq!(report.new[0].line, 2);
        // Over-provisioned baseline: surplus is reported stale.
        let baseline = Baseline::parse("D001 crates/srm/src/lib.rs 5\n").expect("valid baseline");
        let report = scan_workspace(&dir, &config, &baseline).expect("scan succeeds");
        assert!(!report.failed());
        assert_eq!(
            report.stale_baseline,
            vec![(RuleId::D001, "crates/srm/src/lib.rs".to_string(), 3)]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flow_findings_respect_file_suppressions() {
        let dir = std::env::temp_dir().join("simlint-scan-flow-test");
        let _ = fs::remove_dir_all(&dir);
        let src_dir = dir.join("crates/netsim/src");
        fs::create_dir_all(&src_dir).expect("mkdir");
        fs::write(
            src_dir.join("sim.rs"),
            "pub struct Simulator;\n\
             impl Simulator {\n\
                 pub fn run_until(&mut self) {\n\
                     // simlint: allow(D002, reason = \"test: token rule\")\n\
                     // simlint: allow(D008, reason = \"test: flow rule\")\n\
                     let _t = std::time::Instant::now();\n\
                 }\n\
             }\n",
        )
        .expect("write");
        let config = Config {
            sim_crates: vec!["netsim".into()],
            entry_points: vec!["Simulator::run_until".into()],
            ..Config::default()
        };
        let report = scan_workspace(&dir, &config, &Baseline::default()).expect("scan succeeds");
        // Both the D002 token finding and the D008 flow finding land on the
        // Instant line and are covered by the stacked allows.
        assert!(report.new.is_empty(), "{:?}", report.new);
        // Drop the D008 allow: the flow finding surfaces.
        fs::write(
            src_dir.join("sim.rs"),
            "pub struct Simulator;\n\
             impl Simulator {\n\
                 pub fn run_until(&mut self) {\n\
                     // simlint: allow(D002, reason = \"test: token rule\")\n\
                     let _t = std::time::Instant::now();\n\
                 }\n\
             }\n",
        )
        .expect("write");
        let report = scan_workspace(&dir, &config, &Baseline::default()).expect("scan succeeds");
        assert_eq!(report.new.len(), 1);
        assert_eq!(report.new[0].rule, RuleId::D008);
        fs::remove_dir_all(&dir).ok();
    }
}
