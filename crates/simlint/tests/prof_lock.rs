//! The committed `cesrm-prof/2` lock against the real emitter: the `/1`
//! → `/2` bump dropped the `loss` / `dwell_*` members, and D009 still
//! refuses a key change that does not come with a version bump.

use std::fs;
use std::path::{Path, PathBuf};

use simlint::{scan_workspace, Baseline, Config, RuleId};

const EMITTER: &str = "crates/harness/src/prof_report.rs";
const LOCK: &str = "crates/simlint/schemas/cesrm-prof-2.lock";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Scans a scratch workspace holding only the real profile emitter and
/// `lock`, and returns the D009 messages.
fn d009_against(lock: &str, tag: &str) -> Vec<String> {
    let root = std::env::temp_dir().join(format!("simlint_prof_lock_{tag}_{}", std::process::id()));
    let emitter = root.join(EMITTER);
    fs::create_dir_all(emitter.parent().unwrap()).unwrap();
    fs::copy(repo_root().join(EMITTER), &emitter).unwrap();
    fs::create_dir_all(root.join("schemas")).unwrap();
    fs::write(root.join("schemas/cesrm-prof-2.lock"), lock).unwrap();
    let config = Config {
        schema_lock_dir: Some("schemas".to_string()),
        schemas: vec![("cesrm-prof/2".to_string(), vec![EMITTER.to_string()])],
        ..Config::default()
    };
    let report = scan_workspace(&root, &config, &Baseline::default()).expect("scan succeeds");
    fs::remove_dir_all(&root).ok();
    report
        .new
        .into_iter()
        .filter(|f| f.rule == RuleId::D009)
        .map(|f| f.message)
        .collect()
}

#[test]
fn prof_lock_is_at_v2_without_the_loss_channel() {
    let lock = fs::read_to_string(repo_root().join(LOCK)).unwrap();
    assert!(lock.lines().any(|l| l == "schema cesrm-prof/2"));
    assert!(
        !lock
            .lines()
            .any(|l| l == "key loss" || l.starts_with("key dwell_")),
        "the loss telemetry channel is gone from the profile document"
    );
    assert_eq!(d009_against(&lock, "clean"), Vec::<String>::new());
}

#[test]
fn d009_rejects_a_key_change_without_a_bump() {
    // The lock still pins `loss` under the same version the emitter
    // carries: exactly what deleting the member without a bump looks like.
    let lock = fs::read_to_string(repo_root().join(LOCK)).unwrap() + "key loss\n";
    let messages = d009_against(&lock, "drift");
    assert_eq!(messages.len(), 1, "{messages:?}");
    assert!(messages[0].contains("changed without a version bump"));
    assert!(messages[0].contains("removed: loss"), "{}", messages[0]);
}
