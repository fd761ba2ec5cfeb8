//! Schema locks: the key set of a report, pinned by rendering it.
//!
//! Every versioned JSON document the workspace writes (`cesrm-run/2`,
//! `cesrm-digest/3`, `simlint/3`) has a committed lock under `schemas/`:
//! the sorted key paths of a document that exercises every section (e.g.
//! `runs[].profile.engine.events`), plus the names of its volatile
//! members. Tests render the real documents
//! and [`check_lock`] them, so the lock follows what the emitter writes,
//! not what a reader of its source guesses it writes. Changing a key
//! without changing the schema id fails; changing the id fails too (the
//! new id has no lock yet), and prints the lock text to commit under the
//! new id's file name.

use std::collections::BTreeSet;
use std::path::Path;

use crate::JsonValue;

/// Every member path of `doc`, sorted: `a.b` for member `b` of object
/// member `a`, `a[].b` for member `b` of the elements of array `a`
/// (e.g. `runs[].profile.shards[].epochs`). Containers list their own path
/// as well as their members', so the leaf names of the set are exactly the
/// keys the document uses.
fn key_paths(doc: &JsonValue) -> BTreeSet<String> {
    fn walk(v: &JsonValue, prefix: &str, out: &mut BTreeSet<String>) {
        match v {
            JsonValue::Obj(members) => {
                for (k, v) in members {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(v, &path, out);
                    out.insert(path);
                }
            }
            JsonValue::Arr(items) => {
                let path = format!("{prefix}[]");
                items.iter().for_each(|item| walk(item, &path, out));
            }
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, "", &mut out);
    out
}

/// `cesrm-run/2` → `cesrm-run-2.lock`.
fn lock_file_name(id: &str) -> String {
    format!("{}.lock", id.replace('/', "-"))
}

/// The lock text for `id`: a header, the schema id, one `key` line per
/// path and one `volatile` line per volatile member name, each sorted.
fn render_lock(id: &str, paths: &BTreeSet<String>, volatile: &[&str]) -> String {
    let mut out = format!(
        "# Schema lock: every key path of a rendered {id} document, then its volatile\n\
         # members (obs::lock). Change either only together with the schema id.\n\
         schema {id}\n"
    );
    for p in paths {
        out.push_str(&format!("key {p}\n"));
    }
    for v in volatile.iter().collect::<BTreeSet<_>>() {
        out.push_str(&format!("volatile {v}\n"));
    }
    out
}

/// Compares a rendered document's `paths` and `volatile` list against the
/// `committed` lock of its schema id (`None` when there is none). Errors
/// when a volatile name is not a key of the document, when the set changed
/// under the same id ("bump the version"), and when the id has no lock yet
/// — after a version bump — with the lock text to commit.
fn compare_lock(
    committed: Option<&str>,
    id: &str,
    paths: &BTreeSet<String>,
    volatile: &[&str],
) -> Result<(), String> {
    let leaves: BTreeSet<&str> = paths.iter().filter_map(|p| p.rsplit('.').next()).collect();
    if let Some(orphan) = volatile.iter().find(|v| !leaves.contains(*v)) {
        return Err(format!(
            "volatile member `{orphan}` of `{id}` is not a key of the document"
        ));
    }
    let rendered = render_lock(id, paths, volatile);
    let Some(committed) = committed else {
        return Err(format!(
            "`{id}` has no lock: commit {} (replacing the previous version's lock):\n{rendered}",
            lock_file_name(id)
        ));
    };
    let lines = |text: &str| -> BTreeSet<String> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    };
    let (locked, now) = (lines(committed), lines(&rendered));
    if locked == now {
        return Ok(());
    }
    let changes: Vec<String> = now
        .difference(&locked)
        .map(|l| format!("+{l}"))
        .chain(locked.difference(&now).map(|l| format!("-{l}")))
        .collect();
    Err(format!(
        "the key set of `{id}` changed under the same id ({}): bump the version",
        changes.join(", ")
    ))
}

/// Checks `docs` — renderings of one schema id that between them
/// exercise every section, e.g. a suite and a scale report — against the
/// lock of their id in `dir` (`<id with / → ->.lock`): the union of their
/// key paths and `volatile` must equal it. A volatile name that is not a
/// key, a changed set under the same id ("bump the version") and an id
/// without a lock (after a version bump; the error carries the lock text
/// to commit) are errors.
pub fn check_lock(dir: &Path, docs: &[JsonValue], volatile: &[&str]) -> Result<(), String> {
    let ids: BTreeSet<&str> = docs
        .iter()
        .map(|d| d.get("schema").and_then(JsonValue::as_str).unwrap_or(""))
        .collect();
    let [id] = ids.into_iter().collect::<Vec<_>>()[..] else {
        return Err("the documents must carry one and the same `schema` id".to_string());
    };
    let paths: BTreeSet<String> = docs.iter().flat_map(key_paths).collect();
    let committed = std::fs::read_to_string(dir.join(lock_file_name(id))).ok();
    compare_lock(committed.as_deref(), id, &paths, volatile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(paths: &[&str]) -> BTreeSet<String> {
        paths.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn key_paths_name_members_through_arrays() {
        let doc = JsonValue::parse(
            r#"{"schema":"x/1","runs":[{"trace":1,"phases":[{"calls":2}]},{"wall_s":0.5}],"e":[]}"#,
        )
        .unwrap();
        assert_eq!(
            key_paths(&doc),
            set(&[
                "e",
                "runs",
                "runs[].phases",
                "runs[].phases[].calls",
                "runs[].trace",
                "runs[].wall_s",
                "schema"
            ])
        );
    }

    #[test]
    fn a_renamed_key_needs_a_version_bump_and_a_bump_prints_the_new_lock() {
        let paths = set(&["runs", "runs[].wall_s", "schema"]);
        let lock = render_lock("demo/1", &paths, &["wall_s"]);
        let lock = Some(lock.as_str());
        assert_eq!(compare_lock(lock, "demo/1", &paths, &["wall_s"]), Ok(()));

        // Rename one key, keep the id: the verdict is "bump the version".
        let renamed = set(&["runs", "runs[].wall_secs", "schema"]);
        let err = compare_lock(lock, "demo/1", &renamed, &[]).unwrap_err();
        assert!(err.contains("bump the version"), "{err}");
        assert!(err.contains("+key runs[].wall_secs"), "{err}");
        assert!(err.contains("-key runs[].wall_s"), "{err}");
        assert!(err.contains("-volatile wall_s"), "{err}");

        // Bump the id: there is no lock for it yet, and the verdict
        // carries the lock text to commit.
        let err = compare_lock(None, "demo/2", &renamed, &[]).unwrap_err();
        assert!(err.contains("commit demo-2.lock"), "{err}");
        assert!(err.contains(&render_lock("demo/2", &renamed, &[])), "{err}");
    }

    #[test]
    fn volatile_names_must_be_keys() {
        let paths = set(&["schema"]);
        let lock = render_lock("demo/1", &paths, &[]);
        let err = compare_lock(Some(&lock), "demo/1", &paths, &["ghost"]).unwrap_err();
        assert!(err.contains("`ghost`"), "{err}");
    }
}
