//! Machine-readable divergence-triage trails: `cesrm-digest/1`.
//!
//! The digest trail turns "md5 mismatch on a finished CSV" into "first
//! divergence: t=1.042s node 37". [`suite_digest_json`] renders a suite
//! run's hierarchical digests ([`crate::SuiteResult::digests`]) as a
//! schema-stable JSON document; [`rung_digest_json`] /
//! [`scale_digest_doc`] do the same for scale rungs. [`diff_trails`]
//! compares two trails top-down — run → shard/subtree group → epoch →
//! node × time-bucket — and localizes the first divergent window;
//! [`ReplaySpec::replay_window`] re-runs the smaller config with event
//! capture pinned to that window, and [`aligned_event_diff`] prints the
//! two captured streams side by side with the first divergent event
//! marked. `docs/DEBUGGING.md` walks through the whole flow.
//!
//! Schema invariants (the `cesrm-digest/1` contract; `tests/schema_locks.rs`
//! renders a suite and a scale trail and pins their key paths in
//! `schemas/cesrm-digest-1.lock`):
//!
//! - **Member order is fixed** (the `obs::JsonValue` object model is
//!   ordered), so equal runs produce byte-equal documents.
//! - **Digest values are hex strings** (`"%016x"`), never JSON numbers —
//!   a 64-bit digest does not survive the f64 number model.
//! - **Every field is deterministic**: nothing in here reads the wall
//!   clock or the worker count, so two runs of the same configuration are
//!   byte-identical at any `--jobs`/shard setting (asserted in
//!   `tests/digests.rs`).

use obs::{DigestSnapshot, JsonValue, Record};

use crate::scale::{run_scale, scale_cesrm_config, ScaleConfig, ScaleResult};
use crate::suite::{run_suite, SuiteConfig, SuiteResult};
use crate::Protocol;

/// Version tag every digest trail carries; bump on breaking schema
/// changes.
pub const DIGEST_SCHEMA: &str = "cesrm-digest/1";

/// 64-bit digests as fixed-width hex strings: the `f64`-backed JSON
/// number model cannot carry them losslessly.
fn hex(h: u64) -> JsonValue {
    JsonValue::Str(format!("{h:016x}"))
}

fn parse_hex(v: Option<&JsonValue>) -> Option<u64> {
    u64::from_str_radix(v?.as_str()?, 16).ok()
}

/// The same multiply-xor fold `obs::fxhash` uses, for combining per-run
/// digests into the trail's top-level digest (a combiner, not a hash of
/// raw bytes — it only ever folds already-hashed 64-bit values).
fn fold64(acc: u64, v: u64) -> u64 {
    (acc.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Renders one snapshot's digest / records / per-epoch levels, shared by
/// the suite and scale writers. Buckets nest *inside* their node — each
/// `buckets[]` row is one true `(epoch, node, bucket)` leaf — so the
/// bisector always lands on a window whose replay contains the divergent
/// records (an epoch-wide bucket rollup could diverge because of a
/// different node's records).
fn levels_members(snap: &DigestSnapshot) -> Vec<(&'static str, JsonValue)> {
    let run = snap.run_digest();
    let epochs: Vec<JsonValue> = snap
        .epochs()
        .into_iter()
        .map(|e| {
            let d = snap.epoch_digest(e);
            let nodes: Vec<JsonValue> = snap
                .nodes_in_epoch(e)
                .into_iter()
                .map(|(n, nd)| {
                    let buckets: Vec<JsonValue> = snap
                        .leaves
                        .iter()
                        .filter(|l| l.epoch == e && l.node == n)
                        .map(|l| {
                            JsonValue::obj(vec![
                                ("bucket", JsonValue::uint(l.bucket)),
                                ("digest", hex(l.hash)),
                                ("records", JsonValue::uint(l.count)),
                            ])
                        })
                        .collect();
                    JsonValue::obj(vec![
                        ("node", JsonValue::uint(u64::from(n))),
                        ("digest", hex(nd.hash)),
                        ("records", JsonValue::uint(nd.count)),
                        ("buckets", JsonValue::Arr(buckets)),
                    ])
                })
                .collect();
            JsonValue::obj(vec![
                ("epoch", JsonValue::uint(e)),
                ("digest", hex(d.hash)),
                ("records", JsonValue::uint(d.count)),
                ("nodes", JsonValue::Arr(nodes)),
            ])
        })
        .collect();
    vec![
        ("digest", hex(run.hash)),
        ("records", JsonValue::uint(run.count)),
        ("epochs", JsonValue::Arr(epochs)),
    ]
}

/// Renders a suite run's digest trail as the `cesrm-digest/1` document:
/// one entry per (trace × protocol) run in slot order, each carrying its
/// per-epoch / per-node / per-bucket digests plus the configuration a
/// replay needs.
///
/// # Panics
/// Panics when the suite ran without [`SuiteConfig::digest`].
pub fn suite_digest_json(cfg: &SuiteConfig, result: &SuiteResult) -> String {
    assert!(
        !result.digests.is_empty(),
        "suite_digest_json needs a suite run with digest set"
    );
    let mut top = 0u64;
    let mut total = 0u64;
    for d in &result.digests {
        let run = d.snapshot.run_digest();
        top = fold64(top, run.hash);
        total += run.count;
    }
    let runs: Vec<JsonValue> = result
        .digests
        .iter()
        .map(|d| {
            let mut members = vec![
                ("trace", JsonValue::uint(d.trace as u64)),
                ("name", JsonValue::str_val(d.name)),
                ("protocol", JsonValue::str_val(d.protocol)),
            ];
            members.extend(levels_members(&d.snapshot));
            JsonValue::obj(members)
        })
        .collect();
    let granularity = &result.digests[0].snapshot;
    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::str_val(DIGEST_SCHEMA)),
        ("mode", JsonValue::str_val("suite")),
        (
            "suite",
            JsonValue::obj(vec![
                ("scale", JsonValue::Num(cfg.scale)),
                ("seed", JsonValue::uint(cfg.seed)),
                (
                    "traces",
                    cfg.traces.as_ref().map_or(JsonValue::Null, |only| {
                        JsonValue::Arr(only.iter().map(|&t| JsonValue::uint(t as u64)).collect())
                    }),
                ),
                // Deliberately NOT recorded: the worker count (`--jobs`).
                // The trail must be byte-identical at any parallelism —
                // that identity is the determinism oracle — and a replay
                // reproduces the same events at any worker count.
            ]),
        ),
        ("epoch_ns", JsonValue::uint(granularity.epoch_ns)),
        ("bucket_ns", JsonValue::uint(granularity.bucket_ns)),
        ("digest", hex(top)),
        ("records", JsonValue::uint(total)),
        ("runs", JsonValue::Arr(runs)),
    ]);
    let mut text = doc.to_string_pretty();
    text.push('\n');
    text
}

/// Renders one scale rung's digest levels as a trail fragment: the rung
/// configuration a replay needs, the per-root-subtree group digests (the
/// trail's "shard" level — a pure tree function, so it is identical at
/// any physical shard count) and the per-epoch levels.
///
/// # Panics
/// Panics when the rung ran without [`ScaleConfig::digest`].
pub fn rung_digest_json(cfg: &ScaleConfig, result: &ScaleResult) -> JsonValue {
    let snap = result
        .digest
        .as_ref()
        .expect("rung_digest_json needs a rung run with digest set");
    let groups: Vec<JsonValue> = result
        .digest_groups
        .iter()
        .map(|&(g, d)| {
            JsonValue::obj(vec![
                ("group", JsonValue::uint(u64::from(g))),
                ("digest", hex(d.hash)),
                ("records", JsonValue::uint(d.count)),
            ])
        })
        .collect();
    // The physical shard count is deliberately NOT recorded: the trail
    // must be byte-identical at any sharding — that identity is the
    // determinism oracle. A `reproduce diff` replay runs unsharded; the
    // scale identity check pins each side's shard count itself.
    let mut members = vec![
        ("receivers", JsonValue::uint(cfg.receivers)),
        ("losses", JsonValue::uint(u64::from(cfg.losses))),
        ("epoch_ns", JsonValue::uint(snap.epoch_ns)),
        ("bucket_ns", JsonValue::uint(snap.bucket_ns)),
    ];
    members.extend(levels_members(snap));
    members.push(("groups", JsonValue::Arr(groups)));
    JsonValue::obj(members)
}

/// Wraps per-rung fragments ([`rung_digest_json`]) into the scale-mode
/// `cesrm-digest/1` document.
pub fn scale_digest_doc(protocol: &str, seed: u64, packets: u64, rungs: Vec<JsonValue>) -> String {
    let mut top = 0u64;
    let mut total = 0u64;
    for r in &rungs {
        top = fold64(top, parse_hex(r.get("digest")).unwrap_or(0));
        total += r.get("records").and_then(JsonValue::as_u64).unwrap_or(0);
    }
    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::str_val(DIGEST_SCHEMA)),
        ("mode", JsonValue::str_val("scale")),
        (
            "sweep",
            JsonValue::obj(vec![
                ("protocol", JsonValue::str_val(protocol)),
                ("seed", JsonValue::uint(seed)),
                ("packets", JsonValue::uint(packets)),
            ]),
        ),
        ("digest", hex(top)),
        ("records", JsonValue::uint(total)),
        ("rungs", JsonValue::Arr(rungs)),
    ]);
    let mut text = doc.to_string_pretty();
    text.push('\n');
    text
}

// ---------------------------------------------------------------------------
// Parsing and top-down bisection.
// ---------------------------------------------------------------------------

/// `(id, digest, records)` of one entry at a named level.
type LevelRow = (u64, u64, u64);

struct NodeEntry {
    node: u64,
    digest: u64,
    records: u64,
    buckets: Vec<LevelRow>,
}

struct EpochEntry {
    epoch: u64,
    digest: u64,
    records: u64,
    nodes: Vec<NodeEntry>,
}

/// One comparable scope of a trail: a (trace × protocol) run in suite
/// mode, a rung in scale mode.
struct ScopeEntry {
    label: String,
    digest: u64,
    records: u64,
    epoch_ns: u64,
    bucket_ns: u64,
    groups: Vec<LevelRow>,
    epochs: Vec<EpochEntry>,
    replay: Option<ReplaySpec>,
}

/// Everything a `reproduce diff` replay needs to re-run one side's
/// divergent scope with event capture pinned to the divergent window.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplaySpec {
    /// Re-run one (trace × protocol) suite reenactment.
    Suite {
        /// Trace scale factor the trail was recorded at.
        scale: f64,
        /// Trace-synthesis seed.
        seed: u64,
        /// Table-1 trace number.
        trace: u64,
        /// `"SRM"` or `"CESRM"`.
        protocol: String,
    },
    /// Re-run one scale rung.
    Rung {
        /// Receiver count of the rung.
        receivers: u64,
        /// Topology seed.
        seed: u64,
        /// `"srm"` or `"cesrm"`.
        protocol: String,
        /// Shard count to replay at. Trails do not record the physical
        /// sharding (it must not affect the digests), so parsed specs
        /// replay unsharded; the scale identity check pins each side's
        /// actual shard count before replaying.
        shards: u32,
        /// Data packets multicast by the source.
        packets: u64,
        /// Injected losses.
        losses: u32,
    },
}

impl ReplaySpec {
    /// Re-runs this spec's configuration with event capture pinned to the
    /// `(node, t_lo_ns, t_hi_ns)` window and returns the captured records
    /// in emission order.
    pub fn replay_window(&self, node: u32, t_lo_ns: u64, t_hi_ns: u64) -> Vec<Record> {
        match self {
            ReplaySpec::Suite {
                scale,
                seed,
                trace,
                protocol,
            } => {
                let mut cfg = SuiteConfig::quick(*scale);
                cfg.seed = *seed;
                cfg.traces = Some(vec![*trace as usize]);
                cfg.capture_events = true;
                let result = run_suite(&cfg);
                result
                    .events
                    .iter()
                    .find(|e| e.trace as u64 == *trace && e.protocol == protocol)
                    .map(|e| {
                        e.records
                            .iter()
                            .filter(|r| {
                                r.event.node() == node && r.t_ns >= t_lo_ns && r.t_ns < t_hi_ns
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            }
            ReplaySpec::Rung {
                receivers,
                seed,
                protocol,
                shards,
                packets,
                losses,
            } => {
                let mut cfg = ScaleConfig::rung(*receivers);
                cfg.seed = *seed;
                cfg.shards = *shards;
                cfg.packets = *packets;
                cfg.losses = *losses;
                cfg.protocol = if protocol.eq_ignore_ascii_case("srm") {
                    Protocol::Srm
                } else {
                    Protocol::Cesrm(scale_cesrm_config())
                };
                cfg.capture_window = Some((node, t_lo_ns, t_hi_ns));
                run_scale(&cfg).window_events
            }
        }
    }
}

/// The first divergent window between two digest trails, finest
/// granularity first: `(scope, group, epoch, node, bucket)`.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Human label of the divergent scope (run or rung).
    pub scope: String,
    /// First divergent subtree group (scale mode only).
    pub group: Option<u64>,
    /// First divergent epoch index.
    pub epoch: Option<u64>,
    /// First divergent node within the epoch.
    pub node: Option<u64>,
    /// First divergent time bucket within the epoch.
    pub bucket: Option<u64>,
    /// Epoch width of the trails, nanoseconds.
    pub epoch_ns: u64,
    /// Bucket width of the trails, nanoseconds.
    pub bucket_ns: u64,
    /// `(digest, records)` of the finest divergent window on side A
    /// (`None`: the window is absent on that side).
    pub a: Option<(u64, u64)>,
    /// Same for side B.
    pub b: Option<(u64, u64)>,
    /// How to re-run side A's divergent scope, when the trail carried a
    /// replayable configuration.
    pub replay_a: Option<ReplaySpec>,
    /// Same for side B.
    pub replay_b: Option<ReplaySpec>,
}

impl Divergence {
    /// The simulated-time window `[lo, hi)` the divergence was pinned to:
    /// the bucket window when a bucket diverged, else the epoch window.
    pub fn window_ns(&self) -> Option<(u64, u64)> {
        if let Some(b) = self.bucket {
            return Some((b * self.bucket_ns, (b + 1) * self.bucket_ns));
        }
        self.epoch
            .map(|e| (e * self.epoch_ns, (e + 1) * self.epoch_ns))
    }

    /// Multi-line human summary of the localization.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digest trails diverge");
        let _ = writeln!(out, "  scope: {}", self.scope);
        if let Some(g) = self.group {
            let _ = writeln!(out, "  subtree group: {g}");
        }
        if let Some(e) = self.epoch {
            let _ = writeln!(
                out,
                "  epoch {e} (t={:.3}-{:.3}s)",
                (e * self.epoch_ns) as f64 / 1e9,
                ((e + 1) * self.epoch_ns) as f64 / 1e9
            );
        }
        if let Some(n) = self.node {
            let _ = writeln!(out, "  node {n}");
        }
        if let Some(b) = self.bucket {
            let _ = writeln!(
                out,
                "  bucket {b} (t={:.3}-{:.3}s)",
                (b * self.bucket_ns) as f64 / 1e9,
                ((b + 1) * self.bucket_ns) as f64 / 1e9
            );
        }
        let side = |s: &Option<(u64, u64)>| match s {
            Some((h, c)) => format!("{h:016x} ({c} records)"),
            None => "absent".to_string(),
        };
        let _ = writeln!(
            out,
            "  window digest: A {} vs B {}",
            side(&self.a),
            side(&self.b)
        );
        out
    }
}

/// What [`diff_trails`] found.
#[derive(Clone, Debug)]
pub enum DiffOutcome {
    /// Every scope's digest matches.
    Identical {
        /// Total records digested across the trail.
        records: u64,
    },
    /// The trails diverge; the first divergent window, localized.
    Diverged(Box<Divergence>),
}

fn parse_rows(v: Option<&JsonValue>, id_key: &str) -> Vec<LevelRow> {
    v.and_then(JsonValue::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|e| {
                    Some((
                        e.get(id_key)?.as_u64()?,
                        parse_hex(e.get("digest"))?,
                        e.get("records")?.as_u64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn parse_nodes(v: Option<&JsonValue>) -> Vec<NodeEntry> {
    v.and_then(JsonValue::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|n| {
                    Some(NodeEntry {
                        node: n.get("node")?.as_u64()?,
                        digest: parse_hex(n.get("digest"))?,
                        records: n.get("records")?.as_u64()?,
                        buckets: parse_rows(n.get("buckets"), "bucket"),
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

fn parse_epochs(v: Option<&JsonValue>) -> Vec<EpochEntry> {
    v.and_then(JsonValue::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|e| {
                    Some(EpochEntry {
                        epoch: e.get("epoch")?.as_u64()?,
                        digest: parse_hex(e.get("digest"))?,
                        records: e.get("records")?.as_u64()?,
                        nodes: parse_nodes(e.get("nodes")),
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

fn parse_scopes(doc: &JsonValue) -> Result<Vec<ScopeEntry>, String> {
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    if schema != Some(DIGEST_SCHEMA) {
        return Err(format!("not a {DIGEST_SCHEMA} trail (schema: {schema:?})"));
    }
    match doc.get("mode").and_then(JsonValue::as_str) {
        Some("suite") => {
            let suite = doc.get("suite");
            let scale = suite
                .and_then(|s| s.get("scale"))
                .and_then(JsonValue::as_f64);
            let seed = suite
                .and_then(|s| s.get("seed"))
                .and_then(JsonValue::as_u64);
            let epoch_ns = doc
                .get("epoch_ns")
                .and_then(JsonValue::as_u64)
                .ok_or("missing epoch_ns")?;
            let bucket_ns = doc
                .get("bucket_ns")
                .and_then(JsonValue::as_u64)
                .ok_or("missing bucket_ns")?;
            let runs = doc
                .get("runs")
                .and_then(JsonValue::as_arr)
                .ok_or("missing runs array")?;
            runs.iter()
                .map(|r| {
                    let trace = r
                        .get("trace")
                        .and_then(JsonValue::as_u64)
                        .ok_or("run entry missing trace")?;
                    let name = r.get("name").and_then(JsonValue::as_str).unwrap_or("?");
                    let protocol = r
                        .get("protocol")
                        .and_then(JsonValue::as_str)
                        .ok_or("run entry missing protocol")?;
                    Ok(ScopeEntry {
                        label: format!("trace {trace} {name} / {protocol}"),
                        digest: parse_hex(r.get("digest")).ok_or("run entry missing digest")?,
                        records: r.get("records").and_then(JsonValue::as_u64).unwrap_or(0),
                        epoch_ns,
                        bucket_ns,
                        groups: Vec::new(),
                        epochs: parse_epochs(r.get("epochs")),
                        replay: match (scale, seed) {
                            (Some(scale), Some(seed)) => Some(ReplaySpec::Suite {
                                scale,
                                seed,
                                trace,
                                protocol: protocol.to_string(),
                            }),
                            _ => None,
                        },
                    })
                })
                .collect()
        }
        Some("scale") => {
            let sweep = doc.get("sweep");
            let protocol = sweep
                .and_then(|s| s.get("protocol"))
                .and_then(JsonValue::as_str)
                .unwrap_or("cesrm")
                .to_string();
            let seed = sweep
                .and_then(|s| s.get("seed"))
                .and_then(JsonValue::as_u64);
            let packets = sweep
                .and_then(|s| s.get("packets"))
                .and_then(JsonValue::as_u64);
            let rungs = doc
                .get("rungs")
                .and_then(JsonValue::as_arr)
                .ok_or("missing rungs array")?;
            rungs
                .iter()
                .map(|r| {
                    let receivers = r
                        .get("receivers")
                        .and_then(JsonValue::as_u64)
                        .ok_or("rung entry missing receivers")?;
                    Ok(ScopeEntry {
                        label: format!("rung {receivers} receivers"),
                        digest: parse_hex(r.get("digest")).ok_or("rung entry missing digest")?,
                        records: r.get("records").and_then(JsonValue::as_u64).unwrap_or(0),
                        epoch_ns: r
                            .get("epoch_ns")
                            .and_then(JsonValue::as_u64)
                            .ok_or("rung entry missing epoch_ns")?,
                        bucket_ns: r
                            .get("bucket_ns")
                            .and_then(JsonValue::as_u64)
                            .ok_or("rung entry missing bucket_ns")?,
                        groups: parse_rows(r.get("groups"), "group"),
                        epochs: parse_epochs(r.get("epochs")),
                        replay: match (seed, packets) {
                            (Some(seed), Some(packets)) => Some(ReplaySpec::Rung {
                                receivers,
                                seed,
                                protocol: protocol.clone(),
                                shards: 1,
                                packets,
                                losses: r.get("losses").and_then(JsonValue::as_u64).unwrap_or(0)
                                    as u32,
                            }),
                            _ => None,
                        },
                    })
                })
                .collect()
        }
        other => Err(format!("unknown trail mode {other:?}")),
    }
}

/// One side of a diverging row: `(digest, records)`, absent when only the
/// other trail has the id.
type DivergingSide = Option<(u64, u64)>;

/// Merge-join two id-sorted rows and return the first id whose
/// `(digest, records)` differ (or that only one side has).
fn first_diverging(a: &[LevelRow], b: &[LevelRow]) -> Option<(u64, DivergingSide, DivergingSide)> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(ia, ha, ca)), Some(&(ib, hb, cb))) => {
                if ia == ib {
                    if ha != hb || ca != cb {
                        return Some((ia, Some((ha, ca)), Some((hb, cb))));
                    }
                    i += 1;
                    j += 1;
                } else if ia < ib {
                    return Some((ia, Some((ha, ca)), None));
                } else {
                    return Some((ib, None, Some((hb, cb))));
                }
            }
            (Some(&(ia, ha, ca)), None) => return Some((ia, Some((ha, ca)), None)),
            (None, Some(&(ib, hb, cb))) => return Some((ib, None, Some((hb, cb)))),
            (None, None) => unreachable!("loop condition"),
        }
    }
    None
}

fn epoch_rows(scope: &ScopeEntry) -> Vec<LevelRow> {
    scope
        .epochs
        .iter()
        .map(|e| (e.epoch, e.digest, e.records))
        .collect()
}

/// Compares two parsed `cesrm-digest/1` trails top-down and localizes
/// the first divergent `(scope, group, epoch, node, bucket)` window.
/// Returns `Err` when the trails are incomparable (different schema,
/// mode, scope sets or granularity).
pub fn diff_trails(a: &JsonValue, b: &JsonValue) -> Result<DiffOutcome, String> {
    let scopes_a = parse_scopes(a).map_err(|e| format!("trail A: {e}"))?;
    let scopes_b = parse_scopes(b).map_err(|e| format!("trail B: {e}"))?;
    if scopes_a.len() != scopes_b.len() {
        return Err(format!(
            "trails cover different scope counts ({} vs {})",
            scopes_a.len(),
            scopes_b.len()
        ));
    }
    for (sa, sb) in scopes_a.iter().zip(&scopes_b) {
        if sa.label != sb.label {
            return Err(format!(
                "trails cover different scopes ({:?} vs {:?})",
                sa.label, sb.label
            ));
        }
        if sa.epoch_ns != sb.epoch_ns || sa.bucket_ns != sb.bucket_ns {
            return Err(format!(
                "{}: different granularity (epoch {} vs {} ns, bucket {} vs {} ns)",
                sa.label, sa.epoch_ns, sb.epoch_ns, sa.bucket_ns, sb.bucket_ns
            ));
        }
    }
    for (sa, sb) in scopes_a.iter().zip(&scopes_b) {
        if sa.digest == sb.digest && sa.records == sb.records {
            continue;
        }
        let group = first_diverging(&sa.groups, &sb.groups).map(|(id, _, _)| id);
        let mut div = Divergence {
            scope: sa.label.clone(),
            group,
            epoch: None,
            node: None,
            bucket: None,
            epoch_ns: sa.epoch_ns,
            bucket_ns: sa.bucket_ns,
            a: Some((sa.digest, sa.records)),
            b: Some((sb.digest, sb.records)),
            replay_a: sa.replay.clone(),
            replay_b: sb.replay.clone(),
        };
        if let Some((epoch, wa, wb)) = first_diverging(&epoch_rows(sa), &epoch_rows(sb)) {
            div.epoch = Some(epoch);
            div.a = wa;
            div.b = wb;
            let epoch_entry = |s: &'_ ScopeEntry| -> Vec<(u64, u64, u64)> {
                s.epochs
                    .iter()
                    .find(|e| e.epoch == epoch)
                    .map(|e| {
                        e.nodes
                            .iter()
                            .map(|n| (n.node, n.digest, n.records))
                            .collect()
                    })
                    .unwrap_or_default()
            };
            if let Some((node, wa, wb)) = first_diverging(&epoch_entry(sa), &epoch_entry(sb)) {
                div.node = Some(node);
                div.a = wa;
                div.b = wb;
                // Leaf level: this node's buckets within the epoch, so the
                // reported (node, bucket) window really holds the
                // divergent records.
                let node_buckets = |s: &'_ ScopeEntry| -> Vec<LevelRow> {
                    s.epochs
                        .iter()
                        .find(|e| e.epoch == epoch)
                        .and_then(|e| e.nodes.iter().find(|n| n.node == node))
                        .map(|n| n.buckets.clone())
                        .unwrap_or_default()
                };
                if let Some((bucket, wa, wb)) =
                    first_diverging(&node_buckets(sa), &node_buckets(sb))
                {
                    div.bucket = Some(bucket);
                    div.a = wa;
                    div.b = wb;
                }
            }
        }
        return Ok(DiffOutcome::Diverged(Box::new(div)));
    }
    Ok(DiffOutcome::Identical {
        records: scopes_a.iter().map(|s| s.records).sum(),
    })
}

// ---------------------------------------------------------------------------
// Window replay capture and the aligned two-column diff.
// ---------------------------------------------------------------------------

/// An [`obs::EventSink`] that keeps only the records of one node inside
/// one simulated-time window — the capture side of a `reproduce diff`
/// replay. Filtering at record time keeps a pinned replay cheap even on
/// large rungs: out-of-window events cost one branch.
#[derive(Debug)]
pub struct WindowSink {
    node: u32,
    t_lo_ns: u64,
    t_hi_ns: u64,
    kept: obs::RecordLog,
}

impl WindowSink {
    /// Keeps records where the attributed node is `node` and
    /// `t_lo_ns <= t_ns < t_hi_ns`.
    pub fn new(node: u32, t_lo_ns: u64, t_hi_ns: u64) -> Self {
        WindowSink {
            node,
            t_lo_ns,
            t_hi_ns,
            kept: obs::RecordLog::new(),
        }
    }
}

impl obs::EventSink for WindowSink {
    fn record(&mut self, record: Record) {
        if record.event.node() == self.node
            && record.t_ns >= self.t_lo_ns
            && record.t_ns < self.t_hi_ns
        {
            self.kept.push(record);
        }
    }

    fn drain(&mut self) -> obs::RecordLog {
        std::mem::take(&mut self.kept)
    }
}

fn fmt_record(r: &Record) -> String {
    let seq = r
        .event
        .seq()
        .map_or_else(|| "-".to_string(), |s| s.to_string());
    format!(
        "t={:.6}s node={} {} seq={}",
        r.t_ns as f64 / 1e9,
        r.event.node(),
        r.event.name(),
        seq
    )
}

/// Renders two captured event streams side by side and names the first
/// divergent position. Returns the rendered block plus the one-line
/// summary (`None` when the streams are identical).
pub fn aligned_event_diff(
    a: &[Record],
    b: &[Record],
    label_a: &str,
    label_b: &str,
) -> (String, Option<String>) {
    use std::fmt::Write as _;
    let first = (0..a.len().max(b.len())).find(|&i| match (a.get(i), b.get(i)) {
        (Some(ra), Some(rb)) => obs::digest::hash_record(ra) != obs::digest::hash_record(rb),
        _ => true,
    });
    let summary = first.map(|i| {
        let name = |r: Option<&Record>| {
            r.map_or_else(
                || "(absent)".to_string(),
                |r| {
                    format!(
                        "t={:.3}s node {} {}",
                        r.t_ns as f64 / 1e9,
                        r.event.node(),
                        r.event.name().to_uppercase()
                    )
                },
            )
        };
        format!("first divergence: {} vs {}", name(a.get(i)), name(b.get(i)))
    });

    let width = a
        .iter()
        .map(|r| fmt_record(r).len())
        .max()
        .unwrap_or(0)
        .max(label_a.len() + 5)
        .max(12);
    let mut out = String::new();
    let header = format!("A: {label_a}");
    let _ = writeln!(out, "  {header:<width$} | B: {label_b}");
    let rows = a.len().max(b.len());
    // Keep long windows readable: show full streams up to 80 rows, else a
    // window around the first divergence — and say what was elided.
    let (start, end) = if rows <= 80 {
        (0, rows)
    } else {
        let pivot = first.unwrap_or(0);
        let start = pivot.saturating_sub(20);
        (start, (start + 60).min(rows))
    };
    if start > 0 {
        let _ = writeln!(out, "  ... ({start} earlier aligned rows elided)");
    }
    for i in start..end {
        let left = a.get(i).map(fmt_record).unwrap_or_default();
        let right = b.get(i).map(fmt_record).unwrap_or_default();
        let marker = if first == Some(i) {
            "   <-- first divergence"
        } else {
            ""
        };
        let _ = writeln!(out, "  {left:<width$} | {right}{marker}");
    }
    if end < rows {
        let _ = writeln!(out, "  ... ({} later rows elided)", rows - end);
    }
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{DigestRecorder, Event};

    fn rec(t_ns: u64, node: u32, seq: u64) -> Record {
        Record {
            t_ns,
            event: Event::LossDetected { node, seq },
        }
    }

    fn snapshot_of(records: &[Record]) -> DigestSnapshot {
        let mut r = DigestRecorder::default();
        for record in records {
            r.observe(record);
        }
        r.snapshot()
    }

    fn suite_trail(snapshot: DigestSnapshot, jobs: Option<usize>) -> JsonValue {
        let mut cfg = SuiteConfig::quick(0.01);
        cfg.traces = Some(vec![4]);
        cfg.jobs = jobs;
        cfg.digest = true;
        let result = SuiteResult {
            scale: cfg.scale,
            pairs: Vec::new(),
            events: Vec::new(),
            profiles: Vec::new(),
            profs: Vec::new(),
            health: Vec::new(),
            digests: vec![crate::suite::RunDigest {
                trace: 4,
                name: "WRN950919",
                protocol: "SRM",
                snapshot,
            }],
            timing: crate::runner::SuiteTiming {
                jobs: 1,
                wall: std::time::Duration::ZERO,
                runs: Vec::new(),
            },
        };
        JsonValue::parse(&suite_digest_json(&cfg, &result)).expect("well-formed trail")
    }

    #[test]
    fn identical_trails_compare_identical() {
        let records = [rec(10, 1, 0), rec(1_500_000_000, 2, 1)];
        let a = suite_trail(snapshot_of(&records), Some(1));
        let b = suite_trail(snapshot_of(&records), Some(4));
        match diff_trails(&a, &b).expect("comparable") {
            DiffOutcome::Identical { records } => assert_eq!(records, 2),
            other => panic!("expected identical, got {other:?}"),
        }
    }

    #[test]
    fn a_flipped_event_is_localized_to_its_exact_window() {
        // 1.55 s => epoch 1 (1 s epochs), bucket 15 (100 ms buckets),
        // node 7.
        let base = [
            rec(10, 1, 0),
            rec(1_550_000_000, 7, 3),
            rec(2_010_000_000, 2, 5),
        ];
        let mut flipped = base;
        flipped[1] = rec(1_550_000_000, 7, 4); // same window, different seq
        let a = suite_trail(snapshot_of(&base), None);
        let b = suite_trail(snapshot_of(&flipped), None);
        let div = match diff_trails(&a, &b).expect("comparable") {
            DiffOutcome::Diverged(d) => d,
            other => panic!("expected divergence, got {other:?}"),
        };
        assert_eq!(div.scope, "trace 4 WRN950919 / SRM");
        assert_eq!(div.epoch, Some(1));
        assert_eq!(div.node, Some(7));
        assert_eq!(div.bucket, Some(15));
        assert_eq!(
            div.window_ns(),
            Some((1_500_000_000, 1_600_000_000)),
            "window is the divergent bucket"
        );
        assert!(div.replay_a.is_some() && div.replay_b.is_some());
        let text = div.render();
        assert!(text.contains("node 7"));
        assert!(text.contains("bucket 15"));
    }

    #[test]
    fn an_absent_window_is_still_localized() {
        let base = [rec(10, 1, 0)];
        let extra = [rec(10, 1, 0), rec(3_250_000_000, 9, 2)];
        let a = suite_trail(snapshot_of(&base), None);
        let b = suite_trail(snapshot_of(&extra), None);
        let div = match diff_trails(&a, &b).expect("comparable") {
            DiffOutcome::Diverged(d) => d,
            other => panic!("expected divergence, got {other:?}"),
        };
        assert_eq!(div.epoch, Some(3));
        assert_eq!(div.node, Some(9));
        assert_eq!(div.bucket, Some(32));
        assert!(div.a.is_none(), "window absent on side A");
        assert!(div.b.is_some());
    }

    #[test]
    fn trails_over_different_scopes_are_incomparable() {
        let a = suite_trail(snapshot_of(&[rec(10, 1, 0)]), None);
        let mut b = suite_trail(snapshot_of(&[rec(10, 1, 0)]), None);
        if let Some(JsonValue::Arr(runs)) = b.get_mut("runs") {
            if let Some(JsonValue::Obj(members)) = runs.first_mut() {
                for (k, v) in members.iter_mut() {
                    if k == "protocol" {
                        *v = JsonValue::Str("CESRM".into());
                    }
                }
            }
        }
        assert!(diff_trails(&a, &b).is_err());
    }

    #[test]
    fn aligned_diff_marks_the_first_divergent_row() {
        let a = [rec(10, 1, 0), rec(20, 1, 1), rec(30, 1, 2)];
        let b = [rec(10, 1, 0), rec(20, 1, 9), rec(30, 1, 2)];
        let (text, summary) = aligned_event_diff(&a, &b, "1 job", "4 jobs");
        let summary = summary.expect("streams differ");
        assert!(summary.contains("LOSS_DETECTED"), "{summary}");
        assert!(text.contains("<-- first divergence"));
        assert_eq!(
            text.lines()
                .position(|l| l.contains("<-- first divergence")),
            Some(2),
            "second record row carries the marker:\n{text}"
        );
        let (_, same) = aligned_event_diff(&a, &a, "x", "y");
        assert!(same.is_none());
    }

    #[test]
    fn window_sink_keeps_only_the_pinned_window() {
        let handle = obs::Instruments::capture(Box::new(WindowSink::new(7, 100, 200)));
        for r in [
            rec(50, 7, 0),
            rec(150, 7, 1),
            rec(150, 8, 2),
            rec(250, 7, 3),
        ] {
            handle.emit(r.t_ns, || r.event);
        }
        let kept: Vec<Record> = handle.drain().iter().collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].t_ns, 150);
    }
}
