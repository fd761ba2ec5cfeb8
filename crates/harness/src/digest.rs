//! Machine-readable divergence-triage trails: `cesrm-digest/3`.
//!
//! The digest trail turns "md5 mismatch on a finished CSV" into "first
//! divergence: t=1.042s node 37". [`suite_digest_json`] renders a suite
//! run's digests ([`crate::SuiteResult::digests`]) as a schema-stable JSON
//! document and [`scale_digest_json`] does the same for scale rungs: each
//! run or rung carries its flat list of `(window, node)` leaves.
//! [`diff_trails`] parses every scope back into an [`obs::DigestSnapshot`]
//! and [`localize`]s the first divergent leaf with one merge-join
//! ([`obs::DigestSnapshot::first_divergence`]);
//! [`ReplaySpec::replay_window`] re-runs the divergent scope with event
//! capture pinned to that leaf, and [`aligned_event_diff`] prints the two
//! captured streams side by side with the first divergent event marked.
//! `docs/DEBUGGING.md` walks through the whole flow.
//!
//! Schema invariants (the `cesrm-digest/3` contract; `tests/schema_locks.rs`
//! renders a suite and a scale trail and pins their key paths in
//! `schemas/cesrm-digest-3.lock`):
//!
//! - **Member order is fixed** (the `obs::JsonValue` object model is
//!   ordered), so equal runs produce byte-equal documents.
//! - **Digest values are hex strings** (`"%016x"`), never JSON numbers —
//!   a 64-bit digest does not survive the f64 number model.
//! - **Every field is deterministic**: nothing in here reads the wall
//!   clock or the worker count, so two runs of the same configuration are
//!   byte-identical at any `--jobs`/shard setting (asserted in
//!   `tests/digests.rs`).
//! - **Leaves are sorted** by `(window, node)`, strictly, and every
//!   summary (`digest`, `records`) is a function of the leaves beneath it;
//!   the reader rejects a trail that breaks either rule.

use netsim::SimDuration;
use obs::{DigestSnapshot, JsonValue, LeafDiff, LeafDigest, Record};

use crate::scale::{run_scale, scale_protocol, ScaleConfig};
use crate::suite::{SuiteConfig, SuiteResult};
use crate::{run_trace_with, ExperimentConfig, Protocol};

/// Version tag every digest trail carries; bump on breaking schema
/// changes.
pub const DIGEST_SCHEMA: &str = "cesrm-digest/3";

/// 64-bit digests as fixed-width hex strings: the `f64`-backed JSON
/// number model cannot carry them losslessly.
fn hex(h: u64) -> JsonValue {
    JsonValue::Str(format!("{h:016x}"))
}

/// The same multiply-xor fold `obs::fxhash` uses, for combining per-scope
/// digests into the trail's top-level digest (a combiner, not a hash of
/// raw bytes — it only ever folds already-hashed 64-bit values).
fn fold64(acc: u64, v: u64) -> u64 {
    (acc.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// One scope's `digest`, `records` and `leaves` members.
fn snapshot_members(snap: &DigestSnapshot) -> Vec<(&'static str, JsonValue)> {
    let leaves = snap
        .leaves
        .iter()
        .map(|l| {
            JsonValue::obj(vec![
                ("window", JsonValue::uint(l.window)),
                ("node", JsonValue::uint(u64::from(l.node))),
                ("digest", hex(l.hash)),
                ("records", JsonValue::uint(l.count)),
            ])
        })
        .collect();
    vec![
        ("digest", hex(snap.run_digest())),
        ("records", JsonValue::uint(snap.count())),
        ("leaves", JsonValue::Arr(leaves)),
    ]
}

/// The document's top-level `digest` and `records`: a fold over its
/// scopes' snapshots, in order.
fn top_members<'a>(
    snaps: impl Iterator<Item = &'a DigestSnapshot>,
) -> [(&'static str, JsonValue); 2] {
    let (top, total) = snaps.fold((0, 0), |(top, total), s| {
        (fold64(top, s.run_digest()), total + s.count())
    });
    [("digest", hex(top)), ("records", JsonValue::uint(total))]
}

fn render(members: Vec<(&str, JsonValue)>) -> String {
    let mut text = JsonValue::obj(members).to_string_pretty();
    text.push('\n');
    text
}

/// Renders a suite run's digest trail as the `cesrm-digest/3` document:
/// one entry per (trace × protocol) run in slot order, each carrying its
/// leaves, plus the configuration a replay needs (the run settings a
/// command line can change included).
///
/// # Panics
/// Panics when the suite ran without [`SuiteConfig::digest`].
pub fn suite_digest_json(cfg: &SuiteConfig, result: &SuiteResult) -> String {
    assert!(
        !result.digests.is_empty(),
        "suite_digest_json needs a suite run with digest set"
    );
    let runs = result
        .digests
        .iter()
        .map(|d| {
            let mut members = vec![
                ("trace", JsonValue::uint(d.trace as u64)),
                ("name", JsonValue::str_val(d.name)),
                ("protocol", JsonValue::str_val(d.protocol)),
            ];
            members.extend(snapshot_members(&d.snapshot));
            JsonValue::obj(members)
        })
        .collect();
    let mut members = vec![
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
                (
                    "link_delay_ms",
                    JsonValue::Num(cfg.experiment.net.link_delay.as_nanos() as f64 / 1e6),
                ),
                (
                    "lossy_recovery",
                    JsonValue::Bool(cfg.experiment.lossy_recovery),
                ),
                // Deliberately NOT recorded: the worker count (`--jobs`).
                // The trail must be byte-identical at any parallelism —
                // that identity is the determinism oracle — and a replay
                // reproduces the same events at any worker count.
            ]),
        ),
        (
            "window_ns",
            JsonValue::uint(result.digests[0].snapshot.window_ns),
        ),
    ];
    members.extend(top_members(result.digests.iter().map(|d| &d.snapshot)));
    members.push(("runs", JsonValue::Arr(runs)));
    render(members)
}

/// Renders a scale sweep's digest trail as the `cesrm-digest/3` document:
/// one `rungs[]` entry per `(rung configuration, merged snapshot)`, each
/// with its own window width (the lookahead caps it, and the lookahead is
/// a function of the rung's topology).
pub fn scale_digest_json(
    protocol: &str,
    seed: u64,
    packets: u64,
    rungs: &[(&ScaleConfig, &DigestSnapshot)],
) -> String {
    let entries = rungs
        .iter()
        .map(|(cfg, snap)| {
            // The physical shard count is deliberately NOT recorded: the
            // trail must be byte-identical at any sharding — that identity
            // is the determinism oracle. A `reproduce diff` replay runs
            // unsharded; the scale identity check pins each side's shard
            // count itself.
            let mut members = vec![
                ("receivers", JsonValue::uint(cfg.receivers)),
                ("losses", JsonValue::uint(u64::from(cfg.losses))),
                ("window_ns", JsonValue::uint(snap.window_ns)),
            ];
            members.extend(snapshot_members(snap));
            JsonValue::obj(members)
        })
        .collect();
    let mut members = vec![
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
    ];
    members.extend(top_members(rungs.iter().map(|(_, snap)| *snap)));
    members.push(("rungs", JsonValue::Arr(entries)));
    render(members)
}

// ---------------------------------------------------------------------------
// Parsing and localization.
// ---------------------------------------------------------------------------

/// Everything a `reproduce diff` replay needs to re-run one side's
/// divergent scope with event capture pinned to the divergent leaf.
#[derive(Clone, Debug)]
pub enum ReplaySpec {
    /// Re-run one (trace × protocol) suite reenactment.
    Suite {
        /// Trace scale factor the trail was recorded at.
        scale: f64,
        /// Trace-synthesis seed.
        seed: u64,
        /// Table-1 trace number.
        trace: usize,
        /// The protocol the run reenacted.
        protocol: Protocol,
        /// The run's simulation settings (link delay, lossy recovery).
        experiment: ExperimentConfig,
    },
    /// Re-run one scale rung. Trails do not record the physical sharding
    /// (it must not affect the digests), so parsed specs replay
    /// unsharded; the scale identity check replays each side at its own
    /// shard count.
    Rung(ScaleConfig),
}

impl ReplaySpec {
    /// Re-runs this spec's configuration with event capture pinned to the
    /// `(node, t_lo_ns, t_hi_ns)` window and returns the captured records
    /// in emission order.
    ///
    /// # Panics
    /// Panics when a suite spec names no Table-1 trace.
    pub fn replay_window(&self, node: u32, t_lo_ns: u64, t_hi_ns: u64) -> Vec<Record> {
        match self {
            ReplaySpec::Suite {
                scale,
                seed,
                trace,
                protocol,
                experiment,
            } => {
                let mut cfg = SuiteConfig::quick(*scale);
                cfg.traces = Some(vec![*trace]);
                let spec = cfg
                    .selected_specs()
                    .pop()
                    .expect("replays name a Table-1 trace");
                let handle =
                    obs::Instruments::capture(Box::new(WindowSink::new(node, t_lo_ns, t_hi_ns)));
                run_trace_with(&spec.generate(*seed), *protocol, experiment, &handle);
                handle.drain().iter().collect()
            }
            ReplaySpec::Rung(cfg) => {
                let cfg = ScaleConfig {
                    monitor: false,
                    profile: false,
                    digest: false,
                    capture_window: Some((node, t_lo_ns, t_hi_ns)),
                    ..*cfg
                };
                run_scale(&cfg).window_events
            }
        }
    }
}

/// The first divergent `(window, node)` leaf between two digest trails.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Human label of the divergent scope (run or rung).
    pub scope: String,
    /// Window width of the scope's snapshots, nanoseconds.
    pub window_ns: u64,
    /// The divergent leaf, with each side's `(digest, records)`.
    pub leaf: LeafDiff,
    /// How to re-run side A's divergent scope.
    pub replay_a: ReplaySpec,
    /// Same for side B.
    pub replay_b: ReplaySpec,
}

impl Divergence {
    /// The simulated-time window `[lo, hi)` of the divergent leaf
    /// (saturating: a parsed trail never carries a window past `u64`
    /// nanoseconds, but a snapshot from elsewhere might).
    pub fn bounds_ns(&self) -> (u64, u64) {
        let lo = self.leaf.window.saturating_mul(self.window_ns);
        let hi = self
            .leaf
            .window
            .saturating_add(1)
            .saturating_mul(self.window_ns);
        (lo, hi)
    }

    /// Multi-line human summary of the localization.
    pub fn render(&self) -> String {
        let (lo, hi) = self.bounds_ns();
        let side = |s: Option<(u64, u64)>| match s {
            Some((h, c)) => format!("{h:016x} ({c} records)"),
            None => "absent".to_string(),
        };
        format!(
            "digest trails diverge\n  scope: {}\n  window {} (t={:.3}-{:.3}s), node {}\n  \
             leaf digest: A {} vs B {}\n",
            self.scope,
            self.leaf.window,
            lo as f64 / 1e9,
            hi as f64 / 1e9,
            self.leaf.node,
            side(self.leaf.a),
            side(self.leaf.b)
        )
    }
}

/// Compares two snapshots of one scope and localizes their first divergent
/// leaf; `Ok(None)` when every leaf agrees. `Err` when the snapshots were
/// recorded at different window widths.
pub fn localize(
    scope: &str,
    (a, replay_a): (&DigestSnapshot, &ReplaySpec),
    (b, replay_b): (&DigestSnapshot, &ReplaySpec),
) -> Result<Option<Divergence>, String> {
    if a.window_ns != b.window_ns {
        return Err(format!(
            "{scope}: different window widths ({} vs {} ns)",
            a.window_ns, b.window_ns
        ));
    }
    Ok(a.first_divergence(b).map(|leaf| Divergence {
        scope: scope.to_string(),
        window_ns: a.window_ns,
        leaf,
        replay_a: replay_a.clone(),
        replay_b: replay_b.clone(),
    }))
}

/// What [`diff_trails`] found.
#[derive(Clone, Debug)]
pub enum DiffOutcome {
    /// Every scope's leaves match.
    Identical {
        /// Total records digested across the trail.
        records: u64,
    },
    /// The trails diverge; the first divergent leaf, localized.
    Diverged(Box<Divergence>),
}

/// One comparable scope of a parsed trail: a (trace × protocol) run in
/// suite mode, a rung in scale mode.
struct Scope {
    label: String,
    snapshot: DigestSnapshot,
    replay: ReplaySpec,
}

fn member<'a>(entry: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    entry.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn uint(entry: &JsonValue, key: &str) -> Result<u64, String> {
    member(entry, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
}

fn text<'a>(entry: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    member(entry, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn array<'a>(entry: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    member(entry, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn digest(entry: &JsonValue, key: &str) -> Result<u64, String> {
    let s = text(entry, key)?;
    u64::from_str_radix(s, 16).map_err(|_| format!("`{key}` is not a hex digest: {s:?}"))
}

fn window_ns(entry: &JsonValue) -> Result<u64, String> {
    match uint(entry, "window_ns")? {
        0 => Err("`window_ns` is zero".to_string()),
        w => Ok(w),
    }
}

fn parse_leaf(entry: &JsonValue) -> Result<LeafDigest, String> {
    let node = uint(entry, "node")?;
    Ok(LeafDigest {
        window: uint(entry, "window")?,
        node: u32::try_from(node).map_err(|_| format!("`node` {node} is not a u32 node id"))?,
        hash: digest(entry, "digest")?,
        count: uint(entry, "records")?,
    })
}

/// Parses one scope's `leaves` into a snapshot and checks the scope's
/// `digest` and `records` against them.
fn parse_leaves(scope: &JsonValue, window_ns: u64) -> Result<DigestSnapshot, String> {
    let mut snapshot = DigestSnapshot {
        window_ns,
        leaves: Vec::new(),
    };
    let mut records = 0u64;
    for (i, entry) in array(scope, "leaves")?.iter().enumerate() {
        let leaf = parse_leaf(entry).map_err(|e| format!("leaves[{i}]: {e}"))?;
        if leaf
            .window
            .saturating_add(1)
            .checked_mul(window_ns)
            .is_none()
        {
            return Err(format!(
                "leaves[{i}]: window {} ends past the u64 nanosecond range",
                leaf.window
            ));
        }
        if let Some(prev) = snapshot.leaves.last().filter(|p| p.key() >= leaf.key()) {
            return Err(format!(
                "leaves[{i}]: (window, node) {:?} does not follow {:?}: unsorted or duplicate",
                leaf.key(),
                prev.key()
            ));
        }
        records = records
            .checked_add(leaf.count)
            .ok_or_else(|| format!("leaves[{i}]: records overflow u64"))?;
        snapshot.leaves.push(leaf);
    }
    if digest(scope, "digest")? != snapshot.run_digest() || uint(scope, "records")? != records {
        return Err("`digest`/`records` do not match the leaves".to_string());
    }
    Ok(snapshot)
}

fn parse_run(
    run: &JsonValue,
    scale: f64,
    seed: u64,
    experiment: ExperimentConfig,
    window_ns: u64,
) -> Result<Scope, String> {
    let trace = uint(run, "trace")?;
    let name = text(run, "name")?;
    let protocol = match text(run, "protocol")? {
        "SRM" => Protocol::Srm,
        "CESRM" => Protocol::Cesrm(SuiteConfig::quick(scale).cesrm),
        other => return Err(format!("unknown protocol {other:?}")),
    };
    if !(1..=14).contains(&trace) {
        return Err(format!("`trace` {trace} is not a Table-1 trace number"));
    }
    Ok(Scope {
        label: format!("trace {trace} {name} / {}", protocol.name()),
        snapshot: parse_leaves(run, window_ns)?,
        replay: ReplaySpec::Suite {
            scale,
            seed,
            trace: trace as usize,
            protocol,
            experiment,
        },
    })
}

fn parse_rung(rung: &JsonValue, sweep: ScaleConfig) -> Result<Scope, String> {
    let receivers = uint(rung, "receivers")?;
    let losses = uint(rung, "losses")?;
    if receivers < 2 {
        return Err(format!(
            "`receivers` {receivers} is below the 2-receiver minimum"
        ));
    }
    Ok(Scope {
        label: format!("rung {receivers} receivers"),
        snapshot: parse_leaves(rung, window_ns(rung)?)?,
        replay: ReplaySpec::Rung(ScaleConfig {
            receivers,
            losses: u32::try_from(losses).map_err(|_| format!("`losses` {losses} exceeds u32"))?,
            ..sweep
        }),
    })
}

/// Parses every entry of `doc[key]` with `parse`, prefixing errors with
/// the entry's path.
fn scopes(
    doc: &JsonValue,
    key: &str,
    parse: impl Fn(&JsonValue) -> Result<Scope, String>,
) -> Result<Vec<Scope>, String> {
    array(doc, key)?
        .iter()
        .enumerate()
        .map(|(i, entry)| parse(entry).map_err(|e| format!("{key}[{i}]: {e}")))
        .collect()
}

/// Parses a `cesrm-digest/3` trail into its scopes, rejecting any missing
/// or ill-typed member, unsorted or duplicate leaves, a window past the
/// `u64` nanosecond range, and summaries that disagree with their leaves.
/// Errors name the scope and the entry (`runs[3]: leaves[17]: ...`).
fn parse_trail(doc: &JsonValue) -> Result<Vec<Scope>, String> {
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    if schema != Some(DIGEST_SCHEMA) {
        return Err(format!("not a {DIGEST_SCHEMA} trail (schema: {schema:?})"));
    }
    let parsed = match text(doc, "mode")? {
        "suite" => {
            let suite = member(doc, "suite")?;
            let field = |e: String| format!("suite: {e}");
            let scale = member(suite, "scale")?
                .as_f64()
                .filter(|s| *s > 0.0 && *s <= 1.0)
                .ok_or("`suite.scale` is not a number in (0, 1]")?;
            let seed = uint(suite, "seed").map_err(field)?;
            // The run settings a command line can change: a replay must
            // reenact the run, not the paper defaults.
            let link_delay_ms = member(suite, "link_delay_ms")
                .map_err(field)?
                .as_f64()
                .filter(|ms| *ms > 0.0 && *ms * 1e6 < u64::MAX as f64)
                .ok_or("`suite.link_delay_ms` is not a positive number")?;
            let &JsonValue::Bool(lossy_recovery) =
                member(suite, "lossy_recovery").map_err(field)?
            else {
                return Err("`suite.lossy_recovery` is not a boolean".to_string());
            };
            let mut experiment = SuiteConfig::quick(scale).experiment;
            experiment.net.link_delay =
                SimDuration::from_nanos((link_delay_ms * 1e6).round() as u64);
            experiment.lossy_recovery = lossy_recovery;
            let window_ns = window_ns(doc)?;
            scopes(doc, "runs", |run| {
                parse_run(run, scale, seed, experiment, window_ns)
            })?
        }
        "scale" => {
            let sweep = member(doc, "sweep")?;
            let field = |e: String| format!("sweep: {e}");
            let protocol = text(sweep, "protocol").map_err(field)?;
            let sweep = ScaleConfig {
                protocol: scale_protocol(protocol)
                    .ok_or_else(|| format!("sweep: unknown protocol {protocol:?}"))?,
                seed: uint(sweep, "seed").map_err(field)?,
                packets: uint(sweep, "packets").map_err(field)?,
                ..ScaleConfig::rung(1)
            };
            scopes(doc, "rungs", |rung| parse_rung(rung, sweep))?
        }
        other => return Err(format!("unknown trail mode {other:?}")),
    };
    let (top, total) = parsed
        .iter()
        .try_fold((0, 0u64), |(top, total), s| {
            let total = total.checked_add(s.snapshot.count())?;
            Some((fold64(top, s.snapshot.run_digest()), total))
        })
        .ok_or("records overflow u64")?;
    if digest(doc, "digest")? != top || uint(doc, "records")? != total {
        return Err("top-level `digest`/`records` do not match the scopes".to_string());
    }
    Ok(parsed)
}

/// Compares two parsed `cesrm-digest/3` trails scope by scope and
/// localizes the first divergent `(window, node)` leaf. Returns `Err`
/// when either trail is malformed (a missing or ill-typed member, unsorted
/// or duplicate leaves, a window past the `u64` nanosecond range, or a
/// summary that disagrees with its leaves) or the two are incomparable
/// (different mode, scope sets or window widths).
pub fn diff_trails(a: &JsonValue, b: &JsonValue) -> Result<DiffOutcome, String> {
    let scopes_a = parse_trail(a).map_err(|e| format!("trail A: {e}"))?;
    let scopes_b = parse_trail(b).map_err(|e| format!("trail B: {e}"))?;
    if scopes_a.len() != scopes_b.len() {
        return Err(format!(
            "trails cover different scope counts ({} vs {})",
            scopes_a.len(),
            scopes_b.len()
        ));
    }
    if let Some((sa, sb)) = scopes_a
        .iter()
        .zip(&scopes_b)
        .find(|(sa, sb)| sa.label != sb.label)
    {
        return Err(format!(
            "trails cover different scopes ({:?} vs {:?})",
            sa.label, sb.label
        ));
    }
    for (sa, sb) in scopes_a.iter().zip(&scopes_b) {
        let found = localize(
            &sa.label,
            (&sa.snapshot, &sa.replay),
            (&sb.snapshot, &sb.replay),
        )?;
        if let Some(div) = found {
            return Ok(DiffOutcome::Diverged(Box::new(div)));
        }
    }
    Ok(DiffOutcome::Identical {
        records: scopes_a.iter().map(|s| s.snapshot.count()).sum(),
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
        .map(|r| r.to_string().len())
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
        let left = a.get(i).map(Record::to_string).unwrap_or_default();
        let right = b.get(i).map(Record::to_string).unwrap_or_default();
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

    /// A one-run suite trail over `records`, parsed.
    fn suite_trail(records: &[Record]) -> JsonValue {
        let mut cfg = SuiteConfig::quick(0.01);
        cfg.traces = Some(vec![4]);
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
                snapshot: snapshot_of(records),
            }],
            timing: crate::runner::SuiteTiming {
                jobs: 1,
                wall: std::time::Duration::ZERO,
                runs: Vec::new(),
            },
        };
        JsonValue::parse(&suite_digest_json(&cfg, &result)).expect("well-formed trail")
    }

    fn diverged(a: &JsonValue, b: &JsonValue) -> Box<Divergence> {
        match diff_trails(a, b).expect("comparable") {
            DiffOutcome::Diverged(d) => d,
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    /// The first leaf of the first run, mutably.
    fn first_leaf(trail: &mut JsonValue) -> &mut JsonValue {
        let Some(JsonValue::Arr(runs)) = trail.get_mut("runs") else {
            panic!("trail has runs");
        };
        let Some(JsonValue::Arr(leaves)) = runs[0].get_mut("leaves") else {
            panic!("run has leaves");
        };
        &mut leaves[0]
    }

    /// Asserts that `diff_trails` rejects `bad` against `good` with an
    /// error naming the scope, the entry and `what`.
    fn assert_rejected(good: &JsonValue, bad: &JsonValue, what: &str) {
        let err = diff_trails(good, bad).expect_err("malformed trail must be an error");
        assert!(
            err.starts_with("trail B: runs[0]: ") && err.contains(what),
            "{err}"
        );
    }

    #[test]
    fn identical_trails_compare_identical() {
        let records = [rec(10, 1, 0), rec(1_500_000_000, 2, 1)];
        match diff_trails(&suite_trail(&records), &suite_trail(&records)).expect("comparable") {
            DiffOutcome::Identical { records } => assert_eq!(records, 2),
            other => panic!("expected identical, got {other:?}"),
        }
    }

    #[test]
    fn a_flipped_event_is_localized_to_its_exact_window() {
        // 1.55 s => window 15 (100 ms windows), node 7.
        let base = [
            rec(10, 1, 0),
            rec(1_550_000_000, 7, 3),
            rec(2_010_000_000, 2, 5),
        ];
        let mut flipped = base;
        flipped[1] = rec(1_550_000_000, 7, 4); // same window, different seq
        let div = diverged(&suite_trail(&base), &suite_trail(&flipped));
        assert_eq!(div.scope, "trace 4 WRN950919 / SRM");
        assert_eq!((div.leaf.window, div.leaf.node), (15, 7));
        assert_eq!(div.bounds_ns(), (1_500_000_000, 1_600_000_000));
        assert!(matches!(div.replay_a, ReplaySpec::Suite { trace: 4, .. }));
        let text = div.render();
        assert!(
            text.contains("window 15 (t=1.500-1.600s), node 7"),
            "{text}"
        );
    }

    #[test]
    fn the_earliest_window_wins_over_the_lowest_node() {
        // Node 9 diverges at 1.15 s, node 2 at 1.25 s: the earlier window
        // is reported although its node is higher.
        let base = [rec(1_150_000_000, 9, 0), rec(1_250_000_000, 2, 1)];
        let changed = [rec(1_150_000_000, 9, 5), rec(1_250_000_000, 2, 6)];
        let div = diverged(&suite_trail(&base), &suite_trail(&changed));
        assert_eq!((div.leaf.window, div.leaf.node), (11, 9));
    }

    #[test]
    fn an_absent_window_is_still_localized() {
        let base = [rec(10, 1, 0)];
        let extra = [rec(10, 1, 0), rec(3_250_000_000, 9, 2)];
        let div = diverged(&suite_trail(&base), &suite_trail(&extra));
        assert_eq!((div.leaf.window, div.leaf.node), (32, 9));
        assert!(div.leaf.a.is_none(), "window absent on side A");
        assert_eq!(div.leaf.b.map(|(_, records)| records), Some(1));
        assert!(div.render().contains("A absent vs B"));
    }

    #[test]
    fn trails_over_different_scopes_are_incomparable() {
        let a = suite_trail(&[rec(10, 1, 0)]);
        let mut b = a.clone();
        let Some(JsonValue::Arr(runs)) = b.get_mut("runs") else {
            panic!("trail has runs");
        };
        *runs[0].get_mut("protocol").expect("protocol") = JsonValue::str_val("CESRM");
        let err = diff_trails(&a, &b).expect_err("different scopes");
        assert!(err.contains("different scopes"), "{err}");
    }

    #[test]
    fn a_missing_leaf_field_is_an_error() {
        let good = suite_trail(&[rec(10, 1, 0), rec(20, 2, 1)]);
        let mut bad = good.clone();
        if let JsonValue::Obj(members) = first_leaf(&mut bad) {
            members.retain(|(k, _)| k != "records");
        }
        assert_rejected(&good, &bad, "leaves[0]: missing `records`");
    }

    #[test]
    fn an_ill_typed_leaf_field_is_an_error() {
        let good = suite_trail(&[rec(10, 1, 0), rec(20, 2, 1)]);
        let mut bad = good.clone();
        *first_leaf(&mut bad).get_mut("node").expect("node") = JsonValue::str_val("1");
        assert_rejected(&good, &bad, "leaves[0]: `node` is not an unsigned integer");
    }

    #[test]
    fn unsorted_leaves_are_an_error() {
        let good = suite_trail(&[rec(10, 1, 0), rec(20, 2, 1)]);
        let mut bad = good.clone();
        let Some(JsonValue::Arr(runs)) = bad.get_mut("runs") else {
            panic!("trail has runs");
        };
        let Some(JsonValue::Arr(leaves)) = runs[0].get_mut("leaves") else {
            panic!("run has leaves");
        };
        leaves.swap(0, 1);
        assert_rejected(
            &good,
            &bad,
            "leaves[1]: (window, node) (0, 1) does not follow (0, 2)",
        );
    }

    #[test]
    fn duplicate_leaves_are_an_error() {
        let good = suite_trail(&[rec(10, 1, 0), rec(20, 2, 1)]);
        let mut bad = good.clone();
        let Some(JsonValue::Arr(runs)) = bad.get_mut("runs") else {
            panic!("trail has runs");
        };
        let Some(JsonValue::Arr(leaves)) = runs[0].get_mut("leaves") else {
            panic!("run has leaves");
        };
        leaves[1] = leaves[0].clone();
        assert_rejected(
            &good,
            &bad,
            "leaves[1]: (window, node) (0, 1) does not follow (0, 1)",
        );
    }

    #[test]
    fn a_window_past_the_u64_range_is_an_error() {
        let good = suite_trail(&[rec(10, 1, 0)]);
        let mut bad = good.clone();
        *first_leaf(&mut bad).get_mut("window").expect("window") = JsonValue::uint(1 << 62);
        assert_rejected(
            &good,
            &bad,
            "leaves[0]: window 4611686018427387904 ends past",
        );
    }

    #[test]
    fn a_suite_without_its_run_settings_is_an_error() {
        let good = suite_trail(&[rec(10, 1, 0)]);
        for key in ["lossy_recovery", "link_delay_ms"] {
            let mut bad = good.clone();
            let Some(JsonValue::Obj(members)) = bad.get_mut("suite") else {
                panic!("trail has a suite member");
            };
            members.retain(|(k, _)| k != key);
            let err = diff_trails(&good, &bad).expect_err("an older trail must be an error");
            assert_eq!(err, format!("trail B: suite: missing `{key}`"));
        }
    }

    #[test]
    fn a_suite_trail_replays_its_own_run_settings() {
        let parsed = |lossy: bool| {
            let mut trail = suite_trail(&[rec(10, 1, 0)]);
            let Some(suite) = trail.get_mut("suite") else {
                panic!("trail has a suite member");
            };
            *suite.get_mut("link_delay_ms").expect("link delay") = JsonValue::Num(10.0);
            *suite.get_mut("lossy_recovery").expect("lossy flag") = JsonValue::Bool(lossy);
            parse_trail(&trail)
                .expect("well-formed trail")
                .remove(0)
                .replay
        };
        let ReplaySpec::Suite { experiment, .. } = parsed(true) else {
            panic!("a suite trail replays suite runs");
        };
        assert!(experiment.lossy_recovery);
        assert_eq!(experiment.net.link_delay, SimDuration::from_millis(10));
        let ReplaySpec::Suite { experiment, .. } = parsed(false) else {
            panic!("a suite trail replays suite runs");
        };
        assert!(!experiment.lossy_recovery);
    }

    #[test]
    fn summaries_that_disagree_with_their_leaves_are_an_error() {
        let good = suite_trail(&[rec(10, 1, 0)]);
        let mut bad = good.clone();
        *first_leaf(&mut bad).get_mut("records").expect("records") = JsonValue::uint(2);
        assert_rejected(&good, &bad, "`digest`/`records` do not match the leaves");
    }

    #[test]
    fn aligned_diff_marks_the_first_divergent_row() {
        let a = [rec(10, 1, 0), rec(20, 1, 1), rec(30, 1, 2)];
        let b = [rec(10, 1, 0), rec(20, 1, 9), rec(30, 1, 2)];
        let (text, summary) = aligned_event_diff(&a, &b, "1 job", "4 jobs");
        let summary = summary.expect("streams differ");
        assert!(summary.contains("LOSS_DETECTED"), "{summary}");
        assert_eq!(
            text.lines()
                .position(|l| l.contains("<-- first divergence")),
            Some(2),
            "second record row carries the marker:\n{text}"
        );
        assert!(text.contains(&rec(20, 1, 9).to_string()));
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
