//! Persistent, content-keyed report cache shared across experiments.
//!
//! Every `exp_*` binary and `eva sweep` runs grids of cells, and many
//! cells recur across experiments (fig4's No-Packing baseline is
//! table13's No-Packing baseline on the same trace). A [`ReportCache`]
//! memoizes finished cell reports on disk — under `results/cache/` by
//! convention — keyed by the cell's **content fingerprint**: trace
//! content hash × scheduler configuration × seed × fidelity ×
//! interference × migration scale × round period × backend, all under a
//! code [`SCHEMA_VERSION`]. A second run of any grid (or another
//! experiment sharing cells) is served from disk, byte-identical to the
//! simulated run.
//!
//! Entries are self-describing JSON files named by the FNV-1a hash of
//! `schema|key`; the full key string is stored inside the entry and
//! verified on lookup, so a (vanishingly unlikely) hash collision reads
//! as a miss, never as a wrong report. Writes go through a temp file +
//! rename, so concurrent writers at worst race to publish identical
//! bytes. The dir therefore holds only entries (`<fnv>.json`) and
//! in-flight write temps (`<fnv>.tmp.<pid>`).
//!
//! **Provenance**: every entry carries a `producer` field stamped at
//! store time — the binary (experiment) that first computed the cell.
//! Lookups ignore it (the content key alone decides validity), but
//! `eva cache stats` breaks entries down by producer, so a shared or
//! merged cache dir stays auditable: you can see which experiment paid
//! for which cells.
//!
//! **Invalidation**: bump [`SCHEMA_VERSION`] whenever simulation
//! semantics or the serialized report shape change — old entries then
//! miss (their file names hash differently) and are never read again.
//! Mutating a trace changes its content hash and therefore its keys.
//! The `producer` stamp is *not* part of the key: it never affects
//! hits, and entries written before it existed still read fine.
//! Retired-schema entries linger harmlessly until `eva cache prune`
//! removes them.

use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use serde::{Deserialize, Serialize, Value};

/// Version tag mixed into every cache key. Bump on any change to
/// simulation semantics, report fields, or key composition.
///
/// v2: shard metadata gained boundary intervals + straddler counts and
/// the table 4/5 artifact rows gained `from_cache` stamps — cached rows
/// from v1 would deserialize without those fields, so they are retired.
///
/// v3: cells gained the adversarial fault axis. Cell fingerprints now
/// carry a `|fault:` component and `CellKey` a `faults` label, so v2
/// entries (which never injected faults but whose keys lack the
/// component) would alias the new fault-free keys while their stored
/// `CellKey` no longer deserializes — retire them wholesale.
pub const SCHEMA_VERSION: &str = "eva-v3";

/// Default staleness deadline for orphaned `.tmp` files swept on open
/// (env override `EVA_TMP_STALE_SECS`).
const TMP_STALE_SECS_DEFAULT: u64 = 3_600;

fn tmp_stale_deadline() -> Duration {
    let secs = std::env::var("EVA_TMP_STALE_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(TMP_STALE_SECS_DEFAULT);
    Duration::from_secs(secs)
}

/// True when pid liveness can be checked at all (Linux procfs).
fn procfs_available() -> bool {
    Path::new("/proc/self").exists()
}

/// True when `pid` is a live process on this machine.
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// The binary stem this process runs as — the provenance stamp stored
/// with every cache entry (env override `EVA_CACHE_PRODUCER`).
fn default_producer() -> String {
    if let Ok(name) = std::env::var("EVA_CACHE_PRODUCER") {
        return name;
    }
    std::env::current_exe()
        .ok()
        .as_deref()
        .and_then(Path::file_stem)
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Age of a file by mtime; `None` when the file (or clock) is gone.
fn file_age(path: &Path) -> Option<Duration> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| SystemTime::now().duration_since(t).ok())
}

/// True for the temp-file names [`ReportCache::store`] and
/// [`ReportCache::merge_from`] write through (`<stem>.tmp.<pid>`).
fn is_temp_name(name: &str) -> bool {
    name.contains(".tmp.")
}

/// The pid embedded in a `<stem>.tmp.<pid>` temp name, if any.
fn temp_pid(name: &str) -> Option<u32> {
    name.rsplit('.').next().and_then(|p| p.parse().ok())
}

/// A directory-backed report store keyed by content fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportCache {
    dir: PathBuf,
    schema: String,
    producer: String,
}

impl ReportCache {
    /// A cache rooted at `dir` (created lazily on first store) under the
    /// current [`SCHEMA_VERSION`]. Opening sweeps orphaned `.tmp` files
    /// left by killed runs: temps whose writer pid is dead, or older
    /// than the staleness deadline (`EVA_TMP_STALE_SECS`, default 1 h),
    /// are removed.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let cache = Self::with_schema(dir, SCHEMA_VERSION);
        cache.sweep_stale_temps(tmp_stale_deadline());
        cache
    }

    /// A cache with an explicit schema tag (tests use this to prove that
    /// bumping the version invalidates every entry). Does **not** sweep
    /// temps — the `eva cache` lifecycle commands open through here so
    /// `verify` can still report orphans instead of silently losing
    /// them.
    pub fn with_schema(dir: impl Into<PathBuf>, schema: impl Into<String>) -> Self {
        ReportCache {
            dir: dir.into(),
            schema: schema.into(),
            producer: default_producer(),
        }
    }

    /// Overrides the provenance stamp stored with new entries (defaults
    /// to this binary's name).
    pub fn with_producer(mut self, producer: impl Into<String>) -> Self {
        self.producer = producer.into();
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The schema tag entries are keyed under.
    pub fn schema(&self) -> &str {
        &self.schema
    }

    /// Looks up the value stored under `key`, if any. Corrupt, colliding,
    /// or schema-mismatched entries read as a miss.
    pub fn lookup<R: Deserialize>(&self, key: &str) -> Option<R> {
        let text = std::fs::read_to_string(self.path_for(key)).ok()?;
        let value = serde_json::from_str_value(&text).ok()?;
        if value.get_field("schema")?.as_str()? != self.schema
            || value.get_field("key")?.as_str()? != key
        {
            return None;
        }
        R::deserialize(value.get_field("value")?).ok()
    }

    /// Stores `value` under `key`, stamped with this cache's provenance
    /// (which binary produced the cell). Failures are reported to stderr
    /// and otherwise ignored: a broken cache must never fail an
    /// experiment.
    pub fn store<R: Serialize>(&self, key: &str, value: &R) {
        let entry = Value::Object(vec![
            ("schema".to_string(), Value::String(self.schema.clone())),
            ("key".to_string(), Value::String(key.to_string())),
            ("producer".to_string(), Value::String(self.producer.clone())),
            ("value".to_string(), value.serialize()),
        ]);
        let json = match serde_json::to_string_pretty(&entry) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("warning: cache entry for `{key}` does not serialize: {e}");
                return;
            }
        };
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            eprintln!("warning: cannot create cache dir {}: {e}", self.dir.display());
            return;
        }
        let path = self.path_for(key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = std::fs::write(&tmp, json).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("warning: cache write {} failed: {e}", path.display());
        }
    }

    /// Number of entries currently on disk (diagnostics and tests).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|it| {
                it.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn path_for(&self, key: &str) -> PathBuf {
        let tagged = format!("{}|{}", self.schema, key);
        self.dir
            .join(format!("{:016x}.json", eva_types::fnv1a64(tagged.as_bytes())))
    }

    /// Removes orphaned `.tmp` files whose writer pid is dead on this
    /// host or whose age exceeds `deadline`. Returns the removed paths. Called on every
    /// [`ReportCache::new`], so a killed run's litter disappears the
    /// next time any experiment opens the cache.
    pub fn sweep_stale_temps(&self, deadline: Duration) -> Vec<PathBuf> {
        let Ok(it) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut removed = Vec::new();
        for entry in it.filter_map(|e| e.ok()) {
            let path = entry.path();
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if !is_temp_name(&name) {
                continue;
            }
            let dead_writer = procfs_available()
                && temp_pid(&name).is_some_and(|pid| pid != std::process::id() && !pid_alive(pid));
            let expired = file_age(&path).is_some_and(|age| age > deadline);
            if (dead_writer || expired) && std::fs::remove_file(&path).is_ok() {
                removed.push(path);
            }
        }
        removed
    }
}

// ---------------------------------------------------------------------
// Lifecycle operations — the data layer behind `eva cache`.
// ---------------------------------------------------------------------

/// One parsed on-disk entry (internal to the lifecycle walks).
struct RawEntry {
    bytes: String,
    schema: Option<String>,
    key: Option<String>,
    producer: String,
    has_value: bool,
}

/// Summary counters for `eva cache stats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Entry files present.
    pub entries: usize,
    /// Entries under the cache's current schema.
    pub current_schema: usize,
    /// Total bytes across entry files.
    pub bytes: u64,
    /// `(schema, entry count)` sorted by schema.
    pub schemas: Vec<(String, usize)>,
    /// `(producer, entry count)` sorted by producer (`"-"` for entries
    /// predating provenance).
    pub producers: Vec<(String, usize)>,
    /// Orphaned temp files present.
    pub temps: usize,
}

/// One problem `eva cache verify` found.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyIssue {
    /// File name inside the cache dir.
    pub file: String,
    /// What is wrong with it.
    pub problem: String,
}

/// Result of `eva cache verify`: entries re-hashed against their stored
/// keys, plus the orphaned `.tmp` files a healthy idle cache must not
/// contain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Entry files examined.
    pub entries: usize,
    /// Entries that parsed and re-hashed to their own file name.
    pub valid: usize,
    /// Valid entries stored under a schema other than the current one
    /// (unreadable by this build, but not corrupt — prune removes them).
    pub retired: usize,
    /// Corrupt or mis-filed entries.
    pub issues: Vec<VerifyIssue>,
    /// Orphaned temp files (named `<stem>.tmp.<pid>`).
    pub temps: Vec<String>,
}

impl VerifyReport {
    /// True when the cache is healthy and idle: every entry valid, no
    /// temps.
    pub fn clean(&self) -> bool {
        self.issues.is_empty() && self.temps.is_empty()
    }
}

/// Counters for `eva cache prune`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PruneReport {
    /// Entries removed because their schema is retired.
    pub removed_retired: usize,
    /// Entries removed because they exceeded the age limit.
    pub removed_old: usize,
    /// Corrupt entries removed (they could never be read again).
    pub removed_corrupt: usize,
    /// Stale temp files removed.
    pub removed_temps: usize,
    /// Entries kept.
    pub kept: usize,
}

/// Counters for `eva cache merge`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeReport {
    /// Entries copied over.
    pub imported: usize,
    /// Entries already present byte-identically.
    pub skipped_identical: usize,
    /// Entries present on both sides with equal keys and values but
    /// different bytes (e.g. different producer stamps) — the
    /// destination's copy is kept.
    pub skipped_equivalent: usize,
    /// Entries present on both sides with **different values** under the
    /// same key — kept local, loudly counted: this means two builds
    /// disagreed about the same content-addressed cell.
    pub conflicting: usize,
    /// Source files that failed validation and were not copied.
    pub invalid: usize,
}

impl ReportCache {
    fn read_raw_entry(&self, path: &Path) -> Option<RawEntry> {
        let bytes = std::fs::read_to_string(path).ok()?;
        let parsed = serde_json::from_str_value(&bytes).ok();
        let field = |name: &str| -> Option<String> {
            parsed
                .as_ref()?
                .get_field(name)?
                .as_str()
                .map(str::to_string)
        };
        Some(RawEntry {
            schema: field("schema"),
            key: field("key"),
            producer: field("producer").unwrap_or_else(|| "-".to_string()),
            has_value: parsed
                .as_ref()
                .is_some_and(|v| v.get_field("value").is_some()),
            bytes,
        })
    }

    /// The file name an entry's own `(schema, key)` pair hashes to —
    /// what the entry *should* be called if it is filed correctly.
    fn expected_name(schema: &str, key: &str) -> String {
        let tagged = format!("{schema}|{key}");
        format!("{:016x}.json", eva_types::fnv1a64(tagged.as_bytes()))
    }

    fn dir_files(&self) -> Vec<PathBuf> {
        let Ok(it) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = it.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        files.sort();
        files
    }

    /// Walks the cache dir and summarizes what is in it.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        let mut schemas: std::collections::BTreeMap<String, usize> = Default::default();
        let mut producers: std::collections::BTreeMap<String, usize> = Default::default();
        for path in self.dir_files() {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if is_temp_name(&name) {
                stats.temps += 1;
            } else if name.ends_with(".json") {
                stats.entries += 1;
                stats.bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let entry = self.read_raw_entry(&path);
                let schema = entry
                    .as_ref()
                    .and_then(|e| e.schema.clone())
                    .unwrap_or_else(|| "(corrupt)".to_string());
                if schema == self.schema {
                    stats.current_schema += 1;
                }
                *schemas.entry(schema).or_default() += 1;
                let producer = entry
                    .map(|e| e.producer)
                    .unwrap_or_else(|| "-".to_string());
                *producers.entry(producer).or_default() += 1;
            }
        }
        stats.schemas = schemas.into_iter().collect();
        stats.producers = producers.into_iter().collect();
        stats
    }

    /// Re-validates every entry against its stored key: the entry must
    /// parse, carry `schema`/`key`/`value` fields, and live under the
    /// file name its own `schema|key` hashes to. Also reports the
    /// orphaned `.tmp` files an idle cache must not contain.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for path in self.dir_files() {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if is_temp_name(&name) {
                let dead = procfs_available()
                    && temp_pid(&name)
                        .is_some_and(|pid| pid != std::process::id() && !pid_alive(pid));
                report
                    .temps
                    .push(format!("{name}{}", if dead { " (writer dead)" } else { "" }));
                continue;
            }
            if !name.ends_with(".json") {
                continue;
            }
            report.entries += 1;
            let Some(entry) = self.read_raw_entry(&path) else {
                report.issues.push(VerifyIssue {
                    file: name,
                    problem: "unreadable".to_string(),
                });
                continue;
            };
            let (Some(schema), Some(key), true) = (&entry.schema, &entry.key, entry.has_value)
            else {
                report.issues.push(VerifyIssue {
                    file: name,
                    problem: "not a cache entry (missing schema/key/value)".to_string(),
                });
                continue;
            };
            let expected = Self::expected_name(schema, key);
            if expected != name {
                report.issues.push(VerifyIssue {
                    file: name,
                    problem: format!("filed under the wrong hash (key hashes to {expected})"),
                });
                continue;
            }
            report.valid += 1;
            if schema != &self.schema {
                report.retired += 1;
            }
        }
        report
    }

    /// Removes retired-schema entries (when `retired`), entries older
    /// than `max_age` (when given), corrupt entries, and stale temps.
    /// Current entries stay.
    pub fn prune(&self, max_age: Option<Duration>, retired: bool) -> PruneReport {
        let mut report = PruneReport {
            removed_temps: self.sweep_stale_temps(tmp_stale_deadline()).len(),
            ..PruneReport::default()
        };
        for path in self.dir_files() {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if !name.ends_with(".json") || is_temp_name(&name) {
                continue;
            }
            let entry = self.read_raw_entry(&path);
            let valid = entry.as_ref().is_some_and(|e| {
                matches!((&e.schema, &e.key, e.has_value), (Some(_), Some(_), true))
            });
            if !valid {
                if std::fs::remove_file(&path).is_ok() {
                    report.removed_corrupt += 1;
                }
                continue;
            }
            let entry = entry.expect("checked above");
            let schema = entry.schema.as_deref().unwrap_or_default();
            if retired && schema != self.schema {
                if std::fs::remove_file(&path).is_ok() {
                    report.removed_retired += 1;
                }
                continue;
            }
            let expired =
                max_age.is_some_and(|limit| file_age(&path).is_some_and(|age| age > limit));
            if expired {
                if std::fs::remove_file(&path).is_ok() {
                    report.removed_old += 1;
                }
                continue;
            }
            report.kept += 1;
        }
        report
    }

    /// Imports every valid entry of the foreign cache dir `src` into
    /// this cache, byte-verbatim (content-addressed names make this a
    /// plain union). Entries already present are kept; same-key entries
    /// whose **values** disagree are counted as conflicts and left
    /// local.
    pub fn merge_from(&self, src: &Path) -> MergeReport {
        let foreign = ReportCache::with_schema(src, self.schema.clone());
        let mut report = MergeReport::default();
        for path in foreign.dir_files() {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if !name.ends_with(".json") || is_temp_name(&name) {
                continue;
            }
            let Some(entry) = foreign.read_raw_entry(&path) else {
                report.invalid += 1;
                continue;
            };
            let (Some(schema), Some(key), true) = (&entry.schema, &entry.key, entry.has_value)
            else {
                report.invalid += 1;
                continue;
            };
            if Self::expected_name(schema, key) != name {
                report.invalid += 1;
                continue;
            }
            let dest = self.dir.join(&name);
            if dest.exists() {
                let local = std::fs::read_to_string(&dest).unwrap_or_default();
                if local == entry.bytes {
                    report.skipped_identical += 1;
                } else {
                    let same_value = serde_json::from_str_value(&local)
                        .ok()
                        .and_then(|l| {
                            serde_json::from_str_value(&entry.bytes)
                                .ok()
                                .map(|f| l.get_field("value") == f.get_field("value"))
                        })
                        .unwrap_or(false);
                    if same_value {
                        report.skipped_equivalent += 1;
                    } else {
                        report.conflicting += 1;
                    }
                }
                continue;
            }
            if let Err(e) = std::fs::create_dir_all(&self.dir) {
                eprintln!("warning: cannot create cache dir {}: {e}", self.dir.display());
                report.invalid += 1;
                continue;
            }
            let tmp = dest.with_extension(format!("tmp.{}", std::process::id()));
            let copied =
                std::fs::write(&tmp, &entry.bytes).and_then(|()| std::fs::rename(&tmp, &dest));
            match copied {
                Ok(()) => report.imported += 1,
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    eprintln!("warning: import of {name} failed: {e}");
                    report.invalid += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimReport;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eva-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn report(cost: f64) -> SimReport {
        SimReport {
            scheduler: "test".into(),
            jobs_completed: 3,
            total_cost_dollars: cost,
            instances_launched: 2,
            migrations_per_task: 0.25,
            avg_jct_hours: 1.5,
            avg_idle_hours: 0.1,
            avg_norm_tput: 0.9,
            tasks_per_instance: 1.1,
            gpu_alloc: 0.5,
            cpu_alloc: 0.4,
            ram_alloc: 0.3,
            uptime_cdf: Vec::new(),
            full_reconfig_rate: 0.0,
            makespan_hours: 2.5,
            billed_hours: 4.0,
        }
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = ReportCache::new(tmp_dir("round-trip"));
        assert!(cache.is_empty());
        assert!(cache.lookup::<SimReport>("k1").is_none());
        let r = report(12.5);
        cache.store("k1", &r);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup::<SimReport>("k1"), Some(r));
        assert!(cache.lookup::<SimReport>("k2").is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn schema_bump_invalidates_entries() {
        let dir = tmp_dir("schema");
        let v1 = ReportCache::with_schema(&dir, "v1");
        v1.store("k", &report(1.0));
        assert!(v1.lookup::<SimReport>("k").is_some());
        let v2 = ReportCache::with_schema(&dir, "v2");
        assert!(
            v2.lookup::<SimReport>("k").is_none(),
            "new schema must not read old entries"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_read_as_miss() {
        let cache = ReportCache::new(tmp_dir("corrupt"));
        cache.store("k", &report(1.0));
        let path = cache.path_for("k");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(cache.lookup::<SimReport>("k").is_none());
        // A tampered key string (hash collision stand-in) is also a miss.
        cache.store("k", &report(1.0));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"k\"", "\"other\"")).unwrap();
        assert!(cache.lookup::<SimReport>("k").is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stored_bytes_are_deterministic() {
        let a_dir = tmp_dir("det-a");
        let b_dir = tmp_dir("det-b");
        let a = ReportCache::new(&a_dir);
        let b = ReportCache::new(&b_dir);
        a.store("k", &report(0.1));
        b.store("k", &report(0.1));
        let read = |c: &ReportCache| std::fs::read_to_string(c.path_for("k")).unwrap();
        assert_eq!(read(&a), read(&b));
        let _ = std::fs::remove_dir_all(&a_dir);
        let _ = std::fs::remove_dir_all(&b_dir);
    }

    /// A pid above the kernel's pid_max, so `/proc/<pid>` never exists.
    const DEAD_PID: u32 = 4_294_967_295;

    #[test]
    fn entries_carry_provenance_and_lookup_ignores_it() {
        let dir = tmp_dir("provenance");
        let cache = ReportCache::new(&dir).with_producer("exp_test");
        cache.store("k", &report(1.0));
        let bytes = std::fs::read_to_string(cache.path_for("k")).unwrap();
        assert!(bytes.contains("\"producer\": \"exp_test\""));
        // A differently-stamped (or pre-provenance) entry still hits.
        std::fs::write(cache.path_for("k"), bytes.replace("exp_test", "elsewhere")).unwrap();
        assert!(cache.lookup::<SimReport>("k").is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.producers, vec![("elsewhere".to_string(), 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_dead_writer_temps() {
        let dir = tmp_dir("tmp-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join(format!("deadbeefdeadbeef.tmp.{DEAD_PID}"));
        let own = dir.join(format!("deadbeefdeadbeef.tmp.{}", std::process::id()));
        std::fs::write(&orphan, "{}").unwrap();
        std::fs::write(&own, "{}").unwrap();
        let _ = ReportCache::new(&dir);
        assert!(!orphan.exists(), "dead writer's temp must be swept on open");
        assert!(own.exists(), "a live writer's temp must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_validates_rehash_and_reports_litter() {
        let dir = tmp_dir("verify");
        let cache = ReportCache::new(&dir);
        cache.store("good", &report(1.0));
        assert!(cache.verify().clean());

        // Mis-filed entry: valid JSON whose key hashes elsewhere.
        let good_bytes = std::fs::read_to_string(cache.path_for("good")).unwrap();
        std::fs::write(dir.join("0000000000000000.json"), &good_bytes).unwrap();
        // Corrupt entry.
        std::fs::write(dir.join("1111111111111111.json"), "{ nope").unwrap();
        // Litter.
        std::fs::write(dir.join(format!("2222222222222222.tmp.{DEAD_PID}")), "{}").unwrap();

        let report = cache.verify();
        assert_eq!(report.entries, 3);
        assert_eq!(report.valid, 1);
        assert_eq!(report.issues.len(), 2);
        assert!(report
            .issues
            .iter()
            .any(|i| i.file == "0000000000000000.json" && i.problem.contains("wrong hash")));
        assert_eq!(report.temps.len(), 1);
        assert!(!report.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_removes_retired_corrupt_and_stale() {
        let dir = tmp_dir("prune");
        let old = ReportCache::with_schema(&dir, "eva-v2");
        old.store("legacy", &report(1.0));
        let cache = ReportCache::new(&dir);
        cache.store("current", &report(2.0));
        std::fs::write(dir.join("1111111111111111.json"), "{ nope").unwrap();
        std::fs::write(dir.join(format!("2222222222222222.tmp.{DEAD_PID}")), "{}").unwrap();
        let pruned = cache.prune(None, true);
        assert_eq!(pruned.removed_retired, 1);
        assert_eq!(pruned.removed_corrupt, 1);
        assert_eq!(pruned.removed_temps, 1);
        assert_eq!(pruned.kept, 1);
        assert!(cache.lookup::<SimReport>("current").is_some());
        assert!(cache.verify().clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_unions_and_flags_conflicts() {
        let local_dir = tmp_dir("merge-local");
        let foreign_dir = tmp_dir("merge-foreign");
        let local = ReportCache::new(&local_dir);
        let foreign = ReportCache::new(&foreign_dir);
        local.store("shared", &report(1.0));
        local.store("mine", &report(2.0));
        foreign.store("shared", &report(1.0));
        foreign.store("theirs", &report(3.0));
        foreign.store("clash", &report(4.0));
        local.store("clash", &report(5.0));
        std::fs::write(foreign_dir.join("9999999999999999.json"), "{ nope").unwrap();

        let merged = local.merge_from(foreign.dir());
        assert_eq!(merged.imported, 1);
        assert_eq!(merged.skipped_identical, 1);
        assert_eq!(merged.conflicting, 1);
        assert_eq!(merged.invalid, 1);
        assert_eq!(local.lookup::<SimReport>("theirs"), Some(report(3.0)));
        assert_eq!(
            local.lookup::<SimReport>("clash"),
            Some(report(5.0)),
            "conflicts keep the local value"
        );

        // Merging the other way is symmetric: only `mine` is new over there.
        let back = foreign.merge_from(local.dir());
        assert_eq!(back.imported, 1);
        assert_eq!(back.conflicting, 1);
        assert_eq!(foreign.lookup::<SimReport>("mine"), Some(report(2.0)));
        let _ = std::fs::remove_dir_all(&local_dir);
        let _ = std::fs::remove_dir_all(&foreign_dir);
    }

    #[test]
    fn equivalent_entries_with_different_producers_skip_quietly() {
        let local_dir = tmp_dir("merge-equiv-local");
        let foreign_dir = tmp_dir("merge-equiv-foreign");
        let local = ReportCache::new(&local_dir).with_producer("exp_a");
        let foreign = ReportCache::new(&foreign_dir).with_producer("exp_b");
        local.store("k", &report(1.0));
        foreign.store("k", &report(1.0));
        let merged = local.merge_from(foreign.dir());
        assert_eq!(merged.skipped_equivalent, 1);
        assert_eq!(merged.conflicting, 0);
        let _ = std::fs::remove_dir_all(&local_dir);
        let _ = std::fs::remove_dir_all(&foreign_dir);
    }
}
