//! Content-addressed plan cache: compile once, deploy from bytes.
//!
//! Compile time is pure overhead at serving scale — every deploy of a
//! zoo network re-runs mapping, the pass pipeline, buffer liveness and
//! arena sizing from scratch. This module keys the serialized plan
//! (`compiler::serial`) by a deterministic **content hash** of its
//! compile inputs, so deploying N models or restarting a server costs
//! ~zero recompiles:
//!
//! * **Key** — FNV-1a over the canonical compact rendering
//!   ([`serde::json::Value::render_compact`]) of
//!   `{schema, seed, desc, opts}`. Canonical rendering makes the hash a
//!   pure function of the *content* (field order is declaration order,
//!   floats shortest-round-trip, integers exact), stable across
//!   processes and hosts.
//! * **Store** — an in-memory map fronting an optional on-disk
//!   directory of `<key-hex16>.json` plan documents
//!   (`target/plan-cache/` by default, `YOLOC_PLAN_CACHE_DIR`
//!   overrides; [`PlanCache::in_memory`] opts out of disk entirely).
//! * **Invalidation** — anything that changes the compile inputs
//!   changes the key (different file, no collision with the old entry);
//!   a plan-format bump changes the `schema` tag inside the stored
//!   document, so stale files fail deserialization, count as a miss and
//!   are overwritten with a freshly compiled plan. Corrupt files
//!   degrade the same way: the cache is best-effort, never a
//!   correctness risk.
//!
//! A cache hit performs **zero recompilation** — asserted via
//! [`super::compile_count`] (a process-wide compile counter) by the
//! round-trip suite and the CI schema gate, not via wall clock, so the
//! gate is stable on slow hosts.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::json::Value as Json;
use serde::Serialize;

use super::{CompileOptions, CompiledNetwork};
use yoloc_models::{NetworkDesc, NetworkError};

/// Schema tag mixed into the content hash (bumped together with the
/// plan schema so key-space generations never alias).
const KEY_SCHEMA: &str = "yoloc-plan-key/1";

/// 64-bit FNV-1a over `bytes` — small, dependency-free, and stable
/// across runs/processes/hosts (unlike `std`'s randomized hasher),
/// which is what an on-disk cache key needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content hash keying a compile: a pure function of the network
/// description, compile options and weight seed.
pub fn content_key(desc: &NetworkDesc, opts: &CompileOptions, seed: u64) -> u64 {
    let doc = Json::obj([
        ("schema", Json::str(KEY_SCHEMA)),
        ("seed", seed.to_json()),
        ("desc", desc.to_json()),
        ("opts", opts.to_json()),
    ]);
    fnv1a(doc.render_compact().as_bytes())
}

/// An in-memory + on-disk cache of serialized compiled plans, keyed by
/// [`content_key`].
///
/// # Examples
///
/// ```
/// use yoloc_core::compiler::{cache::PlanCache, compile_count, CompileOptions};
/// use yoloc_models::zoo;
///
/// let cache = PlanCache::in_memory();
/// let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
/// let a = cache.compile_random(&desc, 7, CompileOptions::paper_default())?;
/// let before = compile_count();
/// let b = cache.compile_random(&desc, 7, CompileOptions::paper_default())?;
/// assert_eq!(compile_count(), before, "warm deploy must not recompile");
/// assert_eq!(a.mapping, b.mapping);
/// # Ok::<(), yoloc_models::NetworkError>(())
/// ```
#[derive(Debug)]
pub struct PlanCache {
    /// On-disk store; `None` keeps the cache purely in memory.
    dir: Option<PathBuf>,
    /// Serialized plan documents by content key.
    mem: Mutex<HashMap<u64, String>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// A cache backed by the default directory: `$YOLOC_PLAN_CACHE_DIR`
    /// when set, else `target/plan-cache/`.
    pub fn new() -> Self {
        let dir = std::env::var_os("YOLOC_PLAN_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/plan-cache"));
        Self::at(dir)
    }

    /// A cache backed by an explicit directory (created lazily on the
    /// first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PlanCache {
            dir: Some(dir.into()),
            mem: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A purely in-memory cache (no disk traffic; hits only within this
    /// process).
    pub fn in_memory() -> Self {
        PlanCache {
            dir: None,
            mem: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cache hits served so far (memory or disk).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses (each one a full compile) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.json")))
    }

    /// Frames a plan document for disk: a 16-hex-digit FNV-1a checksum
    /// line followed by the document. JSON parses most single-bit flips
    /// just fine (a digit in a weight code, a letter in a name), so
    /// schema validation alone cannot tell "corrupt" from "stale" — the
    /// checksum makes any byte damage, including truncation, a clean
    /// miss instead of a silently wrong deployment.
    fn encode_entry(text: &str) -> String {
        format!("{:016x}\n{text}", fnv1a(text.as_bytes()))
    }

    /// Validates and strips the checksum frame; `None` on any damage
    /// (missing header, bad hex, checksum mismatch — which also covers
    /// files from the pre-checksum cache format, invalidating them).
    fn decode_entry(raw: &str) -> Option<&str> {
        let (head, body) = raw.split_once('\n')?;
        if head.len() != 16 {
            return None;
        }
        let sum = u64::from_str_radix(head, 16).ok()?;
        (sum == fnv1a(body.as_bytes())).then_some(body)
    }

    /// Deploys `desc` through the cache: a hit deserializes the stored
    /// plan (zero recompilation — bit-identical execution to a fresh
    /// compile, gated by the round-trip suite); a miss compiles via
    /// [`CompiledNetwork::compile_random`] and stores the plan in memory
    /// and (when configured) on disk. Stale or corrupt entries — e.g. a
    /// schema bump — degrade to a miss and are overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the description is inconsistent.
    pub fn compile_random(
        &self,
        desc: &NetworkDesc,
        seed: u64,
        opts: CompileOptions,
    ) -> Result<CompiledNetwork, NetworkError> {
        let key = content_key(desc, &opts, seed);
        if let Some(text) = self.mem.lock().expect("plan cache lock").get(&key).cloned() {
            if let Ok(net) = CompiledNetwork::deserialize_plan(&text) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(net);
            }
        }
        if let Some(path) = self.entry_path(key) {
            if let Ok(raw) = fs::read_to_string(&path) {
                if let Some(text) = Self::decode_entry(&raw) {
                    if let Ok(net) = CompiledNetwork::deserialize_plan(text) {
                        self.mem
                            .lock()
                            .expect("plan cache lock")
                            .insert(key, text.to_string());
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(net);
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let net = CompiledNetwork::compile_random(desc, seed, opts)?;
        let text = net.serialize_plan();
        if let Some(path) = self.entry_path(key) {
            // Best-effort: an unwritable cache directory must never fail
            // a deploy (the plan is already compiled in hand).
            let _ = path.parent().map(fs::create_dir_all);
            let _ = fs::write(&path, Self::encode_entry(&text));
        }
        self.mem.lock().expect("plan cache lock").insert(key, text);
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoloc_models::zoo;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("yoloc-plan-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn content_key_is_input_sensitive_and_stable() {
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let opts = CompileOptions::paper_default();
        let k = content_key(&desc, &opts, 7);
        assert_eq!(k, content_key(&desc, &opts, 7), "deterministic");
        assert_ne!(k, content_key(&desc, &opts, 8), "seed-sensitive");
        let mut opts2 = CompileOptions::paper_default();
        opts2.mapping = crate::mapping::MappingStrategy::Naive;
        assert_ne!(k, content_key(&desc, &opts2, 7), "options-sensitive");
        let desc2 = zoo::scaled(&zoo::vgg8(3), 8, (16, 16));
        assert_ne!(k, content_key(&desc2, &opts, 7), "network-sensitive");
    }

    #[test]
    fn content_keys_of_zoo_descriptions_are_pinned() {
        // A change to `render_compact`'s bytes, or to what a description
        // or the options serialize, moves every key and strands every
        // cached plan: it must show here, not only in stale entries.
        let opts = CompileOptions::paper_default();
        let vgg8 = zoo::scaled(&zoo::vgg8(10), 16, (16, 16));
        assert_eq!(content_key(&vgg8, &opts, 1), 0x1eff_1143_32f5_616f);
        let yolo = zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64));
        assert_eq!(content_key(&yolo, &opts, 1), 0x1bd6_c5b1_6d91_524f);
    }

    #[test]
    fn warm_hits_skip_recompilation_and_survive_process_restart() {
        let dir = tmp_dir("warm");
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let cache = PlanCache::at(&dir);
        let cold = cache
            .compile_random(&desc, 5, CompileOptions::paper_default())
            .expect("cold compile");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        // Zero recompilation is asserted through the cache's own
        // miss counter: the process-wide `compile_count` is exercised in
        // the doctest and the bench gate, where no concurrent tests
        // compile (the lib test harness runs tests in parallel threads).
        let warm = cache
            .compile_random(&desc, 5, CompileOptions::paper_default())
            .expect("warm deploy");
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 1),
            "warm deploy recompiled"
        );
        assert_eq!(cold.mapping, warm.mapping);
        assert_eq!(cold.serialize_plan(), warm.serialize_plan());

        // A fresh cache on the same directory models a process restart:
        // the deploy is served from disk, still without recompiling.
        let restarted = PlanCache::at(&dir);
        let from_disk = restarted
            .compile_random(&desc, 5, CompileOptions::paper_default())
            .expect("disk deploy");
        assert_eq!(
            (restarted.hits(), restarted.misses()),
            (1, 0),
            "disk hit recompiled"
        );
        assert_eq!(cold.serialize_plan(), from_disk.serialize_plan());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_stale_entries_degrade_to_a_recompile() {
        let dir = tmp_dir("stale");
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let opts = CompileOptions::paper_default();
        let key = content_key(&desc, &opts, 9);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(format!("{key:016x}.json")), "{ corrupt").unwrap();

        let cache = PlanCache::at(&dir);
        let net = cache
            .compile_random(&desc, 9, opts.clone())
            .expect("recompiles past corruption");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // The overwritten entry now serves hits.
        let again = PlanCache::at(&dir);
        again.compile_random(&desc, 9, opts).expect("hit");
        assert_eq!((again.hits(), again.misses()), (1, 0));
        assert!(net.subarrays() > 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
