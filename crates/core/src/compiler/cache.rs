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
//! * **Store** — a directory of `<key-hex16>.json` plan documents
//!   (`target/plan-cache/` by default, `YOLOC_PLAN_CACHE_DIR`
//!   overrides), and nothing else: the cache holds no plan text, so
//!   every hit, in this process or another, reads, checksums, parses and
//!   programs its entry.
//! * **Checksum** — an entry's first line is the [`fnv1a`] of its
//!   document as 16 lowercase hex digits, and a hit needs exactly that
//!   line. A rendered document is mostly indentation; [`fnv1a`]
//!   crosses it eight blanks per multiply-add and still returns
//!   FNV-1a's output, so lines the byte-serial loop wrote stay valid.
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

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::json::Value as Json;
use serde::Serialize;

use super::{CompileOptions, CompiledNetwork};
use yoloc_models::{NetworkDesc, NetworkError};

/// Schema tag mixed into the content hash (bumped together with the
/// plan schema so key-space generations never alias).
const KEY_SCHEMA: &str = "yoloc-plan-key/1";

/// FNV-1a 64's offset basis, the state before any byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64's prime `P`.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step: XOR `byte` into the low 8 bits, multiply by `P`.
const fn fnv1a_step(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// `P^8`, the multiplier of eight steps.
const BLANKS_MUL: u64 = FNV_PRIME.wrapping_pow(8);

/// `BLANKS_ADD[l]`: the state eight steps over blanks take `l` to, minus
/// `P^8·l`; see [`fnv1a`].
static BLANKS_ADD: [u64; 256] = {
    let mut add = [0u64; 256];
    let mut low = 0;
    while low < 256 {
        let mut hash = low as u64;
        let mut i = 0;
        while i < 8 {
            hash = fnv1a_step(hash, b' ');
            i += 1;
        }
        add[low] = hash.wrapping_sub(BLANKS_MUL.wrapping_mul(low as u64));
        low += 1;
    }
    add
};

/// 64-bit FNV-1a over `bytes` — small, dependency-free, and stable
/// across runs/processes/hosts (unlike `std`'s randomized hasher),
/// which is what an on-disk cache key needs.
///
/// The output is FNV-1a's, byte for byte, but a word of eight blanks
/// costs one multiply-add instead of eight steps. A step XORs a byte
/// into the low 8 bits of the state `h` and multiplies by the prime
/// `P`, and the low 8 bits of a product depend only on the low 8 bits of
/// its factors. So after any fixed string `s` the state is
/// `h·P^|s| + c_s(h mod 256)` (mod 2^64), and for eight blanks that is
/// `h·P^8 + T[h mod 256]`: entry `l` of the 256-entry table `T` is the
/// byte loop's state after eight blanks from state `l`, minus `P^8·l`,
/// computed at compile time. Most of a rendered plan document is
/// indentation, so most of its bytes go eight at a time; every other
/// byte takes one step.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut rest = bytes;
    while let Some((&byte, tail)) = rest.split_first() {
        // An array compare is one 8-byte compare; a `b"        "`
        // pattern compiled to eight byte compares and made the whole
        // checksum about 1.3x slower.
        match rest.split_first_chunk::<8>() {
            Some((word, after)) if *word == [b' '; 8] => {
                hash = hash
                    .wrapping_mul(BLANKS_MUL)
                    .wrapping_add(BLANKS_ADD[(hash & 0xff) as usize]);
                rest = after;
            }
            _ => {
                hash = fnv1a_step(hash, byte);
                rest = tail;
            }
        }
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

/// An on-disk cache of serialized compiled plans, keyed by
/// [`content_key`].
///
/// # Examples
///
/// ```
/// use yoloc_core::compiler::{cache::PlanCache, compile_count, CompileOptions};
/// use yoloc_models::zoo;
///
/// let dir = std::env::temp_dir().join(format!("yoloc-plan-cache-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let cache = PlanCache::at(&dir);
/// let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
/// let a = cache.compile_random(&desc, 7, CompileOptions::paper_default())?;
/// let before = compile_count();
/// let b = cache.compile_random(&desc, 7, CompileOptions::paper_default())?;
/// assert_eq!(compile_count(), before, "warm deploy must not recompile");
/// assert_eq!(a.mapping, b.mapping);
/// # let _ = std::fs::remove_dir_all(&dir);
/// # Ok::<(), yoloc_models::NetworkError>(())
/// ```
#[derive(Debug)]
pub struct PlanCache {
    /// Directory of `<key-hex16>.json` entries, created on the first
    /// store.
    dir: PathBuf,
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
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cache hits served so far, each one read from disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses (each one a full compile) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// The checksum line of a plan document, newline excluded: its
    /// FNV-1a as 16 lowercase hex digits, the one spelling an entry is
    /// written and accepted in.
    fn checksum_line(text: &str) -> String {
        format!("{:016x}", fnv1a(text.as_bytes()))
    }

    /// Writes a plan document to disk behind its checksum line. JSON
    /// parses most single-bit flips just fine (a digit in a weight code,
    /// a letter in a name), so schema validation alone cannot tell
    /// "corrupt" from "stale" — the checksum makes any byte damage,
    /// including truncation, a clean miss instead of a silently wrong
    /// deployment.
    fn write_entry(path: &Path, text: &str) -> std::io::Result<()> {
        let mut file = fs::File::create(path)?;
        file.write_all(format!("{}\n", Self::checksum_line(text)).as_bytes())?;
        file.write_all(text.as_bytes())
    }

    /// Validates and strips the checksum frame; `None` on any damage
    /// (missing header, a checksum line other than the one
    /// [`Self::write_entry`] writes, checksum mismatch — which also
    /// covers files from the pre-checksum cache format, invalidating
    /// them).
    fn decode_entry(raw: &str) -> Option<&str> {
        let (head, body) = raw.split_once('\n')?;
        (head == Self::checksum_line(body)).then_some(body)
    }

    /// Deploys `desc` through the cache: a hit reads, checksums and
    /// deserializes the stored plan (zero recompilation — bit-identical
    /// execution to a fresh compile, gated by the round-trip suite); a
    /// miss compiles via [`CompiledNetwork::compile_random`] and stores
    /// the plan on disk. Stale or corrupt entries — e.g. a schema bump —
    /// degrade to a miss and are overwritten.
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
        let path = self.entry_path(content_key(desc, &opts, seed));
        if let Ok(raw) = fs::read_to_string(&path) {
            let hit = Self::decode_entry(&raw)
                .and_then(|text| CompiledNetwork::deserialize_plan(text).ok());
            if let Some(net) = hit {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(net);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let net = CompiledNetwork::compile_random(desc, seed, opts)?;
        // Best-effort: an unwritable cache directory must never fail a
        // deploy (the plan is already compiled in hand).
        let _ = fs::create_dir_all(&self.dir);
        let _ = Self::write_entry(&path, &net.serialize_plan());
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use yoloc_models::zoo;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("yoloc-plan-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// FNV-1a 64 one byte per step, written apart from [`fnv1a`]'s
    /// constants: the definition it must reproduce.
    fn fnv1a_bytewise(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    fn non_blank(rng: &mut StdRng) -> u8 {
        loop {
            let b = rng.gen_range(0..=u8::MAX);
            if b != b' ' {
                return b;
            }
        }
    }

    #[test]
    fn fnv1a_jumps_blank_words_to_the_byte_loops_state() {
        // The published FNV-1a 64 vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);

        // A blank run of 0..=40 from a state of every low byte, under
        // seeded high bits (a non-blank prefix per low byte), then one
        // non-blank byte: every table entry, every tail shorter than 8.
        let mut rng = StdRng::seed_from_u64(30);
        let mut prefixes = vec![None; 256];
        while prefixes.iter().any(Option::is_none) {
            let prefix: Vec<u8> = (0..8).map(|_| non_blank(&mut rng)).collect();
            prefixes[(fnv1a_bytewise(&prefix) & 0xff) as usize].get_or_insert(prefix);
        }
        for prefix in prefixes.into_iter().flatten() {
            for run in 0..=40 {
                let mut bytes = prefix.clone();
                bytes.resize(prefix.len() + run, b' ');
                bytes.push(non_blank(&mut rng));
                assert_eq!(fnv1a(&bytes), fnv1a_bytewise(&bytes), "{bytes:?}");
            }
        }

        // Seeded strings of blank runs and other bytes; `seen` records
        // each maximal run by its start offset and its length, mod 8.
        let mut seen = [[false; 8]; 8];
        for len in 0..=300 {
            for _ in 0..4 {
                let mut bytes = Vec::with_capacity(len);
                while bytes.len() < len {
                    if rng.gen_bool(0.5) {
                        bytes.resize(bytes.len() + rng.gen_range(1..=20), b' ');
                    } else {
                        bytes.push(non_blank(&mut rng));
                    }
                }
                bytes.truncate(len);
                assert_eq!(fnv1a(&bytes), fnv1a_bytewise(&bytes), "{bytes:?}");
                let mut at = 0;
                while at < len {
                    let run = bytes[at..].iter().take_while(|&&b| b == b' ').count();
                    seen[at % 8][run % 8] |= run > 0;
                    at += run.max(1);
                }
            }
        }
        assert_eq!(seen, [[true; 8]; 8], "runs at every offset and tail");
    }

    #[test]
    fn only_the_written_spelling_of_a_checksum_decodes() {
        // `u64::from_str_radix` also reads a leading `+` and uppercase
        // digits. A body whose checksum has a zero top nibble lets `+`
        // and 15 digits fill the line's 16 places.
        let body = (0..)
            .map(|i| format!("{{\"n\": {i}}}\n"))
            .find(|b| {
                let sum = fnv1a(b.as_bytes());
                sum >> 60 == 0 && format!("{sum:x}").contains(|c: char| c.is_ascii_lowercase())
            })
            .expect("one checksum in 16 has a zero top nibble");
        let sum = fnv1a(body.as_bytes());
        let entry = |head: &str| format!("{head}\n{body}");
        assert_eq!(
            PlanCache::decode_entry(&entry(&format!("{sum:016x}"))),
            Some(body.as_str())
        );
        for head in [format!("+{sum:015x}"), format!("{sum:016X}")] {
            assert_eq!(u64::from_str_radix(&head, 16), Ok(sum), "{head}");
            assert_eq!(PlanCache::decode_entry(&entry(&head)), None, "{head}");
        }
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
    fn the_directory_is_the_only_store() {
        // With its entry file gone, a deploy through the cache that
        // stored it finds nothing to serve and compiles again.
        let dir = tmp_dir("only");
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let opts = CompileOptions::paper_default();
        let cache = PlanCache::at(&dir);
        cache
            .compile_random(&desc, 11, opts.clone())
            .expect("cold compile");
        let key = content_key(&desc, &opts, 11);
        fs::remove_file(dir.join(format!("{key:016x}.json"))).expect("the miss stored an entry");
        cache
            .compile_random(&desc, 11, opts)
            .expect("recompiles without its entry");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
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
