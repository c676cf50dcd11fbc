//! Plan-cache corruption suite: damaged on-disk cache entries must
//! degrade to a *clean miss* (recompile + overwrite), never to a
//! silently wrong deployment. JSON survives many single-bit flips as
//! perfectly parseable text, so the cache frames every entry with a
//! checksum line — this suite drives truncation, bit flips, wrong
//! schemas, empty files and stale unframed entries through a real disk
//! cache and checks every one recompiles to the same plan bytes.

use std::fs;
use std::path::PathBuf;

use yoloc::core::compiler::cache::PlanCache;
use yoloc::core::compiler::{CompileOptions, CompiledNetwork};
use yoloc::models::zoo;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "yoloc-cache-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Seeds a cache directory with one valid entry and returns the
/// directory, the entry's path, and the plan bytes it deploys to.
fn seeded_cache(tag: &str) -> (PathBuf, PathBuf, String) {
    let dir = tmp_dir(tag);
    let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
    let cache = PlanCache::at(&dir);
    let net = cache
        .compile_random(&desc, 21, CompileOptions::paper_default())
        .expect("cold compile");
    let entry = fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("one cache entry written");
    (dir, entry, net.serialize_plan())
}

/// Asserts a fresh cache on `dir` treats the (damaged) entry as a miss,
/// recompiles, and ends up serving the original plan again.
fn assert_clean_miss(dir: &PathBuf, expected_plan: &str, what: &str) {
    let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
    let cache = PlanCache::at(dir);
    let net = cache
        .compile_random(&desc, 21, CompileOptions::paper_default())
        .unwrap_or_else(|e| panic!("{what}: deploy must survive damage: {e}"));
    assert_eq!(
        (cache.hits(), cache.misses()),
        (0, 1),
        "{what}: damaged entry must be a miss, not a hit"
    );
    assert_eq!(
        net.serialize_plan(),
        expected_plan,
        "{what}: recompile must restore the exact plan"
    );
    // The overwritten entry is healthy again: next deploy hits.
    let again = PlanCache::at(dir);
    again
        .compile_random(&desc, 21, CompileOptions::paper_default())
        .expect("healed entry");
    assert_eq!(
        (again.hits(), again.misses()),
        (1, 0),
        "{what}: overwritten entry must serve hits"
    );
}

/// FNV-1a 64, the checksum the cache frames entries with.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rewrites the body of a framed entry with `edit` and re-frames it with
/// a *valid* checksum, so only the deserializer can tell it is bad.
fn reframe(entry: &PathBuf, edit: impl FnOnce(&str) -> String) {
    let raw = fs::read_to_string(entry).unwrap();
    let (_, body) = raw.split_once('\n').expect("framed entry");
    let edited = edit(body);
    assert_ne!(edited, body, "mutation must apply");
    fs::write(
        entry,
        format!("{:016x}\n{edited}", fnv1a(edited.as_bytes())),
    )
    .unwrap();
}

/// The byte range of the first weight code's line in a plan body
/// (arrays render one element per line).
fn first_code_line(body: &str) -> std::ops::Range<usize> {
    let open = "\"codes\": [\n";
    let start = body.find(open).expect("plan stores weight codes") + open.len();
    start..start + body[start..].find('\n').expect("code line") + 1
}

#[test]
fn truncated_entry_is_a_clean_miss() {
    let (dir, entry, plan) = seeded_cache("trunc");
    let raw = fs::read_to_string(&entry).unwrap();
    fs::write(&entry, &raw[..raw.len() / 2]).unwrap();
    assert_clean_miss(&dir, &plan, "truncated");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_entries_are_clean_misses() {
    // Flip one bit at several positions spread across the document —
    // including deep in the body where the text stays valid JSON.
    let (dir, entry, plan) = seeded_cache("flip");
    let pristine = fs::read(&entry).unwrap();
    let step = (pristine.len() / 7).max(1);
    for i in 0..7 {
        let pos = (17 + i * step) % pristine.len();
        let mut bytes = pristine.clone();
        bytes[pos] ^= 1 << (i % 8);
        fs::write(&entry, &bytes).unwrap();
        assert_clean_miss(&dir, &plan, &format!("bit flip at byte {pos}"));
        // Restore the damaged file for the next flip (assert_clean_miss
        // heals it, so re-damage from the pristine copy).
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wrong_schema_entry_is_a_clean_miss() {
    let (dir, entry, plan) = seeded_cache("schema");
    // Re-framed with a valid checksum: schema rejection must work even
    // when the bytes are intact (a genuinely stale format, not damage).
    reframe(&entry, |body| body.replace("yoloc-plan/2", "yoloc-plan/99"));
    assert_clean_miss(&dir, &plan, "wrong schema");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hostile_weight_codes_are_clean_misses() {
    // Checksum-valid entries whose codes the ROM programmer cannot
    // store: one code out of the signed 8-bit range, and a matrix one
    // code short. Deserialization must reject both as a miss instead of
    // panicking while it programs the subarrays.
    let (dir, entry, plan) = seeded_cache("codes");
    reframe(&entry, |body| {
        let line = first_code_line(body);
        let code = body[line.clone()].trim().trim_end_matches(',');
        let rest = body[line.start..].replacen(code, "999", 1);
        format!("{}{rest}", &body[..line.start])
    });
    assert_clean_miss(&dir, &plan, "code out of range");
    reframe(&entry, |body| {
        let line = first_code_line(body);
        format!("{}{}", &body[..line.start], &body[line.end..])
    });
    assert_clean_miss(&dir, &plan, "one code short");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_garbage_entries_are_clean_misses() {
    let (dir, entry, plan) = seeded_cache("empty");
    fs::write(&entry, "").unwrap();
    assert_clean_miss(&dir, &plan, "empty file");
    fs::write(&entry, b"\x00\xff\x00garbage\n\n{{{").unwrap();
    assert_clean_miss(&dir, &plan, "binary garbage");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unframed_legacy_entry_is_a_clean_miss() {
    // A pre-checksum cache file is the bare document with no checksum
    // line — the frame decoder must invalidate it rather than trust it.
    let (dir, entry, plan) = seeded_cache("legacy");
    let raw = fs::read_to_string(&entry).unwrap();
    let (_, body) = raw.split_once('\n').expect("framed entry");
    let body = body.to_string();
    fs::write(&entry, body).unwrap();
    assert_clean_miss(&dir, &plan, "unframed legacy entry");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deserializer_rejects_what_the_checksum_cannot_see() {
    // Defense in depth: hand the deserializer a checksum-valid document
    // with an internally inconsistent shape; it must error, not build a
    // broken network.
    let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
    let net = CompiledNetwork::compile_random(&desc, 21, CompileOptions::paper_default())
        .expect("compiles");
    let text = net.serialize_plan();
    let bad = text.replace("\"n_chips\": 1", "\"n_chips\": \"one\"");
    assert_ne!(text, bad, "mutation must apply");
    assert!(CompiledNetwork::deserialize_plan(&bad).is_err());
}
