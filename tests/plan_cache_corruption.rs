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
use yoloc::models::{zoo, NetworkDesc};

/// The feed-forward graph most cases seed their cache with.
fn vgg() -> NetworkDesc {
    zoo::scaled(&zoo::vgg8(3), 16, (16, 16))
}

/// A graph whose plan reads side sources: projected `ResidualAdd`s and
/// fused `Residual` epilogues.
fn resnet() -> NetworkDesc {
    zoo::scaled(&zoo::resnet18(3), 16, (32, 32))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "yoloc-cache-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Seeds a cache directory with one valid entry of `desc` and returns
/// the directory, the entry's path, and the plan bytes it deploys to.
fn seeded_cache(tag: &str, desc: &NetworkDesc) -> (PathBuf, PathBuf, String) {
    let dir = tmp_dir(tag);
    let cache = PlanCache::at(&dir);
    let net = cache
        .compile_random(desc, 21, CompileOptions::paper_default())
        .expect("cold compile");
    let entry = fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("one cache entry written");
    (dir, entry, net.serialize_plan())
}

/// Asserts a fresh cache on `dir` treats the (damaged) entry of `desc`
/// as a miss, recompiles, and ends up serving the original plan again.
fn assert_clean_miss(dir: &PathBuf, desc: &NetworkDesc, expected_plan: &str, what: &str) {
    let cache = PlanCache::at(dir);
    let net = cache
        .compile_random(desc, 21, CompileOptions::paper_default())
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
        .compile_random(desc, 21, CompileOptions::paper_default())
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
    let (dir, entry, plan) = seeded_cache("trunc", &vgg());
    let raw = fs::read_to_string(&entry).unwrap();
    fs::write(&entry, &raw[..raw.len() / 2]).unwrap();
    assert_clean_miss(&dir, &vgg(), &plan, "truncated");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_entries_are_clean_misses() {
    // Flip one bit at several positions spread across the document —
    // including deep in the body where the text stays valid JSON.
    let (dir, entry, plan) = seeded_cache("flip", &vgg());
    let pristine = fs::read(&entry).unwrap();
    let step = (pristine.len() / 7).max(1);
    for i in 0..7 {
        let pos = (17 + i * step) % pristine.len();
        let mut bytes = pristine.clone();
        bytes[pos] ^= 1 << (i % 8);
        fs::write(&entry, &bytes).unwrap();
        assert_clean_miss(&dir, &vgg(), &plan, &format!("bit flip at byte {pos}"));
        // Restore the damaged file for the next flip (assert_clean_miss
        // heals it, so re-damage from the pristine copy).
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wrong_schema_entry_is_a_clean_miss() {
    let (dir, entry, plan) = seeded_cache("schema", &vgg());
    // Re-framed with a valid checksum: schema rejection must work even
    // when the bytes are intact (a genuinely stale format, not damage).
    reframe(&entry, |body| body.replace("yoloc-plan/2", "yoloc-plan/99"));
    assert_clean_miss(&dir, &vgg(), &plan, "wrong schema");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hostile_weight_codes_are_clean_misses() {
    // Checksum-valid entries whose codes the ROM programmer cannot
    // store: one code out of the signed 8-bit range, and a matrix one
    // code short. Deserialization must reject both as a miss instead of
    // panicking while it programs the subarrays.
    let (dir, entry, plan) = seeded_cache("codes", &vgg());
    reframe(&entry, |body| {
        let line = first_code_line(body);
        let code = body[line.clone()].trim().trim_end_matches(',');
        let rest = body[line.start..].replacen(code, "999", 1);
        format!("{}{rest}", &body[..line.start])
    });
    assert_clean_miss(&dir, &vgg(), &plan, "code out of range");
    reframe(&entry, |body| {
        let line = first_code_line(body);
        format!("{}{}", &body[..line.start], &body[line.end..])
    });
    assert_clean_miss(&dir, &vgg(), &plan, "one code short");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn removed_backend_kind_is_a_clean_miss() {
    // Entries written while `BackendKind` still had a `Software` variant
    // may name it. The checksum holds, so only the deserializer can turn
    // such an entry away: it must recompile, not load.
    let (dir, entry, plan) = seeded_cache("kind", &vgg());
    let software =
        |body: &str| body.replacen("\"kind\": \"Popcount\"", "\"kind\": \"Software\"", 1);
    let raw = fs::read_to_string(&entry).unwrap();
    let (_, body) = raw.split_once('\n').expect("framed entry");
    match CompiledNetwork::deserialize_plan(&software(body)) {
        Ok(_) => panic!("a plan naming the removed Software kind loaded"),
        Err(e) => assert!(e.contains("unknown variant \"Software\""), "{e:?}"),
    }
    reframe(&entry, software);
    assert_clean_miss(&dir, &vgg(), &plan, "removed Software kind");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_garbage_entries_are_clean_misses() {
    let (dir, entry, plan) = seeded_cache("empty", &vgg());
    fs::write(&entry, "").unwrap();
    assert_clean_miss(&dir, &vgg(), &plan, "empty file");
    fs::write(&entry, b"\x00\xff\x00garbage\n\n{{{").unwrap();
    assert_clean_miss(&dir, &vgg(), &plan, "binary garbage");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unframed_legacy_entry_is_a_clean_miss() {
    // A pre-checksum cache file is the bare document with no checksum
    // line — the frame decoder must invalidate it rather than trust it.
    let (dir, entry, plan) = seeded_cache("legacy", &vgg());
    let raw = fs::read_to_string(&entry).unwrap();
    let (_, body) = raw.split_once('\n').expect("framed entry");
    let body = body.to_string();
    fs::write(&entry, body).unwrap();
    assert_clean_miss(&dir, &vgg(), &plan, "unframed legacy entry");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deserializer_rejects_what_the_checksum_cannot_see() {
    // Defense in depth: hand the deserializer a checksum-valid document
    // with an internally inconsistent shape; it must error, not build a
    // broken network.
    let net = CompiledNetwork::compile_random(&vgg(), 21, CompileOptions::paper_default())
        .expect("compiles");
    let text = net.serialize_plan();
    let bad = text.replace("\"n_chips\": 1", "\"n_chips\": \"one\"");
    assert_ne!(text, bad, "mutation must apply");
    assert!(CompiledNetwork::deserialize_plan(&bad).is_err());
}

/// Removes the first element line of the first array named `key` (the
/// last such array when `last` is set); arrays render one element per
/// line.
fn drop_element(body: &str, key: &str, last: bool) -> String {
    let open = format!("\"{key}\": [\n");
    let at = if last {
        body.rfind(&open)
    } else {
        body.find(&open)
    };
    let start = at.expect("array present") + open.len();
    let end = start + body[start..].find('\n').expect("element line") + 1;
    format!("{}{}", &body[..start], &body[end..])
}

/// Sets the value of the first field named `key` (the last one when
/// `last` is set) to `value`.
fn set_field(body: &str, key: &str, value: &str, last: bool) -> String {
    let name = format!("\"{key}\": ");
    let at = if last {
        body.rfind(&name)
    } else {
        body.find(&name)
    };
    let start = at.expect("field present") + name.len();
    let end = start + body[start..].find([',', '\n']).expect("value end");
    format!("{}{value}{}", &body[..start], &body[end..])
}

/// A named checksum-valid edit of a plan body, and a word the load
/// error it causes must contain.
type Edit = (&'static str, fn(&str) -> String, &'static str);

/// Edits of the digital dequantization state of vgg8's first conv (and,
/// through `last`, of its classifier).
fn hostile_dequant_edits() -> Vec<Edit> {
    vec![
        (
            "channel_scales one short",
            |b| drop_element(b, "channel_scales", false),
            "channel_scales",
        ),
        (
            "row_sums one short",
            |b| drop_element(b, "row_sums", false),
            "row_sums",
        ),
        (
            "out_channels off the program",
            |b| set_field(b, "out_channels", "7", false),
            "out_channels",
        ),
        (
            "patch off the program's ins",
            |b| set_field(b, "kernel", "1", false),
            "geom",
        ),
        ("stride 0", |b| set_field(b, "stride", "0", false), "stride"),
        (
            "act bits 40",
            |b| set_field(b, "bits", "40", false),
            "bits 40",
        ),
        ("act bits 0", |b| set_field(b, "bits", "0", false), "bits 0"),
        (
            "act bits wider than the engine",
            |b| set_field(b, "bits", "16", false),
            "unsigned 8-bit",
        ),
        (
            "act scale 0",
            |b| set_field(b, "scale", "0.0", false),
            "scale",
        ),
        (
            "act scale < 0",
            |b| set_field(b, "scale", "-1.5", false),
            "scale",
        ),
        (
            "zero point above qmax",
            |b| set_field(b, "zero_point", "256", false),
            "zero_point",
        ),
        (
            "zero point below qmin",
            |b| set_field(b, "zero_point", "-1", false),
            "zero_point",
        ),
        (
            "classifier bias one short",
            |b| drop_element(b, "bias", true),
            "bias",
        ),
        (
            "classifier outs off the program",
            |b| set_field(b, "outs", "2", true),
            "layer for a",
        ),
        (
            "classifier ins off the program",
            |b| set_field(b, "ins", "31", true),
            "layer for a",
        ),
        (
            "classifier channel_scales one short",
            |b| drop_element(b, "channel_scales", true),
            "channel_scales",
        ),
        (
            "classifier zero point above qmax",
            |b| set_field(b, "zero_point", "300", true),
            "zero_point",
        ),
    ]
}

#[test]
fn deserializer_rejects_hostile_dequant_state() {
    // Each of these used to load `Ok` and then panic at inference (a
    // short table indexes out of bounds; a 40-bit width overflows a
    // shift) or quantize with unusable parameters.
    let net = CompiledNetwork::compile_random(&vgg(), 21, CompileOptions::paper_default())
        .expect("compiles");
    let text = net.serialize_plan();
    assert!(CompiledNetwork::deserialize_plan(&text).is_ok());
    for (what, edit, word) in hostile_dequant_edits() {
        let bad = edit(&text);
        assert_ne!(bad, text, "{what}: mutation must apply");
        match CompiledNetwork::deserialize_plan(&bad) {
            Ok(_) => panic!("{what}: hostile plan loaded"),
            Err(e) => assert!(e.contains(word), "{what}: error {e:?} should name {word:?}"),
        }
    }
}

#[test]
fn hostile_dequant_state_is_a_clean_miss() {
    let (dir, entry, plan) = seeded_cache("dequant", &vgg());
    for (what, edit, _) in hostile_dequant_edits() {
        reframe(&entry, edit);
        assert_clean_miss(&dir, &vgg(), &plan, what);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Sets field `key` of the first layer's programming record (its
/// `params`, `outs`, `ins`, ...) to `value`.
fn set_program_field(body: &str, key: &str, value: &str) -> String {
    let at = body.find("\"program\": {").expect("a programmed layer");
    let (head, record) = body.split_at(at);
    format!("{head}{}", set_field(record, key, value, false))
}

/// Sets the first element of the first array named `key` to `value`.
fn set_first_element(body: &str, key: &str, value: &str) -> String {
    let open = format!("\"{key}\": [\n");
    let line = body.find(&open).expect("array present") + open.len();
    let start = line + body[line..].find(|c: char| c != ' ').expect("element");
    let end = start + body[start..].find([',', '\n']).expect("element end");
    format!("{}{value}{}", &body[..start], &body[end..])
}

/// Checksum-valid edits that break a width bound the batch path relies
/// on: codes that fit a `u8`, accumulators (and `zero_point * row_sum`)
/// that fit an `i32`.
fn hostile_width_edits() -> Vec<Edit> {
    vec![
        (
            "9-bit activation codes",
            |b| set_program_field(b, "act_bits", "9"),
            "9-bit activation codes do not fit u8",
        ),
        (
            "ins one past the i32 accumulator bound",
            |b| set_program_field(b, "ins", "65794"),
            "accumulators of 65794 inputs",
        ),
        (
            "row_sums off the codes",
            |b| set_first_element(b, "row_sums", "12345"),
            "row_sums: output 0 stores 12345",
        ),
    ]
}

#[test]
fn deserializer_rejects_hostile_widths() {
    let net = CompiledNetwork::compile_random(&vgg(), 21, CompileOptions::paper_default())
        .expect("compiles");
    let text = net.serialize_plan();
    for (what, edit, word) in hostile_width_edits() {
        let bad = edit(&text);
        assert_ne!(bad, text, "{what}: mutation must apply");
        match CompiledNetwork::deserialize_plan(&bad) {
            Ok(_) => panic!("{what}: hostile plan loaded"),
            Err(e) => assert!(e.contains(word), "{what}: error {e:?} should name {word:?}"),
        }
    }
}

#[test]
fn hostile_widths_are_clean_misses() {
    let (dir, entry, plan) = seeded_cache("widths", &vgg());
    for (what, edit, _) in hostile_width_edits() {
        reframe(&entry, edit);
        assert_clean_miss(&dir, &vgg(), &plan, what);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Points the first side source after `anchor` — a `"ResidualAdd"`, a
/// `"Passthrough"` or a fused `"Residual"` epilogue — at op `to`.
fn set_source(body: &str, anchor: &str, to: usize) -> String {
    let at = body
        .find(&format!("\"{anchor}\": {{"))
        .expect("source-reading op present");
    let key = "\"Op\": ";
    let start = at + body[at..].find(key).expect("op source") + key.len();
    let end = start + body[start..].find('\n').expect("index end");
    format!("{}{to}{}", &body[..start], &body[end..])
}

/// Op indices no side source may take in an `ops`-op plan: the last op,
/// which follows every reader but itself, and two past the end.
fn forward_targets(ops: usize) -> [usize; 3] {
    [ops - 1, ops + 15, 1_000_000]
}

/// The first `ResidualAdd` of `net`'s plan, as `(reader, recycled)`: its
/// op index (the first source the deserializer calls non-preceding) and
/// the earlier ops it may not read either, because the buffer plan hands
/// their slot to an op up to and including the reader before the read.
fn recycled_sources(net: &CompiledNetwork) -> (usize, Vec<usize>) {
    let text = net.serialize_plan();
    let slots = &net.plan().buffer_plan().expect("planned arena").slot_of_op;
    let reader = (0..slots.len())
        .find(|&j| {
            let loaded = CompiledNetwork::deserialize_plan(&set_source(&text, "ResidualAdd", j));
            matches!(loaded, Err(e) if e.contains("does not precede"))
        })
        .expect("an op cannot read itself");
    let recycled: Vec<usize> = (0..reader)
        .filter(|&j| slots[j + 1..=reader].contains(&slots[j]))
        .collect();
    // The reader's own output slot is among them: the arena's aliasing
    // assert, not only a silent read of another op's data.
    assert!(recycled.iter().any(|&j| slots[j] == slots[reader]));
    (reader, recycled)
}

#[test]
fn deserializer_rejects_forward_op_sources() {
    // Each of these used to load `Ok`; inference then indexed past the
    // buffer plan or tripped the arena's slot-aliasing assert.
    let yolo = zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64));
    for (desc, anchor) in [
        (resnet(), "ResidualAdd"),
        (resnet(), "Residual"),
        (yolo, "Passthrough"),
    ] {
        let net = CompiledNetwork::compile_random(&desc, 21, CompileOptions::paper_default())
            .expect("compiles");
        let text = net.serialize_plan();
        for to in forward_targets(net.plan().len()) {
            let bad = set_source(&text, anchor, to);
            assert_ne!(bad, text, "{anchor} -> {to}: mutation must apply");
            match CompiledNetwork::deserialize_plan(&bad) {
                Ok(_) => panic!("{} {anchor} -> op {to}: hostile plan loaded", desc.name),
                Err(e) => assert!(e.contains("does not precede"), "{anchor} -> {to}: {e:?}"),
            }
        }
    }
    // Nor may a source name an earlier op whose slot the buffer plan has
    // handed on: these loaded too, then tripped the same assert or read
    // whichever op had overwritten the slot.
    let net = CompiledNetwork::compile_random(&resnet(), 21, CompileOptions::paper_default())
        .expect("compiles");
    let text = net.serialize_plan();
    let (reader, recycled) = recycled_sources(&net);
    for j in 0..reader {
        match CompiledNetwork::deserialize_plan(&set_source(&text, "ResidualAdd", j)) {
            Ok(_) => assert!(
                !recycled.contains(&j),
                "op {reader} -> recycled op {j} loaded"
            ),
            Err(e) => assert!(
                recycled.contains(&j) && e.contains("overwrites"),
                "op {reader} -> op {j}: {e:?}"
            ),
        }
    }
}

#[test]
fn forward_op_sources_are_clean_misses() {
    let desc = resnet();
    let (dir, entry, plan) = seeded_cache("sources", &desc);
    let net = CompiledNetwork::deserialize_plan(&plan).expect("pristine plan loads");
    for anchor in ["ResidualAdd", "Residual"] {
        for to in forward_targets(net.plan().len()) {
            reframe(&entry, |body| set_source(body, anchor, to));
            assert_clean_miss(&dir, &desc, &plan, &format!("{anchor} -> op {to}"));
        }
    }
    for to in recycled_sources(&net).1 {
        reframe(&entry, |body| set_source(body, "ResidualAdd", to));
        assert_clean_miss(
            &dir,
            &desc,
            &plan,
            &format!("ResidualAdd -> recycled op {to}"),
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
