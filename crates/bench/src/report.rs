//! Machine-readable benchmark reports on the shim's JSON tree.
//!
//! The value tree and renderer live in the offline `serde` shim
//! ([`serde::json::Value`], re-exported here as [`Json`]); report structs
//! across the workspace derive `serde::Serialize` and convert with
//! [`serde::Serialize::to_json`]. Object fields keep insertion order, so
//! rendered reports (e.g. `BENCH_engine.json`) are stable byte-for-byte
//! for identical measurements and stay diffable across runs and builds.

/// The JSON value tree benchmark reports are assembled from (the shim's
/// `serde::json::Value` under its pre-port name).
pub use serde::json::Value as Json;

/// Converts any `serde::Serialize` value into a [`Json`] tree.
///
/// # Examples
///
/// ```
/// use yoloc_bench::report::{to_json, Json};
///
/// let spec = yoloc_cim::MacroParams::rom_paper().spec();
/// let doc = to_json(&spec);
/// assert!(matches!(doc, Json::Obj(_)));
/// assert!(doc.render().contains("\"weight_bits\": 8"));
/// ```
pub fn to_json(v: &impl serde::Serialize) -> Json {
    v.to_json()
}

/// The schema of `BENCH_engine.json`: what `bench_engine` writes and
/// checks, and the one schema the block patchers accept.
pub const ENGINE_SCHEMA: &str = "yoloc-bench-engine/8";

/// Replaces the top-level `key` block of the engine report at `path`
/// with `block` (in place, or appended when absent), keeps every other
/// field as it was, writes the file back and returns the patched
/// report.
///
/// # Errors
///
/// Leaves the file untouched and returns an error when it cannot be
/// read, is not a JSON object, or has a `schema` other than
/// [`ENGINE_SCHEMA`]: a report of another version carries fields this
/// one dropped, which no block refresh makes current.
pub fn patch_engine_report(path: &str, key: &str, block: Json) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e} (run bench_engine first)"))?;
    let mut doc = Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(ENGINE_SCHEMA) {
        return Err(format!(
            "{path} has schema {schema:?}, not {ENGINE_SCHEMA:?}: regenerate it with bench_engine"
        ));
    }
    let Json::Obj(fields) = &mut doc else {
        unreachable!("a document with a schema field is an object");
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = block,
        None => fields.push((key.to_string(), block)),
    }
    std::fs::write(path, doc.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[test]
    fn patcher_refuses_other_schemas_and_refreshes_its_own() {
        let path = std::env::temp_dir().join(format!("yoloc-patch-{}.json", std::process::id()));
        let path = path.to_str().expect("temp path is UTF-8");
        let report = |schema: &str| {
            Json::obj([
                ("schema", Json::str(schema)),
                ("worker_sweep", Json::Arr(vec![Json::Num(1.0)])),
                ("plan_cache", Json::Null),
            ])
            .render()
        };
        // A v7 report is refused byte for byte: stamping v8 on it would
        // keep the fields v8 dropped.
        let v7 = report("yoloc-bench-engine/7");
        std::fs::write(path, &v7).unwrap();
        let err = patch_engine_report(path, "plan_cache", Json::Bool(true)).unwrap_err();
        assert!(err.contains("yoloc-bench-engine/7"), "{err}");
        assert_eq!(std::fs::read_to_string(path).unwrap(), v7);
        // A current report gets its block replaced in place.
        std::fs::write(path, report(ENGINE_SCHEMA)).unwrap();
        let doc = patch_engine_report(path, "plan_cache", Json::Bool(true)).unwrap();
        let written = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(written, doc.render());
        let Json::Obj(fields) = doc else {
            panic!("the patched report is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "worker_sweep", "plan_cache"]);
        assert_eq!(fields[2].1, Json::Bool(true));
    }

    #[test]
    fn renders_nested_structure() {
        let doc = Json::obj([
            ("name", Json::str("engine")),
            ("ok", Json::Bool(true)),
            ("samples", Json::Num(16.0)),
            ("rate", Json::Num(2.5)),
            ("runs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = doc.render();
        assert!(text.contains("\"name\": \"engine\""));
        assert!(text.contains("\"samples\": 16,"));
        assert!(text.contains("\"rate\": 2.5,"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let s = Json::str("a\"b\\c\nd").render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn object_keys_are_escaped() {
        let doc = Json::Obj(vec![("a\"b".to_string(), Json::Null)]);
        assert_eq!(doc.render(), "{\n  \"a\\\"b\": null\n}\n");
    }

    #[test]
    fn non_finite_numbers_render_tagged() {
        // A NaN latency or divide-by-zero speedup must stay visible in a
        // rendered report (and decodable through `as_num`), not silently
        // degrade to `null`.
        assert_eq!(Json::Num(f64::NAN).render(), "{\"$f64\": \"NaN\"}\n");
        let back = Json::parse(&Json::Num(f64::INFINITY).render()).unwrap();
        assert_eq!(back.as_num(), Some(f64::INFINITY));
    }

    #[test]
    fn derived_struct_serializes_in_field_order() {
        // MacroSpec derives Serialize; the shim derive must emit fields in
        // declaration order so rendered baselines stay diffable.
        let spec = yoloc_cim::MacroParams::rom_paper().spec();
        let doc = to_json(&spec);
        let Json::Obj(fields) = &doc else {
            panic!("struct must serialize to an object")
        };
        assert_eq!(fields[0].0, "process");
        assert_eq!(fields[0].1, Json::Str("28nm CMOS".into()));
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn derived_enum_serializes_variants() {
        use yoloc_models::{ActKind, LayerSpec};
        // Unit variant -> string.
        assert_eq!(ActKind::Relu.to_json(), Json::Str("Relu".into()));
        // Tuple variant -> {"Variant": value}.
        let act = LayerSpec::Activation(ActKind::Leaky);
        assert_eq!(
            act.to_json(),
            Json::Obj(vec![("Activation".into(), Json::Str("Leaky".into()))])
        );
        // Struct variant -> {"Variant": {fields}}.
        let mp = LayerSpec::MaxPool {
            kernel: 2,
            stride: 2,
        };
        let Json::Obj(outer) = mp.to_json() else {
            panic!("struct variant must serialize to an object")
        };
        assert_eq!(outer[0].0, "MaxPool");
        assert_eq!(
            outer[0].1,
            Json::Obj(vec![
                ("kernel".into(), Json::Num(2.0)),
                ("stride".into(), Json::Num(2.0)),
            ])
        );
    }
}
