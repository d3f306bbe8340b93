//! Pins the device-model JSON bytes and the decoder's accept/reject
//! verdicts.
//!
//! `golden/santiago.json` is `presets::santiago().to_json()` exactly as
//! the encoder wrote it when the file was recorded. The plan cache keys
//! on `DeviceModel::fingerprint`, an FNV-1a hash of those bytes, so the
//! fingerprints of every preset are pinned too: a codec change that
//! moved a byte would silently invalidate every cached plan.

use qnat_noise::device::DeviceModel;
use qnat_noise::presets;

const GOLDEN_SANTIAGO: &str = include_str!("golden/santiago.json");

#[test]
fn santiago_json_bytes_match_the_golden_encoding() {
    let santiago = presets::santiago();
    assert_eq!(santiago.to_json(), GOLDEN_SANTIAGO.trim_end());
    let back = DeviceModel::from_json(GOLDEN_SANTIAGO).expect("golden decodes");
    assert_eq!(back.to_json(), santiago.to_json());
}

#[test]
fn preset_fingerprints_are_pinned() {
    let pinned: [(&str, u64); 9] = [
        ("ibmq-santiago", 0xf5c1_7db8_b8b2_2896),
        ("ibmq-athens", 0x60a2_f9e1_3c06_9976),
        ("ibmq-bogota", 0x601b_f5f7_e3e3_ec80),
        ("ibmq-lima", 0x03ef_52ca_c801_d910),
        ("ibmq-quito", 0xad3b_c6cc_7227_4436),
        ("ibmq-belem", 0x0306_d287_e17e_bc98),
        ("ibmq-yorktown", 0x7526_2ae9_b3e0_d64a),
        ("ibmq-melbourne", 0x413a_18db_3541_871d),
        ("noise-free", 0x473d_df0e_e398_5b90),
    ];
    let mut models = presets::all_devices();
    models.push(presets::noise_free(5));
    assert_eq!(models.len(), pinned.len());
    for (model, (name, fingerprint)) in models.iter().zip(pinned) {
        assert_eq!(model.name(), name);
        assert_eq!(model.fingerprint(), fingerprint, "{name}");
    }
}

/// Malformed device documents: each row swaps one field of a valid
/// two-qubit model for the given JSON text and names the verdict.
#[test]
fn malformed_device_documents_keep_their_verdicts() {
    let doc = |field: &str, value: &str| -> String {
        let mut fields = vec![
            ("name", r#""two""#.to_string()),
            ("n_qubits", "2".into()),
            ("quantum_volume", "8".into()),
            ("coupling", "[[0,1]]".into()),
            (
                "sq_errors",
                r#"[{"p_x":0.001,"p_y":0.001,"p_z":0.001},{"p_x":0,"p_y":0,"p_z":0}]"#.into(),
            ),
            (
                "tq_errors",
                r#"[{"a":0,"b":1,"spec":{"p_x":0.01,"p_y":0.01,"p_z":0.01}}]"#.into(),
            ),
            (
                "readout",
                r#"[{"matrix":[[0.98,0.02],[0.03,0.97]]},{"matrix":[[1,0],[0,1]]}]"#.into(),
            ),
            ("amp_damping", "[0.001,0.002]".into()),
            ("phase_damping", "[0.003,0.004]".into()),
            ("tq_duration_factor", "3.5".into()),
        ];
        match fields.iter_mut().find(|(k, _)| *k == field) {
            Some(slot) if value == "<absent>" => {
                let key = slot.0;
                fields.retain(|(k, _)| *k != key);
            }
            Some(slot) => slot.1 = value.to_string(),
            None => panic!("no field {field}"),
        }
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    };
    let table: &[(&str, &str, bool)] = &[
        ("name", r#""two""#, true),
        ("name", "2", false),
        ("name", "null", false),
        ("name", "<absent>", false),
        ("n_qubits", "2.5", false),
        ("n_qubits", "-2", false),
        ("n_qubits", "1e16", false),
        ("n_qubits", "1e300", false),
        ("n_qubits", "\"2\"", false),
        ("n_qubits", "null", false),
        ("n_qubits", "<absent>", false),
        ("quantum_volume", "8.5", false),
        ("quantum_volume", "4294967296", false),
        ("quantum_volume", "4294967295", true),
        ("quantum_volume", "-8", false),
        ("coupling", "[[0,1.5]]", false),
        ("coupling", "[[0,-1]]", false),
        ("coupling", "[[0]]", false),
        ("coupling", "[[0,1,1]]", false),
        ("coupling", "[[0,\"1\"]]", false),
        ("coupling", "[]", true),
        ("coupling", "null", false),
        ("sq_errors", r#"[{"p_x":0.1,"p_y":0,"p_z":0}]"#, false),
        (
            "sq_errors",
            r#"[{"p_x":"0.1","p_y":0,"p_z":0},{"p_x":0,"p_y":0,"p_z":0}]"#,
            false,
        ),
        (
            "sq_errors",
            r#"[{"p_x":0.1,"p_y":0},{"p_x":0,"p_y":0,"p_z":0}]"#,
            false,
        ),
        (
            "sq_errors",
            r#"[{"p_x":0.1,"p_y":0,"p_z":null},{"p_x":0,"p_y":0,"p_z":0}]"#,
            false,
        ),
        (
            "tq_errors",
            r#"[{"a":0,"b":1.5,"spec":{"p_x":0,"p_y":0,"p_z":0}}]"#,
            false,
        ),
        ("tq_errors", r#"[{"a":0,"b":1}]"#, false),
        ("tq_errors", "[]", true),
        (
            "readout",
            r#"[{"matrix":[[1,0],[0,1],[0,1]]},{"matrix":[[1,0],[0,1]]}]"#,
            false,
        ),
        (
            "readout",
            r#"[{"matrix":[[1,0],[0]]},{"matrix":[[1,0],[0,1]]}]"#,
            false,
        ),
        (
            "readout",
            r#"[{"matrix":[[1,0],[0,"1"]]},{"matrix":[[1,0],[0,1]]}]"#,
            false,
        ),
        (
            "readout",
            r#"[{"matrix":[[0.5,0.6],[0,1]]},{"matrix":[[1,0],[0,1]]}]"#,
            false,
        ),
        (
            "readout",
            r#"[{"matrix":null},{"matrix":[[1,0],[0,1]]}]"#,
            false,
        ),
        ("amp_damping", "[0.001,null]", false),
        ("amp_damping", "[0.001]", false),
        ("phase_damping", "{}", false),
        ("tq_duration_factor", "\"3.5\"", false),
        ("tq_duration_factor", "null", false),
        ("tq_duration_factor", "<absent>", false),
    ];
    for &(field, value, ok) in table {
        let text = doc(field, value);
        let verdict = DeviceModel::from_json(&text);
        assert_eq!(verdict.is_ok(), ok, "{field} = {value}: {verdict:?}");
    }
}
