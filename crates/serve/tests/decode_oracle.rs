//! Decode oracle: the vendored `serde_json` parser, which copies each run
//! of unescaped string bytes as one slice, must read every `AvfRequest`
//! body — and every damaged copy of one — exactly as the reference
//! one-character-at-a-time parser in `reference/mod.rs` does: the same
//! `Value`, or the same error.

mod reference;

use proptest::prelude::*;
use seqavf_core::mapping::PavfInputs;
use seqavf_serve::api::{AvfRequest, NamedTable};
use serde::{Deserialize, Value};

/// Names drawn from ASCII, two- to four-byte UTF-8, the two characters
/// JSON escapes with a backslash, and control characters the writer
/// turns into `\n`, `\t` and `\u0001`.
const NAME: &str = "[ab_.é→λ😀\"\\\n\t\u{1}]{0,10}";

fn request_strategy() -> impl Strategy<Value = AvfRequest> {
    let table = (
        NAME,
        prop::collection::vec((NAME, 0.0f64..1.0, 0.0f64..1.0), 1..5),
        prop::collection::vec((NAME, 0.0f64..1.0), 0..3),
    )
        .prop_map(|(workload, ports, structures)| {
            let mut inputs = PavfInputs::new();
            for (name, read, write) in ports {
                inputs.set_port(name, read, write);
            }
            for (name, avf) in structures {
                inputs.structure_avfs.insert(name, avf);
            }
            NamedTable { workload, inputs }
        });
    (NAME, prop::collection::vec(table, 1..4)).prop_map(|(design, tables)| AvfRequest {
        design_path: Some(design),
        design_ref: None,
        map_path: None,
        config: None,
        base_inputs: None,
        tables,
        include_nodes: Some(false),
        include_fubs: None,
    })
}

/// Rewrites the non-ASCII characters that `pick`'s bits select as
/// `\uXXXX` escapes, in upper or lower case, and as a surrogate pair past
/// the BMP. JSON's structure is ASCII, so such characters occur only
/// inside strings and the body decodes to the same value.
fn escape_some(body: &str, pick: u64) -> String {
    let mut out = String::with_capacity(body.len());
    let mut k = 0u32;
    for c in body.chars() {
        if c.is_ascii() || pick.rotate_right(k) & 1 == 0 {
            out.push(c);
        } else {
            let upper = pick.rotate_right(k + 32) & 1 == 1;
            for unit in c.encode_utf16(&mut [0u16; 2]) {
                if upper {
                    out.push_str(&format!("\\u{unit:04X}"));
                } else {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
        k += u32::from(!c.is_ascii());
    }
    out
}

/// Applies character-level damage: each `(kind, at)` deletes a
/// character, inserts a quote, a backslash or a lone surrogate escape, or
/// truncates, at character index `at` modulo the current length.
fn mutate(body: &str, edits: &[(u8, u64)]) -> String {
    let mut chars: Vec<char> = body.chars().collect();
    for &(kind, at) in edits {
        let i = (at % (chars.len() as u64 + 1)) as usize;
        match kind {
            0 => {
                if i < chars.len() {
                    chars.remove(i);
                }
            }
            1 => chars.insert(i, '"'),
            2 => chars.insert(i, '\\'),
            3 => chars.truncate(i),
            4 => chars.splice(i..i, "\\ud83d".chars()).for_each(drop),
            _ => chars.splice(i..i, "\\udc00".chars()).for_each(drop),
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_matches_the_reference_parser(
        req in request_strategy(),
        pick in any::<u64>(),
        edits in prop::collection::vec((0u8..6, any::<u64>()), 0..4),
    ) {
        let text = serde_json::to_string(&req).unwrap();
        let body = escape_some(&text, pick);

        // Intact, the body decodes to the request it was written from.
        let value = reference::parse(&body).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&body).unwrap(), value.clone());
        let decoded = AvfRequest::from_value(&value).unwrap();
        prop_assert_eq!(serde_json::to_string(&decoded).unwrap(), text);

        // Damaged, both parsers give the same value or the same error.
        let damaged = mutate(&body, &edits);
        let want = reference::parse(&damaged);
        let got = serde_json::from_str::<Value>(&damaged).map_err(|e| e.to_string());
        prop_assert_eq!(got, want, "{}", damaged);
    }
}
