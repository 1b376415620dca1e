//! The audit-chain record schema and its canonical encoding.
//!
//! Every record in a decision chain is one length-prefixed JSONL line:
//!
//! ```text
//! <len> <json>\n
//! ```
//!
//! where `<len>` is the decimal byte length of `<json>` — a torn or
//! truncated tail line is detected by the prefix alone, before any
//! hashing. The JSON object carries, in fixed field order:
//!
//! * `kind` — `genesis`, `decision`, `transition`, `checkpoint`, or
//!   `seal`;
//! * `seq` — monotonic record index starting at 0 (the genesis);
//! * `t_ns` — monotonic process timestamp of the append;
//! * `prev_hash` — the `record_hash` of the previous record (64 zeros
//!   for the genesis);
//! * the kind-specific payload fields;
//! * `record_hash` — SHA-256 over the *canonical encoding*: the exact
//!   JSON text of all preceding fields (everything up to but excluding
//!   `record_hash` itself).
//!
//! Because [`ObjectWriter`](hvac_telemetry::json::ObjectWriter) writes
//! floats with `{:?}` round-trip precision and our parser reads them
//! back bit-exactly, a verifier can parse a line, rebuild the canonical
//! text from the parsed fields, and recompute the hash — any bit flip
//! in any field (including the metadata) breaks it.

use crate::hash::sha256_hex;
use hvac_telemetry::json::{JsonValue, ObjectWriter};

/// Chain format tag embedded in every genesis record. Bump on any
/// change to the record schema or canonical encoding. v2 added the
/// optional `trace_id` field to decision records; v3 added the
/// `recovery` record kind written when [`crate::AuditChain::recover`]
/// resumes a crashed chain. Older records are encoded byte-identically
/// under every tag (new fields/kinds are additive), so v1 and v2
/// chains still re-hash exactly and verifiers accept all three tags.
pub const CHAIN_FORMAT: &str = "decision_chain v3";

/// The PR 6 format tag: decision records without `trace_id`.
pub const CHAIN_FORMAT_V1: &str = "decision_chain v1";

/// The PR 7 format tag: `trace_id` on decision records, no `recovery`
/// kind.
pub const CHAIN_FORMAT_V2: &str = "decision_chain v2";

/// `prev_hash` of the genesis record: 64 zeros (no predecessor).
pub const GENESIS_PREV_HASH: &str =
    "0000000000000000000000000000000000000000000000000000000000000000";

/// Observation width recorded per decision (mirrors
/// [`hvac_env::POLICY_INPUT_DIM`]).
pub const OBSERVATION_DIM: usize = hvac_env::POLICY_INPUT_DIM;

/// Kind-specific payload of one chain record.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// First record of every chain: binds the chain to the served
    /// policy bytes and (when present) its verification certificate.
    Genesis {
        /// [`CHAIN_FORMAT`].
        format: String,
        /// SHA-256 of the served policy's canonical compact encoding.
        policy_hash: String,
        /// Certificate id of the policy's verification certificate
        /// (empty when serving without one).
        certificate_id: String,
        /// Version of the crate that wrote the chain.
        crate_version: String,
    },
    /// One served decision.
    Decision {
        /// The observation vector the guard was handed (feature order
        /// of `hvac_env::space::feature::NAMES`).
        observation: [f64; OBSERVATION_DIM],
        /// Chosen heating setpoint (°C).
        heating: u64,
        /// Chosen cooling setpoint (°C).
        cooling: u64,
        /// Index of the action in the policy's action space.
        action_index: u64,
        /// Guard rung that produced the action (`normal`, `hold`,
        /// `fallback`, `fail_safe`).
        guard_state: String,
        /// Trace id of the serving request (format v2; `None` when
        /// parsed from a v1 chain, in which case the field is absent
        /// from the canonical text so v1 hashes still verify).
        trace_id: Option<String>,
    },
    /// A guard degradation-ladder transition (PR 4's rungs made
    /// auditable).
    Transition {
        /// Rung before the decision.
        from: String,
        /// Rung after the decision.
        to: String,
    },
    /// Written by [`crate::AuditChain::recover`] when appending
    /// resumes on an existing chain after a crash: attests the exact
    /// verified prefix (its record count and running digest) and how
    /// many torn trailing bytes were truncated to reach it. Format v3.
    Recovery {
        /// Records in the verified prefix (== this record's `seq`).
        prefix_records: u64,
        /// SHA-256 over the newline-joined `record_hash` values of the
        /// verified prefix — the same digest a checkpoint at this seq
        /// would embed.
        prefix_digest: String,
        /// Bytes of torn (partial final record) tail truncated before
        /// resuming. `0` when the file ended on a complete record.
        truncated_bytes: u64,
    },
    /// Periodic running-state snapshot; also the `seal` written on
    /// graceful shutdown.
    Checkpoint {
        /// Records in the chain *before* this one (== this `seq`).
        records: u64,
        /// Decision records so far.
        decisions: u64,
        /// Transition records so far.
        transitions: u64,
        /// SHA-256 over the newline-joined `record_hash` values of
        /// every preceding record.
        digest: String,
    },
}

impl Payload {
    /// The `kind` discriminator string.
    pub fn kind(&self, sealed: bool) -> &'static str {
        match self {
            Payload::Genesis { .. } => "genesis",
            Payload::Decision { .. } => "decision",
            Payload::Transition { .. } => "transition",
            Payload::Recovery { .. } => "recovery",
            Payload::Checkpoint { .. } => {
                if sealed {
                    "seal"
                } else {
                    "checkpoint"
                }
            }
        }
    }
}

/// One fully-formed chain record (hash included).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRecord {
    /// `kind` string as written (distinguishes `checkpoint` from
    /// `seal`, which share the [`Payload::Checkpoint`] shape).
    pub kind: String,
    /// Monotonic record index (genesis = 0).
    pub seq: u64,
    /// Monotonic process timestamp of the append.
    pub t_ns: u64,
    /// `record_hash` of the predecessor.
    pub prev_hash: String,
    /// Kind-specific fields.
    pub payload: Payload,
    /// SHA-256 over the canonical encoding of all other fields.
    pub record_hash: String,
}

impl ChainRecord {
    /// Builds (and hashes) a record from its parts.
    pub fn new(kind: &str, seq: u64, t_ns: u64, prev_hash: String, payload: Payload) -> Self {
        let canonical = canonical_text(kind, seq, t_ns, &prev_hash, &payload);
        let record_hash = sha256_hex(canonical.as_bytes());
        Self {
            kind: kind.to_string(),
            seq,
            t_ns,
            prev_hash,
            payload,
            record_hash,
        }
    }

    /// The canonical encoding this record's hash covers.
    pub fn canonical(&self) -> String {
        canonical_text(
            &self.kind,
            self.seq,
            self.t_ns,
            &self.prev_hash,
            &self.payload,
        )
    }

    /// Recomputes the hash from the canonical encoding and compares.
    pub fn hash_is_consistent(&self) -> bool {
        sha256_hex(self.canonical().as_bytes()) == self.record_hash
    }

    /// The full length-prefixed line, newline included.
    pub fn to_line(&self) -> String {
        line_of(self.canonical(), &self.record_hash)
    }

    /// Parses the JSON part of one chain line (length prefix already
    /// stripped and checked by the caller).
    ///
    /// # Errors
    ///
    /// Returns a static description of the first malformed field. The
    /// record's hash is *not* checked here — call
    /// [`ChainRecord::hash_is_consistent`].
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let str_of = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {name:?}"))
        };
        let u64_of = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {name:?}"))
        };
        let kind = str_of("kind")?;
        let seq = u64_of("seq")?;
        let t_ns = u64_of("t_ns")?;
        let prev_hash = str_of("prev_hash")?;
        let record_hash = str_of("record_hash")?;
        let payload = match kind.as_str() {
            "genesis" => Payload::Genesis {
                format: str_of("format")?,
                policy_hash: str_of("policy_hash")?,
                certificate_id: str_of("certificate_id")?,
                crate_version: str_of("crate_version")?,
            },
            "decision" => {
                let items = v
                    .get("observation")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| "missing or non-array field \"observation\"".to_string())?;
                if items.len() != OBSERVATION_DIM {
                    return Err(format!(
                        "observation has {} entries, expected {OBSERVATION_DIM}",
                        items.len()
                    ));
                }
                let mut observation = [0.0f64; OBSERVATION_DIM];
                for (slot, item) in observation.iter_mut().zip(items) {
                    *slot = item
                        .as_f64()
                        .ok_or_else(|| "non-numeric observation entry".to_string())?;
                }
                Payload::Decision {
                    observation,
                    heating: u64_of("heating")?,
                    cooling: u64_of("cooling")?,
                    action_index: u64_of("action_index")?,
                    guard_state: str_of("guard_state")?,
                    trace_id: v
                        .get("trace_id")
                        .map(|t| {
                            t.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "non-string field \"trace_id\"".to_string())
                        })
                        .transpose()?,
                }
            }
            "transition" => Payload::Transition {
                from: str_of("from")?,
                to: str_of("to")?,
            },
            "recovery" => Payload::Recovery {
                prefix_records: u64_of("prefix_records")?,
                prefix_digest: str_of("prefix_digest")?,
                truncated_bytes: u64_of("truncated_bytes")?,
            },
            "checkpoint" | "seal" => Payload::Checkpoint {
                records: u64_of("records")?,
                decisions: u64_of("decisions")?,
                transitions: u64_of("transitions")?,
                digest: str_of("digest")?,
            },
            other => return Err(format!("unknown record kind {other:?}")),
        };
        Ok(Self {
            kind,
            seq,
            t_ns,
            prev_hash,
            payload,
            record_hash,
        })
    }
}

/// Renders, hashes and frames one record from its parts in a single
/// pass: returns its `record_hash` and its full chain line, the bytes
/// [`ChainRecord::new`]`(..).`[`to_line`](ChainRecord::to_line)`()`
/// would produce, with the canonical text rendered once.
pub(crate) fn encode_record(
    kind: &str,
    seq: u64,
    t_ns: u64,
    prev_hash: &str,
    payload: &Payload,
) -> (String, String) {
    let canonical = canonical_text(kind, seq, t_ns, prev_hash, payload);
    let record_hash = sha256_hex(canonical.as_bytes());
    let line = line_of(canonical, &record_hash);
    (record_hash, line)
}

/// Frames canonical text as a chain line. The JSON is the canonical
/// text with `record_hash` appended as the final field, so the stored
/// bytes and the hashed bytes agree by construction.
fn line_of(mut canonical: String, record_hash: &str) -> String {
    canonical.pop(); // the closing '}'
    canonical.push_str(",\"record_hash\":\"");
    canonical.push_str(record_hash);
    canonical.push_str("\"}");
    format!("{} {canonical}\n", canonical.len())
}

/// The canonical JSON text of a record, `record_hash` excluded.
fn canonical_text(kind: &str, seq: u64, t_ns: u64, prev_hash: &str, payload: &Payload) -> String {
    let mut o = ObjectWriter::new();
    o.str_field("kind", kind);
    o.u64_field("seq", seq);
    o.u64_field("t_ns", t_ns);
    o.str_field("prev_hash", prev_hash);
    match payload {
        Payload::Genesis {
            format,
            policy_hash,
            certificate_id,
            crate_version,
        } => {
            o.str_field("format", format);
            o.str_field("policy_hash", policy_hash);
            o.str_field("certificate_id", certificate_id);
            o.str_field("crate_version", crate_version);
        }
        Payload::Decision {
            observation,
            heating,
            cooling,
            action_index,
            guard_state,
            trace_id,
        } => {
            o.f64_array_field("observation", observation);
            o.u64_field("heating", *heating);
            o.u64_field("cooling", *cooling);
            o.u64_field("action_index", *action_index);
            o.str_field("guard_state", guard_state);
            // Written only when present so v1 chains (no trace ids)
            // re-canonicalise to the exact bytes they were hashed over.
            if let Some(trace_id) = trace_id {
                o.str_field("trace_id", trace_id);
            }
        }
        Payload::Transition { from, to } => {
            o.str_field("from", from);
            o.str_field("to", to);
        }
        Payload::Recovery {
            prefix_records,
            prefix_digest,
            truncated_bytes,
        } => {
            o.u64_field("prefix_records", *prefix_records);
            o.str_field("prefix_digest", prefix_digest);
            o.u64_field("truncated_bytes", *truncated_bytes);
        }
        Payload::Checkpoint {
            records,
            decisions,
            transitions,
            digest,
        } => {
            o.u64_field("records", *records);
            o.u64_field("decisions", *decisions);
            o.u64_field("transitions", *transitions);
            o.str_field("digest", digest);
        }
    }
    o.finish()
}

/// Splits one chain line into its declared length and JSON text.
///
/// # Errors
///
/// Reports a missing prefix, a non-numeric prefix, or a length/byte
/// mismatch (the signature of a torn or bit-flipped line).
pub fn split_line(line: &str) -> Result<&str, String> {
    let (len_text, json) = line
        .split_once(' ')
        .ok_or_else(|| "missing length prefix".to_string())?;
    let declared: usize = len_text
        .parse()
        .map_err(|_| format!("non-numeric length prefix {len_text:?}"))?;
    if declared != json.len() {
        return Err(format!(
            "length prefix says {declared} bytes but line carries {}",
            json.len()
        ));
    }
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvac_telemetry::json::parse;

    fn decision_record() -> ChainRecord {
        ChainRecord::new(
            "decision",
            3,
            1234,
            "ab".repeat(32),
            Payload::Decision {
                observation: [18.5, -3.0, 55.0, 4.5, 120.0, 3.0, 10.25],
                heating: 23,
                cooling: 30,
                action_index: 7,
                guard_state: "normal".into(),
                trace_id: Some("req-00000001".into()),
            },
        )
    }

    #[test]
    fn line_round_trips_and_hash_verifies() {
        let record = decision_record();
        let line = record.to_line();
        assert!(line.ends_with('\n'));
        let json = split_line(line.trim_end_matches('\n')).unwrap();
        let parsed = ChainRecord::from_json(&parse(json).unwrap()).unwrap();
        assert_eq!(parsed, record);
        assert!(parsed.hash_is_consistent());
    }

    #[test]
    fn any_field_change_breaks_the_hash() {
        let record = decision_record();
        let mut tampered = record.clone();
        tampered.seq += 1;
        assert!(!tampered.hash_is_consistent());
        let mut tampered = record.clone();
        tampered.prev_hash = "cd".repeat(32);
        assert!(!tampered.hash_is_consistent());
        let mut tampered = record.clone();
        if let Payload::Decision { observation, .. } = &mut tampered.payload {
            observation[0] += 1e-9;
        }
        assert!(!tampered.hash_is_consistent());
        let mut tampered = record;
        if let Payload::Decision { heating, .. } = &mut tampered.payload {
            *heating = 24;
        }
        assert!(!tampered.hash_is_consistent());
    }

    #[test]
    fn v1_decision_without_trace_id_still_round_trips() {
        // A v1 chain line carries no trace_id; parsing must yield
        // `None` and re-canonicalising must reproduce the hashed bytes.
        let v1 = ChainRecord::new(
            "decision",
            2,
            999,
            "ab".repeat(32),
            Payload::Decision {
                observation: [18.5, -3.0, 55.0, 4.5, 120.0, 3.0, 10.25],
                heating: 21,
                cooling: 26,
                action_index: 1,
                guard_state: "normal".into(),
                trace_id: None,
            },
        );
        assert!(!v1.canonical().contains("trace_id"));
        let line = v1.to_line();
        let parsed =
            ChainRecord::from_json(&parse(split_line(line.trim_end()).unwrap()).unwrap()).unwrap();
        assert_eq!(parsed, v1);
        assert!(parsed.hash_is_consistent());
    }

    #[test]
    fn trace_id_is_hash_covered_in_v2_records() {
        let record = decision_record();
        let mut tampered = record;
        if let Payload::Decision { trace_id, .. } = &mut tampered.payload {
            *trace_id = Some("req-spoofed".into());
        }
        assert!(!tampered.hash_is_consistent());
    }

    #[test]
    fn split_line_rejects_torn_and_tampered_prefixes() {
        assert!(split_line("{\"kind\":\"x\"}").is_err());
        assert!(split_line("zz {\"kind\":\"x\"}").is_err());
        // Truncated tail: prefix says more bytes than present.
        assert!(split_line("99 {\"kind\":\"x\"}").is_err());
        assert!(split_line("12 {\"kind\":\"x\"}").is_ok());
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = [
            ChainRecord::new(
                "genesis",
                0,
                0,
                GENESIS_PREV_HASH.into(),
                Payload::Genesis {
                    format: CHAIN_FORMAT.into(),
                    policy_hash: "aa".repeat(32),
                    certificate_id: String::new(),
                    crate_version: "0.1.0".into(),
                },
            ),
            decision_record(),
            ChainRecord::new(
                "transition",
                4,
                2000,
                "ee".repeat(32),
                Payload::Transition {
                    from: "normal".into(),
                    to: "fallback".into(),
                },
            ),
            ChainRecord::new(
                "recovery",
                5,
                2500,
                "ab".repeat(32),
                Payload::Recovery {
                    prefix_records: 5,
                    prefix_digest: "ee".repeat(32),
                    truncated_bytes: 137,
                },
            ),
            ChainRecord::new(
                "checkpoint",
                5,
                3000,
                "ff".repeat(32),
                Payload::Checkpoint {
                    records: 5,
                    decisions: 3,
                    transitions: 1,
                    digest: "bb".repeat(32),
                },
            ),
            ChainRecord::new(
                "seal",
                6,
                4000,
                "dd".repeat(32),
                Payload::Checkpoint {
                    records: 6,
                    decisions: 3,
                    transitions: 1,
                    digest: "cc".repeat(32),
                },
            ),
        ];
        for record in kinds {
            let json = record.to_line();
            let parsed =
                ChainRecord::from_json(&parse(split_line(json.trim_end()).unwrap()).unwrap())
                    .unwrap();
            assert_eq!(parsed, record);
            assert!(parsed.hash_is_consistent(), "kind {}", record.kind);
        }
    }
}
