//! The codec is its own inverse over the whole value space, not just the
//! documented examples: for every `Request` and `Response` variant with
//! arbitrary field values, `decode(encode(x)) == x` and the encoding is
//! a fixed point of `encode ∘ decode`. `protocol_docs` pins the bytes of
//! one example per message; this pins the field tables behind them.
//!
//! A decoded spectrum then enters through `QuerySpectrum::to_spectrum`,
//! which must accept and refuse exactly what `Spectrum::try_new` and the
//! MGF reader do, non-finite and overflowing values included.

use hdoms_engine::ShardTiming;
use hdoms_ms::mgf::read_mgf;
use hdoms_ms::spectrum::{Peak, Spectrum, SpectrumOrigin};
use hdoms_oms::psm::{Psm, PsmTableRow};
use hdoms_prefilter::PrefilterConfig;
use hdoms_serve::protocol::{
    BatchStats, ErrorCode, HistogramSummary, IndexSummary, MetricsReport, QueryRequest,
    QueryResult, QuerySpectrum, Request, Response, ServerStats, SubmitReceipt, WindowKind,
};
use hdoms_serve::scheduler::{Tier, TierStats};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;

/// Largest integer the wire carries exactly (2^53).
const MAX_EXACT: u64 = 1 << 53;

fn draw<S: Strategy>(strategy: S, rng: &mut TestRng) -> S::Value {
    strategy.generate(rng)
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[draw(0..from.len(), rng)]
}

/// Strings over every escape class: the two escaped punctuation marks,
/// the three named controls, other C0 controls, DEL, plain ASCII, and
/// two-, three- and four-byte (astral) code points.
fn text(rng: &mut TestRng) -> String {
    const CLASSES: [char; 14] = [
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'a', ' ', 'é', '→', '😀',
    ];
    (0..draw(0usize..12, rng))
        .map(|_| pick(rng, &CLASSES))
        .collect()
}

/// Integers over `0..=2^53`, the edges over-represented.
fn int(rng: &mut TestRng) -> u64 {
    match draw(0u8..4, rng) {
        0 => pick(
            rng,
            &[0, 1, 255, u64::from(u32::MAX), MAX_EXACT - 1, MAX_EXACT],
        ),
        _ => draw(0..=MAX_EXACT, rng),
    }
}

fn count(rng: &mut TestRng) -> usize {
    int(rng) as usize
}

/// Finite floats: integral, fractional, negative, subnormal and huge.
fn float(rng: &mut TestRng) -> f64 {
    match draw(0u8..4, rng) {
        0 => pick(rng, &[0.0, -0.0, 1e-320, 1e300, -1e308, 0.1, 421.76, 3.0]),
        1 => draw(-1e3f64..1e3, rng).trunc(),
        _ => draw(any::<f64>(), rng),
    }
}

fn spectra(rng: &mut TestRng) -> Vec<QuerySpectrum> {
    let lens = [0, 1, 2, 300];
    (0..draw(0usize..4, rng))
        .map(|_| QuerySpectrum {
            id: draw(any::<u32>(), rng),
            precursor_mz: float(rng),
            precursor_charge: draw(any::<u8>(), rng),
            peaks: (0..pick(rng, &lens))
                .map(|_| (float(rng), float(rng)))
                .collect(),
        })
        .collect()
}

fn window(rng: &mut TestRng) -> WindowKind {
    pick(rng, &[WindowKind::Open, WindowKind::Standard])
}

fn tier(rng: &mut TestRng) -> Tier {
    pick(rng, &Tier::ALL)
}

fn prefilter(rng: &mut TestRng) -> Option<PrefilterConfig> {
    match draw(0u8..3, rng) {
        0 => None,
        1 => Some(PrefilterConfig::Off),
        _ => Some(PrefilterConfig::TopK(draw(1..=usize::MAX, rng))),
    }
}

const REQUEST_VARIANTS: usize = 11;

fn request(variant: usize, rng: &mut TestRng) -> Request {
    match variant {
        0 => Request::Ping,
        1 => Request::ListIndexes,
        2 => Request::Query(QueryRequest {
            index: text(rng),
            window: window(rng),
            fdr: float(rng),
            tier: tier(rng),
            prefilter: prefilter(rng),
            spectra: spectra(rng),
        }),
        3 => Request::SessionOpen {
            index: text(rng),
            window: window(rng),
            tier: tier(rng),
            prefilter: prefilter(rng),
        },
        4 => Request::SessionSubmit {
            session: int(rng),
            spectra: spectra(rng),
        },
        5 => Request::SessionFinalize {
            session: int(rng),
            fdr: float(rng),
        },
        6 => Request::SessionClose { session: int(rng) },
        7 => Request::IndexLoad {
            name: text(rng),
            path: text(rng),
        },
        8 => Request::IndexUnload { name: text(rng) },
        9 => Request::ServerStats,
        _ => Request::ServerMetrics,
    }
}

fn summary(rng: &mut TestRng) -> IndexSummary {
    IndexSummary {
        name: text(rng),
        backend: text(rng),
        dim: count(rng),
        entries: count(rng),
        shards: count(rng),
    }
}

fn tier_stats(rng: &mut TestRng) -> TierStats {
    TierStats {
        queued: count(rng),
        in_flight: count(rng),
        admitted: int(rng),
        completed: int(rng),
        rejected_busy: int(rng),
        shed_deadline: int(rng),
        total_wait_ms: float(rng),
    }
}

const RESPONSE_VARIANTS: usize = 11;

fn response(variant: usize, rng: &mut TestRng) -> Response {
    match variant {
        0 => Response::Pong {
            protocol: draw(any::<u32>(), rng),
        },
        1 => Response::Error {
            code: pick(
                rng,
                &[ErrorCode::General, ErrorCode::Busy, ErrorCode::Deadline],
            ),
            message: text(rng),
        },
        2 => Response::Indexes((0..draw(0usize..4, rng)).map(|_| summary(rng)).collect()),
        3 => Response::Result(QueryResult {
            index: text(rng),
            rows: (0..pick(rng, &[0usize, 1, 40]))
                .map(|_| PsmTableRow {
                    psm: Psm {
                        query_id: draw(any::<u32>(), rng),
                        reference_id: draw(any::<u32>(), rng),
                        score: float(rng),
                        is_decoy: draw(any::<bool>(), rng),
                        precursor_delta: float(rng),
                    },
                    peptide: text(rng),
                    accepted: draw(any::<bool>(), rng),
                })
                .collect(),
            stats: BatchStats {
                latency_ms: float(rng),
                wait_ms: float(rng),
                queued: count(rng),
                workers: count(rng),
                queries: count(rng),
                rejected_queries: count(rng),
                psms: count(rng),
                identifications: count(rng),
                // A batch that accepted nothing reports +∞ (`null`).
                threshold_score: match draw(any::<bool>(), rng) {
                    true => f64::INFINITY,
                    false => float(rng),
                },
                shards_touched: count(rng),
                candidates_scored: count(rng),
                candidates_pre: count(rng),
                sketch_ms: float(rng),
                encode_ms: float(rng),
                candidates_ms: float(rng),
                score_ms: float(rng),
                finalize_ms: float(rng),
                backend: text(rng),
            },
        }),
        4 => Response::SessionOpened {
            session: int(rng),
            index: text(rng),
        },
        5 => Response::Receipt(SubmitReceipt {
            session: int(rng),
            batch: count(rng),
            queries: count(rng),
            rejected_queries: count(rng),
            psms: count(rng),
            total_psms: count(rng),
            candidates_scored: count(rng),
            candidates_pre: count(rng),
            sketch_ms: float(rng),
            shards_touched: count(rng),
            workers: count(rng),
            latency_ms: float(rng),
            wait_ms: float(rng),
            encode_ms: float(rng),
            candidates_ms: float(rng),
            score_ms: float(rng),
            shard_timings: (0..pick(rng, &[0usize, 1, 100]))
                .map(|_| ShardTiming {
                    shard: draw(any::<u32>(), rng),
                    visits: int(rng),
                    ms: float(rng),
                })
                .collect(),
        }),
        6 => Response::SessionClosed { session: int(rng) },
        7 => Response::Loaded(summary(rng)),
        8 => Response::Unloaded { name: text(rng) },
        9 => Response::Stats(ServerStats {
            workers: count(rng),
            queue_depth: count(rng),
            deadline_ms: int(rng),
            interactive_weight: count(rng),
            interactive_queue_depth: count(rng),
            memory_budget: int(rng),
            queued: count(rng),
            in_flight: count(rng),
            workers_busy: count(rng),
            peak_workers_busy: count(rng),
            admitted: int(rng),
            completed: int(rng),
            rejected_busy: int(rng),
            shed_deadline: int(rng),
            total_wait_ms: float(rng),
            interactive: tier_stats(rng),
            batch: tier_stats(rng),
            coalesced_batches: int(rng),
            coalesced_requests: int(rng),
            prefilter_candidates_pre: int(rng),
            prefilter_candidates_post: int(rng),
            prefilter_sketch_ms: float(rng),
            resident_bytes: int(rng),
            resident_shards: count(rng),
            evictions: int(rng),
            reloads: int(rng),
            open_sessions: count(rng),
            resident_indexes: count(rng),
        }),
        _ => Response::Metrics(MetricsReport {
            counters: (0..draw(0usize..4, rng))
                .map(|_| (text(rng), int(rng)))
                .collect(),
            gauges: (0..draw(0usize..4, rng))
                .map(|_| (text(rng), int(rng) as i64 * pick(rng, &[1, -1])))
                .collect(),
            histograms: (0..draw(0usize..4, rng))
                .map(|_| {
                    let summary = HistogramSummary {
                        count: int(rng),
                        sum_ms: float(rng),
                        p50_ms: float(rng),
                        p90_ms: float(rng),
                        p99_ms: float(rng),
                    };
                    (text(rng), summary)
                })
                .collect(),
        }),
    }
}

/// A value of every variant per case, drawn from the case's own stream.
struct EveryVariant<T>(usize, fn(usize, &mut TestRng) -> T);

impl<T> Strategy for EveryVariant<T> {
    type Value = Vec<T>;

    fn generate(&self, rng: &mut TestRng) -> Vec<T> {
        (0..self.0).map(|variant| (self.1)(variant, rng)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_request_variant_roundtrips(requests in EveryVariant(REQUEST_VARIANTS, request)) {
        for request in &requests {
            let line = request.encode();
            prop_assert!(!line.contains('\n'), "one line per message: {line}");
            let decoded = Request::decode(&line).map_err(|e| format!("{e}: {line}"))?;
            prop_assert_eq!(&decoded, request);
            prop_assert_eq!(decoded.encode(), line);
        }
    }

    #[test]
    fn every_response_variant_roundtrips(responses in EveryVariant(RESPONSE_VARIANTS, response)) {
        for response in &responses {
            let line = response.encode();
            prop_assert!(!line.contains('\n'), "one line per message: {line}");
            let decoded = Response::decode(&line).map_err(|e| format!("{e}: {line}"))?;
            prop_assert_eq!(&decoded, response);
            prop_assert_eq!(decoded.encode(), line);
        }
    }

    /// Lists of every length class decode element by element.
    #[test]
    fn long_arrays_roundtrip(peaks in vec((0.0f64..2e3, 0.0f64..1.0), 0..600)) {
        let request = Request::SessionSubmit {
            session: 1,
            spectra: vec![QuerySpectrum { id: 0, precursor_mz: 500.0, precursor_charge: 2, peaks }],
        };
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }
}

const DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// Every request example in `docs/PROTOCOL.md`: the lines of its
/// ```json fences that decode as a request.
fn documented_requests() -> Vec<&'static str> {
    let mut in_json = false;
    (DOC.lines())
        .filter(|line| {
            let fence = line.trim().starts_with("```");
            in_json = if fence {
                line.trim() == "```json"
            } else {
                in_json
            };
            !fence && in_json
        })
        .filter(|line| Request::decode(line).is_ok())
        .collect()
}

/// The decoder as a function: whatever `line` is, it returns, and a
/// request it accepts re-encodes to a line that decodes back to it and
/// re-encodes to the same bytes.
fn decodes_to_a_fixed_point(line: &str) -> Result<(), String> {
    if let Ok(request) = Request::decode(line) {
        let encoded = request.encode();
        let again = Request::decode(&encoded).map_err(|e| format!("{e}: {encoded} from {line}"))?;
        prop_assert_eq!(&again, &request, "{}", line);
        prop_assert_eq!(again.encode(), encoded, "{}", line);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text: random bytes, read the way a lossy reader would.
    #[test]
    fn the_request_decoder_takes_any_text(bytes in vec(any::<u8>(), 0..96)) {
        decodes_to_a_fixed_point(&String::from_utf8_lossy(&bytes))?;
    }

    /// Every documented request cut short at every length, and with each
    /// of its bytes in turn flipped by a drawn mask.
    #[test]
    fn the_request_decoder_takes_damaged_examples(mask in 1u8..=255) {
        let requests = documented_requests();
        prop_assert!(requests.len() >= 9, "{} request examples", requests.len());
        for line in requests {
            let bytes = line.as_bytes();
            for at in 0..bytes.len() {
                decodes_to_a_fixed_point(&String::from_utf8_lossy(&bytes[..at]))?;
                let mut flipped = bytes.to_vec();
                flipped[at] ^= mask;
                decodes_to_a_fixed_point(&String::from_utf8_lossy(&flipped))?;
            }
        }
    }
}

/// An m/z or intensity from the spectrum rule's edges one time in four,
/// else an ordinary one.
fn spectrum_value(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 10] = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        0.0,
        -0.0,
        -1.0,
        1e308,
        f64::MAX,
        5e-324,
        1.0,
    ];
    match draw(0u8..4, rng) {
        0 => pick(rng, &EDGES),
        _ => draw(1e-3f64..2e3, rng),
    }
}

/// A decoded wire spectrum over those edges, its charge 0 to 4 or 255.
struct EdgeSpectrum;

impl Strategy for EdgeSpectrum {
    type Value = QuerySpectrum;

    fn generate(&self, rng: &mut TestRng) -> QuerySpectrum {
        QuerySpectrum {
            id: draw(any::<u32>(), rng),
            precursor_mz: spectrum_value(rng),
            precursor_charge: pick(rng, &[0, 1, 2, 3, 4, u8::MAX]),
            peaks: (0..draw(0usize..6, rng))
                .map(|_| (spectrum_value(rng), spectrum_value(rng)))
                .collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The wire door is `Spectrum::try_new`: the same spectrum, or its
    /// reason under the spectrum's id. The MGF reader over the same values
    /// (each in its shortest round-trip form) accepts the same ones.
    #[test]
    fn the_wire_door_refuses_what_try_new_refuses(wire in EdgeSpectrum) {
        let (mz, z) = (wire.precursor_mz, wire.precursor_charge);
        let peaks = wire.peaks.iter().map(|&(mz, intensity)| Peak { mz, intensity });
        let rule = Spectrum::try_new(wire.id, mz, z, peaks.collect(), SpectrumOrigin::Query);
        let lines: String = wire.peaks.iter().map(|(mz, i)| format!("{mz} {i}\n")).collect();
        let block = format!("BEGIN IONS\nPEPMASS={mz}\nCHARGE={z}+\n{lines}END IONS\n");
        prop_assert_eq!(read_mgf(block.as_bytes()).is_ok(), rule.is_ok(), "{}", block);
        let reason = rule.map_err(|e| format!("spectrum {}: {e}", wire.id));
        prop_assert_eq!(wire.to_spectrum(), reason);
    }
}

/// One refusal per scalar kind, each naming the field it refused — a
/// value outside its type is an error, never a wrapped or truncated one.
#[test]
fn out_of_kind_values_are_refused_by_field_name() {
    let spectrum = |id: &str, charge: &str, mz: &str| {
        format!(
            r#"{{"type":"session.submit","session":1,"spectra":[{{"id":{id},"precursor_mz":{mz},"precursor_charge":{charge},"peaks":[]}}]}}"#
        )
    };
    let requests = [
        // u8: 257 as a charge.
        (
            spectrum("0", "257", "400"),
            "precursor_charge 257 out of range",
        ),
        // u32: 2^32 as an id.
        (
            spectrum("4294967296", "2", "400"),
            "id 4294967296 out of range",
        ),
        // u64: 1.5 as a count, and an integer past 2^53.
        (
            r#"{"type":"session.close","session":1.5}"#.to_owned(),
            "session must be a non-negative integer",
        ),
        (
            r#"{"type":"session.close","session":9007199254740994}"#.to_owned(),
            "session must be a non-negative integer",
        ),
        // f64: a string as a number.
        (
            spectrum("0", "2", "\"400\""),
            "precursor_mz must be a number",
        ),
        (
            r#"{"type":"session.finalize","session":1,"fdr":"0.01"}"#.to_owned(),
            "fdr must be a number",
        ),
        // String and array kinds.
        (
            r#"{"type":"index.unload","name":7}"#.to_owned(),
            "name must be a string",
        ),
        (
            r#"{"type":"session.submit","session":1,"spectra":{}}"#.to_owned(),
            "spectra must be an array",
        ),
    ];
    for (line, needle) in &requests {
        let err = Request::decode(line).unwrap_err();
        assert!(err.contains(needle), "line {line}: error {err:?}");
    }

    // Response side: usize, the signed gauge kind, and an integer past
    // 2^53 (which no decoder accepts, so no encoder should be fed one).
    let responses = [
        (
            r#"{"type":"closed","session":18014398509481984}"#.to_owned(),
            "session must be a non-negative integer",
        ),
        (
            r#"{"type":"loaded","index":{"name":"a","backend":"exact","dim":0.5,"entries":1,"shards":1}}"#
                .to_owned(),
            "dim must be a non-negative integer",
        ),
        (
            r#"{"type":"metrics","counters":{},"gauges":{"g":0.5},"histograms":{}}"#.to_owned(),
            "g must be an integer",
        ),
        (
            r#"{"type":"pong","protocol":"5"}"#.to_owned(),
            "protocol must be a non-negative integer",
        ),
    ];
    for (line, needle) in &responses {
        let err = Response::decode(line).unwrap_err();
        assert!(err.contains(needle), "line {line}: error {err:?}");
    }
}
