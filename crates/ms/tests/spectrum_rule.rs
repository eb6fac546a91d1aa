//! One rule for which spectra exist: `Spectrum::try_new` and the MGF
//! reader accept and refuse the same (m/z, charge, peaks), edges included
//! — ±∞, NaN, ±0, negative values, 1e308, `f64::MAX`, the smallest
//! subnormal, and a charge of 0 or `u8::MAX` — and the reader names the
//! line that carries the refused value. The wire decoder's side of the
//! same property is in `hdoms-serve`'s `protocol_roundtrip` test (that
//! crate depends on this one).

use hdoms_ms::mgf::{read_mgf, ParseMgfError};
use hdoms_ms::spectrum::{Peak, Spectrum, SpectrumError, SpectrumOrigin};
use proptest::prelude::*;
use proptest::TestRng;

/// A value from the edges one time in four, else an ordinary m/z or
/// intensity.
fn value(rng: &mut TestRng) -> f64 {
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
    if (0u8..4).generate(rng) == 0 {
        EDGES[(0..EDGES.len()).generate(rng)]
    } else {
        (1e-3f64..2e3).generate(rng)
    }
}

/// A precursor m/z, a charge (`None`: the block has no `CHARGE` line), the
/// `CHARGE` value's spelling, and peaks.
#[derive(Debug)]
struct Drawn {
    mz: f64,
    charge: Option<u8>,
    spelling: u8,
    peaks: Vec<(f64, f64)>,
}

struct Draw;

impl Strategy for Draw {
    type Value = Drawn;

    fn generate(&self, rng: &mut TestRng) -> Drawn {
        let charge = match (0u8..6).generate(rng) {
            0 => None,
            1 => Some(0),
            2 => Some(u8::MAX),
            _ => Some((1u8..=4).generate(rng)),
        };
        let peaks = (0..(0usize..6).generate(rng))
            .map(|_| (value(rng), value(rng)))
            .collect();
        Drawn {
            mz: value(rng),
            charge,
            spelling: (0u8..4).generate(rng),
            peaks,
        }
    }
}

impl Drawn {
    /// The block as an MGF writer could spell it: every number in its
    /// shortest round-trip form, so the reader sees exactly these values.
    fn block(&self) -> String {
        let mut text = format!("BEGIN IONS\nTITLE=drawn\nPEPMASS={}\n", self.mz);
        if let Some(z) = self.charge {
            let spelled = [
                format!("{z}+"),
                format!("+{z}"),
                format!("{z}"),
                format!("{z}-"),
            ];
            text += &format!("CHARGE={}\n", spelled[usize::from(self.spelling)]);
        }
        for (mz, intensity) in &self.peaks {
            text += &format!("{mz} {intensity}\n");
        }
        text + "END IONS\n"
    }

    fn try_new(&self) -> Result<Spectrum, SpectrumError> {
        let peaks = self
            .peaks
            .iter()
            .map(|&(mz, intensity)| Peak { mz, intensity });
        let charge = self.charge.unwrap_or(2);
        Spectrum::try_new(0, self.mz, charge, peaks.collect(), SpectrumOrigin::Query)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn the_mgf_door_refuses_what_try_new_refuses(drawn in Draw) {
        let block = drawn.block();
        let read = read_mgf(block.as_bytes());
        match drawn.try_new() {
            Ok(spectrum) => {
                let read = read.map_err(|e| format!("{e}\n{block}"))?;
                prop_assert_eq!(read.len(), 1);
                prop_assert_eq!(&read[0].spectrum, &spectrum);
                prop_assert_eq!(read[0].title.as_deref(), Some("drawn"));
            }
            Err(refusal) => {
                let first_peak = if drawn.charge.is_some() { 5 } else { 4 };
                let (want_line, want_context) = match refusal {
                    SpectrumError::ZeroCharge => (4, "CHARGE header"),
                    SpectrumError::PrecursorMz => (3, "PEPMASS header"),
                    SpectrumError::MalformedPeak { index, .. } => (first_peak + index, "peak line"),
                    SpectrumError::NeutralMassOverflows => {
                        (3, "PEPMASS header (neutral mass overflows)")
                    }
                };
                let Err(ParseMgfError::Malformed { line, content, context }) = read else {
                    return Err(format!("{refusal} accepted or misread: {read:?}\n{block}"));
                };
                prop_assert_eq!((line, context), (want_line, want_context), "{}", block);
                prop_assert_eq!(Some(content.as_str()), block.lines().nth(line - 1));
            }
        }
    }
}

/// The draw reaches every outcome, so the property above is not vacuous.
#[test]
fn the_draw_reaches_every_outcome() {
    let mut rng = <TestRng as rand::SeedableRng>::seed_from_u64(17);
    let mut seen = [0usize; 5];
    for _ in 0..2048 {
        let outcome = match Draw.generate(&mut rng).try_new() {
            Ok(_) => 0,
            Err(SpectrumError::ZeroCharge) => 1,
            Err(SpectrumError::PrecursorMz) => 2,
            Err(SpectrumError::MalformedPeak { .. }) => 3,
            Err(SpectrumError::NeutralMassOverflows) => 4,
        };
        seen[outcome] += 1;
    }
    assert!(seen.iter().all(|&n| n >= 20), "{seen:?}");
}
