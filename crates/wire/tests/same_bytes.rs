//! The codecs may get faster; their bytes may not change. Golden
//! strings pin what the JSON writer and the hex codec produce (every
//! expectation here was produced by the per-character writer and the
//! `format!("{b:02x}")` encoder this crate started with), and a seeded
//! round trip checks writer against parser and encoder against decoder
//! on inputs nobody picked by hand.

use warp_wire::{from_hex, obj, parse, to_hex, Json};

fn written(s: &str) -> String {
    Json::Str(s.to_string()).to_string()
}

#[test]
fn every_ascii_byte_is_written_as_before() {
    let ascii: String = (0u8..=0x7f).map(char::from).collect();
    let want = concat!(
        r#"""#,
        r"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f",
        r"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f",
        r##" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`"##,
        "abcdefghijklmnopqrstuvwxyz{|}~\u{7f}",
        r#"""#,
    );
    assert_eq!(written(&ascii), want);
    assert_eq!(parse(want).unwrap(), Json::Str(ascii));
}

#[test]
fn quotes_backslashes_and_multibyte_text_are_written_as_before() {
    // Escapes at the start, at the end, adjacent, and on either side of
    // the eight-byte step the scan takes.
    for (text, want) in [
        ("", r#""""#),
        ("\"", r#""\"""#),
        ("\\", r#""\\""#),
        ("\"\"", r#""\"\"""#),
        ("\\\\", r#""\\\\""#),
        ("\"\\", r#""\"\\""#),
        ("\\\"", r#""\\\"""#),
        ("\"a\"", r#""\"a\"""#),
        ("\\a\\", r#""\\a\\""#),
        ("a\"\\b", r#""a\"\\b""#),
        ("\"\\\"\\", r#""\"\\\"\\""#),
        ("tab\tnl\ncr\r", r#""tab\tnl\ncr\r""#),
        ("12345678\"", r#""12345678\"""#),
        ("1234567\n", r#""1234567\n""#),
        ("abcdefgh\u{1}ijklmnop", r#""abcdefgh\u0001ijklmnop""#),
        ("é → ∀ 𝄞", "\"é → ∀ 𝄞\""),
        (
            "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}",
            "\"\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\"",
        ),
    ] {
        assert_eq!(written(text), want, "{text:?}");
        assert_eq!(parse(want).unwrap(), Json::Str(text.to_string()), "{want}");
    }
}

#[test]
fn numbers_and_nesting_are_written_as_before() {
    for (n, want) in [
        (0.0, "0"),
        (-0.0, "0"),
        (1.0, "1"),
        (-1.0, "-1"),
        (42.0, "42"),
        (1.5, "1.5"),
        (-1.5, "-1.5"),
        (0.1, "0.1"),
        (-0.001, "-0.001"),
        (1e-7, "0.0000001"),
        (0.30000000000000004, "0.30000000000000004"),
        (123456789012345.0, "123456789012345"),
        (4503599627370497.0, "4503599627370497"),
        (8.9e15, "8900000000000000"),
        (9e15, "9000000000000000"),
        (-9e15, "-9000000000000000"),
        (1e16, "10000000000000000"),
        (1e21, "1000000000000000000000"),
    ] {
        assert_eq!(Json::Num(n).to_string(), want, "{n:?}");
    }
    let nested = obj(vec![
        (
            "b",
            Json::Arr(vec![
                Json::Null,
                Json::Bool(true),
                Json::Bool(false),
                Json::Arr(vec![]),
                obj(vec![]),
            ]),
        ),
        ("a\"k", Json::Num(1.0)),
        ("", Json::Str("x".into())),
    ]);
    let want = r#"{"":"x","a\"k":1,"b":[null,true,false,[],{}]}"#;
    assert_eq!(nested.to_string(), want);
    assert_eq!(parse(want).unwrap(), nested);
}

#[test]
fn hex_is_lowercase_out_either_case_in_and_complains_as_before() {
    let all: Vec<u8> = (0..=255).collect();
    let want: String = all.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(to_hex(&all), want);
    assert_eq!(from_hex(&want).unwrap(), all);
    assert_eq!(from_hex(&want.to_uppercase()).unwrap(), all);
    assert_eq!(from_hex("DeadBEEF").unwrap(), [0xde, 0xad, 0xbe, 0xef]);
    assert_eq!(to_hex(&[]), "");
    assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    assert_eq!(from_hex("abc").unwrap_err(), "odd-length hex string");
    assert_eq!(from_hex("zz").unwrap_err(), "bad hex digit `z`");
    // The first bad digit in string order, whichever half of a pair.
    assert_eq!(from_hex("00g0 0").unwrap_err(), "bad hex digit `g`");
    assert_eq!(from_hex("0/").unwrap_err(), "bad hex digit `/`");
    assert_eq!(from_hex("é").unwrap_err(), "bad hex digit `Ã`");
}

/// The generator of the round trip: a 64-bit LCG (Knuth's MMIX
/// constants), high bits out. In the test, so `warp-wire` stays
/// dependency-free.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn two_thousand_random_strings_and_byte_vectors_round_trip() {
    let mut rng = Lcg(0x5eed_0017);
    // Mostly plain text, with everything the writer must escape and
    // every UTF-8 width mixed in at random places.
    let alphabet: Vec<char> = "abcXYZ019 _;:=(){}\"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}é→𝄞"
        .chars()
        .collect();
    for round in 0..2000 {
        let len = rng.below(if round % 50 == 0 { 5000 } else { 70 });
        let text: String = (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect();
        let value = obj(vec![
            (&text, Json::Str(text.clone())),
            ("n", Json::Num(len as f64)),
        ]);
        assert_eq!(
            parse(&value.to_string()).unwrap(),
            value,
            "round {round}: {text:?}"
        );

        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let hex = to_hex(&bytes);
        assert_eq!(hex.len(), bytes.len() * 2);
        assert!(hex.bytes().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f')));
        assert_eq!(from_hex(&hex).unwrap(), bytes, "round {round}");
    }
}
