//! The `smt.check` span carries each check's per-layer time and pivot
//! count. Runs as its own test binary because it installs the process-wide
//! trace recorder.

use pins_logic::{Sort, TermArena};
use pins_smt::{Smt, SmtConfig};
use pins_trace::{EventKind, FieldValue, Recorder};

const LAYERS: [&str; 5] = ["prep_us", "sat_us", "euf_us", "lia_us", "ematch_us"];

#[test]
fn check_span_records_layer_times_within_its_duration() {
    // x + y >= 10, x - y <= 2, x <= 7: feasible, but only after pivoting
    let mut a = TermArena::new();
    let [x, y] = ["x", "y"].map(|n| {
        let s = a.sym(n);
        a.mk_var(s, 0, Sort::Int)
    });
    let (two, seven, ten) = (a.mk_int(2), a.mk_int(7), a.mk_int(10));
    let sum = a.mk_add(x, y);
    let diff = a.mk_sub(x, y);
    let asserts = [a.mk_ge(sum, ten), a.mk_le(diff, two), a.mk_le(x, seven)];

    let recorder = Recorder::ring(256);
    let guard = pins_trace::install(recorder.clone());
    let mut smt = Smt::new(SmtConfig::default());
    for t in asserts {
        smt.assert_term(&mut a, t);
    }
    assert!(smt.check(&mut a).is_sat());
    drop(guard);

    let end = recorder
        .events()
        .into_iter()
        .find(|e| e.kind == EventKind::SpanEnd && e.name == "smt.check")
        .expect("smt.check span closed");
    let field = |key: &str| match end.fields.iter().find(|(k, _)| *k == key) {
        Some((_, FieldValue::U64(v))) => *v,
        other => panic!("field {key}: {other:?}"),
    };
    let layers: u64 = LAYERS.iter().map(|k| field(k)).sum();
    let dur = end.dur_us.expect("span end carries its duration");
    assert!(
        layers <= dur,
        "layers {layers} us exceed the span's {dur} us"
    );
    assert!(field("lia_pivots") > 0, "x + y >= 10 needs a pivot");
    assert_eq!(field("lia_pivots"), smt.stats.lia_pivots);
}
