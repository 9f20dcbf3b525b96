//! The wire codec against the JSON tree it replaced: the same bytes out, the
//! same decisions in, and never a panic.
//!
//! The tree-building code the codec replaced is kept here as the reference
//! (`reference_*`, `*_to_json`). Frames are generated by splitmix64; a
//! failure names the frame's seed and prints the frame.

use super::*;
use crate::json::MAX_DEPTH;
use lobster::ProvenanceKind;

/// splitmix64 (Steele, Lea & Flood).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64(seed);
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const SEED: u64 = 0x5eed_0f3a_1e00;

/// Every column type, so a row carries every `Value` kind.
const TYPES: &str = "type r(a: u32, b: i64, c: f64, d: bool, e: symbol)
    rel out(a, b, c, d, e) = r(a, b, c, d, e)
    query out";

/// Symbol texts with escapes and non-ASCII characters.
const TEXTS: [&str; 8] = [
    "plain",
    "q\"uote",
    "back\\slash",
    "new\nline\r\t",
    "ctl\u{1}\u{1f}",
    "caf\u{e9}",
    "\u{1F980} crab",
    "sl/ash",
];

fn known_ids() -> Vec<u32> {
    let symbols = SymbolTable::global();
    TEXTS.iter().map(|text| symbols.intern(text)).collect()
}

fn gen_value(rng: &mut SplitMix64, column: usize, ids: &[u32]) -> Value {
    const TWO53: i64 = 1 << 53;
    match column {
        0 => Value::U32(match rng.below(4) {
            0 => 0,
            1 => u32::MAX,
            _ => rng.next_u64() as u32,
        }),
        1 => {
            let any = rng.next_u64() as i64;
            Value::I64(rng.pick(&[
                0,
                -5,
                TWO53,
                -TWO53,
                TWO53 - 1,
                TWO53 + 1,
                -TWO53 - 1,
                i64::MAX,
                i64::MIN,
                any,
            ]))
        }
        2 => {
            let (unit, any) = (rng.unit(), rng.next_u64() as i64 as f64);
            Value::F64(rng.pick(&[
                0.0,
                -0.0,
                1e300,
                -1e300,
                0.1,
                2.5,
                1.5e-7,
                9007199254740994.0,
                unit,
                any,
            ]))
        }
        3 => Value::Bool(rng.chance(50)),
        _ => Value::Symbol(rng.pick(ids)),
    }
}

/// A `run` request over `r` with every value kind, probabilities,
/// exclusion groups and empty fact sets.
fn gen_facts(rng: &mut SplitMix64, ids: &[u32]) -> FactSet {
    let mut facts = FactSet::new();
    for _ in 0..rng.below(6) {
        let row: Vec<Value> = (0..5).map(|column| gen_value(rng, column, ids)).collect();
        let prob = rng.chance(70).then(|| rng.unit());
        if rng.chance(30) {
            facts.add_with_exclusion("r", &row, prob, rng.below(4) as u32);
        } else {
            facts.add("r", &row, prob);
        }
    }
    facts
}

// ---------------------------------------------------------------------------
// The tree code the codec replaced, kept as the reference.

fn value_to_json(value: &Value, result: Option<&RunResult>) -> Json {
    match value {
        Value::U32(n) => obj([("u32", Json::from(u64::from(*n)))]),
        Value::I64(n) => {
            if n.unsigned_abs() <= 1 << 53 {
                obj([("i64", Json::Num(*n as f64))])
            } else {
                obj([("i64", Json::from(n.to_string().as_str()))])
            }
        }
        Value::F64(x) => obj([("f64", Json::Num(*x))]),
        Value::Bool(b) => obj([("bool", Json::Bool(*b))]),
        Value::Symbol(id) => match result.and_then(|r| r.resolve_symbol(value)) {
            Some(text) => obj([("sym", Json::from(&*text))]),
            None => obj([("sym_id", Json::from(u64::from(*id)))]),
        },
    }
}

fn fact_to_json(
    relation: &str,
    values: &[Value],
    prob: Option<f64>,
    exclusion: Option<u32>,
) -> Json {
    let mut fact = obj([
        ("rel", Json::from(relation)),
        (
            "values",
            Json::Arr(values.iter().map(|v| value_to_json(v, None)).collect()),
        ),
    ]);
    if let Some(p) = prob {
        fact.set("prob", Json::Num(p));
    }
    if let Some(x) = exclusion {
        fact.set("exclusion", Json::from(u64::from(x)));
    }
    fact
}

fn request_to_json(key: &str, facts: &FactSet) -> Json {
    let facts = facts
        .facts()
        .map(|(relation, values, prob, exclusion)| fact_to_json(relation, values, prob, exclusion))
        .collect();
    obj([
        ("op", Json::from("run")),
        ("key", Json::from(key)),
        ("facts", Json::Arr(facts)),
    ])
}

fn result_to_json(result: &RunResult) -> Json {
    let relations = result
        .relations()
        .into_iter()
        .map(|name| {
            let rows = result
                .relation(name)
                .iter()
                .map(|(tuple, output)| {
                    let tuple = tuple
                        .iter()
                        .map(|v| value_to_json(v, Some(result)))
                        .collect();
                    let mut row = obj([
                        ("tuple", Json::Arr(tuple)),
                        ("prob", Json::Num(output.probability)),
                    ]);
                    if !output.gradient.is_empty() {
                        let grad = output
                            .gradient
                            .iter()
                            .map(|(id, g)| {
                                Json::Arr(vec![Json::from(u64::from(id.0)), Json::Num(*g)])
                            })
                            .collect();
                        row.set("grad", Json::Arr(grad));
                    }
                    row
                })
                .collect();
            (name.to_string(), Json::Arr(rows))
        })
        .collect();
    obj([
        ("ok", Json::Bool(true)),
        ("relations", Json::Obj(relations)),
        ("iterations", Json::from(result.stats.iterations)),
    ])
}

/// A value as the tree walk read it: a `sym` text is interned only once
/// the whole frame has been checked.
enum WireValue<'a> {
    Value(Value),
    Text(&'a str),
}

fn reference_value(json: &Json) -> Result<WireValue<'_>, String> {
    let Json::Obj(pairs) = json else {
        return Err(format!(
            "value must be a tagged object, got {}",
            json.to_compact()
        ));
    };
    let [(tag, inner)] = pairs.as_slice() else {
        return Err("value object must have exactly one tag".to_string());
    };
    if tag == "sym" {
        return inner
            .as_str()
            .map(WireValue::Text)
            .ok_or_else(|| format!("bad sym: {}", inner.to_compact()));
    }
    let id = || inner.as_u64().and_then(|n| u32::try_from(n).ok());
    let value = match tag.as_str() {
        "u32" => id()
            .map(Value::U32)
            .ok_or_else(|| format!("bad u32: {}", inner.to_compact())),
        "i64" => match inner {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => {
                Ok(Value::I64(*n as i64))
            }
            Json::Str(s) => s
                .parse()
                .map(Value::I64)
                .map_err(|_| format!("bad i64 string: {s:?}")),
            _ => Err(format!("bad i64: {}", inner.to_compact())),
        },
        "f64" => inner
            .as_f64()
            .map(Value::F64)
            .ok_or_else(|| format!("bad f64: {}", inner.to_compact())),
        "bool" => inner
            .as_bool()
            .map(Value::Bool)
            .ok_or_else(|| format!("bad bool: {}", inner.to_compact())),
        "sym_id" => match id() {
            Some(id) if SymbolTable::global().resolve(id).is_some() => Ok(Value::Symbol(id)),
            Some(id) => Err(format!("unknown sym_id {id}: no symbol has that id")),
            None => Err(format!("bad sym_id: {}", inner.to_compact())),
        },
        other => Err(format!("unknown value tag `{other}`")),
    };
    value.map(WireValue::Value)
}

struct ReferenceFact<'a> {
    relation: &'a str,
    values: Vec<WireValue<'a>>,
    prob: Option<f64>,
    exclusion: Option<u32>,
}

fn reference_fact(item: &Json) -> Result<ReferenceFact<'_>, String> {
    let relation = item
        .get("rel")
        .and_then(Json::as_str)
        .ok_or("fact is missing `rel`")?;
    let values = item
        .get("values")
        .and_then(Json::as_arr)
        .ok_or("fact is missing `values`")?
        .iter()
        .map(reference_value)
        .collect::<Result<Vec<_>, String>>()?;
    let prob = item.get("prob").and_then(Json::as_f64);
    if let Some(p) = prob {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} outside [0, 1]"));
        }
    }
    let exclusion = item
        .get("exclusion")
        .and_then(Json::as_u64)
        .and_then(|n| u32::try_from(n).ok());
    Ok(ReferenceFact {
        relation,
        values,
        prob,
        exclusion,
    })
}

fn reference_facts(json: Option<&Json>, program: &Program) -> Result<FactSet, String> {
    let Some(items) = json.and_then(Json::as_arr) else {
        return Err("`facts` must be an array".to_string());
    };
    let parsed = items
        .iter()
        .map(reference_fact)
        .collect::<Result<Vec<_>, String>>()?;
    let build = |intern: bool| {
        let mut facts = FactSet::new();
        for fact in &parsed {
            let row: Vec<Value> = fact
                .values
                .iter()
                .map(|value| match value {
                    WireValue::Value(value) => *value,
                    WireValue::Text(text) if intern => {
                        Value::Symbol(SymbolTable::global().intern(text))
                    }
                    WireValue::Text(_) => Value::Symbol(u32::MAX),
                })
                .collect();
            match fact.exclusion {
                Some(group) => facts.add_with_exclusion(fact.relation, &row, fact.prob, group),
                None => facts.add(fact.relation, &row, fact.prob),
            }
        }
        facts
    };
    let texts = parsed
        .iter()
        .flat_map(|fact| &fact.values)
        .any(|v| matches!(v, WireValue::Text(_)));
    if texts {
        program
            .validate_facts(&build(false))
            .map_err(|e| e.to_string())?;
    }
    Ok(build(true))
}

// ---------------------------------------------------------------------------
// Decisions.

/// What the server makes of a frame before auth: a refusal of the whole
/// frame, or its `op`, `key` and facts (or why they are refused).
#[derive(Debug, PartialEq)]
enum Decision {
    Refused(String),
    Request {
        op: String,
        key: String,
        facts: Result<Vec<String>, String>,
    },
}

/// Every fact, exactly: probabilities and `f64` values by their bits.
fn fact_list(facts: &FactSet) -> Vec<String> {
    facts
        .facts()
        .map(|(relation, values, prob, exclusion)| {
            let values: Vec<String> = values
                .iter()
                .map(|value| match value {
                    Value::F64(x) => format!("F64({:#x})", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect();
            format!(
                "{relation:?} {values:?} {:?} {exclusion:?}",
                prob.map(f64::to_bits)
            )
        })
        .collect()
}

fn decided(payload: &[u8], program: &Program) -> Decision {
    let Ok(text) = std::str::from_utf8(payload) else {
        return Decision::Refused("payload is not UTF-8".to_string());
    };
    match decode_request(text) {
        Err(e) => Decision::Refused(e.to_string()),
        Ok(Request { op, key, facts }) => Decision::Request {
            op: op.into_owned(),
            key: key.into_owned(),
            facts: facts
                .and_then(|facts| facts.intern(program))
                .map(|facts| fact_list(&facts)),
        },
    }
}

fn reference_decision(payload: &[u8], program: &Program) -> Decision {
    let Ok(text) = std::str::from_utf8(payload) else {
        return Decision::Refused("payload is not UTF-8".to_string());
    };
    let request = match json::parse(text) {
        Ok(request) => request,
        Err(e) => return Decision::Refused(e.to_string()),
    };
    let field = |name: &str| {
        request
            .get(name)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    Decision::Request {
        op: field("op"),
        key: field("key"),
        facts: reference_facts(request.get("facts"), program).map(|facts| fact_list(&facts)),
    }
}

/// A tagged value as a client might state it, right or wrong.
fn gen_wire_value(rng: &mut SplitMix64, ids: &[u32]) -> Json {
    let num = |n: f64| Json::Num(n);
    match rng.below(14) {
        0 => obj([(
            "u32",
            num(rng.pick(&[0.0, 7.0, 4294967295.0, 4294967296.0, -1.0, 1.5])),
        )]),
        1 => obj([(
            "i64",
            num(rng.pick(&[-5.0, 9007199254740992.0, 9007199254740994.0])),
        )]),
        2 => obj([(
            "i64",
            Json::from(rng.pick(&[
                "-9223372036854775808",
                "+17",
                "12a",
                "",
                "9223372036854775808",
            ])),
        )]),
        3 => obj([("f64", num(rng.pick(&[-0.0, 1e300, 0.25, 3.0])))]),
        4 => obj([("bool", Json::Bool(rng.chance(50)))]),
        5 | 6 => obj([("sym", Json::from(rng.pick(&TEXTS)))]),
        7 => {
            let fresh = format!("wire-fresh-{}", rng.next_u64());
            obj([("sym", Json::Str(fresh))])
        }
        8 => obj([("sym_id", Json::from(u64::from(rng.pick(ids))))]),
        9 => obj([(
            "sym_id",
            Json::from(u64::from(u32::MAX - rng.below(8) as u32)),
        )]),
        10 => obj([("blob", Json::Null)]),
        11 => obj([("u32", num(1.0)), ("bool", Json::Bool(true))]),
        12 => rng.pick(&[
            Json::Null,
            Json::Arr(vec![num(1.0)]),
            Json::from("u32"),
            obj([]),
        ]),
        _ => obj([(
            rng.pick(&["u32", "f64", "bool", "sym", "sym_id", "i64"]),
            rng.pick(&[
                Json::Null,
                Json::Arr(vec![]),
                Json::from("x"),
                Json::Bool(false),
            ]),
        )]),
    }
}

/// A request frame as a tree: mostly well-formed `run`s over `r`, with
/// other ops, missing or mistyped members and values of the wrong type.
fn gen_frame(rng: &mut SplitMix64, ids: &[u32]) -> Json {
    let mut facts = Vec::new();
    let count = if rng.chance(10) { 0 } else { 1 + rng.below(4) };
    for _ in 0..count {
        let values = if rng.chance(80) {
            let typed = gen_facts(rng, ids);
            let row = typed
                .facts()
                .next()
                .map(|(_, values, _, _)| values.to_vec());
            let mut values: Vec<Json> = row
                .unwrap_or_else(|| (0..5).map(|c| gen_value(rng, c, ids)).collect())
                .iter()
                .map(|v| value_to_json(v, None))
                .collect();
            if rng.chance(25) {
                let at = rng.below(values.len());
                values[at] = gen_wire_value(rng, ids);
            }
            Json::Arr(values)
        } else {
            Json::Arr(
                (0..rng.below(4))
                    .map(|_| gen_wire_value(rng, ids))
                    .collect(),
            )
        };
        let mut fact = obj([
            (
                "rel",
                Json::from(rng.pick(&["r", "r", "r", "out", "ghost"])),
            ),
            ("values", values),
        ]);
        if rng.chance(60) {
            let unit = rng.unit();
            fact.set(
                "prob",
                Json::Num(rng.pick(&[unit, unit, unit, 1.0, 0.0, 1.5, -0.25])),
            );
        }
        if rng.chance(20) {
            fact.set(
                "exclusion",
                Json::Num(rng.pick(&[1.0, 4294967296.0, -1.0, 2.5])),
            );
        }
        facts.push(fact);
    }
    let mut frame = obj([
        (
            "op",
            Json::from(rng.pick(&["run", "run", "run", "ping", "metrics", "explode"])),
        ),
        ("key", Json::from("k")),
        ("facts", Json::Arr(facts)),
    ]);
    if rng.chance(5) {
        frame.set("facts", rng.pick(&[Json::Null, obj([]), Json::from("[]")]));
    }
    frame
}

fn count_objects(json: &Json) -> usize {
    match json {
        Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        Json::Arr(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// The `n`-th object of the tree in pre-order.
fn nth_object<'a>(json: &'a mut Json, n: &mut usize) -> Option<&'a mut Vec<(String, Json)>> {
    if *n == 0 && matches!(json, Json::Obj(_)) {
        return match json {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        };
    }
    match json {
        Json::Obj(pairs) => {
            *n -= 1;
            pairs.iter_mut().find_map(|(_, v)| nth_object(v, n))
        }
        Json::Arr(items) => items.iter_mut().find_map(|v| nth_object(v, n)),
        _ => None,
    }
}

/// Applies one tree mutation: reorder an object's members, duplicate one
/// (first or second), add an unknown member, or make a `prob` a non-number.
fn mutate_tree(rng: &mut SplitMix64, json: &mut Json) {
    let count = count_objects(json);
    if count == 0 {
        return;
    }
    let Some(pairs) = nth_object(json, &mut rng.below(count)) else {
        return;
    };
    match rng.below(4) {
        0 => {
            for i in (1..pairs.len()).rev() {
                let j = rng.below(i + 1);
                pairs.swap(i, j);
            }
        }
        1 if !pairs.is_empty() => {
            let i = rng.below(pairs.len());
            let mut copy = pairs[i].clone();
            copy.1 = rng.pick(&[
                Json::Null,
                Json::Num(0.5),
                Json::from("dup"),
                Json::Arr(vec![]),
            ]);
            let place = if rng.chance(50) { i } else { i + 1 };
            pairs.insert(place, copy);
        }
        2 => {
            let unknown = (
                "unknown".to_string(),
                rng.pick(&[
                    Json::Null,
                    obj([("a", Json::Arr(vec![Json::Num(1.0)]))]),
                    Json::from("x"),
                ]),
            );
            let place = rng.below(pairs.len() + 1);
            pairs.insert(place, unknown);
        }
        _ => {
            if let Some((_, prob)) = pairs.iter_mut().find(|(k, _)| k == "prob") {
                *prob = rng.pick(&[
                    Json::from("0.5"),
                    Json::Null,
                    Json::Bool(true),
                    Json::Arr(vec![]),
                ]);
            }
        }
    }
}

/// Applies one byte-level mutation.
fn mutate_bytes(rng: &mut SplitMix64, frame: &mut Vec<u8>) {
    let text = String::from_utf8_lossy(frame).into_owned();
    match rng.below(8) {
        // Truncation.
        0 => frame.truncate(rng.below(frame.len() + 1)),
        // A byte flipped to anything, including bytes that are not UTF-8.
        1 if !frame.is_empty() => {
            let at = rng.below(frame.len());
            frame[at] = rng.pick(&[
                0xff, 0xc0, 0x80, b'"', b'\\', b'{', b']', b',', b'0', b' ', 0,
            ]);
        }
        // Invalid UTF-8 inside a string.
        2 => {
            if let Some(at) = text.find("\"r\"") {
                frame.splice(at + 1..at + 1, [0xc0, 0xaf]);
            }
        }
        // Escapes in `rel`.
        3 => {
            let escaped = rng.pick(&[r#""r""#, r#""\/r""#, r#""r\u0000""#, r#""🦀""#]);
            *frame = text
                .replacen(r#""rel": "r""#, &format!(r#""rel": {escaped}"#), 1)
                .into_bytes();
        }
        // Nesting at the ceiling and one past it, beside the facts or in
        // a value.
        4 | 5 => {
            let depth = rng.pick(&[MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH - 5, MAX_DEPTH - 4]);
            let nest = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            let (pattern, replacement) = if rng.chance(50) {
                (r#""key": "k""#, format!(r#""key": "k", "deep": {nest}"#))
            } else {
                (r#"{"u32": "#, format!(r#"{{"u32": {nest}, "x": "#))
            };
            *frame = text.replacen(pattern, &replacement, 1).into_bytes();
        }
        // A number spelled another way, within RFC 8259 or not.
        6 => {
            let spelled = rng.pick(&[".0", "e0", "E+0", ".5", "00", ".", "e"]);
            if let Some(at) = text.find(|c: char| c.is_ascii_digit()) {
                let end = at
                    + text[at..]
                        .find(|c: char| !c.is_ascii_digit())
                        .unwrap_or(text.len() - at);
                frame.splice(end..end, spelled.bytes());
            }
        }
        // A frame that is not an object at all.
        _ => *frame = format!("[{text}]").into_bytes(),
    }
}

#[test]
fn the_decoder_decides_every_frame_as_the_tree_walk_does() {
    let program = Program::compile(TYPES, ProvenanceKind::DiffTop1Proof).expect("compiles");
    let ids = known_ids();
    for case in 0..1000u64 {
        let seed = SEED + case;
        let mut rng = SplitMix64::new(seed);
        let mut tree = gen_frame(&mut rng, &ids);
        let mut frames = vec![tree.to_compact().into_bytes()];
        for _ in 0..4 {
            let mut mutated = tree.clone();
            mutate_tree(&mut rng, &mut mutated);
            frames.push(mutated.to_compact().into_bytes());
        }
        for _ in 0..6 {
            let mut frame = frames[rng.below(frames.len())].clone();
            mutate_bytes(&mut rng, &mut frame);
            frames.push(frame);
        }
        mutate_tree(&mut rng, &mut tree);
        frames.push(tree.to_pretty().into_bytes());
        for frame in &frames {
            let decoded = decided(frame, &program);
            let reference = reference_decision(frame, &program);
            assert_eq!(
                decoded,
                reference,
                "seed {seed:#x}, frame {}",
                String::from_utf8_lossy(frame)
            );
        }
    }
}

#[test]
fn requests_and_replies_are_the_bytes_of_their_trees() {
    let program = Program::compile(TYPES, ProvenanceKind::DiffTop1Proof).expect("compiles");
    let ids = known_ids();
    let mut out = String::new();
    for case in 0..60u64 {
        let seed = SEED + case;
        let mut rng = SplitMix64::new(seed);
        let facts = gen_facts(&mut rng, &ids);
        let key = rng.pick(&["k", "key \"with\" escapes\n", "\u{1F980}"]);
        out.clear();
        write_run_request(key, &facts, &mut out);
        let tree = request_to_json(key, &facts);
        assert_eq!(out, tree.to_compact(), "seed {seed:#x}");
        // And the decoder reads back what was written.
        assert_eq!(
            decided(out.as_bytes(), &program),
            reference_decision(out.as_bytes(), &program),
            "seed {seed:#x}, frame {out}"
        );

        let result = program
            .run_batch(std::slice::from_ref(&facts))
            .expect("runs")
            .remove(0);
        out.clear();
        write_run_reply(&result, &mut out);
        assert_eq!(out, result_to_json(&result).to_compact(), "seed {seed:#x}");
    }
}

const CLUTRR: &str = "type kinship(r: u32, a: u32, b: u32)
type composition(r1: u32, r2: u32, r3: u32)
type target(a: u32, b: u32)
rel derived(r, a, b) = kinship(r, a, b)
rel derived(r3, a, c) = derived(r1, a, b), kinship(r2, b, c), composition(r1, r2, r3)
rel answer(r) = target(a, b), derived(r, a, b)
query answer";

/// One CLUTRR request and its reply, as the tree codec sent them.
const CLUTRR_REQUEST: &[u8] = include_bytes!("clutrr_request.json");
const CLUTRR_REPLY: &[u8] = include_bytes!("clutrr_reply.json");

#[test]
fn a_clutrr_request_and_its_reply_keep_their_bytes() {
    let program =
        Arc::new(Program::compile(CLUTRR, ProvenanceKind::DiffTop1Proof).expect("compiles"));
    // Request: decoded, and written again from the facts, byte for byte.
    let text = std::str::from_utf8(CLUTRR_REQUEST).unwrap();
    let request = decode_request(text).expect("decodes");
    assert_eq!((&*request.op, &*request.key), ("run", "benchmark"));
    let facts = request
        .facts
        .and_then(|f| f.intern(&program))
        .expect("facts");
    let mut out = String::new();
    write_run_request("benchmark", &facts, &mut out);
    assert_eq!(out.as_bytes(), CLUTRR_REQUEST);

    // Reply: the pinned request over a socket answers the pinned bytes.
    let keys = KeyStore::new();
    keys.add_key("benchmark", crate::auth::Quota::unlimited());
    let config = ServerConfig {
        scheduler: SchedulerConfig::default()
            .with_max_batch_size(1)
            .with_workers(1),
        ..ServerConfig::default()
    };
    let server = Server::bind(("127.0.0.1", 0), program, keys, config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut frame = (CLUTRR_REQUEST.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(CLUTRR_REQUEST);
    stream.write_all(&frame).unwrap();
    static NEVER: AtomicBool = AtomicBool::new(false);
    let mut reply = Vec::new();
    assert!(read_frame(&mut stream, usize::MAX, &NEVER, &mut reply).unwrap());
    assert_eq!(
        String::from_utf8_lossy(&reply),
        String::from_utf8_lossy(CLUTRR_REPLY)
    );
    // The client reads it into the same tree the pinned bytes parse to.
    let mut client = Client::connect(server.local_addr(), "benchmark").unwrap();
    let answer = client.run(&facts).unwrap();
    assert_eq!(Ok(answer.json().clone()), json::parse_bytes(CLUTRR_REPLY));
    drop(stream);
    drop(client);
    server.shutdown();
}
