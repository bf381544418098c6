package pattern

import (
	"math"
	"testing"
)

// predsFromFuzzBytes decodes 4 bytes per predicate: attribute (3 names,
// forcing collisions), operator, categorical-vs-numeric, and the
// constant. Byte 255/254 map to the int64 extremes so the fuzzer reaches
// the vacuous wrap-around forms (x >= MinInt64 and friends) that
// simplePreds must reject; categorical predicates draw from 3 values and
// any operator, covering the ordered-categorical FALSE normalization.
func predsFromFuzzBytes(data []byte) []Predicate {
	var out []Predicate
	for len(data) >= 4 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		attr := string(rune('a' + b0%3))
		op := Op(b1 % 6)
		if b2%4 == 0 {
			out = append(out, Predicate{Attr: attr, Op: op, Str: string(rune('s' + b3%3)), IsStr: true})
			continue
		}
		val := int64(int8(b3))
		switch b3 {
		case 255:
			val = math.MaxInt64
		case 254:
			val = math.MinInt64
		}
		out = append(out, Predicate{Attr: attr, Op: op, Val: val})
	}
	return out
}

// FuzzEquivalentPreds pins the structural fast paths of EquivalentPreds
// (syntactic identity; attribute-by-attribute comparison of "simple"
// conjunctions) against the normal-form construction they shortcut: on
// arbitrary predicate pairs the two must always agree, and equivalence
// must stay symmetric and reflexive.
//
// Run the seed corpus with `go test`; fuzz with
//
//	go test -run '^$' -fuzz '^FuzzEquivalentPreds$' -fuzztime 15s ./internal/pattern
func FuzzEquivalentPreds(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add([]byte("\x00\x00\x01\x05"), []byte("\x00\x00\x01\x05"))                 // identical numeric
	f.Add([]byte("\x00\x02\x01\x05"), []byte("\x00\x03\x01\x04"))                 // x<5 vs x<=4: norm decides
	f.Add([]byte("\x00\x00\x00\x01"), []byte("\x00\x01\x00\x01"))                 // categorical = vs !=
	f.Add([]byte("\x00\x05\x01\xfe"), []byte("\x01\x00\x01\x07"))                 // x>=MinInt64 (vacuous) vs y==7
	f.Add([]byte("\x00\x00\x01\x03\x00\x00\x01\x04"), []byte("\x00\x02\x01\x03")) // x==3∧x==4 (FALSE) vs x<3
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := predsFromFuzzBytes(da), predsFromFuzzBytes(db)
		got := EquivalentPreds(a, b)
		want := equivalentPredsNorm(a, b)
		if got != want {
			t.Fatalf("EquivalentPreds(%v, %v) = %v, normal-form construction says %v",
				a, b, got, want)
		}
		if rev := EquivalentPreds(b, a); rev != got {
			t.Fatalf("EquivalentPreds not symmetric on (%v, %v): %v vs %v", a, b, got, rev)
		}
		if !EquivalentPreds(a, a) || !EquivalentPreds(b, b) {
			t.Fatalf("EquivalentPreds not reflexive on %v / %v", a, b)
		}
	})
}

// FuzzParsePattern feeds arbitrary text to the pattern DSL parser that
// serves /query and /match request bodies: Parse must never panic, and
// an accepted pattern must render to a fixed point —
// Parse(p.String()).String() == p.String().
//
// Run the seed corpus with `go test`; fuzz with
//
//	go test -run '^$' -fuzz '^FuzzParsePattern$' -fuzztime 15s ./internal/pattern
func FuzzParsePattern(f *testing.F) {
	f.Add("pattern q {\n  node a: A\n  node b: B\n  edge a -> b\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		want := p.String()
		back, err := Parse(want)
		if err != nil {
			t.Fatalf("rendered pattern does not parse: %v\n%s", err, want)
		}
		if got := back.String(); got != want {
			t.Fatalf("render is not a fixed point:\nfirst:  %q\nsecond: %q", want, got)
		}
	})
}
