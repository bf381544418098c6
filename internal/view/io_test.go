package view

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"graphviews/internal/simulation"
)

func TestExtensionsRoundTrip(t *testing.T) {
	g, vs := fig1()
	x, _ := Materialize(context.Background(), g, vs, 1)
	var buf bytes.Buffer
	if err := WriteExtensions(&buf, x); err != nil {
		t.Fatalf("WriteExtensions: %v", err)
	}
	x2, err := ReadExtensions(&buf, vs)
	if err != nil {
		t.Fatalf("ReadExtensions: %v", err)
	}
	if len(x2.Exts) != len(x.Exts) {
		t.Fatalf("view count mismatch")
	}
	for i := range x.Exts {
		if !x.Exts[i].Result.Equal(x2.Exts[i].Result) {
			t.Fatalf("view %d diverged after round trip:\n%v\nvs\n%v",
				i, x.Exts[i].Result, x2.Exts[i].Result)
		}
		// Sim sets preserved too.
		for u := range x.Exts[i].Result.Sim {
			a, b := x.Exts[i].Result.Sim[u], x2.Exts[i].Result.Sim[u]
			if len(a) != len(b) {
				t.Fatalf("sim sets differ for view %d node %d", i, u)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("sim sets differ for view %d node %d", i, u)
				}
			}
		}
	}
	if x2.TotalEdges() != x.TotalEdges() {
		t.Fatalf("TotalEdges mismatch: %d vs %d", x.TotalEdges(), x2.TotalEdges())
	}
}

func TestExtensionsUnmatchedRoundTrip(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 5, []string{"A"}) // only A labels
	_, vs := fig1()                                                 // PM/DBA/PRG views: no matches
	x, _ := Materialize(context.Background(), g, vs, 1)
	var buf bytes.Buffer
	if err := WriteExtensions(&buf, x); err != nil {
		t.Fatalf("WriteExtensions: %v", err)
	}
	x2, err := ReadExtensions(&buf, vs)
	if err != nil {
		t.Fatalf("ReadExtensions: %v", err)
	}
	for i := range x2.Exts {
		if x2.Exts[i].Result.Matched {
			t.Fatalf("unmatched view became matched")
		}
	}
}

// TestReadExtensionsRestoresStrictOrder: a hand-edited file with pairs
// out of order and repeated loads as a strictly ascending set, each
// repeated pair keeping its minimum distance.
func TestReadExtensionsRestoresStrictOrder(t *testing.T) {
	_, vs := fig1()
	in := "view V1 matched=1\n" +
		"ematch 0 1 7 1\nematch 0 0 5 2\nematch 0 0 2 3\nematch 0 0 5 1\nematch 0 1 7 4\n" +
		"view V2 matched=0\n"
	x, err := ReadExtensions(strings.NewReader(in), vs)
	if err != nil {
		t.Fatal(err)
	}
	em := x.Exts[0].Result.Edges[0]
	want := simulation.EdgeMatches{
		Pairs: []simulation.Pair{{Src: 0, Dst: 2}, {Src: 0, Dst: 5}, {Src: 1, Dst: 7}},
		Dists: []int32{3, 1, 1},
	}
	if !reflect.DeepEqual(em, want) {
		t.Fatalf("loaded %v, want %v", em, want)
	}
}

func TestReadExtensionsErrors(t *testing.T) {
	_, vs := fig1()
	cases := []string{
		"view WRONG matched=1",          // name mismatch
		"sim 0 1",                       // sim before view
		"view V1 matched=1\nsim 99 0",   // bad node index
		"view V1 matched=1\nematch 0 1", // short ematch
		"view V1 matched=1\nwhat 0",     // unknown directive
		"view V1 matched=1",             // missing V2
		"view V1 matched=1\nview V2 matched=1\nview V2 matched=1", // too many
		"view V1 matched=1\nsim 0 xyz\nview V2 matched=1",         // bad id
	}
	for _, c := range cases {
		if _, err := ReadExtensions(strings.NewReader(c), vs); err == nil {
			t.Errorf("ReadExtensions(%q) succeeded, want error", c)
		}
	}
}
