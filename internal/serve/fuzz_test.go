package serve

import (
	"strings"
	"testing"
)

// FuzzParseUpdates feeds arbitrary /update bodies and graph sizes to
// parseUpdates: it must never panic, and every update it accepts must
// name two node ids in [0,n), since the maintained graph indexes its
// adjacency by them.
//
// Run the seed corpus with `go test`; fuzz with
//
//	go test -run '^$' -fuzz '^FuzzParseUpdates$' -fuzztime 15s ./internal/serve
func FuzzParseUpdates(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string, n uint16) {
		ups, err := parseUpdates(strings.NewReader(body), int(n))
		if err != nil {
			return
		}
		for i, up := range ups {
			if up.From < 0 || int(up.From) >= int(n) || up.To < 0 || int(up.To) >= int(n) {
				t.Fatalf("update %d = %+v accepted outside [0,%d)", i, up, n)
			}
		}
	})
}
