package serve

// The /query and /match response encoder. Answers are the bulk of what
// the server sends — a limit=0 answer can carry tens of thousands of
// pairs — so they are appended straight from the match sets into a
// pooled buffer instead of being flattened into an intermediate struct
// and reflected over by encoding/json. The byte format is exactly what
// json.Encoder with SetEscapeHTML(false) produced for the old
// struct-based response (fields in this order):
//
//	{"epoch":E,"pattern":"Q","matched":B,"size":N,"views_used":["V",…],
//	 "elapsed_us":T,"edges":[{"from":"a","to":"b","pairs":[[s,d],…]},…]}
//
// views_used is omitted when no view was used (/match never has any),
// edges when pairs were not requested or nothing matched; an edge with
// no pairs still carries "pairs":[]. One newline ends the body.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"

	gv "graphviews"
)

// maxPooledAnswer caps the capacity of a buffer returned to answerBufs:
// a rare huge limit=0 answer is encoded into a buffer that the garbage
// collector reclaims instead of one that stays resident in the pool.
const maxPooledAnswer = 1 << 20

// answerBufs recycles response buffers across requests.
var answerBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// noPairs is the writeAnswer limit for a request without ?pairs=1.
const noPairs = -1

// writeAnswer writes a 200 /query or /match response for res with one
// Write. limit is the number of pairs per edge to include: noPairs
// omits the edges, 0 includes every pair.
func writeAnswer(w http.ResponseWriter, epoch uint64, res *gv.Result, views []string, elapsedUs int64, limit int) {
	bp := answerBufs.Get().(*[]byte)
	b := appendAnswer((*bp)[:0], epoch, res, views, elapsedUs, limit)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write means the client is gone; nothing to report
	if cap(b) <= maxPooledAnswer {
		*bp = b
		answerBufs.Put(bp)
	}
}

// appendAnswer appends the response body for res to b.
func appendAnswer(b []byte, epoch uint64, res *gv.Result, views []string, elapsedUs int64, limit int) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"pattern":`...)
	b = appendString(b, res.Pattern.Name)
	b = append(b, `,"matched":`...)
	b = strconv.AppendBool(b, res.Matched)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(res.Size()), 10)
	if len(views) > 0 {
		b = append(b, `,"views_used":[`...)
		for i, v := range views {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `,"elapsed_us":`...)
	b = strconv.AppendInt(b, elapsedUs, 10)
	if limit != noPairs && res.Matched && len(res.Pattern.Edges) > 0 {
		b = append(b, `,"edges":[`...)
		for i, e := range res.Pattern.Edges {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"from":`...)
			b = appendString(b, res.Pattern.Nodes[e.From].Name)
			b = append(b, `,"to":`...)
			b = appendString(b, res.Pattern.Nodes[e.To].Name)
			b = append(b, `,"pairs":[`...)
			pairs := res.Edges[i].Pairs
			if limit > 0 && len(pairs) > limit {
				pairs = pairs[:limit]
			}
			if n := len(pairs); n > 0 {
				// Pairs are sorted by source, so the last source id sizes
				// the typical pair; appendPair grows b if one runs longer.
				b = slices.Grow(b, n*(2*decimalLen(uint32(pairs[n-1].Src))+4))
			}
			for j, p := range pairs {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendPair(b, p)
			}
			b = append(b, "]}"...)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// digitPairs holds "00".."99", two decimal digits per entry.
const digitPairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendPair appends one pair as [src,dst], extending b once and
// writing the digits in place. Node ids index the graph's nodes, so
// they are never negative.
func appendPair(b []byte, p gv.Pair) []byte {
	src, dst := uint32(p.Src), uint32(p.Dst)
	ns, nd := decimalLen(src), decimalLen(dst)
	n := len(b)
	b = slices.Grow(b, ns+nd+3)[:n+ns+nd+3]
	out := b[n:]
	out[0] = '['
	putDecimal(out[1:1+ns], src)
	out[1+ns] = ','
	putDecimal(out[2+ns:2+ns+nd], dst)
	out[2+ns+nd] = ']'
	return b
}

// decimalLen is the number of decimal digits of v.
func decimalLen(v uint32) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// putDecimal writes v into dst, which is exactly decimalLen(v) long,
// two digits per step from the right.
func putDecimal(dst []byte, v uint32) {
	i := len(dst)
	for v >= 100 {
		d := v % 100 * 2
		v /= 100
		i -= 2
		dst[i], dst[i+1] = digitPairs[d], digitPairs[d+1]
	}
	if v >= 10 {
		dst[0], dst[1] = digitPairs[v*2], digitPairs[v*2+1]
	} else {
		dst[0] = byte('0' + v)
	}
}

// appendString appends s as a JSON string. Plain printable ASCII
// without '"' or '\\' — identifier-style names, the common case — is
// copied through; anything else is handed to json.Encoder with
// SetEscapeHTML(false), so escapes, U+2028/U+2029 and invalid UTF-8
// come out exactly as the encoder writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s)
			return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
