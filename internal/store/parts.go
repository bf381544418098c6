package store

// Aligned section codec for the per-shard checkpoint part files. Every
// payload is kept 8-byte aligned so a file mapped into memory can hand
// its integer columns straight to the graph backends without copying
// (see loadManifestGraph and mmap_unix.go):
//
//	header (24 bytes):
//	  magic "GVPART01" | format u32 LE | role u8 | pad u8[3] | seq u64 LE
//	section (24-byte header + padded payload):
//	  tag u32 LE | element count u32 LE | payload bytes u64 LE |
//	  crc32c(payload) u32 LE | pad u32 | payload | zero pad to 8
//
// The header and every section header are multiples of 8 bytes and each
// payload is padded to one, so every payload starts 8-aligned from the
// file start. Integer columns store raw little-endian element arrays;
// on a little-endian host an aligned, checksum-verified payload is
// reinterpreted in place (zero-copy) when the reader allows it, and
// copied element-by-element otherwise. String sections are always
// decoded by copy.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// partMagic opens every part file.
var partMagic = [8]byte{'G', 'V', 'P', 'A', 'R', 'T', '0', '1'}

// partFormat is the part-file format version; bump on layout change.
const partFormat = 1

// Part roles: which slice of the checkpoint a part file carries.
const (
	roleGlobal = 1 // labels, categorical keys, node→label column
	roleShard  = 2 // one shard's CSR + label partition + attrs (+ boundaries)
	roleExts   = 3 // materialized view extensions
)

// maxSectionBytes caps one section payload, rejecting absurd corrupted
// lengths before any allocation happens (2 GiB bounds a single column
// at half a billion edges — far past serving scale).
const maxSectionBytes = 1 << 31

// partHeaderLen and partSecLen are the fixed framing sizes.
const (
	partHeaderLen = 24
	partSecLen    = 24
)

// Part section tags. Global and shard parts carry the graph backends'
// columns; extension parts have their own block tags.
const (
	ptagLabels    = 1  // strings: interner names, id order
	ptagCatKeys   = 2  // strings: categorical attribute keys, sorted
	ptagNodeLabel = 3  // i32s: node id -> label id
	ptagOutOff    = 4  // i32s: forward CSR offsets
	ptagOutAdj    = 5  // i32s: forward CSR adjacency
	ptagInOff     = 6  // i32s: reverse CSR offsets
	ptagInAdj     = 7  // i32s: reverse CSR adjacency
	ptagLabelOff  = 8  // i32s: label partition offsets
	ptagLabelIdx  = 9  // i32s: label partition index
	ptagAttrOff   = 10 // i32s: attribute column offsets
	ptagAttrKey   = 11 // strings: attribute keys, per-node sorted
	ptagAttrVal   = 12 // i64s: attribute values
	ptagShardN    = 13 // u64: owned node count (sharded shard parts)
	ptagBoundSrc  = 14 // i32s: boundary edge sources (sharded shard parts)
	ptagBoundDst  = 15 // i32s: boundary edge targets (sharded shard parts)

	ptagExtCount    = 32 // u64: number of serialized view extensions
	ptagExtMeta     = 33 // strings: [view name, pattern fingerprint]
	ptagExtMatched  = 34 // u64: 1 when the view matched
	ptagExtSimLens  = 35 // i32s: per pattern node, sim-set length (-1 = nil)
	ptagExtSim      = 36 // i32s: concatenated sim sets
	ptagExtPairLens = 37 // i32s: per pattern edge, match-pair count (-1 = nil)
	ptagExtPairs    = 38 // i32s: interleaved (src,dst) over all edges
	ptagExtDistLens = 39 // i32s: per pattern edge, dist count (-1 = nil)
	ptagExtDists    = 40 // i32s: concatenated shortest-path distances
)

// hostLittleEndian reports whether this machine stores integers in the
// file byte order; only then can a mapped payload be adopted in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// pad8 rounds n up to the next multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// partWriter frames aligned sections onto w; the first error sticks and
// turns every later call into a no-op. n counts the bytes written, so
// the checkpoint can record exact part sizes in the manifest.
type partWriter struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

// write appends raw bytes, folding the error into the sticky state.
func (pw *partWriter) write(b []byte) {
	if pw.err != nil {
		return
	}
	var wrote int
	wrote, pw.err = pw.w.Write(b)
	pw.n += int64(wrote)
}

// header writes the part-file header.
func (pw *partWriter) header(role byte, seq uint64) {
	var hdr [partHeaderLen]byte
	copy(hdr[:], partMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], partFormat)
	hdr[12] = role
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	pw.write(hdr[:])
}

// section frames pw.buf as one payload with the given element count.
func (pw *partWriter) section(tag uint32, count int) {
	if pw.err != nil {
		return
	}
	var hdr [partSecLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], tag)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(count))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(pw.buf)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(pw.buf, castagnoli))
	pw.write(hdr[:])
	pw.write(pw.buf)
	if p := pad8(len(pw.buf)) - len(pw.buf); p > 0 {
		var zero [8]byte
		pw.write(zero[:p])
	}
}

// pu64 writes a scalar section.
func (pw *partWriter) pu64(tag uint32, v uint64) {
	pw.buf = binary.LittleEndian.AppendUint64(pw.buf[:0], v)
	pw.section(tag, 1)
}

// putPI32s writes a 32-bit integer column section (a free function
// because methods cannot be generic).
func putPI32s[T ~int32](pw *partWriter, tag uint32, s []T) {
	pw.buf = pw.buf[:0]
	for _, v := range s {
		pw.buf = binary.LittleEndian.AppendUint32(pw.buf, uint32(v))
	}
	pw.section(tag, len(s))
}

// pi64s writes a 64-bit integer column section.
func (pw *partWriter) pi64s(tag uint32, s []int64) {
	pw.buf = pw.buf[:0]
	for _, v := range s {
		pw.buf = binary.LittleEndian.AppendUint64(pw.buf, uint64(v))
	}
	pw.section(tag, len(s))
}

// pstrings writes a string column section.
func (pw *partWriter) pstrings(tag uint32, s []string) {
	pw.buf = pw.buf[:0]
	for _, v := range s {
		pw.buf = binary.LittleEndian.AppendUint32(pw.buf, uint32(len(v)))
		pw.buf = append(pw.buf, v...)
	}
	pw.section(tag, len(s))
}

// partReader decodes aligned sections from one fully loaded (or mapped)
// part image in writer order; the first error sticks and turns every
// later call into a no-op returning zero values. With zc set, verified
// integer payloads are reinterpreted in place instead of copied — the
// data must then outlive every decoded slice (mmap for process
// lifetime), and must never be written through.
type partReader struct {
	data []byte
	off  int
	err  error
	zc   bool
}

// newPartReader validates the part header against the manifest's role
// and sequence expectations.
func newPartReader(data []byte, role byte, seq uint64, zc bool) *partReader {
	pr := &partReader{data: data, off: partHeaderLen, zc: zc && hostLittleEndian}
	if len(data) < partHeaderLen {
		pr.err = fmt.Errorf("store: part file truncated at %d bytes", len(data))
		return pr
	}
	if [8]byte(data[:8]) != partMagic {
		pr.err = fmt.Errorf("store: not a part file (magic %q)", data[:8])
		return pr
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != partFormat {
		pr.err = fmt.Errorf("store: part format %d, this build reads %d", v, partFormat)
		return pr
	}
	if data[12] != role {
		pr.err = fmt.Errorf("store: part role %d, manifest expects %d", data[12], role)
		return pr
	}
	if got := binary.LittleEndian.Uint64(data[16:]); got != seq {
		pr.err = fmt.Errorf("store: part written at checkpoint %d, manifest expects %d", got, seq)
		return pr
	}
	return pr
}

// section reads one section header, demanding the expected tag, and
// returns its element count and checksum-verified payload.
func (pr *partReader) section(tag uint32) (int, []byte) {
	if pr.err != nil {
		return 0, nil
	}
	if len(pr.data)-pr.off < partSecLen {
		pr.err = fmt.Errorf("store: part truncated inside section header at %d", pr.off)
		return 0, nil
	}
	hdr := pr.data[pr.off:]
	if got := binary.LittleEndian.Uint32(hdr); got != tag {
		pr.err = fmt.Errorf("store: part section tag %d, want %d", got, tag)
		return 0, nil
	}
	count := int(int32(binary.LittleEndian.Uint32(hdr[4:])))
	plen := binary.LittleEndian.Uint64(hdr[8:])
	if plen > maxSectionBytes {
		pr.err = fmt.Errorf("store: part section of %d bytes exceeds the %d cap", plen, int64(maxSectionBytes))
		return 0, nil
	}
	body := pr.data[pr.off+partSecLen:]
	if uint64(len(body)) < plen {
		pr.err = fmt.Errorf("store: part truncated inside section %d payload", tag)
		return 0, nil
	}
	body = body[:plen]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[16:]) {
		pr.err = fmt.Errorf("store: part section %d checksum mismatch", tag)
		return 0, nil
	}
	next := pr.off + partSecLen + pad8(int(plen))
	if next > len(pr.data) {
		pr.err = fmt.Errorf("store: part truncated inside section %d padding", tag)
		return 0, nil
	}
	pr.off = next
	return count, body
}

// done verifies the reader consumed the image exactly.
func (pr *partReader) done() error {
	if pr.err == nil && pr.off != len(pr.data) {
		pr.err = fmt.Errorf("store: part has %d trailing bytes", len(pr.data)-pr.off)
	}
	return pr.err
}

// ru64 reads a scalar section.
func (pr *partReader) ru64(tag uint32) uint64 {
	count, body := pr.section(tag)
	if pr.err != nil {
		return 0
	}
	if count != 1 || len(body) != 8 {
		pr.err = fmt.Errorf("store: part section %d is not a scalar", tag)
		return 0
	}
	return binary.LittleEndian.Uint64(body)
}

// readPI32s reads a 32-bit integer column section: zero-copy when the
// reader allows it and the payload is aligned, element-wise otherwise.
// The result is always non-nil, matching the make-built columns the
// FromColumns adopters expect (they nil out append-built fields).
func readPI32s[T ~int32](pr *partReader, tag uint32) []T {
	count, body := pr.section(tag)
	if pr.err != nil {
		return nil
	}
	if count < 0 || len(body) != count*4 {
		pr.err = fmt.Errorf("store: part section %d holds %d bytes for %d elements", tag, len(body), count)
		return nil
	}
	if count == 0 {
		return make([]T, 0)
	}
	if pr.zc && uintptr(unsafe.Pointer(unsafe.SliceData(body)))%unsafe.Alignof(T(0)) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(body))), count)
	}
	s := make([]T, count)
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint32(body[i*4:]))
	}
	return s
}

// ri64s reads a 64-bit integer column section.
func (pr *partReader) ri64s(tag uint32) []int64 {
	count, body := pr.section(tag)
	if pr.err != nil {
		return nil
	}
	if count < 0 || len(body) != count*8 {
		pr.err = fmt.Errorf("store: part section %d holds %d bytes for %d elements", tag, len(body), count)
		return nil
	}
	if count == 0 {
		return make([]int64, 0)
	}
	if pr.zc && uintptr(unsafe.Pointer(unsafe.SliceData(body)))%unsafe.Alignof(int64(0)) == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(body))), count)
	}
	s := make([]int64, count)
	for i := range s {
		s[i] = int64(binary.LittleEndian.Uint64(body[i*8:]))
	}
	return s
}

// rstrings reads a string column section (nil when empty, matching the
// append-built string columns of Freeze/Shard and Interner.Clone).
// Strings are always copied: string headers cannot alias a mapping.
func (pr *partReader) rstrings(tag uint32) []string {
	count, body := pr.section(tag)
	if pr.err != nil || count == 0 {
		return nil
	}
	if count < 0 {
		pr.err = fmt.Errorf("store: part section %d has negative count", tag)
		return nil
	}
	s := make([]string, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 4 {
			pr.err = fmt.Errorf("store: part section %d truncated inside string %d", tag, i)
			return nil
		}
		slen := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if slen < 0 || len(body) < slen {
			pr.err = fmt.Errorf("store: part section %d truncated inside string %d", tag, i)
			return nil
		}
		s = append(s, string(body[:slen]))
		body = body[slen:]
	}
	if len(body) != 0 {
		pr.err = fmt.Errorf("store: part section %d has %d trailing bytes", tag, len(body))
		return nil
	}
	return s
}
