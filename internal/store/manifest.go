package store

// The per-shard checkpoint layout: a small MANIFEST file naming one
// global part (labels, categorical keys, node→label column), one part
// per shard (CSR in both directions, label partition, attribute
// columns and — sharded — the boundary arrays) and optionally one
// extensions part (the materialized views, extensions.go). The
// manifest rename is the single atomic commit point of a checkpoint:
// part files are immutable once written and named by the checkpoint
// sequence that wrote them, so an incremental checkpoint publishes a
// new manifest referencing a mix of freshly written parts (the dirty
// shards) and parts carried over from earlier checkpoints (the clean
// ones). A part file not referenced by the committed manifest is
// garbage from a crashed or superseded checkpoint and is removed by
// the next Open/Checkpoint.
//
// Manifest layout (single CRC32C over the whole image, read fully):
//
//	magic "GVMANI01" | format u32 LE | kind u8 | pad u8[3] | k u32 LE |
//	seq u64 LE | write clock u64 LE | numNodes u64 LE | numEdges u64 LE |
//	entry count u32 LE | entries | crc32c u32 LE
//	entry: role u8 | shard idx u32 LE | seq u64 LE | size u64 LE

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"graphviews/internal/graph"
)

// Manifest file names.
const (
	manifestName = "MANIFEST"
	manifestTmp  = "MANIFEST.tmp"
)

// maniMagic opens the manifest file.
var maniMagic = [8]byte{'G', 'V', 'M', 'A', 'N', 'I', '0', '1'}

// maniFormat is the manifest format version; bump on layout change.
const maniFormat = 1

// maniHeaderLen is the fixed prefix before the entry table.
const maniHeaderLen = 8 + 4 + 1 + 3 + 4 + 8 + 8 + 8 + 8 + 4

// maniEntryLen is one encoded part entry.
const maniEntryLen = 1 + 4 + 8 + 8

// maxShardCount bounds k against corrupted manifests.
const maxShardCount = 1 << 20

// partEntry names one immutable part file from a manifest.
type partEntry struct {
	role byte
	idx  int    // shard index (0 for global and extension parts)
	seq  uint64 // checkpoint sequence that wrote the file
	size int64  // exact file length, verified at load
}

// name derives the part's file name; parts never share names across
// checkpoints because seq is strictly increasing.
func (e partEntry) name() string {
	switch e.role {
	case roleGlobal:
		return fmt.Sprintf("global-%d.part", e.seq)
	case roleExts:
		return fmt.Sprintf("exts-%d.part", e.seq)
	default:
		return fmt.Sprintf("shard-%d-%d.part", e.idx, e.seq)
	}
}

// Checkpoint kinds: which immutable graph backend the parts rebuild.
const (
	kindFrozen  = 1
	kindSharded = 2
)

// manifest describes one committed checkpoint.
type manifest struct {
	kind     byte // kindFrozen or kindSharded
	k        int  // shard count (1 for kindFrozen)
	seq      uint64
	version  uint64 // maintained write clock at checkpoint time
	numNodes int
	numEdges int
	parts    []partEntry
}

// global returns the manifest's global part entry.
func (m *manifest) global() (partEntry, bool) { return m.find(roleGlobal, 0) }

// shard returns the manifest's entry for shard i.
func (m *manifest) shard(i int) (partEntry, bool) { return m.find(roleShard, i) }

// exts returns the manifest's extensions entry when one exists.
func (m *manifest) exts() (partEntry, bool) { return m.find(roleExts, 0) }

func (m *manifest) find(role byte, idx int) (partEntry, bool) {
	for _, e := range m.parts {
		if e.role == role && e.idx == idx {
			return e, true
		}
	}
	return partEntry{}, false
}

// encodeManifest renders m, checksummed.
func encodeManifest(m *manifest) []byte {
	buf := make([]byte, 0, maniHeaderLen+len(m.parts)*maniEntryLen+4)
	buf = append(buf, maniMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, maniFormat)
	buf = append(buf, m.kind, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.k))
	buf = binary.LittleEndian.AppendUint64(buf, m.seq)
	buf = binary.LittleEndian.AppendUint64(buf, m.version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.numNodes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.numEdges))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.parts)))
	for _, e := range m.parts {
		buf = append(buf, e.role)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.idx))
		buf = binary.LittleEndian.AppendUint64(buf, e.seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.size))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeManifest parses and fully validates a manifest image: framing,
// checksum, bounds, and the entry-table shape (exactly one global part,
// exactly one part per shard 0..k-1, at most one extensions part).
// Manifests are committed atomically, so unlike a WAL tail any damage
// is an error, not survivable truncation.
func decodeManifest(data []byte) (*manifest, error) {
	if len(data) < maniHeaderLen+4 {
		return nil, fmt.Errorf("store: manifest truncated at %d bytes", len(data))
	}
	if [8]byte(data[:8]) != maniMagic {
		return nil, fmt.Errorf("store: not a manifest (magic %q)", data[:8])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("store: manifest checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != maniFormat {
		return nil, fmt.Errorf("store: manifest format %d, this build reads %d", v, maniFormat)
	}
	m := &manifest{
		kind:     data[12],
		k:        int(binary.LittleEndian.Uint32(data[16:])),
		seq:      binary.LittleEndian.Uint64(data[20:]),
		version:  binary.LittleEndian.Uint64(data[28:]),
		numNodes: int(binary.LittleEndian.Uint64(data[36:])),
		numEdges: int(binary.LittleEndian.Uint64(data[44:])),
	}
	if m.kind != kindFrozen && m.kind != kindSharded {
		return nil, fmt.Errorf("store: unknown manifest kind %d", m.kind)
	}
	if m.k < 1 || m.k > maxShardCount {
		return nil, fmt.Errorf("store: manifest shard count %d out of range", m.k)
	}
	if m.kind == kindFrozen && m.k != 1 {
		return nil, fmt.Errorf("store: frozen manifest with %d shards", m.k)
	}
	if m.numNodes < 0 || m.numEdges < 0 {
		return nil, fmt.Errorf("store: manifest with negative sizes")
	}
	count := int(binary.LittleEndian.Uint32(data[52:]))
	if count < 0 || count > m.k+2 {
		return nil, fmt.Errorf("store: manifest entry count %d for %d shards", count, m.k)
	}
	if want := maniHeaderLen + count*maniEntryLen + 4; len(data) != want {
		return nil, fmt.Errorf("store: manifest is %d bytes, want %d for %d entries", len(data), want, count)
	}
	seenShard := make([]bool, m.k)
	var seenGlobal, seenExts bool
	off := maniHeaderLen
	for i := 0; i < count; i++ {
		e := partEntry{
			role: data[off],
			idx:  int(binary.LittleEndian.Uint32(data[off+1:])),
			seq:  binary.LittleEndian.Uint64(data[off+5:]),
			size: int64(binary.LittleEndian.Uint64(data[off+13:])),
		}
		off += maniEntryLen
		if e.seq > m.seq || e.size < 0 {
			return nil, fmt.Errorf("store: manifest entry %d out of range", i)
		}
		switch e.role {
		case roleGlobal:
			if seenGlobal || e.idx != 0 {
				return nil, fmt.Errorf("store: manifest entry %d: duplicate global part", i)
			}
			seenGlobal = true
		case roleExts:
			if seenExts || e.idx != 0 {
				return nil, fmt.Errorf("store: manifest entry %d: duplicate extensions part", i)
			}
			seenExts = true
		case roleShard:
			if e.idx < 0 || e.idx >= m.k || seenShard[e.idx] {
				return nil, fmt.Errorf("store: manifest entry %d: bad shard index %d", i, e.idx)
			}
			seenShard[e.idx] = true
		default:
			return nil, fmt.Errorf("store: manifest entry %d: unknown role %d", i, e.role)
		}
		m.parts = append(m.parts, e)
	}
	if !seenGlobal {
		return nil, fmt.Errorf("store: manifest missing its global part")
	}
	for i, ok := range seenShard {
		if !ok {
			return nil, fmt.Errorf("store: manifest missing shard %d", i)
		}
	}
	return m, nil
}

// partPlan is the checkpoint-side view of a backend: its kind, shape
// and the column sets the part writers consume. Building a plan may
// freeze a mutable graph (like Save).
type partPlan struct {
	kind    byte
	k       int
	n       int
	edges   int
	frozen  *graph.FrozenColumns
	sharded *graph.ShardedColumns
}

// planOf projects g into a part plan.
func planOf(g graph.Reader) *partPlan {
	switch b := g.(type) {
	case *graph.Sharded:
		c := b.Columns()
		return &partPlan{kind: kindSharded, k: c.K, n: len(c.NodeLabel), edges: c.NumEdges, sharded: c}
	case *graph.Frozen:
		c := b.Columns()
		return &partPlan{kind: kindFrozen, k: 1, n: len(c.NodeLabel), edges: c.NumEdges, frozen: c}
	default:
		c := graph.Freeze(g).Columns()
		return &partPlan{kind: kindFrozen, k: 1, n: len(c.NodeLabel), edges: c.NumEdges, frozen: c}
	}
}

// writeGlobalPart emits the label-universe columns shared by every
// shard. These change only when the node set or label universe does —
// never under edge updates — so incremental checkpoints carry the
// global part over untouched.
func (p *partPlan) writeGlobalPart(pw *partWriter, seq uint64) {
	pw.header(roleGlobal, seq)
	if p.kind == kindSharded {
		pw.pstrings(ptagLabels, p.sharded.Labels)
		pw.pstrings(ptagCatKeys, p.sharded.CatKeys)
		putPI32s(pw, ptagNodeLabel, p.sharded.NodeLabel)
		return
	}
	pw.pstrings(ptagLabels, p.frozen.Labels)
	pw.pstrings(ptagCatKeys, p.frozen.CatKeys)
	putPI32s(pw, ptagNodeLabel, p.frozen.NodeLabel)
}

// writeShardPart emits shard i's columns. A frozen backend is a single
// "shard" holding the whole CSR.
func (p *partPlan) writeShardPart(pw *partWriter, i int, seq uint64) {
	pw.header(roleShard, seq)
	if p.kind == kindSharded {
		sc := &p.sharded.Shards[i]
		pw.pu64(ptagShardN, uint64(sc.N))
		putPI32s(pw, ptagOutOff, sc.OutOff)
		putPI32s(pw, ptagOutAdj, sc.OutAdj)
		putPI32s(pw, ptagInOff, sc.InOff)
		putPI32s(pw, ptagInAdj, sc.InAdj)
		putPI32s(pw, ptagLabelOff, sc.LabelOff)
		putPI32s(pw, ptagLabelIdx, sc.LabelIdx)
		putPI32s(pw, ptagBoundSrc, sc.BoundarySrc)
		putPI32s(pw, ptagBoundDst, sc.BoundaryDst)
		putPI32s(pw, ptagAttrOff, sc.AttrOff)
		pw.pstrings(ptagAttrKey, sc.AttrKey)
		pw.pi64s(ptagAttrVal, sc.AttrVal)
		return
	}
	c := p.frozen
	putPI32s(pw, ptagOutOff, c.OutOff)
	putPI32s(pw, ptagOutAdj, c.OutAdj)
	putPI32s(pw, ptagInOff, c.InOff)
	putPI32s(pw, ptagInAdj, c.InAdj)
	putPI32s(pw, ptagLabelOff, c.LabelOff)
	putPI32s(pw, ptagLabelIdx, c.LabelIdx)
	putPI32s(pw, ptagAttrOff, c.AttrOff)
	pw.pstrings(ptagAttrKey, c.AttrKey)
	pw.pi64s(ptagAttrVal, c.AttrVal)
}

// writePartFile writes one part through fill into its final name (no
// tmp: the manifest rename is the commit point, and an orphaned or
// half-written part is collected at the next Open), fsyncs it, and
// returns the completed entry.
func writePartFile(dir string, e partEntry, fill func(pw *partWriter)) (partEntry, error) {
	path := filepath.Join(dir, e.name())
	f, err := os.Create(path)
	if err != nil {
		return e, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	pw := &partWriter{w: bw}
	fill(pw)
	err = pw.err
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return e, fmt.Errorf("store: writing %s: %w", e.name(), err)
	}
	e.size = pw.n
	return e, nil
}

// readPart loads one manifest-referenced part image, mapped read-only
// under Options.Mmap (zero-copy column adoption) and read into memory
// otherwise.
func readPart(dir string, e partEntry, useMmap bool) (*partReader, error) {
	path := filepath.Join(dir, e.name())
	if useMmap && mmapSupported {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err == nil && st.Size() != e.size {
			err = fmt.Errorf("store: %s is %d bytes, manifest says %d", e.name(), st.Size(), e.size)
		}
		var data []byte
		if err == nil {
			data, err = mmapFile(f, e.size)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		return newPartReader(data, e.role, e.seq, true), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != e.size {
		return nil, fmt.Errorf("store: %s is %d bytes, manifest says %d", e.name(), len(data), e.size)
	}
	return newPartReader(data, e.role, e.seq, false), nil
}

// loadManifestGraph assembles the checkpointed backend (and, when
// present, the serialized view extensions) from a committed manifest.
func loadManifestGraph(dir string, m *manifest, useMmap bool) (graph.Reader, []ExtensionData, error) {
	ge, _ := m.global()
	gpr, err := readPart(dir, ge, useMmap)
	if err != nil {
		return nil, nil, err
	}
	labels := gpr.rstrings(ptagLabels)
	catKeys := gpr.rstrings(ptagCatKeys)
	nodeLabel := readPI32s[graph.LabelID](gpr, ptagNodeLabel)
	if err := gpr.done(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", ge.name(), err)
	}
	if len(nodeLabel) != m.numNodes {
		return nil, nil, fmt.Errorf("store: global part has %d nodes, manifest says %d", len(nodeLabel), m.numNodes)
	}

	var g graph.Reader
	if m.kind == kindSharded {
		c := &graph.ShardedColumns{
			Labels:    labels,
			CatKeys:   catKeys,
			NumEdges:  m.numEdges,
			K:         m.k,
			NodeLabel: nodeLabel,
			Shards:    make([]graph.ShardColumns, m.k),
		}
		for i := 0; i < m.k; i++ {
			se, _ := m.shard(i)
			pr, err := readPart(dir, se, useMmap)
			if err != nil {
				return nil, nil, err
			}
			sc := &c.Shards[i]
			sc.N = int(pr.ru64(ptagShardN))
			sc.OutOff = readPI32s[int32](pr, ptagOutOff)
			sc.OutAdj = readPI32s[graph.NodeID](pr, ptagOutAdj)
			sc.InOff = readPI32s[int32](pr, ptagInOff)
			sc.InAdj = readPI32s[graph.NodeID](pr, ptagInAdj)
			sc.LabelOff = readPI32s[int32](pr, ptagLabelOff)
			sc.LabelIdx = readPI32s[graph.NodeID](pr, ptagLabelIdx)
			sc.BoundarySrc = readPI32s[graph.NodeID](pr, ptagBoundSrc)
			sc.BoundaryDst = readPI32s[graph.NodeID](pr, ptagBoundDst)
			sc.AttrOff = readPI32s[int32](pr, ptagAttrOff)
			sc.AttrKey = pr.rstrings(ptagAttrKey)
			sc.AttrVal = pr.ri64s(ptagAttrVal)
			if err := pr.done(); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", se.name(), err)
			}
		}
		g, err = graph.ShardedFromColumns(c)
	} else {
		se, _ := m.shard(0)
		pr, rerr := readPart(dir, se, useMmap)
		if rerr != nil {
			return nil, nil, rerr
		}
		c := &graph.FrozenColumns{
			Labels:    labels,
			CatKeys:   catKeys,
			NumEdges:  m.numEdges,
			NodeLabel: nodeLabel,
		}
		c.OutOff = readPI32s[int32](pr, ptagOutOff)
		c.OutAdj = readPI32s[graph.NodeID](pr, ptagOutAdj)
		c.InOff = readPI32s[int32](pr, ptagInOff)
		c.InAdj = readPI32s[graph.NodeID](pr, ptagInAdj)
		c.LabelOff = readPI32s[int32](pr, ptagLabelOff)
		c.LabelIdx = readPI32s[graph.NodeID](pr, ptagLabelIdx)
		c.AttrOff = readPI32s[int32](pr, ptagAttrOff)
		c.AttrKey = pr.rstrings(ptagAttrKey)
		c.AttrVal = pr.ri64s(ptagAttrVal)
		if err := pr.done(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", se.name(), err)
		}
		g, err = graph.FrozenFromColumns(c)
	}
	if err != nil {
		return nil, nil, err
	}

	var exts []ExtensionData
	if ee, ok := m.exts(); ok {
		pr, err := readPart(dir, ee, useMmap)
		if err != nil {
			return nil, nil, err
		}
		exts, err = readExtsPart(pr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ee.name(), err)
		}
	}
	return g, exts, nil
}
