// Package tix is the temporal aggregate index: a power-of-two segment
// tree over the sealed blocks of a binary (colf) store, where each
// interior node stores the serialized, mergeable per-continent
// distribution state of every delivered sample in its block range. An
// arbitrary [since, until) window then composes O(log n) pre-merged
// nodes plus a batch decode of only the partially covered edge blocks,
// instead of re-scanning every row in the window.
//
// The index lives in a CRC-guarded sidecar (samples.tix) next to the
// samples file and grows incrementally as blocks seal, following the
// same binding-fingerprint/cold-fallback discipline as internal/snap: a
// header binds the file to (pass set, probe index, campaign meta,
// store format), every record carries its own Castagnoli CRC, and any
// mismatch — binding, torn tail, a node whose byte range no longer
// matches the store's block list — drops the invalid suffix or the
// whole file. Corruption is never worse than a cache miss: queries fall
// back to decoding blocks.
//
// # File layout
//
//	magic[8] = "TIX" 1 0 0 0 '\n'
//	record   = u32 len(payload) | payload | u32 crc32c(payload)
//	payload  = header (exactly one, first) | node
//	header   = 0x00 | passSet | indexFP | metaFP | format byte
//	node     = 0x01 | uvarint level | uvarint start
//	         | varint startOff | varint endOff
//	         | uvarint rows | uvarint delivered
//	         | uvarint #continents
//	         | ( continent byte | Dist state
//	           | uvarint #bins | uvarint bin increment * )*
//
// A node at level L covers blocks [start, start+2^L); level-0 leaves
// are never stored — a single block decodes in microseconds through
// the batch kernels, so persisting leaves would double the sidecar for
// no query win. Nodes append in completion order (the binary-counter
// order blocks seal in), which makes the file bytes a deterministic
// function of the store prefix: growing the index incrementally or
// rebuilding it in one pass produces identical files.
//
// Distribution state reuses the stats.Dist snapshot codec with the
// samples pre-sorted, so composing a window is a sorted-slab merge and
// every rank query over the composed state answers bit-identically to
// a cold row scan of the same window (rank queries depend only on the
// sample multiset). Each continent's state is followed by its curve
// pre-aggregate — per-bin sample counts on the fixed figure grid (see
// curve.go) — so the dense CDF curve a window renders composes by
// integer addition instead of a pass over the samples.
//
// # What stays resident
//
// An opened index keeps, per stored node, its directory entry plus its
// curve summary: the per-continent sample count N and the curve count
// vector, decoded once at open (after the record's CRC checks) or taken
// from the merged state when Extend writes the node. Windowed CDFs
// (View.QueryCurves) compose from those summaries alone and never read
// the sidecar; only rank queries (View.Query — windowed quantiles, the
// dataset window op) read node slabs back, CRC re-verified per read.
package tix

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
)

// magic identifies a temporal index sidecar; the fourth byte is the
// format version.
var magic = [8]byte{'T', 'I', 'X', 2, 0, 0, 0, '\n'}

// PassSetCDF names the pass state this format version stores per node:
// the per-continent delivered-RTT distribution behind /cdf and the
// windowed /quantile. A different pass set never applies.
const PassSetCDF = "continent-cdf-v1"

// maxLevel bounds node levels to a sane tree height (2^48 blocks is
// far past any real store); decoded levels above it mark corruption.
const maxLevel = 48

// maxRecordBytes bounds one record's payload. A node's payload is
// dominated by 8 bytes per delivered sample; half a billion samples in
// one node is past any store this format serves, so larger lengths are
// treated as corruption rather than allocated.
const maxRecordBytes = 1 << 32

// Record type tags.
const (
	recHeader = 0x00
	recNode   = 0x01
)

// Binding is the identity the sidecar binds to, mirroring the snapshot
// envelope: the pass set (PassSetCDF), the probe index fingerprint
// (core.Index.Fingerprint) and the campaign meta fingerprint
// (core.MetaFingerprint). An index opened under a different binding is
// discarded and rebuilt.
type Binding struct {
	PassSet string
	Index   string
	Meta    string
}

// Continents resolves probe IDs to continents — the slice of core.Index
// the leaf builder and edge-block folds need. The resolver used at
// build time must match the one used at query time; the Binding's
// index fingerprint is what pins that.
type Continents interface {
	Known(probe int) bool
	Continent(probe int) (geo.Continent, bool)
}

// nodeKey addresses one segment node: its level and first block index.
type nodeKey struct {
	level int
	start int
}

// nodeRef is the in-memory directory entry for one validated node:
// where its record payload sits in the sidecar, what it covers, and its
// resident curve summary. Slabs are read back lazily per rank query;
// refs plus curve summaries stay resident.
type nodeRef struct {
	level            int
	start            int
	startOff, endOff int64 // covered byte range in the samples file
	rows, delivered  uint64
	payloadOff       int64 // file offset of the record payload
	payloadLen       int
	// curves is the node's curve summary; immutable once the ref is
	// stored, so views share it.
	curves *curveSet
}

// blocks returns the node's covered block count.
func (r nodeRef) blocks() int { return 1 << r.level }

// Index is a temporal aggregate index opened for maintenance: Extend
// appends nodes as blocks seal, View publishes immutable query
// handles. The Index itself is single-writer (callers serialize Extend
// and View); Views are safe for concurrent Query against a concurrent
// Extend, because records are append-only and a View only references
// records that existed when it was taken.
type Index struct {
	path    string
	f       *os.File
	binding Binding
	log     *obs.Logger

	nodes    map[nodeKey]nodeRef
	size     int64 // current file size (append offset)
	frontier int   // sealed blocks processed so far
	dec      *colf.BlockDecoder
}

// Open opens (or creates) the sidecar at path and validates it against
// the given binding and the store's current sealed block list. A
// missing file, a bad magic, or a binding mismatch yields a freshly
// initialized empty index; a torn or invalid record suffix is
// truncated away and the valid prefix kept. Open never decodes store
// blocks — call Extend to grow the index to the block list.
func Open(path string, b Binding, blocks []colf.BlockInfo, log *obs.Logger) (*Index, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		path: path, f: f, binding: b, log: log,
		nodes: make(map[nodeKey]nodeRef),
		dec:   colf.NewBlockDecoder(),
	}
	if err := ix.load(blocks); err != nil {
		f.Close()
		return nil, err
	}
	return ix, nil
}

// load walks the existing file, validates every record, and truncates
// or recreates as the discipline demands.
func (ix *Index) load(blocks []colf.BlockInfo) error {
	buf, err := io.ReadAll(ix.f)
	if err != nil {
		return err
	}
	reset := func(reason string) error {
		ix.log.Info("tix reset", "path", ix.path, "reason", reason)
		ix.nodes = make(map[nodeKey]nodeRef)
		ix.frontier = 0
		return ix.recreate()
	}
	if len(buf) < len(magic) {
		if len(buf) != 0 {
			return reset("short file")
		}
		return ix.recreate()
	}
	if string(buf[:len(magic)]) != string(magic[:]) {
		return reset("bad magic")
	}

	off := int64(len(magic))
	sawHeader := false
	truncate := func(reason string, at int64) error {
		ix.log.Info("tix truncated", "path", ix.path, "reason", reason, "offset", at)
		if err := ix.f.Truncate(at); err != nil {
			return err
		}
		ix.size = at
		return nil
	}
	for int(off) < len(buf) {
		rest := buf[off:]
		if len(rest) < 4 {
			return truncate("torn record length", off)
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		if n == 0 || n > maxRecordBytes || int64(len(rest)) < 4+n+4 {
			return truncate("torn record", off)
		}
		payload := rest[4 : 4+n]
		want := binary.LittleEndian.Uint32(rest[4+n:])
		if snap.Checksum(payload) != want {
			return truncate("record crc mismatch", off)
		}
		switch payload[0] {
		case recHeader:
			if sawHeader {
				return truncate("duplicate header", off)
			}
			hb, err := decodeHeader(payload)
			if err != nil {
				return reset("corrupt header: " + err.Error())
			}
			if hb != ix.binding {
				return reset("binding mismatch")
			}
			sawHeader = true
		case recNode:
			if !sawHeader {
				return reset("node before header")
			}
			// The full decode validates the curve section the summary
			// is taken from; the distributions it yields alias buf and
			// are dropped here.
			ref, ns, err := decodeNodeState(payload)
			if err != nil {
				return truncate("corrupt node: "+err.Error(), off)
			}
			if err := validateNode(ref, blocks, ix.nodes); err != nil {
				return truncate("stale node: "+err.Error(), off)
			}
			ref.payloadOff = off + 4
			ref.payloadLen = int(n)
			curves := ns.curves // a copy: ns's dists pin buf
			ref.curves = &curves
			ix.nodes[nodeKey{ref.level, ref.start}] = ref
			if end := ref.start + ref.blocks(); end > ix.frontier {
				ix.frontier = end
			}
		default:
			return truncate("unknown record type", off)
		}
		off += 4 + n + 4
	}
	if !sawHeader {
		return reset("missing header")
	}
	ix.size = off
	return nil
}

// recreate truncates the file to a fresh magic + header.
func (ix *Index) recreate() error {
	if err := ix.f.Truncate(0); err != nil {
		return err
	}
	if _, err := ix.f.WriteAt(magic[:], 0); err != nil {
		return err
	}
	ix.size = int64(len(magic))
	payload := encodeHeader(ix.binding)
	if err := ix.appendRecord(payload); err != nil {
		return err
	}
	return ix.f.Sync()
}

// appendRecord writes one length-prefixed, CRC-trailed record at the
// append offset.
func (ix *Index) appendRecord(payload []byte) error {
	rec := make([]byte, 0, len(payload)+8)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, snap.Checksum(payload))
	if _, err := ix.f.WriteAt(rec, ix.size); err != nil {
		return err
	}
	ix.size += int64(len(rec))
	return nil
}

// encodeHeader serializes the binding record.
func encodeHeader(b Binding) []byte {
	p := []byte{recHeader}
	p = snap.AppendString(p, b.PassSet)
	p = snap.AppendString(p, b.Index)
	p = snap.AppendString(p, b.Meta)
	return snap.AppendBool(p, true) // format: binary (the only store format indexed)
}

// decodeHeader parses a header record payload.
func decodeHeader(payload []byte) (Binding, error) {
	c := snap.NewCursor(payload[1:])
	var b Binding
	var err error
	if b.PassSet, err = c.String(); err != nil {
		return b, err
	}
	if b.Index, err = c.String(); err != nil {
		return b, err
	}
	if b.Meta, err = c.String(); err != nil {
		return b, err
	}
	if _, err = c.Bool(); err != nil {
		return b, err
	}
	if c.Remaining() != 0 {
		return b, fmt.Errorf("tix: %d trailing header bytes", c.Remaining())
	}
	return b, nil
}

// nodeState is one node's decoded aggregate: total rows and delivered
// rows covered, plus the per-continent delivered-RTT distributions of
// probes the index resolves and their curve pre-aggregates (per-bin
// sample counts on the fixed figure grid; always present alongside a
// non-empty distribution).
type nodeState struct {
	rows, delivered uint64
	dists           map[geo.Continent]*stats.Dist
	curves          curveSet
}

func newNodeState() *nodeState {
	return &nodeState{dists: make(map[geo.Continent]*stats.Dist)}
}

// merge folds right — covering the blocks after ns's — into ns.
// Receiver-first ordering keeps the float accumulators a deterministic
// function of the block range, whichever extend path built the node.
func (ns *nodeState) merge(right *nodeState) error {
	ns.rows += right.rows
	ns.delivered += right.delivered
	for _, ct := range geo.Continents() {
		rd := right.dists[ct]
		if rd == nil {
			continue
		}
		d := ns.dists[ct]
		if d == nil {
			ns.dists[ct] = rd
			continue
		}
		if err := d.Merge(rd); err != nil {
			return err
		}
	}
	ns.curves.add(&right.curves)
	return nil
}

// encodeNode serializes one node record payload. Distributions write
// sorted, so every stored slab is ascending and a query-time compose
// is a linear sorted merge; each distribution is followed by its curve
// count vector.
func encodeNode(level, start int, startOff, endOff int64, ns *nodeState) []byte {
	p := []byte{recNode}
	p = snap.AppendUvarint(p, uint64(level))
	p = snap.AppendUvarint(p, uint64(start))
	p = snap.AppendVarint(p, startOff)
	p = snap.AppendVarint(p, endOff)
	p = snap.AppendUvarint(p, ns.rows)
	p = snap.AppendUvarint(p, ns.delivered)
	var cts []geo.Continent
	for _, ct := range geo.Continents() {
		if d := ns.dists[ct]; d != nil && d.N() > 0 {
			cts = append(cts, ct)
		}
	}
	p = snap.AppendUvarint(p, uint64(len(cts)))
	for _, ct := range cts {
		p = append(p, byte(ct))
		d := ns.dists[ct]
		d.Sort()
		p = d.AppendState(p)
		cnt := ns.curves.counts[ct]
		p = snap.AppendUvarint(p, curveBins)
		for k := 0; k < curveBins; k++ {
			var x uint64
			if cnt != nil {
				x = cnt[k]
			}
			p = snap.AppendUvarint(p, x)
		}
	}
	return p
}

// decodeNodeFixed parses the fixed fields and returns the cursor
// positioned at the distribution section.
func decodeNodeFixed(payload []byte) (nodeRef, *snap.Cursor, error) {
	var ref nodeRef
	c := snap.NewCursor(payload[1:])
	level, err := c.Uvarint()
	if err != nil {
		return ref, nil, err
	}
	start, err := c.Uvarint()
	if err != nil {
		return ref, nil, err
	}
	if level < 1 || level > maxLevel {
		return ref, nil, fmt.Errorf("tix: node level %d out of range", level)
	}
	if start > 1<<62 || start%(1<<level) != 0 {
		return ref, nil, fmt.Errorf("tix: node start %d misaligned for level %d", start, level)
	}
	ref.level, ref.start = int(level), int(start)
	if ref.startOff, err = c.Varint(); err != nil {
		return ref, nil, err
	}
	if ref.endOff, err = c.Varint(); err != nil {
		return ref, nil, err
	}
	if ref.startOff < 0 || ref.endOff <= ref.startOff {
		return ref, nil, fmt.Errorf("tix: node byte range [%d, %d) invalid", ref.startOff, ref.endOff)
	}
	if ref.rows, err = c.Uvarint(); err != nil {
		return ref, nil, err
	}
	if ref.delivered, err = c.Uvarint(); err != nil {
		return ref, nil, err
	}
	if ref.delivered > ref.rows {
		return ref, nil, fmt.Errorf("tix: node delivered %d exceeds rows %d", ref.delivered, ref.rows)
	}
	return ref, c, nil
}

// decodeNodeState parses a full node payload including its
// distribution section. The returned distributions alias payload (lazy
// spans); the caller must keep payload alive, which holds for per-read
// buffers.
func decodeNodeState(payload []byte) (nodeRef, *nodeState, error) {
	ref, c, err := decodeNodeFixed(payload)
	if err != nil {
		return ref, nil, err
	}
	n, err := c.Uvarint()
	if err != nil {
		return ref, nil, err
	}
	if n > uint64(len(geo.Continents())) {
		return ref, nil, fmt.Errorf("tix: node claims %d continents", n)
	}
	ns := newNodeState()
	ns.rows, ns.delivered = ref.rows, ref.delivered
	prev := -1
	var total uint64
	for i := uint64(0); i < n; i++ {
		cb, err := c.Byte()
		if err != nil {
			return ref, nil, err
		}
		ct := geo.Continent(cb)
		if int(cb) <= prev || ct == geo.ContinentUnknown || ct.Code() == "??" {
			return ref, nil, fmt.Errorf("tix: bad continent byte %d in node", cb)
		}
		prev = int(cb)
		d, err := stats.DecodeDistState(c)
		if err != nil {
			return ref, nil, err
		}
		total += uint64(d.N())
		ns.dists[ct] = d
		nb, err := c.Uvarint()
		if err != nil {
			return ref, nil, err
		}
		if nb != curveBins {
			return ref, nil, fmt.Errorf("tix: node curve has %d bins, want %d", nb, curveBins)
		}
		cnt := make([]uint64, curveBins)
		var csum uint64
		for k := range cnt {
			if cnt[k], err = c.Uvarint(); err != nil {
				return ref, nil, err
			}
			if cnt[k] > uint64(d.N()) {
				return ref, nil, fmt.Errorf("tix: node curve bin %d counts %d of %d samples", k, cnt[k], d.N())
			}
			csum += cnt[k]
		}
		if csum > uint64(d.N()) {
			return ref, nil, fmt.Errorf("tix: node curve counts %d samples, dist holds %d", csum, d.N())
		}
		ns.curves.n[ct] = uint64(d.N())
		ns.curves.counts[ct] = cnt
	}
	if c.Remaining() != 0 {
		return ref, nil, fmt.Errorf("tix: %d trailing node bytes", c.Remaining())
	}
	if total > ref.delivered {
		return ref, nil, fmt.Errorf("tix: node holds %d samples but covers %d delivered rows", total, ref.delivered)
	}
	return ref, ns, nil
}

// validateNode pins a decoded node to the store's current block list:
// the covered block range must exist and its byte boundaries and row
// total must match exactly. A store that was truncated or rewritten
// shifts offsets and fails here, invalidating the node and everything
// appended after it.
func validateNode(ref nodeRef, blocks []colf.BlockInfo, seen map[nodeKey]nodeRef) error {
	span := ref.blocks()
	if ref.start+span > len(blocks) {
		return fmt.Errorf("node [%d, %d) past %d sealed blocks", ref.start, ref.start+span, len(blocks))
	}
	if _, dup := seen[nodeKey{ref.level, ref.start}]; dup {
		return fmt.Errorf("duplicate node level %d start %d", ref.level, ref.start)
	}
	if got := blocks[ref.start].Off; got != ref.startOff {
		return fmt.Errorf("node start offset %d, store block at %d", ref.startOff, got)
	}
	last := blocks[ref.start+span-1]
	if got := last.Off + last.Len; got != ref.endOff {
		return fmt.Errorf("node end offset %d, store block ends at %d", ref.endOff, got)
	}
	var rows, delivered uint64
	for _, bi := range blocks[ref.start : ref.start+span] {
		rows += uint64(bi.Zone.Rows)
		delivered += uint64(bi.Zone.Delivered)
	}
	if rows != ref.rows || delivered != ref.delivered {
		return fmt.Errorf("node covers %d/%d rows/delivered, store has %d/%d",
			ref.rows, ref.delivered, rows, delivered)
	}
	return nil
}

// readNodeState reads one node's payload back and decodes it, CRC
// re-verified (the page-cache read is cheap; the check keeps a
// post-open corruption from silently skewing a window).
func readNodeState(r io.ReaderAt, ref nodeRef) (*nodeState, error) {
	buf := make([]byte, ref.payloadLen+4)
	if _, err := r.ReadAt(buf, ref.payloadOff); err != nil {
		return nil, err
	}
	payload := buf[:ref.payloadLen]
	if want := binary.LittleEndian.Uint32(buf[ref.payloadLen:]); snap.Checksum(payload) != want {
		return nil, fmt.Errorf("tix: node at offset %d failed its CRC", ref.payloadOff)
	}
	_, ns, err := decodeNodeState(payload)
	return ns, err
}

// leafState decodes one sealed block and folds it into a fresh node
// state, mirroring core.WindowCDFPass.ObserveBlock exactly (probe-run
// continent caching, lost rows skipped) so index-composed windows see
// the same sample multiset a scan pass would.
func (ix *Index) leafState(store io.ReaderAt, bi colf.BlockInfo, cls Continents) (*nodeState, error) {
	blk, err := ix.dec.DecodeCols(store, bi, 0)
	if err != nil {
		return nil, err
	}
	ns := newNodeState()
	// blk.Zone is the CRC-verified footer zone — the trusted row totals.
	ns.rows = uint64(blk.Zone.Rows)
	ns.delivered = uint64(blk.Zone.Delivered)
	f := rowFolder{cs: &ns.curves, dists: ns.dists, cls: cls}
	if err := f.foldRows(blk, 0, blk.Rows()); err != nil {
		return nil, err
	}
	return ns, nil
}

// rowFolder folds delivered samples into a curve set and, unless dists
// is nil (the curve-only fold), into per-continent distributions,
// resolving each probe's continent once per run of equal probe IDs.
// Either way it keeps the sample semantics of core.WindowCDFPass: lost
// rows and unresolved probes skipped, non-finite RTTs rejected.
type rowFolder struct {
	cs    *curveSet
	dists map[geo.Continent]*stats.Dist
	cls   Continents

	probe    int // probe of the current run; 0 before the first row
	ct       geo.Continent
	resolved bool
	d        *stats.Dist
}

// add folds one delivered sample of probe.
func (f *rowFolder) add(probe int, v float64) error {
	if probe != f.probe {
		f.probe, f.resolved, f.d = probe, false, nil
		if f.cls.Known(probe) {
			f.ct, f.resolved = f.cls.Continent(probe)
			// Only real continents have curve slots (and node records).
			f.resolved = f.resolved && int(f.ct) < continentSlots
		}
		if f.resolved && f.dists != nil {
			if f.d = f.dists[f.ct]; f.d == nil {
				f.d = &stats.Dist{}
				f.dists[f.ct] = f.d
			}
		}
	}
	if !f.resolved {
		return nil
	}
	if f.d != nil {
		if err := f.d.Add(v); err != nil {
			return err
		}
	} else if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("tix: invalid sample %v", v)
	}
	f.cs.observe(f.ct, v)
	return nil
}

// foldRows folds the delivered rows [lo, hi) of blk.
func (f *rowFolder) foldRows(blk *colf.Block, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if blk.Lost[i] {
			continue
		}
		if err := f.add(blk.Probe[i], blk.RTT[i]); err != nil {
			return err
		}
	}
	return nil
}

// Extend grows the index to cover the given sealed block list, which
// must be the store's full list (a superset of what previous calls
// saw — the store is append-only). It replays the binary-counter
// completion schedule from block zero, appending every segment node
// not already stored: level-1 nodes fold their two leaf blocks, higher
// nodes merge their two children read back from the sidecar, so each
// block's rows decode at most once over the index's whole life. The
// full replay is what makes Extend self-healing — a corruption
// truncation that dropped interior nodes below the frontier gets them
// rebuilt on the next call, at the cost of cheap map lookups for
// everything already present. Appended records are fsynced once per
// call.
func (ix *Index) Extend(store io.ReaderAt, blocks []colf.BlockInfo, cls Continents) error {
	if cls == nil {
		return fmt.Errorf("tix: nil continent resolver")
	}
	wrote := false
	for i := 0; i < len(blocks); i++ {
		for level := 1; (i+1)%(1<<level) == 0; level++ {
			span := 1 << level
			start := i + 1 - span
			key := nodeKey{level, start}
			if _, ok := ix.nodes[key]; ok {
				continue
			}
			var left, right *nodeState
			var err error
			if level == 1 {
				if left, err = ix.leafState(store, blocks[start], cls); err != nil {
					return err
				}
				if right, err = ix.leafState(store, blocks[start+1], cls); err != nil {
					return err
				}
			} else {
				half := span / 2
				lref, lok := ix.nodes[nodeKey{level - 1, start}]
				rref, rok := ix.nodes[nodeKey{level - 1, start + half}]
				if !lok || !rok {
					return fmt.Errorf("tix: children of node level %d start %d missing", level, start)
				}
				if left, err = readNodeState(ix.f, lref); err != nil {
					return err
				}
				if right, err = readNodeState(ix.f, rref); err != nil {
					return err
				}
			}
			if err := left.merge(right); err != nil {
				return err
			}
			startOff := blocks[start].Off
			lastBlk := blocks[start+span-1]
			endOff := lastBlk.Off + lastBlk.Len
			payload := encodeNode(level, start, startOff, endOff, left)
			// Copy the summary out so the ref does not pin left's slabs.
			curves := left.curves
			ref := nodeRef{
				level: level, start: start,
				startOff: startOff, endOff: endOff,
				rows: left.rows, delivered: left.delivered,
				payloadOff: ix.size + 4, payloadLen: len(payload),
				curves: &curves,
			}
			if err := ix.appendRecord(payload); err != nil {
				return err
			}
			ix.nodes[key] = ref
			wrote = true
		}
	}
	ix.frontier = len(blocks)
	if wrote {
		if err := ix.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Frontier returns how many sealed blocks the index has processed.
func (ix *Index) Frontier() int { return ix.frontier }

// Nodes returns the stored node count.
func (ix *Index) Nodes() int { return len(ix.nodes) }

// Path returns the sidecar path.
func (ix *Index) Path() string { return ix.path }

// Close releases the sidecar handle. Views taken earlier must not be
// queried afterwards.
func (ix *Index) Close() error { return ix.f.Close() }

// View publishes an immutable query handle over the nodes stored so
// far. The directory is copied, so a later Extend never races a
// concurrent Query; the file handle is shared (records are append-only
// and a view only references records already written and synced).
func (ix *Index) View() *View {
	nodes := make(map[nodeKey]nodeRef, len(ix.nodes))
	for k, v := range ix.nodes {
		nodes[k] = v
	}
	return &View{f: ix.f, nodes: nodes, frontier: ix.frontier}
}

// levels returns the distinct node levels present, descending — handy
// for tests and the dataset CLI's index report.
func (ix *Index) levelsDesc() []int {
	var out []int
	seen := make(map[int]bool)
	for k := range ix.nodes {
		if !seen[k.level] {
			seen[k.level] = true
			out = append(out, k.level)
		}
	}
	slices.SortFunc(out, func(a, b int) int { return b - a })
	return out
}
