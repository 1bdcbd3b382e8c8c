package relstore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/keyenc"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/uint128"
)

// --- columnar heap page layout (BLASREL3) ---
//
// A heap page stores its cluster-key-ordered records as runs of column
// groups:
//
//	[0:2]  record count
//	[2:4]  run count
//	[4:..] run directory, 4 bytes per run: {block offset u16, first slot u16}
//	       then the run blocks
//
// A run is a maximal stretch of records on the page sharing the cluster
// prefix (the {plabel, tag id} pair on SP, the tag id on SD). Its block:
//
//	SP: plabel[16] tagID[4] count[2] startsLen[2] endsLen[2] levelsLen[2] vlensLen[2]
//	SD: tagID[4] count[2] startsLen[2] endsLen[2] levelsLen[2] vlensLen[2] nlabels[2] idxLen[2]
//	    labels[16*nlabels] then the label index column
//
// An SD run stores each distinct P-label of its records once, in order
// of first appearance, and each record a uvarint index into that
// dictionary (one byte while the run has fewer than 128 labels). Every
// block continues with four varint columns and the value bytes:
//
//	starts: uvarint(start[0]), then uvarint(start[i] - start[i-1])
//	ends:   zigzag-uvarint(end[i] - start[i]) per record
//	levels: uvarint per record
//	vlens:  uvarint(len(data)) per record
//	values: the data bytes, concatenated in record order
//
// Starts ascend within a run (the cluster key is {prefix, start}), so the
// deltas are small; ends are encoded relative to their own start, which
// keeps them small regardless of nesting. The column byte lengths in the
// run header let a decoder position every column cursor without scanning,
// so a whole run decodes with one branch-light loop per column. A
// Locator's Slot is the record's ordinal position on the page.

const (
	colPageHeader = 4 // record count + run count
	colRunDirEnt  = 4 // block offset + first slot
	spRunHeader   = 16 + 4 + 2 + 4*2
	sdRunHeader   = 4 + 2 + 4*2 + 2 + 2
	minColRecord  = 4 // one byte in each varint column, no value bytes
)

func runHeaderSize(kind Clustering) int {
	if kind == ClusterPLabel {
		return spRunHeader
	}
	return sdRunHeader
}

// labelIndex returns p's index in an SD run's label dictionary and
// whether the dictionary holds it; a new label takes the next index.
// A run holds a handful of labels (at most 12 on auction factor 8), so
// a linear scan is enough.
func labelIndex(dict []uint128.Uint128, p uint128.Uint128) (int, bool) {
	for i, l := range dict {
		if l == p {
			return i, true
		}
	}
	return len(dict), false
}

// labelCost is the encoded size of an SD record's label: its index
// entry, plus the dictionary entry when the label is new to the run.
func labelCost(idx int, known bool) int {
	if known {
		return uvarintLen(uint64(idx))
	}
	return 16 + uvarintLen(uint64(idx))
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// sameRun reports whether b continues a's run (same cluster prefix).
func sameRun(kind Clustering, a, b *Record) bool {
	if kind == ClusterPLabel {
		return a.PLabel == b.PLabel && a.TagID == b.TagID
	}
	return a.TagID == b.TagID
}

// colRecordCost returns the encoded size of r's varint column and
// value bytes on a heap page; an SD record also pays its labelCost.
// prev is the preceding record of the run, nil when r opens one.
func colRecordCost(prev, r *Record) int {
	var startBytes int
	if prev == nil {
		startBytes = uvarintLen(uint64(r.Start))
	} else {
		startBytes = uvarintLen(uint64(r.Start - prev.Start))
	}
	return startBytes +
		uvarintLen(zigzag(int64(r.End)-int64(r.Start))) +
		uvarintLen(uint64(r.Level)) +
		uvarintLen(uint64(len(r.Data))) +
		len(r.Data)
}

// colMaxRecord is the largest encoded size a single record may have and
// still fit alone on an empty page.
func colMaxRecord(kind Clustering) int {
	return pager.PageSize - colPageHeader - colRunDirEnt - runHeaderSize(kind)
}

// encodeColumnarPage writes recs (cluster-key order, pre-sized to fit by
// the builder's cost accounting) into page p.
func encodeColumnarPage(p []byte, kind Clustering, recs []*Record) error {
	// Cut the records into runs.
	type runSpan struct{ lo, hi int }
	var runs []runSpan
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && sameRun(kind, recs[i], recs[j]) {
			j++
		}
		runs = append(runs, runSpan{i, j})
		i = j
	}
	binary.LittleEndian.PutUint16(p[0:2], uint16(len(recs)))
	binary.LittleEndian.PutUint16(p[2:4], uint16(len(runs)))

	off := colPageHeader + colRunDirEnt*len(runs)
	for ri, rs := range runs {
		binary.LittleEndian.PutUint16(p[colPageHeader+colRunDirEnt*ri:], uint16(off))
		binary.LittleEndian.PutUint16(p[colPageHeader+colRunDirEnt*ri+2:], uint16(rs.lo))

		rr := recs[rs.lo:rs.hi]
		var starts, ends, levels, vlens, idxs []byte
		var labels []uint128.Uint128 // SD: the run's label dictionary
		var vbytes int
		prev := uint32(0)
		for i, r := range rr {
			d := uint64(r.Start)
			if i > 0 {
				d = uint64(r.Start - prev)
			}
			prev = r.Start
			starts = binary.AppendUvarint(starts, d)
			ends = binary.AppendUvarint(ends, zigzag(int64(r.End)-int64(r.Start)))
			levels = binary.AppendUvarint(levels, uint64(r.Level))
			vlens = binary.AppendUvarint(vlens, uint64(len(r.Data)))
			vbytes += len(r.Data)
			if kind == ClusterTag {
				idx, known := labelIndex(labels, r.PLabel)
				if !known {
					labels = append(labels, r.PLabel)
				}
				idxs = binary.AppendUvarint(idxs, uint64(idx))
			}
		}

		end := off + runHeaderSize(kind) + 16*len(labels) + vbytes
		for _, col := range [][]byte{idxs, starts, ends, levels, vlens} {
			end += len(col)
		}
		if end > pager.PageSize {
			return fmt.Errorf("relstore: columnar page overflow (%d bytes) — builder cost accounting is wrong", end)
		}

		h := rr[0]
		if kind == ClusterPLabel {
			copy(p[off:], h.PLabel.AppendBytes(nil))
			binary.LittleEndian.PutUint32(p[off+16:], h.TagID)
			binary.LittleEndian.PutUint16(p[off+20:], uint16(len(rr)))
			binary.LittleEndian.PutUint16(p[off+22:], uint16(len(starts)))
			binary.LittleEndian.PutUint16(p[off+24:], uint16(len(ends)))
			binary.LittleEndian.PutUint16(p[off+26:], uint16(len(levels)))
			binary.LittleEndian.PutUint16(p[off+28:], uint16(len(vlens)))
			off += spRunHeader
		} else {
			binary.LittleEndian.PutUint32(p[off:], h.TagID)
			binary.LittleEndian.PutUint16(p[off+4:], uint16(len(rr)))
			binary.LittleEndian.PutUint16(p[off+6:], uint16(len(starts)))
			binary.LittleEndian.PutUint16(p[off+8:], uint16(len(ends)))
			binary.LittleEndian.PutUint16(p[off+10:], uint16(len(levels)))
			binary.LittleEndian.PutUint16(p[off+12:], uint16(len(vlens)))
			binary.LittleEndian.PutUint16(p[off+14:], uint16(len(labels)))
			binary.LittleEndian.PutUint16(p[off+16:], uint16(len(idxs)))
			off += sdRunHeader
			for _, l := range labels {
				copy(p[off:], l.AppendBytes(nil))
				off += 16
			}
		}
		for _, col := range [][]byte{idxs, starts, ends, levels, vlens} {
			copy(p[off:], col)
			off += len(col)
		}
		for _, r := range rr {
			copy(p[off:], r.Data)
			off += len(r.Data)
		}
	}
	return nil
}

// colRun is the decoded shape of one run block: the prefix it shares and
// absolute page offsets of every column.
type colRun struct {
	plabel    uint128.Uint128 // SP runs only (SD runs index a dictionary)
	tagID     uint32
	count     int
	firstSlot int
	labels    int // SD label dictionary offset (0 on SP)
	nlabels   int // SD dictionary entries
	idxs      int // SD label index column offset
	starts    int
	ends      int
	levels    int
	vlens     int
	values    int
}

// colPageCounts reads the page header and checks that the run
// directory it announces fits the page.
func colPageCounts(p []byte) (nrecs, nruns int, err error) {
	nrecs, nruns = int(binary.LittleEndian.Uint16(p[0:2])), int(binary.LittleEndian.Uint16(p[2:4]))
	if colPageHeader+colRunDirEnt*nruns > len(p) {
		return 0, 0, fmt.Errorf("relstore: corrupt columnar page: %d-run directory overruns the page", nruns)
	}
	return nrecs, nruns, nil
}

// colRunAt parses run ri's directory entry and block header. It checks
// once per run that the header, every column start and (on SD) the
// label dictionary lie inside the page, so the per-record decode loops
// can index p without further checks: a varint cursor that starts
// inside p never leaves it.
func colRunAt(p []byte, kind Clustering, ri int) (colRun, error) {
	off := int(binary.LittleEndian.Uint16(p[colPageHeader+colRunDirEnt*ri:]))
	first := int(binary.LittleEndian.Uint16(p[colPageHeader+colRunDirEnt*ri+2:]))
	var r colRun
	if off+runHeaderSize(kind) > len(p) {
		return r, fmt.Errorf("relstore: corrupt columnar page: run %d block offset %d past the page", ri, off)
	}
	r.firstSlot = first
	if kind == ClusterPLabel {
		r.plabel = uint128.FromBytes(p[off:])
		r.tagID = binary.LittleEndian.Uint32(p[off+16:])
		r.count = int(binary.LittleEndian.Uint16(p[off+20:]))
		r.starts = off + spRunHeader
		r.ends = r.starts + int(binary.LittleEndian.Uint16(p[off+22:]))
		r.levels = r.ends + int(binary.LittleEndian.Uint16(p[off+24:]))
		r.vlens = r.levels + int(binary.LittleEndian.Uint16(p[off+26:]))
		r.values = r.vlens + int(binary.LittleEndian.Uint16(p[off+28:]))
	} else {
		r.tagID = binary.LittleEndian.Uint32(p[off:])
		r.count = int(binary.LittleEndian.Uint16(p[off+4:]))
		r.nlabels = int(binary.LittleEndian.Uint16(p[off+14:]))
		r.labels = off + sdRunHeader
		r.idxs = r.labels + 16*r.nlabels
		r.starts = r.idxs + int(binary.LittleEndian.Uint16(p[off+16:]))
		r.ends = r.starts + int(binary.LittleEndian.Uint16(p[off+6:]))
		r.levels = r.ends + int(binary.LittleEndian.Uint16(p[off+8:]))
		r.vlens = r.levels + int(binary.LittleEndian.Uint16(p[off+10:]))
		r.values = r.vlens + int(binary.LittleEndian.Uint16(p[off+12:]))
	}
	// Columns are laid out in order, so the last column end bounds them
	// all (on SD the dictionary and the index column precede the starts).
	if r.values > len(p) {
		return r, fmt.Errorf("relstore: corrupt columnar page: run %d columns end at %d, past the page", ri, r.values)
	}
	return r, nil
}

// decodeRunRecords materializes the run's records with relative indices
// in [a, b) into dst[0 : b-a]. Each column decodes in its own tight
// loop; records before a are walked (their deltas position the column
// offsets) but never stored. A run decoder with a BatchSize buffer
// always starts at a = 0, so that prefix walk happens only for scans
// read with smaller buffers, which resume mid-run. Strings are copied out of the
// page, so nothing in dst references the pager frame after the caller's
// view ends.
//
//blas:hotpath
func decodeRunRecords(p []byte, kind Clustering, run colRun, a, b int, dst []Record) error {
	if a < 0 || b > run.count || a > b {
		return fmt.Errorf("relstore: run slice [%d, %d) out of range (count %d)", a, b, run.count)
	}
	// starts and ends advance together: an end is a zigzag delta off its
	// own start, so one fused loop over both cursors avoids buffering the
	// decoded starts.
	sOff, eOff := run.starts, run.ends
	var cum uint32
	for i := 0; i < b; i++ {
		d, n := binary.Uvarint(p[sOff:])
		if n <= 0 {
			return fmt.Errorf("relstore: corrupt starts column at offset %d", sOff)
		}
		sOff += n
		cum += uint32(d)
		ez, n2 := binary.Uvarint(p[eOff:])
		if n2 <= 0 {
			return fmt.Errorf("relstore: corrupt ends column at offset %d", eOff)
		}
		eOff += n2
		if i >= a {
			dst[i-a].Start = cum
			dst[i-a].End = uint32(int64(cum) + unzigzag(ez))
		}
	}
	lOff := run.levels
	for i := 0; i < b; i++ {
		v, n := binary.Uvarint(p[lOff:])
		if n <= 0 {
			return fmt.Errorf("relstore: corrupt levels column at offset %d", lOff)
		}
		lOff += n
		if i >= a {
			dst[i-a].Level = uint16(v)
		}
	}
	// Values are stored back to back, so the batch's bytes form one
	// contiguous region of the page: copy it out as a single string and
	// hand each record a substring (substrings share the backing array),
	// one allocation per run chunk instead of one per record.
	vOff, val := run.vlens, run.values
	for i := 0; i < a; i++ {
		vl, n := binary.Uvarint(p[vOff:])
		if n <= 0 {
			return fmt.Errorf("relstore: corrupt vlens column at offset %d", vOff)
		}
		vOff += n
		if vl > uint64(len(p)-val) {
			return fmt.Errorf("relstore: value bytes run past page end (offset %d)", val)
		}
		val += int(vl)
	}
	blobStart, aOff := val, vOff
	for i := a; i < b; i++ {
		vl, n := binary.Uvarint(p[vOff:])
		if n <= 0 {
			return fmt.Errorf("relstore: corrupt vlens column at offset %d", vOff)
		}
		vOff += n
		if vl > uint64(len(p)-val) {
			return fmt.Errorf("relstore: value bytes run past page end (offset %d)", val)
		}
		val += int(vl)
	}
	blob := string(p[blobStart:val])
	vOff, off := aOff, 0
	for i := a; i < b; i++ {
		vl, n := binary.Uvarint(p[vOff:])
		vOff += n
		dst[i-a].Data = blob[off : off+int(vl)]
		off += int(vl)
	}
	if kind == ClusterPLabel {
		for i := a; i < b; i++ {
			dst[i-a].PLabel = run.plabel
			dst[i-a].TagID = run.tagID
		}
	} else {
		xOff := run.idxs
		for i := 0; i < b; i++ {
			x, n := binary.Uvarint(p[xOff:])
			if n <= 0 {
				return fmt.Errorf("relstore: corrupt label index column at offset %d", xOff)
			}
			if x >= uint64(run.nlabels) {
				return fmt.Errorf("relstore: label index %d out of range (%d labels) at offset %d", x, run.nlabels, xOff)
			}
			xOff += n
			if i >= a {
				dst[i-a].PLabel = uint128.FromBytes(p[run.labels+16*int(x):])
				dst[i-a].TagID = run.tagID
			}
		}
	}
	return nil
}

// heapRunIter is the run decoder, the page reader under every cursor
// run: one index descent finds the first qualifying locator (the
// planner's probe of the run, the skip scan of a range selection, or
// seek), then the scan walks the
// contiguous heap pages directly, stopping on the first run whose
// prefix leaves the selection. Index leaf pages are never touched past
// that descent, and only materialized records count as visited.
type heapRunIter struct {
	r   *Relation
	ctx *ExecContext
	// selection: the cluster prefix, plabel on SP and tagID on SD.
	// matchAll accepts every run — the full-relation scan.
	plabel   uint128.Uint128
	err      error
	slot     int
	page     pager.PageID
	tagID    uint32
	matchAll bool
	done     bool
}

// seek positions a decoder, built unpositioned, at the first record of
// its selection: the runs no probe or skip scan started, and the
// benchmark's whole-relation scan. It probes exactly one index position
// (SeekValue runs inside pager views); the cluster prefix bounds the
// scan above, so no `to` key is needed.
func (h *heapRunIter) seek() {
	var from []byte
	switch {
	case h.matchAll:
	case h.r.meta.kind == ClusterPLabel:
		from = keyenc.Uint128(h.plabel)
	default:
		from = keyenc.Uint32(h.tagID)
	}
	var locBuf [6]byte
	val, ok, err := h.r.cluster.SeekValue(from, locBuf[:0], h.ctx.pageCounters())
	if err != nil || !ok {
		h.done, h.err = true, err
		return
	}
	loc := decodeLocator(val)
	h.page, h.slot = loc.Page, int(loc.Slot)
}

// matches reports whether a run belongs to the selection.
func (h *heapRunIter) matches(run colRun) bool {
	if h.matchAll {
		return true
	}
	if h.r.meta.kind == ClusterPLabel {
		return run.plabel == h.plabel
	}
	return run.tagID == h.tagID
}

// NextBatch returns the selection's records on the scan's current heap
// page, up to len(dst), decoded under one pager view; every batch comes
// from exactly one page. A BatchSize dst holds any page's share, so a
// drain requests each page once. A smaller dst splits the page: the next
// call views it again and resumes mid-run. The selection's end is seen
// in the same view when another run follows it on the page; when it
// ends with its page, the next call views the following page to see it.
// A return of (0, nil) means the selection is exhausted.
func (h *heapRunIter) NextBatch(dst []Record) (int, error) {
	if h.err != nil {
		return 0, h.err
	}
	tr := h.ctx.Trace()
	for !h.done && len(dst) > 0 {
		if h.page > h.r.meta.heapLast {
			h.done = true
			break
		}
		n := 0
		err := h.r.f.ViewCounted(h.page, h.ctx.pageCounters(), func(p []byte) error {
			begin := tr.Begin()
			var err error
			n, err = h.decodePage(p, dst)
			tr.End(obs.PhaseDecode, begin)
			return err
		})
		if err != nil {
			h.err = err
			return 0, err
		}
		if n > 0 {
			h.ctx.addVisitedN(uint64(n))
			tr.AddDecoded(n)
			return n, nil
		}
	}
	return 0, nil
}

// decodePage decodes the selection's records on page p from h.slot on
// into dst, up to len(dst), and advances the scan position past them.
// A page with no records left moves the scan to the next page.
func (h *heapRunIter) decodePage(p []byte, dst []Record) (int, error) {
	nrecs, nruns, err := colPageCounts(p)
	if err != nil {
		return 0, err
	}
	if h.slot >= nrecs {
		// Off the end of this page (or an empty page): move on.
		h.page++
		h.slot = 0
		return 0, nil
	}
	// The run directory is ordered by firstSlot, so binary-search for
	// the run containing h.slot instead of parsing every header: dir
	// entries carry firstSlot directly.
	lo, up := 0, nruns
	for lo < up {
		mid := int(uint(lo+up) >> 1)
		first := int(binary.LittleEndian.Uint16(p[colPageHeader+colRunDirEnt*mid+2:]))
		if first <= h.slot {
			lo = mid + 1
		} else {
			up = mid
		}
	}
	n := 0
	for ri := max(lo-1, 0); ri < nruns; ri++ {
		run, err := colRunAt(p, h.r.meta.kind, ri)
		if err != nil {
			return 0, err
		}
		if run.firstSlot+run.count <= h.slot {
			continue
		}
		if !h.matches(run) {
			// The heap is cluster-ordered and the seek landed inside the
			// selection, so a non-matching run ends it.
			h.done = true
			return n, nil
		}
		if n == len(dst) {
			return n, nil
		}
		a := h.slot - run.firstSlot
		b := min(run.count, a+len(dst)-n)
		if err := decodeRunRecords(p, h.r.meta.kind, run, a, b, dst[n:n+(b-a)]); err != nil {
			return 0, err
		}
		n += b - a
		h.slot = run.firstSlot + b
		if b < run.count {
			return n, nil // dst is full mid-run
		}
	}
	if h.slot < nrecs {
		// Every run was walked and the page's records were not all
		// reached: retrying the page would make no progress.
		return 0, fmt.Errorf("relstore: corrupt columnar page %d: slot %d is in no run", h.page, h.slot)
	}
	h.page++
	h.slot = 0
	return n, nil
}
