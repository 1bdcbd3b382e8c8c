// Package relstore implements the BLAS node relations (paper §4, §5.2.1).
//
// A Relation stores one tuple per XML node:
//
//	SP(plabel, start, end, level, data)  clustered by {plabel, start}
//	SD(tag,    start, end, level, data)  clustered by {tag, start}
//
// SP drives the BLAS translators (P-label range/equality selections); SD
// is the D-labeling baseline's relation. Both carry all five attributes
// plus the tag id, so either relation can answer any query.
//
// A relation is a paged heap file holding records in cluster-key order,
// plus the bulk-loaded B+ trees that are read:
//
//	cluster: (plabel|tag, start) -> locator     — the clustered index
//	data:    (data, start)      -> locator      — SP only, non-empty values
//
// The paper's §4 says "B+ tree indexes are built on start, plabel and
// data", for an RDBMS optimizer to choose among. This engine reads each
// relation only through its clustering, because every selection it runs
// is one cluster prefix or a start-ordered merge of several (a P-label
// set or range on SP, a tag or every element tag on SD): a start index
// would trade one seek per run for one heap page per record, and a data
// index on SD would serve no plan. SP's data index backs the planner's
// value cap (Selection.Estimate) and nothing else.
//
// All reads go through the pager's buffer pool, and every record decoded
// by a scan is counted in the querying ExecContext — the two quantities
// the paper's experiments report, attributed per query so that any
// number of queries can run concurrently over one Relation.
//
// A fragment reaches its records only through a Selection: one run of
// a cluster prefix (PLabel, Tag), a list of them (PLabels, Tags), or the
// runs of a P-label range (PLabelRange), with the fragment's value and
// level predicates (Where). Its Estimate is the planner's probe, from
// index descents alone; its Open is a Cursor, the selection's records
// in start order, filtered by the predicates. Each cluster run of a
// cursor starts at one position of the clustered index — its own seek,
// or for a range the skip scan's entry that named the run's P-label —
// and then walks the heap pages, decoding one page's share of the run
// at a time into a pooled buffer of its own: BatchSize is the most
// records a page can hold, so a run requests each page once and decodes
// each record once. A heap ordered by head start merges the runs of a
// multi-run selection.
//
// # On-disk page format
//
// The meta page's magic names the heap page format:
//
//	format  magic       heap page layout
//	------  ----------  ----------------------------------------------
//	3       "BLASREL3"  columnar, delta-compressed runs — see the
//	                    layout comment in columnar.go: per cluster-
//	                    prefix run, starts as ascending delta varints,
//	                    ends/levels/value-lengths as packed varint
//	                    columns, values out of line; an SD run stores
//	                    its distinct P-labels once and a uvarint index
//	                    per record
//
// The meta page has a slot for each of the cluster, start and data
// trees. Build writes the start slot, and SD's data slot, as zero
// trees, and Open ignores them.
//
// Compatibility contract: Build writes BLASREL3 and Open reads BLASREL3;
// any other magic, BLASREL1 and BLASREL2 included, is rejected with an
// error naming it and saying to rebuild the store with blasload. There
// is no decoder for an older format and no upgrader: a BLASREL2 SD page
// read with the BLASREL3 layout would give wrong answers, and a store
// is derived from its XML document, so rebuilding is the migration.
package relstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/keyenc"
	"repro/internal/pager"
	"repro/internal/pbtree"
	"repro/internal/uint128"
)

// Clustering selects the relation's cluster key.
type Clustering byte

// Clustering kinds.
const (
	ClusterPLabel Clustering = 1 // {plabel, start} — the BLAS relation SP
	ClusterTag    Clustering = 2 // {tag, start} — the D-labeling relation SD
)

func (c Clustering) String() string {
	if c == ClusterPLabel {
		return "SP"
	}
	return "SD"
}

// Record is one node tuple.
type Record struct {
	PLabel uint128.Uint128
	TagID  uint32 // scheme digit (1-based)
	Start  uint32
	End    uint32
	Level  uint16
	Data   string // text value; "" = null
}

// clusterKey builds the cluster-index key for r.
func clusterKey(kind Clustering, r *Record, enc *keyenc.Encoder) []byte {
	enc.Reset()
	if kind == ClusterPLabel {
		enc.PutUint128(r.PLabel)
	} else {
		enc.PutUint32(r.TagID)
	}
	enc.PutUint32(r.Start)
	return enc.Bytes()
}

// Locator addresses a record in the heap: Slot is the record's ordinal
// position on the page.
type Locator struct {
	Page pager.PageID
	Slot uint16
}

func encodeLocator(l Locator) []byte {
	var b [6]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(l.Page))
	binary.LittleEndian.PutUint16(b[4:], l.Slot)
	return b[:]
}

func decodeLocator(b []byte) Locator {
	return Locator{
		Page: pager.PageID(binary.LittleEndian.Uint32(b[0:])),
		Slot: binary.LittleEndian.Uint16(b[4:]),
	}
}

// Relation is an open node relation. A Relation is immutable after Build
// and safe for concurrent scans; per-query statistics accumulate in the
// ExecContext each scan is given.
type Relation struct {
	f       *pager.File
	meta    relMeta
	cluster *pbtree.Reader
	dataIdx *pbtree.Reader // a zero tree on SD
}

type relMeta struct {
	kind      Clustering
	count     uint64
	heapFirst pager.PageID
	heapLast  pager.PageID
	cluster   pbtree.Tree
	data      pbtree.Tree // SP only
}

// FormatColumnar is the heap page format Build writes, the columnar
// delta-compressed layout (see the package doc's format table).
const FormatColumnar = 3

const metaMagic = "BLASREL3"

func writeMeta(f *pager.File, id pager.PageID, m *relMeta) error {
	return f.Update(id, func(p []byte) error {
		copy(p, metaMagic)
		p[8] = byte(m.kind)
		binary.LittleEndian.PutUint64(p[9:], m.count)
		binary.LittleEndian.PutUint32(p[17:], uint32(m.heapFirst))
		binary.LittleEndian.PutUint32(p[21:], uint32(m.heapLast))
		off := 25
		// The middle slot is the start tree's; nothing reads it, so it
		// is written as a zero tree.
		for _, t := range []pbtree.Tree{m.cluster, {}, m.data} {
			binary.LittleEndian.PutUint32(p[off:], uint32(t.Root))
			binary.LittleEndian.PutUint32(p[off+4:], t.Height)
			binary.LittleEndian.PutUint64(p[off+8:], t.Count)
			off += 16
		}
		return nil
	})
}

func readMeta(f *pager.File, id pager.PageID) (relMeta, error) {
	var m relMeta
	err := f.View(id, func(p []byte) error {
		if string(p[:8]) != metaMagic {
			return fmt.Errorf("relstore: unsupported page format (magic %q; this build reads %q — rebuild the store with blasload)",
				p[:8], metaMagic)
		}
		m.kind = Clustering(p[8])
		if m.kind != ClusterPLabel && m.kind != ClusterTag {
			return fmt.Errorf("relstore: bad clustering %d", p[8])
		}
		m.count = binary.LittleEndian.Uint64(p[9:])
		m.heapFirst = pager.PageID(binary.LittleEndian.Uint32(p[17:]))
		m.heapLast = pager.PageID(binary.LittleEndian.Uint32(p[21:]))
		// The slots are cluster (25), start (41) and data (57); the
		// start slot, and SD's data slot, are never read.
		m.cluster = metaTree(p, 25)
		if m.kind == ClusterPLabel {
			m.data = metaTree(p, 57)
		}
		return nil
	})
	return m, err
}

// metaTree decodes the tree descriptor at offset off of meta page p.
func metaTree(p []byte, off int) pbtree.Tree {
	return pbtree.Tree{
		Root:   pager.PageID(binary.LittleEndian.Uint32(p[off:])),
		Height: binary.LittleEndian.Uint32(p[off+4:]),
		Count:  binary.LittleEndian.Uint64(p[off+8:]),
	}
}

// Build creates a relation in f from records. The records are sorted by
// the cluster key internally (the input order does not matter); the heap
// is packed in cluster order into columnar delta-compressed pages
// (FormatColumnar), then the clustered index and, on SP, the data index
// are bulk loaded. Page 0 of f holds the metadata.
func Build(f *pager.File, kind Clustering, records []Record) (*Relation, error) {
	if kind != ClusterPLabel && kind != ClusterTag {
		return nil, fmt.Errorf("relstore: bad clustering %d", kind)
	}
	metaPage, err := f.Alloc()
	if err != nil {
		return nil, err
	}
	if metaPage != 0 {
		return nil, fmt.Errorf("relstore: metadata page must be page 0, got %d", metaPage)
	}

	recs := make([]*Record, len(records))
	for i := range records {
		recs[i] = &records[i]
	}
	enc1, enc2 := keyenc.New(nil), keyenc.New(nil)
	sort.Slice(recs, func(i, j int) bool {
		return keyenc.Compare(clusterKey(kind, recs[i], enc1), clusterKey(kind, recs[j], enc2)) < 0
	})

	// Pack the heap.
	type pending struct {
		rec *Record
		loc Locator
	}
	placed := make([]pending, 0, len(recs))
	var curRecs []*Record
	curUsed := colPageHeader
	heapFirst, heapLast := pager.PageID(0), pager.PageID(0)
	havePages := false

	flush := func() error {
		if len(curRecs) == 0 {
			return nil
		}
		id, err := f.Alloc()
		if err != nil {
			return err
		}
		if !havePages {
			heapFirst = id
			havePages = true
		}
		heapLast = id
		if err := f.Update(id, func(p []byte) error { return encodeColumnarPage(p, kind, curRecs) }); err != nil {
			return err
		}
		for i, r := range curRecs {
			placed = append(placed, pending{rec: r, loc: Locator{Page: id, Slot: uint16(i)}})
		}
		curRecs = curRecs[:0]
		curUsed = colPageHeader
		return nil
	}

	// labels is the SD label dictionary of the page's last run; it
	// resets whenever a run opens.
	var labels []uint128.Uint128
	for _, r := range recs {
		opening := colRecordCost(nil, r)
		if kind == ClusterTag {
			opening += labelCost(0, false)
		}
		if opening > colMaxRecord(kind) {
			return nil, fmt.Errorf("relstore: record too large (%d bytes of data %q…)", len(r.Data), clip(r.Data, 20))
		}
		// Exact incremental cost: a record continuing the current page's
		// last run pays its column bytes only (on SD, its label index and,
		// for a label new to the run, the dictionary entry); a record
		// opening a run additionally pays the directory entry and run
		// header, and its start is stored absolute.
		var prev *Record
		runCost := 0
		if len(curRecs) > 0 && sameRun(kind, curRecs[len(curRecs)-1], r) {
			prev = curRecs[len(curRecs)-1]
		} else {
			runCost = colRunDirEnt + runHeaderSize(kind)
			labels = labels[:0]
		}
		need := runCost + colRecordCost(prev, r)
		idx, known := labelIndex(labels, r.PLabel)
		if kind == ClusterTag {
			need += labelCost(idx, known)
		}
		if curUsed+need > pager.PageSize {
			if err := flush(); err != nil {
				return nil, err
			}
			// On a fresh page the record opens a run unconditionally.
			need = colRunDirEnt + runHeaderSize(kind) + opening
			labels = labels[:0]
			known = false
		}
		if kind == ClusterTag && !known {
			labels = append(labels, r.PLabel)
		}
		curRecs = append(curRecs, r)
		curUsed += need
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if !havePages {
		// Empty relation: allocate one empty heap page so scans work.
		id, err := f.Alloc()
		if err != nil {
			return nil, err
		}
		heapFirst, heapLast = id, id
	}

	// Bulk load the indexes. placed is in cluster-key order already.
	cb := pbtree.NewBuilder(f)
	enc := keyenc.New(nil)
	for _, pe := range placed {
		if err := cb.Add(clusterKey(kind, pe.rec, enc), encodeLocator(pe.loc)); err != nil {
			return nil, err
		}
	}
	clusterTree, err := cb.Finish()
	if err != nil {
		return nil, err
	}

	m := relMeta{
		kind:      kind,
		count:     uint64(len(recs)),
		heapFirst: heapFirst,
		heapLast:  heapLast,
		cluster:   clusterTree,
	}
	if kind == ClusterPLabel {
		var byData []pending
		for _, pe := range placed {
			if pe.rec.Data != "" {
				byData = append(byData, pe)
			}
		}
		sort.Slice(byData, func(i, j int) bool {
			if byData[i].rec.Data != byData[j].rec.Data {
				return byData[i].rec.Data < byData[j].rec.Data
			}
			return byData[i].rec.Start < byData[j].rec.Start
		})
		db := pbtree.NewBuilder(f)
		for _, pe := range byData {
			k := keyenc.New(nil).PutString(pe.rec.Data).PutUint32(pe.rec.Start).Bytes()
			if err := db.Add(k, encodeLocator(pe.loc)); err != nil {
				return nil, err
			}
		}
		if m.data, err = db.Finish(); err != nil {
			return nil, err
		}
	}
	if err := writeMeta(f, metaPage, &m); err != nil {
		return nil, err
	}
	if err := f.Flush(); err != nil {
		return nil, err
	}
	return openWithMeta(f, m), nil
}

// BuildFormat is Build with the heap page format named explicitly.
// FormatColumnar is the only format; any other value is rejected.
func BuildFormat(f *pager.File, kind Clustering, records []Record, format int) (*Relation, error) {
	if format != FormatColumnar {
		return nil, fmt.Errorf("relstore: unknown page format %d", format)
	}
	return Build(f, kind, records)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Open opens a relation previously built in f.
func Open(f *pager.File) (*Relation, error) {
	m, err := readMeta(f, 0)
	if err != nil {
		return nil, err
	}
	return openWithMeta(f, m), nil
}

func openWithMeta(f *pager.File, m relMeta) *Relation {
	return &Relation{
		f:       f,
		meta:    m,
		cluster: pbtree.NewReader(f, m.cluster),
		dataIdx: pbtree.NewReader(f, m.data),
	}
}

// Kind returns the relation's clustering.
func (r *Relation) Kind() Clustering { return r.meta.kind }

// Count returns the number of records.
func (r *Relation) Count() uint64 { return r.meta.count }

// File exposes the underlying paged file (for buffer-pool statistics and
// cache control).
func (r *Relation) File() *pager.File { return r.f }
