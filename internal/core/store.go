// Package core assembles the BLAS system (paper Fig. 6): the index
// generator that shreds an XML document into bi-labeled relations, and
// the Store that owns the relations, the P-labeling scheme, and the
// schema graph that the Unfold translator consumes.
//
// A Store holds both of the paper's relations:
//
//	SP(plabel, start, end, level, data) clustered by {plabel, start}
//	SD(tag,    start, end, level, data) clustered by {tag, start}
//
// SP serves the BLAS translators, SD the D-labeling baseline, so every
// experiment in §5 runs against one store.
//
// A Store is immutable once built or opened and safe for any number of
// concurrent readers. Per-query execution statistics (visited elements,
// page reads/misses) live in the relstore.ExecContext each engine
// threads through its scans — the store itself holds no query-scoped
// mutable state. Its one lazily filled cache, the label → name intern
// table behind Names, is lock-protected and only ever grows toward the
// store's fixed set of distinct P-labels.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/pager"
	"repro/internal/plabel"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/xmltree"
)

// Options configures store construction and opening.
type Options struct {
	// Dir is the directory holding the store files (sp.pg, sd.pg,
	// meta.json). Empty means an in-memory store.
	Dir string
	// PoolPages is the buffer pool capacity per relation file;
	// 0 selects the pager default.
	PoolPages int
}

// Store is an open BLAS store.
type Store struct {
	scheme *plabel.Scheme
	graph  *schema.Graph
	sp     *relstore.Relation
	sd     *relstore.Relation
	spFile *pager.File
	sdFile *pager.File
	meta   storeMeta
	names  nameTable // label -> tag/path strings handed to callers, see Names
	// elemTags are the element tag ids, ascending: the SD runs a
	// wildcard fragment merges.
	elemTags *relstore.TagList
}

type storeMeta struct {
	Tags     []string    `json:"tags"`
	Roots    []string    `json:"roots"`
	Edges    [][2]string `json:"edges"`
	MaxDepth int         `json:"max_depth"`
	Nodes    uint64      `json:"nodes"`
	Units    uint32      `json:"units"` // total position units in the document
}

// Scheme returns the store's P-labeling scheme.
func (s *Store) Scheme() *plabel.Scheme { return s.scheme }

// Schema returns the schema graph extracted at shred time.
func (s *Store) Schema() *schema.Graph { return s.graph }

// SP returns the plabel-clustered relation.
func (s *Store) SP() *relstore.Relation { return s.sp }

// SD returns the tag-clustered relation.
func (s *Store) SD() *relstore.Relation { return s.sd }

// NodeCount returns the number of nodes (element + attribute).
func (s *Store) NodeCount() uint64 { return s.meta.Nodes }

// TagID returns the P-label digit used as the tag id of tag.
func (s *Store) TagID(tag string) (uint32, bool) {
	d, ok := s.scheme.TagDigit(tag)
	return uint32(d), ok
}

// TagName returns the tag whose id is id.
func (s *Store) TagName(id uint32) (string, bool) {
	tags := s.scheme.Tags()
	if id < 1 || int(id) > len(tags) {
		return "", false
	}
	return tags[id-1], true
}

// DropCaches empties both buffer pools (the paper's experiments run on a
// cold cache, §5.1). It is a benchmark-harness control, not part of the
// serving path; running it concurrently with in-flight scans is memory-
// safe (pinned frames keep their buffers until released) but skews the
// miss counts of those scans.
// Like pager.File.DropCache, it drains both pools even when one errors
// and reports the first error.
func (s *Store) DropCaches() error {
	err1 := s.spFile.DropCache()
	err2 := s.sdFile.DropCache()
	if err1 != nil {
		return err1
	}
	return err2
}

// Close flushes and closes the store files.
func (s *Store) Close() error {
	err1 := s.spFile.Close()
	err2 := s.sdFile.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func openFiles(opts Options, create bool) (sp, sd *pager.File, err error) {
	if opts.Dir == "" {
		return pager.OpenMem(opts.PoolPages), pager.OpenMem(opts.PoolPages), nil
	}
	cfg := pager.Config{PoolPages: opts.PoolPages}
	if create {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	sp, err = pager.OpenConfig(filepath.Join(opts.Dir, "sp.pg"), cfg)
	if err != nil {
		return nil, nil, err
	}
	sd, err = pager.OpenConfig(filepath.Join(opts.Dir, "sd.pg"), cfg)
	if err != nil {
		_ = sp.Close()
		return nil, nil, err
	}
	return sp, sd, nil
}

// closeBoth releases both relation files on an error path. The closes
// are best-effort: the error already being returned is the one the
// caller reports.
func closeBoth(spFile, sdFile *pager.File) {
	_ = spFile.Close()
	_ = sdFile.Close()
}

// Open opens an existing on-disk store.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("core: Open requires a directory")
	}
	raw, err := os.ReadFile(filepath.Join(opts.Dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var meta storeMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("core: bad meta.json: %w", err)
	}
	spFile, sdFile, err := openFiles(opts, false)
	if err != nil {
		return nil, err
	}
	return assemble(meta, spFile, sdFile)
}

func assemble(meta storeMeta, spFile, sdFile *pager.File) (*Store, error) {
	scheme, err := plabel.NewScheme(meta.Tags)
	if err != nil {
		closeBoth(spFile, sdFile)
		return nil, err
	}
	g := schema.New()
	for _, r := range meta.Roots {
		g.AddRoot(r)
	}
	for _, e := range meta.Edges {
		g.AddEdge(e[0], e[1])
	}
	g.ObserveDepth(meta.MaxDepth)

	sp, err := relstore.Open(spFile)
	if err != nil {
		closeBoth(spFile, sdFile)
		return nil, fmt.Errorf("core: open SP: %w", err)
	}
	if sp.Kind() != relstore.ClusterPLabel {
		closeBoth(spFile, sdFile)
		return nil, fmt.Errorf("core: sp.pg has clustering %v", sp.Kind())
	}
	sd, err := relstore.Open(sdFile)
	if err != nil {
		closeBoth(spFile, sdFile)
		return nil, fmt.Errorf("core: open SD: %w", err)
	}
	if sd.Kind() != relstore.ClusterTag {
		closeBoth(spFile, sdFile)
		return nil, fmt.Errorf("core: sd.pg has clustering %v", sd.Kind())
	}
	return newStore(scheme, g, sp, sd, spFile, sdFile, meta), nil
}

// newStore assembles a Store from its opened or freshly built parts.
func newStore(scheme *plabel.Scheme, g *schema.Graph, sp, sd *relstore.Relation, spFile, sdFile *pager.File, meta storeMeta) *Store {
	var elemTags []uint32
	for i, tag := range scheme.Tags() {
		if !xmltree.IsAttrTag(tag) {
			elemTags = append(elemTags, uint32(i+1))
		}
	}
	return &Store{
		scheme:   scheme,
		graph:    g,
		sp:       sp,
		sd:       sd,
		spFile:   spFile,
		sdFile:   sdFile,
		meta:     meta,
		elemTags: relstore.NewTagList(elemTags),
	}
}

// saveMeta writes meta.json for on-disk stores.
func saveMeta(dir string, meta storeMeta) error {
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "meta.json"), raw, 0o644)
}
