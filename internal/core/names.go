package core

import (
	"strings"
	"sync"

	"repro/internal/uint128"
)

// NodeNames is how a result node is named to callers: its tag and its
// source path rendered as "/a/b/c". Both are functions of the node's
// P-label alone — the label encodes the whole root-to-node tag sequence,
// own tag included — so every node carrying one label shares one
// NodeNames, strings and all.
type NodeNames struct {
	Tag  string
	Path string
}

// nameTable interns NodeNames per P-label. It is filled lazily, on the
// first result that carries a label, and never evicts: a store has as
// many distinct P-labels as its document has distinct root-to-node
// paths, which bounds the table (a few hundred entries for the paper's
// data sets).
type nameTable struct {
	mu sync.RWMutex
	m  map[uint128.Uint128]NodeNames
}

// Names returns the interned names of the nodes labeled label; tagID is
// the tag id such a node's record carries. The first call for a label
// decodes it (Scheme.DecodePath — an undecodable label leaves Path
// empty, an unknown tag id leaves Tag empty); every later call, from any
// goroutine, is a read-locked map lookup returning the same strings.
func (s *Store) Names(label uint128.Uint128, tagID uint32) NodeNames {
	t := &s.names
	t.mu.RLock()
	n, ok := t.m[label]
	t.mu.RUnlock()
	if ok {
		return n
	}
	n.Tag, _ = s.TagName(tagID)
	if path, err := s.scheme.DecodePath(label); err == nil {
		n.Path = "/" + strings.Join(path, "/")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prior, ok := t.m[label]; ok {
		// Lost a first-use race: keep the winner so all matches of the
		// label keep sharing one string.
		return prior
	}
	if t.m == nil {
		t.m = map[uint128.Uint128]NodeNames{}
	}
	t.m[label] = n
	return n
}
