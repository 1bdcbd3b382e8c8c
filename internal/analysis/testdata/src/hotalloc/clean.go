package hotalloc

import "fmt"

// notHot carries no annotation: fmt is fine off the hot path.
func notHot(a, b uint32) string {
	return fmt.Sprintf("%d/%d", a, b)
}

type key struct{ a, b uint32 }

// lookupStruct uses a comparable struct key — the sanctioned pattern.
//
//blas:hotpath
func lookupStruct(counts map[key]int, a, b uint32) int {
	return counts[key{a, b}]
}

// failFast: error paths may use fmt.Errorf even on hot paths — error
// construction happens on paths that are about to abort.
//
//blas:hotpath
func failFast(n int) error {
	if n < 0 {
		return fmt.Errorf("hotalloc: bad batch size %d", n)
	}
	return nil
}

// concatOnce: a single concatenation outside any loop is tolerated.
//
//blas:hotpath
func concatOnce(prefix string) string {
	return prefix + ".pg"
}

// appendBytes: byte appends in loops are the replacement idiom, not a
// violation.
//
//blas:hotpath
func appendBytes(starts []uint32) string {
	b := make([]byte, 0, 4*len(starts))
	for _, s := range starts {
		b = append(b, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return string(b)
}
