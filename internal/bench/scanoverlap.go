package bench

import (
	"sync"
	"sync/atomic"

	"repro/internal/pager"
)

// ScanOverlap sweeps every page of f with the given number of workers,
// checksumming each page's bytes inside the view callback. Worker w
// visits pages w, w+workers, w+2*workers, …, so the full file is read
// exactly once and the returned checksum is identical at every worker
// count.
//
// This is the storage-layer analogue of concurrent queries scanning one
// file: each view pins a frame, decodes outside any pool-wide lock, and misses
// fetch from the backing store concurrently. Before the pool was sharded
// (PR 4) every view serialized on one per-file mutex and worker counts
// beyond 1 bought nothing.
func ScanOverlap(f *pager.File, workers int) (uint64, error) {
	if workers < 1 {
		workers = 1
	}
	n := int(f.NumPages())
	var total atomic.Uint64
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sum uint64
			for i := w; i < n; i += workers {
				err := f.View(pager.PageID(i), func(p []byte) error {
					for _, b := range p {
						sum += uint64(b)
					}
					return nil
				})
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
			total.Add(sum)
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return total.Load(), nil
}
