package relstore

import "fmt"

// HeapPages decodes every heap page of r and returns each page's
// records in slot order, for tests that check which pages a scan reads.
func HeapPages(r *Relation) ([][]Record, error) {
	var pages [][]Record
	for id := r.meta.heapFirst; id <= r.meta.heapLast; id++ {
		err := r.f.View(id, func(p []byte) error {
			nrecs, _, err := colPageCounts(p)
			if err != nil {
				return err
			}
			recs := make([]Record, nrecs)
			if err := decodeColSlots(p, r.meta.kind, 0, nrecs, recs); err != nil {
				return err
			}
			pages = append(pages, recs)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return pages, nil
}

// decodeColSlots decodes page slots [lo, hi) of a columnar page into
// dst[0 : hi-lo], walking the run directory and decoding each run's
// overlap. A directory whose runs leave any of those slots uncovered is
// corrupt.
func decodeColSlots(p []byte, kind Clustering, lo, hi int, dst []Record) error {
	nrecs, nruns, err := colPageCounts(p)
	if err != nil {
		return err
	}
	if lo < 0 || hi > nrecs || lo > hi {
		return fmt.Errorf("relstore: slots [%d, %d) out of range on columnar page (%d records)", lo, hi, nrecs)
	}
	origLo := lo
	for ri := 0; ri < nruns && lo < hi; ri++ {
		run, err := colRunAt(p, kind, ri)
		if err != nil {
			return err
		}
		if run.firstSlot+run.count <= lo {
			continue
		}
		if run.firstSlot > lo {
			return fmt.Errorf("relstore: corrupt columnar page: run %d starts at slot %d, slot %d is in no run", ri, run.firstSlot, lo)
		}
		a := lo - run.firstSlot
		b := min(hi-run.firstSlot, run.count)
		if err := decodeRunRecords(p, kind, run, a, b, dst[lo-origLo:lo-origLo+(b-a)]); err != nil {
			return err
		}
		lo = run.firstSlot + b
	}
	if lo < hi {
		return fmt.Errorf("relstore: corrupt columnar page: slot %d is in no run", lo)
	}
	return nil
}

// ClusterHeight returns the height of r's clustered index: the page
// reads of one seek.
func ClusterHeight(r *Relation) int { return int(r.meta.cluster.Height) }
