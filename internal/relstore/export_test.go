package relstore

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
