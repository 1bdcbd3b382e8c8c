package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	blas "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/keyenc"
	"repro/internal/pager"
	"repro/internal/pbtree"
	"repro/internal/plabel"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/twig"
	"repro/internal/uint128"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The traced pass. Every workload runs the same suite on its own store
// under its own regime (pool size, parallelism, cold protocol, operation
// list), so the per-layer table has the same rows everywhere and a
// regime's effect on a layer can be read across workloads:
//
//	pipeline   the workload's operations, stage by stage on core.Open,
//	           a span around each call into a layer
//	phases     Store.Query with and without Trace, for the splits only
//	           ExecStats.Phases exposes, and the tracing overhead
//	storage    pager, pbtree and relstore probed directly on the store's
//	           SP relation file
//	build      the build path stage by stage
//	server     the operations through an in-process blasd, open loop
//
// All spans are recorded here, around the calls; the program is not
// instrumented.

// probeRate is the open-loop rate of the server probe in workloads other
// than serve_open (which uses its first fixed rate): low enough that a
// factor-8 query finishes before the next request is due.
const probeRate = 25.0

func (e *env) runTraced() error {
	dir := filepath.Join(e.dir, "store")
	if _, err := e.buildStore(dir); err != nil {
		return err
	}
	if err := e.reopenStore(dir); err != nil {
		return err
	}
	e.res.set("blas.open_first_query_ms", ms(e.reopens.median()), "ms", len(e.reopens))
	tr := newTracer()
	slice := e.timed() / 5
	if err := e.tracePipeline(dir, tr, slice*2); err != nil {
		return fmt.Errorf("pipeline pass: %w", err)
	}
	if err := e.tracePhases(dir, slice); err != nil {
		return fmt.Errorf("phases pass: %w", err)
	}
	recs, err := e.probeStorage(dir)
	if err != nil {
		return fmt.Errorf("storage probes: %w", err)
	}
	if err := e.probeBuild(recs); err != nil {
		return fmt.Errorf("build probes: %w", err)
	}
	if err := e.probeServer(dir, slice); err != nil {
		return fmt.Errorf("server probe: %w", err)
	}
	if e.cfg.Spans != "" {
		return tr.writeTo(e.cfg.Spans)
	}
	return nil
}

// tracePipeline runs the operations stage by stage for d: xpath.Parse,
// translate, planner.Plan, the engine's Execute and the finalize step
// (what blas.Store.Query does between the engine and the caller).
func (e *env) tracePipeline(dir string, tr *tracer, d time.Duration) error {
	cst, err := core.Open(core.Options{Dir: dir, PoolPages: e.spec.poolPages})
	if err != nil {
		return err
	}
	defer cst.Close()
	bst, err := blas.Open(blas.Options{Dir: dir}) // only to resolve "auto"
	if err != nil {
		return err
	}
	defer bst.Close()
	tctx := translate.Context{Scheme: cst.Scheme(), Schema: cst.Schema()}

	var (
		parse, trans, plan, relExec, twigExec, finalize time.Duration
		auto, dlabel                                    durations
		ops, relOps, twigOps, joins, shortcuts          int
		probeReads, reads, misses, visited              uint64
		relVisited, twigVisited, results                uint64
		labels                                          = map[uint128.Uint128]bool{}
	)
	ev0 := cst.SP().File().Stats().Evictions + cst.SD().File().Stats().Evictions
	more := until(d)
	for op := 0; op%len(e.ops) != 0 || op == 0 || more(op); op++ { // whole passes, at least one
		v := e.ops[op%len(e.ops)]
		if e.spec.cold {
			if err := cst.DropCaches(); err != nil {
				return err
			}
		}
		ctx := relstore.NewExecContext()
		root := tr.start(op, "op", "")

		sp := tr.start(op, "xpath.parse", "op")
		q, err := xpath.Parse(v.Query)
		parse += tr.end(sp)
		if err != nil {
			return err
		}

		sp = tr.start(op, "translate", "op")
		translator, err := translate.ByName(string(bst.EffectiveTranslator(v.Translator)))
		if err != nil {
			return err
		}
		lp, err := translator(tctx, q)
		trans += tr.end(sp)
		if err != nil {
			return err
		}

		sp = tr.start(op, "planner.plan", "op")
		phys, err := planner.Plan(ctx, cst, lp, planner.Options{})
		plan += tr.end(sp)
		if err != nil {
			return err
		}
		probeReads += ctx.PageReads()
		if phys.KnownEmpty {
			shortcuts++
		}

		cfg := core.ExecConfig{Parallelism: e.spec.parallelism}
		ctx.SetBatchControl(cfg.BatchController())
		var recs []relstore.Record
		if v.Engine == blas.EngineTwig {
			sp = tr.start(op, "twig.execute", "op")
			res, err := twig.Execute(ctx, cst, phys, cfg)
			twigExec += tr.end(sp)
			if err != nil {
				return err
			}
			recs = res.Records
			twigOps++
			twigVisited += ctx.Visited()
		} else {
			sp = tr.start(op, "relengine.execute", "op")
			res, err := relengine.Execute(ctx, cst, phys, relengine.Options{ExecConfig: cfg})
			relExec += tr.end(sp)
			if err != nil {
				return err
			}
			recs = res.Records
			relOps++
			relVisited += ctx.Visited()
		}

		sp = tr.start(op, "finalize", "op")
		matches := finalizeRecords(cst, recs)
		finalize += tr.end(sp)
		took := tr.end(root)

		e.res.Attempted++
		if err := e.oracle.verifyMatches(v.Query, matches); err != nil {
			e.res.fail(fmt.Errorf("pipeline %s: %w", v.Name, err))
			continue
		}
		ops++
		if v.Translator == blas.TranslatorDLabel {
			dlabel = append(dlabel, took)
		} else {
			auto = append(auto, took)
		}
		joins += lp.NumJoins()
		reads += ctx.PageReads()
		misses += ctx.PageMisses()
		visited += ctx.Visited()
		results += uint64(len(recs))
		for i := range recs {
			labels[recs[i].PLabel] = true
		}
	}
	evictions := cst.SP().File().Stats().Evictions + cst.SD().File().Stats().Evictions - ev0

	n := float64(ops)
	r := e.res
	r.set("xpath.parse_us", us(parse)/n, "us", ops)
	r.set("translate.us", us(trans)/n, "us", ops)
	r.set("translate.joins_per_q", float64(joins)/n, "count", ops)
	r.set("translate.auto_lat_p50_ms", ms(auto.percentile(50)), "ms", len(auto))
	r.set("translate.dlabel_lat_p50_ms", ms(dlabel.percentile(50)), "ms", len(dlabel))
	r.set("planner.plan_us", us(plan)/n, "us", ops)
	r.set("planner.probe_reads_per_q", float64(probeReads)/n, "count", ops)
	r.set("planner.empty_shortcut_share", float64(shortcuts)/n, "ratio", ops)
	r.set("pager.hit_ratio", 1-ratio(float64(misses), float64(reads)), "ratio", int(reads))
	r.set("pager.reads_per_q", float64(reads)/n, "count", ops)
	r.set("pager.misses_per_q", float64(misses)/n, "count", ops)
	r.info("pager.evictions_per_q", float64(evictions)/n, "count", ops) // zero on every workload so far
	r.set("relstore.visited_per_q", float64(visited)/n, "count", ops)
	r.set("relstore.visited_per_result", ratio(float64(visited), float64(results)), "count", int(results))
	r.set("relengine.exec_us_per_q", ratio(us(relExec), float64(relOps)), "us", relOps)
	r.set("relengine.ns_per_visited", ratio(float64(relExec.Nanoseconds()), float64(relVisited)), "ns", int(relVisited))
	r.set("twig.exec_us_per_q", ratio(us(twigExec), float64(twigOps)), "us", twigOps)
	r.set("twig.ns_per_visited", ratio(float64(twigExec.Nanoseconds()), float64(twigVisited)), "ns", int(twigVisited))
	r.set("blas.finalize_ns_per_match", ratio(float64(finalize.Nanoseconds()), float64(results)), "ns", int(results))
	r.set("bench.span_coverage_share", tr.coverage("op"), "ratio", ops)
	for name, self := range tr.selfTimes() {
		r.info("self_us."+name, us(self)/n, "us", ops)
	}

	// Scheme.DecodePath alone, over the distinct labels of the results.
	const rounds = 20
	begin := time.Now()
	for i := 0; i < rounds; i++ {
		for l := range labels {
			if _, err := cst.Scheme().DecodePath(l); err != nil {
				return err
			}
		}
	}
	r.set("plabel.decode_path_ns", ratio(float64(time.Since(begin).Nanoseconds()), float64(rounds*len(labels))), "ns", rounds*len(labels))
	return cst.Close()
}

// finalizeRecords renders records the way blas.Store.Query does (tag
// name, Scheme.DecodePath, joined path) — the finalize stage, which the
// engines' Execute does not include.
func finalizeRecords(st *core.Store, recs []relstore.Record) []blas.Match {
	out := make([]blas.Match, len(recs))
	for i, r := range recs {
		m := blas.Match{Start: r.Start, End: r.End, Level: r.Level, Value: r.Data}
		if tag, ok := st.TagName(r.TagID); ok {
			m.Tag = tag
		}
		if path, err := st.Scheme().DecodePath(r.PLabel); err == nil {
			m.Path = "/" + strings.Join(path, "/")
		}
		out[i] = m
	}
	return out
}

// tracePhases runs the operations through Store.Query for d, alternating
// untraced and traced executions of each, plus a prepared execution.
func (e *env) tracePhases(dir string, d time.Duration) error {
	st, err := blas.Open(e.opts(dir))
	if err != nil {
		return err
	}
	defer st.Close()
	type engineSums struct{ elapsed, scan, join, sweep, stall time.Duration }
	var (
		plain, traced, prepared    durations
		rel, tw                    engineSums
		elapsed, planTime, finalze time.Duration
	)
	query := func(v variant, trace bool) (*blas.Result, time.Duration, error) {
		if e.spec.cold {
			if err := st.DropCaches(); err != nil {
				return nil, 0, err
			}
		}
		begin := time.Now()
		res, err := st.Query(v.Query, blas.QueryOptions{Engine: v.Engine, Translator: v.Translator, Parallelism: e.spec.parallelism, Trace: trace})
		took := time.Since(begin)
		e.res.Attempted++
		if err == nil {
			err = e.oracle.verifyMatches(v.Query, res.Matches)
		}
		return res, took, err
	}
	more := until(d)
	for op := 0; op%len(e.ops) != 0 || op == 0 || more(op); op++ { // whole passes, at least one
		v := e.ops[op%len(e.ops)]
		// Which of the pair runs first alternates, so neither side always
		// inherits the other's warm CPU caches.
		first := op%2 == 1
		res1, took1, err := query(v, first)
		if err != nil {
			e.res.fail(fmt.Errorf("phases %s: %w", v.Name, err))
			continue
		}
		res2, took2, err := query(v, !first)
		if err != nil {
			e.res.fail(fmt.Errorf("phases %s: %w", v.Name, err))
			continue
		}
		res := res2
		if first {
			res, took1, took2 = res1, took2, took1
		}
		plain = append(plain, took1)
		traced = append(traced, took2)
		ph := res.Stats.Phases
		sums := &rel
		if v.Engine == blas.EngineTwig {
			sums = &tw
		}
		sums.elapsed += res.Stats.Elapsed
		sums.scan += ph.Scan
		sums.join += ph.Join
		sums.sweep += ph.Sweep
		sums.stall += ph.PrefetchStall
		elapsed += res.Stats.Elapsed
		planTime += res.Stats.PlanElapsed
		finalze += ph.Finalize

		pq, err := st.Prepare(v.Query, blas.QueryOptions{Translator: v.Translator})
		if err != nil {
			return err
		}
		if e.spec.cold {
			if err := st.DropCaches(); err != nil {
				return err
			}
		}
		begin := time.Now()
		pres, err := pq.Query(blas.QueryOptions{Engine: v.Engine, Parallelism: e.spec.parallelism})
		took := time.Since(begin)
		e.res.Attempted++
		if err == nil {
			err = e.oracle.verifyMatches(v.Query, pres.Matches)
		}
		if err != nil {
			e.res.fail(fmt.Errorf("phases %s prepared: %w", v.Name, err))
			continue
		}
		prepared = append(prepared, took)
	}
	share := func(part, whole time.Duration) float64 { return ratio(float64(part), float64(whole)) }
	r, n := e.res, len(traced)
	r.set("relengine.scan_share", share(rel.scan, rel.elapsed), "ratio", n)
	r.set("relengine.join_share", share(rel.join, rel.elapsed), "ratio", n)
	r.set("twig.sweep_share", share(tw.sweep, tw.elapsed), "ratio", n)
	r.set("twig.join_share", share(tw.join, tw.elapsed), "ratio", n)
	r.set("twig.prefetch_stall_share", share(tw.stall, tw.elapsed), "ratio", n)
	r.set("blas.finalize_share", share(finalze, elapsed), "ratio", n)
	r.set("blas.plan_share", share(planTime, elapsed), "ratio", n)
	r.set("blas.prepared_exec_us", us(prepared.mean()), "us", len(prepared))
	r.set("bench.trace_overhead_share", ratio(float64(traced.mean()-plain.mean()), float64(plain.mean())), "ratio", n)
	return st.Close()
}

// probeStorage measures pager, relstore and pbtree directly on the
// store's SP relation file, opened with a pool that holds all of it so
// that the warm passes really are warm. It returns the relation's
// records for the build probes.
func (e *env) probeStorage(dir string) ([]relstore.Record, error) {
	path := filepath.Join(dir, "sp.pg")
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	pages := int(fi.Size() / pager.PageSize)
	f, err := pager.OpenConfig(path, pager.Config{PoolPages: pages + 64})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rel, err := relstore.Open(f)
	if err != nil {
		return nil, err
	}
	r := e.res

	// relstore: a full batched scan, first through pool misses, then
	// again with every page resident — the second is pure decode.
	var recs []relstore.Record
	scan := func(keep bool) (time.Duration, error) {
		buf := make([]relstore.Record, relstore.MaxBatchSize)
		it := rel.ScanAllBatch(relstore.NewExecContext())
		begin := time.Now()
		for {
			n, err := it.NextBatch(buf)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				return time.Since(begin), nil
			}
			if keep {
				recs = append(recs, buf[:n]...)
			}
		}
	}
	cold, err := scan(false)
	if err != nil {
		return nil, err
	}
	warm, err := scan(false)
	if err != nil {
		return nil, err
	}
	if _, err := scan(true); err != nil {
		return nil, err
	}
	n := float64(rel.Count())
	r.set("relstore.scan_cold_ns_per_rec", float64(cold.Nanoseconds())/n, "ns", int(n))
	r.set("relstore.decode_ns_per_rec", float64(warm.Nanoseconds())/n, "ns", int(n))
	r.set("relstore.recs_per_page", n/float64(pages), "count", pages)
	r.set("relstore.bytes_per_rec", float64(fi.Size())/n, "bytes", int(n))

	// pager: File.View over an odd-strided sample of pages, so they
	// spread over the pool's shards; after DropCache every view misses,
	// the next round every view hits.
	const sample, rounds = 256, 8
	stride := pages/sample | 1
	var sink byte
	view := func() (time.Duration, error) {
		begin := time.Now()
		for i := 0; i < sample; i++ {
			id := pager.PageID(i * stride % pages)
			if err := f.View(id, func(page []byte) error { sink += page[0]; return nil }); err != nil {
				return 0, err
			}
		}
		return time.Since(begin), nil
	}
	var miss, hit time.Duration
	for i := 0; i < rounds; i++ {
		if err := f.DropCache(); err != nil {
			return nil, err
		}
		d, err := view()
		if err != nil {
			return nil, err
		}
		miss += d
		if d, err = view(); err != nil {
			return nil, err
		}
		hit += d
	}
	_ = sink
	r.set("pager.view_miss_ns", float64(miss.Nanoseconds())/(sample*rounds), "ns", sample*rounds)
	r.set("pager.view_hit_ns", float64(hit.Nanoseconds())/(sample*rounds), "ns", sample*rounds)

	// pager writes: allocate, fill and flush 16 MiB of pages.
	wf, err := pager.OpenConfig(filepath.Join(e.dir, "probe-write.pg"), pager.Config{})
	if err != nil {
		return nil, err
	}
	defer wf.Close()
	const writePages = 2048
	begin := time.Now()
	for i := 0; i < writePages; i++ {
		id, err := wf.Alloc()
		if err != nil {
			return nil, err
		}
		if err := wf.Update(id, func(page []byte) error { page[0], page[len(page)-1] = byte(i), byte(i); return nil }); err != nil {
			return nil, err
		}
	}
	if err := wf.Flush(); err != nil {
		return nil, err
	}
	r.set("pager.write_mb_per_s", float64(wf.Stats().BytesWrite)/(1<<20)/time.Since(begin).Seconds(), "MiB/s", writePages)

	// pbtree: bulk-load the relation's cluster keys {plabel, start} into
	// a tree of the benchmark's own, then seek and estimate in it.
	tf, err := pager.OpenConfig(filepath.Join(e.dir, "probe-tree.pg"), pager.Config{PoolPages: pages + 64})
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	b := pbtree.NewBuilder(tf)
	enc := keyenc.New(nil)
	locator := make([]byte, 6)
	begin = time.Now()
	for i := range recs {
		enc.Reset()
		if err := b.Add(enc.PutUint128(recs[i].PLabel).PutUint32(recs[i].Start).Bytes(), locator); err != nil {
			return nil, err
		}
	}
	tree, err := b.Finish()
	if err != nil {
		return nil, err
	}
	r.set("pbtree.bulkload_kkeys_per_s", float64(len(recs))/1000/time.Since(begin).Seconds(), "1000/s", len(recs))
	reader := pbtree.NewReader(tf, tree)
	const probes = 4096
	step := len(recs)/probes + 1
	var counters pager.Counters
	var dst []byte
	var seek, estimate time.Duration
	done := 0
	for i := 0; i < len(recs); i += step {
		key := keyenc.New(nil).PutUint128(recs[i].PLabel).PutUint32(recs[i].Start).Bytes()
		begin := time.Now()
		val, ok, err := reader.SeekValue(key, dst, &counters)
		seek += time.Since(begin)
		if err != nil || !ok {
			return nil, fmt.Errorf("pbtree probe: seek found=%v: %v", ok, err)
		}
		dst = val
		prefix := keyenc.Uint128(recs[i].PLabel)
		begin = time.Now()
		est, err := reader.EstimateRange(prefix, keyenc.PrefixSuccessor(prefix), nil)
		estimate += time.Since(begin)
		if err != nil || est == 0 {
			return nil, fmt.Errorf("pbtree probe: estimate %d of a present label: %v", est, err)
		}
		done++
	}
	r.set("pbtree.seek_us", us(seek)/float64(done), "us", done)
	r.set("pbtree.seek_pages", float64(counters.Reads.Load())/float64(done), "count", done)
	r.set("pbtree.estimate_us", us(estimate)/float64(done), "us", done)
	return recs, nil
}

// probeBuild times the build path's stages: parsing the XML into a tree,
// P-labelling it, relstore.BuildFormat of both relations from the
// store's records, the whole of core.BuildFromFile, and an in-memory
// build (the blasd -xml / test path) of a factor-2 document.
func (e *env) probeBuild(recs []relstore.Record) error {
	r := e.res
	f, err := os.Open(e.doc.xmlPath)
	if err != nil {
		return err
	}
	begin := time.Now()
	tree, err := xmltree.Parse(f)
	parse := time.Since(begin)
	_ = f.Close()
	if err != nil {
		return err
	}
	r.set("xmltree.parse_mb_per_s", float64(e.doc.xmlBytes)/(1<<20)/parse.Seconds(), "MiB/s", 1)

	scheme, err := plabel.NewScheme(xmltree.DistinctTags(tree))
	if err != nil {
		return err
	}
	labeler, nodes := scheme.NewLabeler(), 0
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		if _, err := labeler.Enter(n.Tag); err != nil {
			return err
		}
		nodes++
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		labeler.Leave()
		return nil
	}
	begin = time.Now()
	if err := walk(tree); err != nil {
		return err
	}
	r.set("plabel.label_ns_per_node", float64(time.Since(begin).Nanoseconds())/float64(nodes), "ns", nodes)
	tree = nil

	var format time.Duration
	for _, kind := range []relstore.Clustering{relstore.ClusterPLabel, relstore.ClusterTag} {
		pf, err := pager.OpenConfig(filepath.Join(e.dir, fmt.Sprintf("probe-rel%d.pg", kind)), pager.Config{})
		if err != nil {
			return err
		}
		begin := time.Now()
		_, err = relstore.BuildFormat(pf, kind, recs, relstore.FormatColumnar)
		if cerr := pf.Close(); err == nil {
			err = cerr
		}
		format += time.Since(begin)
		if err != nil {
			return err
		}
	}
	r.set("relstore.build_krecs_per_s", 2*float64(len(recs))/1000/format.Seconds(), "1000/s", 2*len(recs))

	begin = time.Now()
	cst, err := core.BuildFromFile(e.doc.xmlPath, core.Options{Dir: filepath.Join(e.dir, "probe-core")})
	if err != nil {
		return err
	}
	spFile, sdFile := cst.SP().File(), cst.SD().File()
	if err := cst.Close(); err != nil {
		return err
	}
	whole := time.Since(begin)
	written := spFile.Stats().BytesWrite + sdFile.Stats().BytesWrite
	r.set("pager.bytes_written_per_doc_byte", float64(written)/float64(e.doc.xmlBytes), "ratio", 1)
	r.set("core.shred_share", 1-ratio(float64(format), float64(whole)), "ratio", 1)

	memFactor := 2
	if e.cfg.Quick {
		memFactor = 1
	}
	small := datagen.Auction(datagen.Options{Seed: e.cfg.Seed, Factor: memFactor})
	begin = time.Now()
	mst, err := core.BuildFromTree(small, core.Options{})
	if err != nil {
		return err
	}
	took := time.Since(begin)
	r.set("core.build_mem_knodes_per_s", float64(mst.NodeCount())/1000/took.Seconds(), "1000/s", 1)
	return mst.Close()
}

// probeServer sends the operations through an in-process blasd, open
// loop at a low fixed rate with two connections, for d.
func (e *env) probeServer(dir string, d time.Duration) error {
	st, err := blas.Open(e.opts(dir))
	if err != nil {
		return err
	}
	defer st.Close()
	served := serveStore(st)
	defer served.close()
	client, err := newLoadClient(served.http.URL, e.ops, e.oracle)
	if err != nil {
		return err
	}
	defer client.close()
	rate := probeRate
	if e.cfg.Quick {
		rate *= 10
	}
	var stream []int
	if e.spec.name == "serve_open" {
		rate = serveRates[0]
		stream = zipfStream(e.rnd, len(e.ops), int(rate*d.Seconds())+len(e.ops))
	} else {
		// Two passes at least, so every operation is executed once and
		// answered from the result cache once.
		stream = make([]int, max(int(rate*d.Seconds()), 2*len(e.ops)))
		for i := range stream {
			stream[i] = i % len(e.ops)
		}
	}
	load := client.openLoop(stream, rate)
	e.account(load)

	var overhead, hits durations
	var bodyBytes, matches int
	for _, rp := range load.replies {
		if rp.cached {
			hits = append(hits, rp.roundTrip)
		} else {
			overhead = append(overhead, rp.roundTrip-rp.elapsed)
		}
		bodyBytes += rp.bodyBytes
		matches += rp.matches
	}
	m := served.srv.Metrics()
	r := e.res
	r.set("server.overhead_us", us(overhead.mean()), "us", len(overhead))
	r.set("server.cache_hit_us", us(hits.mean()), "us", len(hits))
	r.set("server.resp_bytes_per_match", ratio(float64(bodyBytes), float64(matches)), "bytes", matches)
	r.set("server.result_cache_hit_ratio", ratio(float64(m.ResultCache.Hits), float64(m.ResultCache.Hits+m.ResultCache.Misses)), "ratio", int(m.ResultCache.Hits+m.ResultCache.Misses))
	r.set("server.plan_cache_hit_ratio", ratio(float64(m.PlanCache.Hits), float64(m.PlanCache.Hits+m.PlanCache.Misses)), "ratio", int(m.PlanCache.Hits+m.PlanCache.Misses))
	// Two connections never reach the admission limit or the parallelism
	// budget, so these stay zero; they are printed, not declared.
	r.info("server.rejected_share", ratio(float64(m.Rejected429), float64(m.Admitted+m.Rejected429)), "ratio", int(m.Admitted+m.Rejected429))
	r.info("server.clamped_share", ratio(float64(m.Clamped), float64(m.Admitted)), "ratio", int(m.Admitted))
	r.set("loadgen.late_p95_ms", ms(load.late.percentile(95)), "ms", len(load.late))
	return nil
}
