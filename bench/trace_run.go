package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/tabula-db/tabula/internal/server"
)

const (
	// tracedServeShare is the share of -seconds a traced run spends on its
	// socket phase; the rest of the budget goes to the replays.
	tracedServeShare = 0.4
	passAppends      = 20  // batches of the sequential append pass
	primeCells       = 500 // validators held when the append pass starts
)

// series names of GET /v1/metrics the traced run reads.
const (
	mExecSeconds   = `tabula_http_request_duration_seconds_sum{route="/v1/exec"}`
	mBuildTotal    = `tabula_build_stage_seconds_sum{stage="build_total"}`
	mQuerySeconds  = `tabula_http_request_duration_seconds_sum{route="/v1/query"}`
	mQueryCount    = `tabula_http_request_duration_seconds_count{route="/v1/query"}`
	mAppendSeconds = `tabula_append_duration_seconds_sum{cube="` + cubeName + `"}`
	mAppendCount   = `tabula_append_duration_seconds_count{cube="` + cubeName + `"}`
)

// scraped is one GET /v1/metrics. A series the benchmark expects and the
// server does not expose is an error, not a zero.
type scraped struct {
	series  map[string]float64
	missing map[string]bool
}

func (s *scraped) get(name string) float64 {
	v, ok := s.series[name]
	if !ok {
		s.missing[name] = true
	}
	return v
}

// reads sums a per-route family over the two read routes. For the request
// counter, class picks one status class, or every class when empty.
func (s *scraped) reads(family, class string) float64 {
	var sum float64
	for _, route := range kindPath {
		if family != "tabula_http_requests_total" {
			sum += s.get(family + `{route="` + route + `"}`)
			continue
		}
		for _, c := range [...]string{"2xx", "3xx", "4xx", "5xx"} {
			if class == "" || class == c {
				sum += s.get(family + `{code="` + c + `",route="` + route + `"}`)
			}
		}
	}
	return sum
}

// scrapeMetrics reads GET /v1/metrics into a map from series (name plus its
// label set, exactly as exposed) to value.
func (e *env) scrapeMetrics(missing map[string]bool) (*scraped, error) {
	text, err := e.getBytes("/v1/metrics")
	if err != nil {
		return nil, err
	}
	s := &scraped{series: make(map[string]float64), missing: missing}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/v1/metrics: %q: %w", line, err)
		}
		s.series[line[:i]] = v
	}
	return s, nil
}

// cacheDoc is GET /v1/cache.
type cacheDoc struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Shared    int64 `json:"shared"`
	Evictions int64 `json:"evictions"`
}

// runTraced is the per-layer run. It sets the system up once, runs a short
// socket phase to read the server's own counters over real traffic, then
// replays the same seeded inputs in process — the read schedule through the
// handler, DB.Do and the cube; the build stage by stage — with a span around
// every call into a layer, and finally appends on an otherwise idle server.
func runTraced(w *workload, seed int64, seconds float64, sz scale, tr *tracer) (*result, error) {
	res := &result{metrics: make(map[string]metric)}
	serveSeconds := seconds * tracedServeShare
	e, _, buildS, err := setUp(w, seed, sz, serveSeconds, true)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*result, error) { return nil, closeAfter(e, err) }
	ih := newInputHasher()
	ih.table(e.table)
	ih.traffic(e.preds, e.traffic)

	// Socket phase, bracketed by the server's counters and the runtime's.
	missing := make(map[string]bool)
	before, err := e.scrapeMetrics(missing)
	if err != nil {
		return fail(err)
	}
	var cacheBefore, cacheAfter cacheDoc
	if err := e.getJSON("/v1/cache", &cacheBefore); err != nil {
		return fail(err)
	}
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	out, err := e.serve(serveSeconds, ih)
	if err != nil {
		return fail(err)
	}
	runtime.ReadMemStats(&memAfter)
	after, err := e.scrapeMetrics(missing)
	if err != nil {
		return fail(err)
	}
	if err := e.getJSON("/v1/cache", &cacheAfter); err != nil {
		return fail(err)
	}
	res.facts = e.facts(ih)
	delta := func(series string) float64 { return after.get(series) - before.get(series) }
	readDelta := func(family, class string) float64 { return after.reads(family, class) - before.reads(family, class) }

	// The build the server ran in set-up, seen through its own instruments.
	execS, buildTotalS := before.get(mExecSeconds), before.get(mBuildTotal)
	res.set("http.exec_overhead_ms", (buildS-execS)*1e3, "ms")
	res.set("tabula.exec_overhead_ms", (execS-buildTotalS)*1e3, "ms")

	lookups := float64(cacheAfter.Hits-cacheBefore.Hits) + float64(cacheAfter.Misses-cacheBefore.Misses) + float64(cacheAfter.Shared-cacheBefore.Shared)
	res.set("respcache.lookups", lookups, "count")
	res.set("respcache.hit_ratio", ratio(float64(cacheAfter.Hits-cacheBefore.Hits), lookups), "ratio")
	res.set("respcache.evictions", float64(cacheAfter.Evictions-cacheBefore.Evictions), "count")
	res.set("respcache.coalesced", float64(cacheAfter.Shared-cacheBefore.Shared), "count")
	res.set("respcache.bytes", float64(cacheAfter.Bytes), "bytes")
	res.set("respcache.entries", float64(cacheAfter.Entries), "count")
	reads := readDelta("tabula_http_requests_total", "")
	res.set("server.not_modified_ratio", ratio(readDelta("tabula_http_requests_total", "3xx"), reads), "ratio")
	res.set("server.resp_bytes_per_req", ratio(readDelta("tabula_http_response_bytes_total", ""), reads), "bytes")
	res.set("obs.http_mean_us", ratio(delta(mQuerySeconds), delta(mQueryCount))*1e6, "us")
	res.set("runtime.mallocs_per_req", ratio(float64(memAfter.Mallocs-memBefore.Mallocs), float64(out.sent+out.closedOK)), "count")
	res.set("runtime.gc_pause_ms_total", float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs)/1e6, "ms")
	lateP99 := percentile(out.lateMS, 0.99)
	res.set("loadgen.late_p99_ms", lateP99, "ms")
	res.set("loadgen.sent", float64(out.sent), "count")
	res.generatorBound = lateP99 > 1
	// Tail latencies of the socket phase. They were end-to-end metrics until
	// ten-seed runs put their spread at 20–130% of their median; a metric
	// that cannot hold a bound is reported here without one.
	res.set("diag.query_p99_ms", percentile(out.latency[kQuery], 0.99), "ms")
	res.set("diag.viewport_p95_ms", percentile(out.latency[kViewport], 0.95), "ms")

	// Serve replay: untraced for the numbers, traced for the spans.
	reqs := e.traffic.paced
	if len(reqs) > replayRequests {
		reqs = reqs[:replayRequests]
	}
	plain, err := e.replayPass(e.srv, reqs, nil, true)
	if err != nil {
		return fail(err)
	}
	if _, err := e.replayPass(e.srv, reqs, tr, true); err != nil {
		return fail(err)
	}
	handlerP50 := percentile(plain.handler[kQuery], 0.5)
	res.set("server.handler_us_p50", handlerP50, "us")
	res.set("server.viewport_handler_us_p50", percentile(plain.handler[kViewport], 0.5), "us")
	res.set("tabula.do_us_p50", percentile(plain.do[kQuery], 0.5), "us")
	res.set("tabula.do_batch_us_p50", percentile(plain.do[kViewport], 0.5), "us")
	res.set("core.query_us_p50", percentile(plain.core[kQuery], 0.5), "us")
	res.set("core.batch_us_p50", percentile(plain.core[kViewport], 0.5), "us")
	res.set("server.self_us_p50", handlerP50-percentile(plain.do[kQuery], 0.5), "us")
	res.set("http.transport_us_p50", out.p50[kQuery]*1e3-handlerP50, "us")

	// Overheads are a few percent of a few microseconds, so each pair is
	// measured interleaved, request by request. Tracing: the handler with
	// and without a span recorded around it. Metrics: twin servers over the
	// same DB with and without the HTTP metrics layer, after one untimed
	// pass each so that their caches hold the same entries.
	scratch := newTracer()
	ab, err := e.abHandlerP50(reqs, [2]func(http.ResponseWriter, *http.Request){
		e.srv.ServeHTTP,
		func(w http.ResponseWriter, r *http.Request) {
			id := scratch.start("server.ServeHTTP", -1, -1)
			e.srv.ServeHTTP(w, r)
			scratch.end(id)
		},
	})
	if err != nil {
		return fail(err)
	}
	res.set("trace.overhead_pct", 100*(ab[1]-ab[0])/ab[0], "%")
	bare, metered := newTwin(e, false), newTwin(e, true)
	for _, twin := range []*server.Server{bare, metered} {
		if _, err := e.replayPass(twin, reqs, nil, false); err != nil {
			return fail(err)
		}
	}
	if ab, err = e.abHandlerP50(reqs, [2]func(http.ResponseWriter, *http.Request){bare.ServeHTTP, metered.ServeHTTP}); err != nil {
		return fail(err)
	}
	res.set("obs.overhead_pct", 100*(ab[1]-ab[0])/ab[0], "%")

	cells, err := e.distinctPayloads()
	if err != nil {
		return fail(err)
	}
	penalty, gzFirst, idFirst, bodySizes := e.missPenalties(cells)
	res.set("server.miss_penalty_us_p50", percentile(penalty, 0.5), "us")
	res.set("server.gzip_penalty_us_p50", percentile(gzFirst, 0.5)-percentile(idFirst, 0.5), "us")
	missNS, hitNS, err := cacheGetNS(w.cacheBytes, cells, bodySizes)
	if err != nil {
		return fail(err)
	}
	res.set("respcache.get_miss_ns", missNS, "ns")
	res.set("respcache.get_hit_ns", hitNS, "ns")

	// Build replay, on a table of its own: the served cube owns and grows
	// e.table.
	tbl, err := w.makeTable(sz)
	if err != nil {
		return fail(err)
	}
	bc, err := replayBuild(tr, w, tbl)
	if err != nil {
		return fail(err)
	}
	self := selfTimes(tr.spans)
	var replayMS, replaySelfMS float64
	for i, s := range tr.spans {
		if s.Name == spanReplay {
			replayMS, replaySelfMS = float64(s.End-s.Start)/1e6, float64(self[i])/1e6
		}
	}
	buildMS := tr.durMS(spanWholeBuild)
	res.set("engine.parse_ms", tr.durMS(spanParse), "ms")
	res.set("engine.encode_ms", tr.durMS(spanEncode), "ms")
	res.set("sampling.global_ms", tr.durMS(spanGlobal), "ms")
	res.set("loss.bind_ms", tr.durMS(spanBind), "ms")
	res.set("cube.dryrun_ms", tr.durMS(spanDryRun), "ms")
	res.set("cube.realrun_ms", tr.durMS(spanRealRun), "ms")
	res.set("sampling.greedy_ms", tr.durMS(spanGreedy), "ms")
	res.set("samgraph.join_ms", tr.durMS(spanJoin), "ms")
	res.set("samgraph.select_ms", tr.durMS(spanSelect), "ms")
	res.set("dataset.materialize_ms", tr.durMS(spanMaterialize), "ms")
	res.set("core.build_ms", buildMS, "ms")
	res.set("core.build_self_ms", replaySelfMS, "ms")
	res.set("replay.build_gap_pct", 100*(replayMS-buildMS)/buildMS, "%")
	res.set("obs.stage_disagreement_pct", stageDisagreementPct(tr, before), "%")
	res.set("cube.cells", float64(bc.cells), "count")
	res.set("cube.iceberg_cells", float64(bc.icebergCells), "count")
	res.set("samgraph.pairs_tested", float64(bc.pairsTested), "count")
	res.set("samgraph.edges", float64(bc.edges), "count")
	res.set("samgraph.pair_ns", ratio(tr.durMS(spanJoin)*1e6, float64(bc.pairsTested)), "ns")
	res.set("core.persisted_samples", float64(bc.persisted), "count")
	res.set("core.sample_table_bytes", float64(bc.sampleTableBytes), "bytes")
	res.set("core.cube_table_bytes", float64(bc.cubeTableBytes), "bytes")
	res.set("core.global_sample_bytes", float64(bc.globalSampleBytes), "bytes")
	res.set("sampling.sample_rows_total", float64(bc.sampleRows), "count")

	acked, err := e.appendPass(res, out, ih, missing)
	if err != nil {
		return fail(err)
	}
	if len(missing) > 0 {
		names := make([]string, 0, len(missing))
		for name := range missing {
			names = append(names, name)
		}
		sort.Strings(names)
		return fail(fmt.Errorf("/v1/metrics does not expose %s", strings.Join(names, ", ")))
	}
	res.facts.InputsSHA256 = ih.sum()

	version := e.check(res, out.ackedAppends()+acked, sz.checkCells)
	res.set("core.version_end", float64(version), "count")
	return res, e.close()
}

// appendPass measures the maintenance path on an otherwise idle server: it
// primes a dashboard with validators for primeCells cells, posts passAppends
// batches one after the other, and revalidates. It returns the number of
// acknowledged batches.
func (e *env) appendPass(res *result, out *serveOutcome, ih *inputHasher, missing map[string]bool) (int, error) {
	c := e.conns[0]
	c.revalidate = true
	primed := e.pool
	if len(primed) > primeCells {
		primed = primed[:primeCells]
	}
	for _, qi := range primed {
		c.read(request{kind: kQuery, key: qi})
	}

	before, err := e.scrapeMetrics(missing)
	if err != nil {
		return 0, err
	}
	first := len(out.acks) // batch numbers continue after the socket phase's
	var rtt []float64
	var cells, rebuilt, shards []float64
	acked := 0
	for i := 0; i < passAppends; i++ {
		body, err := appendBody(e.seed, first+i, e.preds.domains)
		if err != nil {
			return acked, err
		}
		ih.bytes(body)
		ack, ok := c.postAppend(body)
		if !ok {
			continue
		}
		rtt = append(rtt, ack.roundTripMS)
		acked++
		cells = append(cells, float64(ack.CellsTouched))
		rebuilt = append(rebuilt, float64(ack.SamplesRebuilt))
		shards = append(shards, float64(len(ack.ShardsTouched)))
	}
	after, err := e.scrapeMetrics(missing)
	if err != nil {
		return acked, err
	}
	sent, kept := c.revalidations, c.notModified
	for _, qi := range primed {
		c.read(request{kind: kQuery, key: qi})
	}

	coreMS := 1e3 * ratio(after.get(mAppendSeconds)-before.get(mAppendSeconds), after.get(mAppendCount)-before.get(mAppendCount))
	res.set("core.append_ms_mean", coreMS, "ms")
	res.set("server.append_overhead_ms_mean", mean(rtt)-coreMS, "ms")
	res.set("core.append_cells_touched", mean(cells), "count")
	res.set("core.append_samples_rebuilt", mean(rebuilt), "count")
	res.set("core.append_shards_touched", mean(shards), "count")
	res.set("respcache.retained_304_ratio", ratio(float64(c.notModified-kept), float64(c.revalidations-sent)), "ratio")
	// A workload that appends beside its reads reports those round trips;
	// the others report the idle-server pass.
	if len(out.appendMS) > 0 {
		rtt = out.appendMS
	}
	res.set("diag.append_p50_ms", percentile(rtt, 0.5), "ms")
	res.set("diag.append_p90_ms", percentile(rtt, 0.9), "ms")
	return acked, nil
}
